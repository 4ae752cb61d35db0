"""A simulated block device for the I/O model.

This is the substrate on which every index in this package stores its
bits.  The device is a flat, bit-addressed, append-allocated store
divided into blocks of ``block_bits`` bits (the paper's ``B``, measured
in bits — see §1.4).  Every read or write touches a range of blocks;
each touched block that is not resident in the internal-memory LRU cache
(capacity ``mem_blocks`` blocks, i.e. ``M = mem_blocks * B`` bits) costs
one block transfer, counted in :class:`repro.iomodel.stats.IOStats`.

The data is *really stored*: reads hand back the actual bytes that were
written, through a :class:`repro.bits.bitio.BitReader`.  This keeps the
accounting honest — a structure cannot claim to answer a query without
reading the blocks its answer lives in.

Beside the block cache, the runtime side can hold a memo of decoded
gap lists (:meth:`Disk.read_gaps`, switched on by
:meth:`Disk.memoize_gaps`): the static indexes' bitmaps never change,
so a list decoded once need not be decoded again.  The memo saves CPU
only.  A hit charges exactly what the read it replaces charges — the
same blocks through the block cache, the same ``bits_read``, the same
latency sleeps — and serves only lists inside the extent it charged,
so the sentence above still holds.  Like the block cache, the memo is
never part of a :class:`DiskState`; any mutation of the device and
:meth:`Disk.flush_cache` empty it.  It keeps one array per stored list
it has served, at most 8 bytes per position, so it never outgrows the
decoded size of the lists stored on the disk.

Design notes
------------
* Allocations are byte-aligned (a waste of at most 7 bits per extent)
  so that bulk writes are plain ``bytearray`` splices.  Block-aligned
  allocation is available for structures that manage whole blocks, such
  as the buffered trees of §4.
* Writes are write-allocate: touching a non-resident block costs one
  transfer and makes it resident; further reads *and writes* to a
  resident block are free (the I/O model edits blocks in internal
  memory).  Structures that the paper allows to keep a block pinned in
  internal memory (e.g. the root buffer of §4.1.1) simply keep that
  state in Python objects and never write it to disk, matching the
  paper's accounting.
"""

from __future__ import annotations

import struct
import time
from array import array
from dataclasses import dataclass
from typing import Iterable, Sequence

from ..bits.bitio import BitReader
from ..bits.ebitmap import decode_gaps
from ..errors import InvalidParameterError, StorageError
from .cache import LRUBlockCache
from .stats import IOStats

DEFAULT_BLOCK_BITS = 1024
DEFAULT_MEM_BLOCKS = 64


@dataclass(frozen=True)
class Extent:
    """A contiguous range of bits on the device."""

    offset: int
    nbits: int

    @property
    def end(self) -> int:
        return self.offset + self.nbits


@dataclass
class DiskState:
    """The picklable half of a :class:`Disk`: geometry plus content.

    A disk separates cleanly into *state* — what must cross a process
    boundary to reconstruct the device — and *runtime* — the LRU
    residency set, the I/O counters, and the latency clock, which are
    local to whichever process is serving.  ``snapshot_state()``
    captures the former; :meth:`Disk.from_state` rehydrates a runtime
    handle around it (cold cache, fresh counters) in the receiving
    process.
    """

    block_bits: int
    mem_blocks: int
    data: bytes
    alloc_bits: int
    latency_s: float = 0.0

    #: Flat-layout header: geometry ints, the latency double, and the
    #: page payload's byte length, immediately followed by the raw
    #: pages.  This is the shared-memory wire form — a segment holds
    #: ``pack()`` output and ``unpack`` rehydrates without copying the
    #: page bytes (the ``data`` field is a memoryview into the buffer,
    #: which ``Disk.from_state`` copies into its own bytearray).
    _HEADER = struct.Struct("<qqqdq")

    def pack(self) -> bytes:
        """Serialize to the flat header + raw pages layout."""
        return self._HEADER.pack(
            self.block_bits,
            self.mem_blocks,
            self.alloc_bits,
            self.latency_s,
            len(self.data),
        ) + bytes(self.data)

    @classmethod
    def unpack(cls, buf) -> "DiskState":
        """Rehydrate from :meth:`pack` output (bytes or a buffer).

        The returned state's ``data`` is a zero-copy view into
        ``buf``; hold the underlying buffer (e.g. the attached
        shared-memory segment) alive until the state is consumed.
        """
        view = memoryview(buf)
        header = cls._HEADER
        if len(view) < header.size:
            raise StorageError("packed DiskState shorter than its header")
        block_bits, mem_blocks, alloc_bits, latency_s, nbytes = header.unpack(
            view[: header.size]
        )
        if len(view) < header.size + nbytes:
            raise StorageError("packed DiskState truncated")
        return cls(
            block_bits=block_bits,
            mem_blocks=mem_blocks,
            data=view[header.size : header.size + nbytes],
            alloc_bits=alloc_bits,
            latency_s=latency_s,
        )


class Disk:
    """Bit-addressed block storage with exact I/O accounting.

    Parameters
    ----------
    block_bits:
        Block size ``B`` in bits; must be a positive multiple of 8.
    mem_blocks:
        Internal memory size in blocks (``M / B``).  0 disables caching.
    stats:
        Optional shared :class:`IOStats`; a fresh one is created if
        omitted.
    latency_s:
        Optional per-transfer latency model: every block transfer
        (cache miss) sleeps this many seconds, *after* the counters
        are updated and outside any lock.  The sleep releases the GIL,
        so executors that overlap shard fetches — threads, worker
        processes, the prefetching gather — realize genuine overlap
        against the simulated device instead of serializing behind
        pure-Python bookkeeping.  0.0 (the default) disables the model
        and preserves the historical instant-transfer behavior.
    """

    def __init__(
        self,
        block_bits: int = DEFAULT_BLOCK_BITS,
        mem_blocks: int = DEFAULT_MEM_BLOCKS,
        stats: IOStats | None = None,
        latency_s: float = 0.0,
    ) -> None:
        if block_bits <= 0 or block_bits % 8 != 0:
            raise InvalidParameterError("block_bits must be a positive multiple of 8")
        if latency_s < 0:
            raise InvalidParameterError("latency_s must be >= 0")
        self.block_bits = block_bits
        self.stats = stats if stats is not None else IOStats()
        self.cache = LRUBlockCache(mem_blocks)
        self.latency_s = latency_s
        #: Optional :class:`repro.obs.MetricsRegistry` hook, set by the
        #: owner (e.g. ``QueryEngine.add_column`` when the engine has a
        #: registry attached).  ``None`` — the default — costs one
        #: attribute check per transfer batch and nothing else.
        self.metrics = None
        #: Decoded gap lists, ``(bit offset, count) -> (stop bit,
        #: positions array)``; ``None`` (the default) keeps no memo.
        self._gaps: dict | None = None
        self._data = bytearray()
        self._alloc_bits = 0

    # ------------------------------------------------------------------
    # State snapshot / rehydration (the picklable half)
    # ------------------------------------------------------------------

    def snapshot_state(self) -> DiskState:
        """Capture the picklable device state (geometry + content).

        Runtime artifacts — cache residency, counters — are *not*
        part of the state: a rehydrated disk starts cold, exactly like
        a remote worker that just received the bits.
        """
        return DiskState(
            block_bits=self.block_bits,
            mem_blocks=self.cache.capacity,
            data=bytes(self._data),
            alloc_bits=self._alloc_bits,
            latency_s=self.latency_s,
        )

    @classmethod
    def from_state(
        cls,
        state: DiskState,
        stats: IOStats | None = None,
        copy: bool = True,
    ) -> "Disk":
        """Rebuild a runtime handle around a shipped :class:`DiskState`.

        The returned disk serves the same bits at the same offsets;
        its cache is cold and its counters start at zero (or share the
        given ``stats``), so the receiving process accounts its own
        I/O from scratch.

        With ``copy=False`` the disk adopts ``state.data`` as its
        backing buffer *without materializing it*: when the state was
        unpacked from an ``mmap``-ed snapshot section, reads page
        bytes in on demand through the OS while the simulated-device
        accounting stays exactly as before.  The first mutation
        (``alloc`` / ``write_bytes`` / ``write_bits``) copies the
        buffer into a private ``bytearray``, so a restored index that
        is later updated behaves identically to a copied one.
        """
        disk = cls(
            block_bits=state.block_bits,
            mem_blocks=state.mem_blocks,
            stats=stats,
            latency_s=state.latency_s,
        )
        if copy:
            disk._data = bytearray(state.data)
        elif isinstance(state.data, memoryview):
            disk._data = state.data
        else:
            disk._data = memoryview(state.data)
        disk._alloc_bits = state.alloc_bits
        return disk

    def _materialize(self) -> None:
        # Every mutator lands here first.  Decoded gap lists may no
        # longer match the bytes, so the memo forgets them; and
        # lazily adopted (mmap-backed) buffers are copied on write, so
        # reads stay zero-copy until the disk actually changes.
        if self._gaps:
            self._gaps.clear()
        if not isinstance(self._data, bytearray):
            self._data = bytearray(self._data)

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------

    @property
    def size_bits(self) -> int:
        """Total bits allocated so far."""
        return self._alloc_bits

    @property
    def size_blocks(self) -> int:
        """Number of blocks spanned by the allocated region."""
        return (self._alloc_bits + self.block_bits - 1) // self.block_bits

    def alloc(self, nbits: int, *, align_block: bool = False) -> int:
        """Reserve ``nbits`` bits and return the starting bit offset.

        Allocations are byte-aligned; with ``align_block=True`` the
        extent starts on a block boundary (used by structures that
        manage whole blocks, e.g. buffers and block chains).
        """
        if nbits < 0:
            raise InvalidParameterError("cannot allocate a negative number of bits")
        self._materialize()
        if align_block:
            rem = self._alloc_bits % self.block_bits
            if rem:
                self._alloc_bits += self.block_bits - rem
        else:
            rem = self._alloc_bits % 8
            if rem:
                self._alloc_bits += 8 - rem
        offset = self._alloc_bits
        self._alloc_bits += nbits
        needed = (self._alloc_bits + 7) // 8
        if needed > len(self._data):
            self._data.extend(b"\x00" * (needed - len(self._data)))
        return offset

    def alloc_block(self) -> int:
        """Reserve one whole block; returns its starting bit offset."""
        return self.alloc(self.block_bits, align_block=True)

    def block_of(self, bit_offset: int) -> int:
        """The block id containing ``bit_offset``."""
        return bit_offset // self.block_bits

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------

    def _touch(self, first_block: int, last_block: int, *, write: bool) -> None:
        # Cache-resident blocks absorb both reads and writes: the I/O
        # model edits an in-memory block for free and pays one transfer
        # to bring it in / flush it out.  We charge on the miss (write-
        # allocate); with mem_blocks=0 every access is a transfer.
        stats = self.stats
        cache = self.cache
        misses = 0
        if write:
            for bid in range(first_block, last_block + 1):
                if not cache.access(bid):
                    stats.writes += 1
                    misses += 1
        else:
            for bid in range(first_block, last_block + 1):
                if not cache.access(bid):
                    stats.reads += 1
                    misses += 1
        if misses:
            if self.metrics is not None:
                self.metrics.inc(
                    "io.write_transfers" if write else "io.read_transfers",
                    misses,
                )
            if self.latency_s:
                # The latency model: one sleep per transfer, taken
                # after the accounting and outside any lock, so
                # concurrent shard runtimes overlap their transfer
                # waits exactly as real devices would (time.sleep
                # releases the GIL).
                time.sleep(misses * self.latency_s)

    def touch_range(self, offset: int, nbits: int, *, write: bool = False) -> None:
        """Charge the I/O cost of touching ``[offset, offset+nbits)``.

        Used for directory structures whose cost must be counted even
        when the caller keeps a decoded copy (e.g. tree-node records
        visited during a root-to-leaf descent).
        """
        if nbits <= 0:
            return
        B = self.block_bits
        self._touch(offset // B, (offset + nbits - 1) // B, write=write)
        if write:
            self.stats.bits_written += nbits
        else:
            self.stats.bits_read += nbits

    def touch_block(self, block_id: int, *, write: bool = False) -> None:
        """Charge the cost of touching one whole block by id."""
        self._touch(block_id, block_id, write=write)
        if write:
            self.stats.bits_written += self.block_bits
        else:
            self.stats.bits_read += self.block_bits

    def flush_cache(self) -> None:
        """Evict everything from internal memory (run the next query cold).

        The memo of decoded gap lists goes too, so a cold query decodes
        its bitmaps again as well as transferring their blocks.
        """
        self.cache.clear()
        if self._gaps:
            self._gaps.clear()

    def memoize_gaps(self, on: bool = True) -> None:
        """Start an empty memo for :meth:`read_gaps`; ``on=False`` drops it."""
        self._gaps = {} if on else None

    @property
    def memoized_gaps(self) -> int | None:
        """How many decoded gap lists the memo holds; ``None`` when off."""
        return None if self._gaps is None else len(self._gaps)

    # ------------------------------------------------------------------
    # Bulk byte-aligned I/O
    # ------------------------------------------------------------------

    def write_bytes(self, offset: int, data: bytes, nbits: int) -> None:
        """Write ``nbits`` bits of ``data`` at byte-aligned ``offset``."""
        if offset % 8 != 0:
            raise StorageError("write_bytes requires a byte-aligned offset")
        if offset + nbits > self._alloc_bits:
            raise StorageError("write past the end of the allocated region")
        nbytes = (nbits + 7) // 8
        if len(data) < nbytes:
            raise StorageError("data shorter than the declared bit length")
        if nbits == 0:
            return
        self._materialize()
        start = offset // 8
        self._data[start : start + nbytes] = data[:nbytes]
        B = self.block_bits
        self._touch(offset // B, (offset + nbits - 1) // B, write=True)
        self.stats.bits_written += nbits

    def store(self, data: bytes, nbits: int, *, align_block: bool = False) -> Extent:
        """Allocate space for ``nbits`` bits, write them, return the extent."""
        offset = self.alloc(nbits, align_block=align_block)
        self.write_bytes(offset, data, nbits)
        return Extent(offset, nbits)

    def reader(self, offset: int, nbits: int) -> BitReader:
        """Read ``[offset, offset+nbits)`` and return a bit reader over it.

        The whole extent is charged up front (the query algorithms in the
        paper always consume entire compressed bitmaps or whole blocks).
        """
        self._charge_read(offset, nbits)
        return self._window(offset, nbits)

    def read_gaps(
        self, offset: int, nbits: int, lists: Iterable[tuple[int, int]]
    ) -> list[Sequence[int]]:
        """Read ``[offset, offset+nbits)`` and decode gap lists stored in it.

        Charges the extent exactly as :meth:`reader` does, then returns
        the ascending positions of each requested ``(bit offset,
        count)`` list, as :func:`~repro.bits.ebitmap.decode_gaps` would
        decode them there.  With the memo on (:meth:`memoize_gaps`) a
        list is decoded from the device bytes once and kept as a typed
        array; later reads get a copy, so no caller can change what the
        next one reads.  A memoized list that does not lie inside the
        charged extent is not served: it is decoded from the extent,
        which fails as it would without a memo.
        """
        self._charge_read(offset, nbits)
        memo = self._gaps
        end = offset + nbits
        out: list[Sequence[int]] = []
        reader = None
        for at, count in lists:
            if memo is not None:
                hit = memo.get((at, count))
                if hit is not None and offset <= at and hit[0] <= end:
                    out.append(hit[1][:])
                    continue
            if reader is None:
                reader = self._window(offset, nbits)
            reader.seek(at - offset)
            positions = decode_gaps(reader, count)
            if memo is not None:
                stop = offset + reader.tell()
                memo[(at, count)] = (stop, _packed(positions))
            out.append(positions)
        return out

    def _charge_read(self, offset: int, nbits: int) -> None:
        if nbits < 0 or offset < 0 or offset + nbits > self._alloc_bits:
            raise StorageError(
                f"read [{offset}, {offset + nbits}) outside allocated "
                f"region of {self._alloc_bits} bits"
            )
        if nbits:
            B = self.block_bits
            self._touch(offset // B, (offset + nbits - 1) // B, write=False)
            self.stats.bits_read += nbits

    def _window(self, offset: int, nbits: int) -> BitReader:
        # Copy only the extent's covering bytes, not the whole device:
        # the reader's window is position-relative, so shifting the
        # origin is invisible to every consumer (including the fast
        # kernels, which read the window triple).  On an mmap-backed
        # lazy disk this is what makes reads page on demand.
        first = offset >> 3
        stop = (offset + nbits + 7) >> 3
        return BitReader(
            bytes(self._data[first:stop]),
            bit_offset=offset - (first << 3),
            bit_length=nbits,
        )

    def read_extent(self, extent: Extent) -> BitReader:
        """Shorthand for :meth:`reader` on an :class:`Extent`."""
        return self.reader(extent.offset, extent.nbits)

    # ------------------------------------------------------------------
    # Sub-byte random access
    # ------------------------------------------------------------------

    def read_bits(self, offset: int, nbits: int) -> int:
        """Read ``nbits`` bits at any bit offset as an unsigned integer."""
        if nbits == 0:
            return 0
        if offset < 0 or offset + nbits > self._alloc_bits:
            raise StorageError("read outside the allocated region")
        B = self.block_bits
        self._touch(offset // B, (offset + nbits - 1) // B, write=False)
        self.stats.bits_read += nbits
        first = offset >> 3
        end = offset + nbits
        last = (end - 1) >> 3
        chunk = int.from_bytes(self._data[first : last + 1], "big")
        right = ((last + 1) << 3) - end
        return (chunk >> right) & ((1 << nbits) - 1)

    def write_bits(self, offset: int, value: int, nbits: int) -> None:
        """Write ``value`` into ``nbits`` bits at any bit offset.

        Performs a read-modify-write of the covering bytes; the I/O
        charge is one transfer per touched non-resident block (see
        ``_touch``).
        """
        if nbits == 0:
            return
        if value < 0 or value >> nbits:
            raise StorageError("value does not fit in the declared bit width")
        if offset < 0 or offset + nbits > self._alloc_bits:
            raise StorageError("write outside the allocated region")
        self._materialize()
        first = offset >> 3
        end = offset + nbits
        last = (end - 1) >> 3
        width = last - first + 1
        chunk = int.from_bytes(self._data[first : last + 1], "big")
        right = ((last + 1) << 3) - end
        mask = ((1 << nbits) - 1) << right
        chunk = (chunk & ~mask) | (value << right)
        self._data[first : last + 1] = chunk.to_bytes(width, "big")
        B = self.block_bits
        self._touch(offset // B, (end - 1) // B, write=True)
        self.stats.bits_written += nbits


def _packed(positions: list[int]) -> array:
    """``positions`` in the narrowest array type that holds them."""
    top = positions[-1] if positions else 0
    code = "H" if top < 1 << 16 else "I" if top < 1 << 32 else "q"
    return array(code, positions)
