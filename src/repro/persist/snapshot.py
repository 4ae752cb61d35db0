"""The snapshot store: one versioned, checksummed ``*.snap`` per shard.

A snapshot is the durable form of one shard's
:class:`~repro.engine.engine.QueryEngine` — every column's codes,
measured stats, backend verdict, version, and the *built index
structure itself* as flat device pages.  Restoring a snapshot is a
deserialization, never a rebuild: the advisor is not consulted, no
index is constructed, and the paper's structures come back as the
exact bits they were checkpointed as.

File layout (all little-endian, sections 8-byte aligned)::

    +--------------------------------------------------------------+
    | header: magic "RSNP", format u16, flags u16,                 |
    |         manifest_off u64, manifest_len u64, manifest_crc u32 |
    +--------------------------------------------------------------+
    | section 0 | section 1 | ...          (raw bytes, CRC'd)      |
    +--------------------------------------------------------------+
    | manifest: JSON                                               |
    +--------------------------------------------------------------+

The manifest carries a ``sections`` table of ``[offset, length,
crc32]`` triples; everything else references sections by index.  Per
column three kinds of section exist:

``codes``
    The column's logical string as a flat ``int64`` page (``None``
    holes encoded as ``-1``) — the same flattening the PR 8
    shared-memory transport uses.
``skeleton``
    The index structure pickled with every :class:`Disk` and
    :class:`IOStats` object *extracted* by reference
    (``persistent_id``), so the pickle holds only the pure-Python
    skeleton — directories, offsets, per-run metadata — while the
    device pages live in their own sections.
``disk data``
    One section per extracted device: its raw page bytes, with the
    geometry (``block_bits``, ``mem_blocks``, ``alloc_bits``,
    ``latency_s``) in the manifest.

Loading opens the file with ``mmap`` and rehydrates each device via
``Disk.from_state(..., copy=False)``: the page bytes stay a zero-copy
view into the mapping and fault in on demand, while the simulated
device keeps charging the exact same transfer counts.  Because
``index.stats`` and ``disk.stats`` may alias one :class:`IOStats`
(and do, for every registry backend), stats objects are extracted and
re-linked by identity too — the aliasing survives the round trip,
with counters restarting cold exactly like a shipped ``DiskState``.

Atomicity: writers emit to ``<path>.tmp``, ``fsync`` it, and
``rename`` over the destination, then ``fsync`` the directory — a
crash mid-write leaves either the old snapshot or none, never a torn
one.  Validation: the header checks magic/format, the manifest checks
its CRC, and ``verify=True`` (the default on restore paths) CRC32s
every section before anything is deserialized; any mismatch raises
:class:`repro.errors.CorruptSnapshot`.
"""

from __future__ import annotations

import io
import json
import mmap
import os
import pickle
import struct
import zlib
from array import array
from dataclasses import asdict

from ..engine.advisor import WorkloadStats
from ..engine.engine import EngineColumn, QueryEngine
from ..engine.registry import get_spec
from ..errors import CorruptSnapshot, InvalidParameterError
from ..iomodel.disk import Disk, DiskState
from ..iomodel.stats import IOStats

MAGIC = b"RSNP"
FORMAT_VERSION = 1

#: magic, format version, flags, manifest offset, manifest length,
#: manifest CRC32.
_HEADER = struct.Struct("<4sHHQQI")

_PICKLE_PROTOCOL = 4


def _crc(data) -> int:
    return zlib.crc32(data) & 0xFFFFFFFF


def fsync_dir(path: str) -> None:
    """Flush a directory entry (required after rename for durability)."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def flatten_codes(codes) -> bytes:
    """Codes as one flat ``int64`` page; ``None`` holes become ``-1``."""
    return array(
        "q", (-1 if c is None else c for c in codes)
    ).tobytes()


def unflatten_codes(buf) -> list:
    """Invert :func:`flatten_codes` (accepts any buffer)."""
    flat = array("q")
    flat.frombytes(bytes(buf))
    return [None if c < 0 else c for c in flat]


# ----------------------------------------------------------------------
# Skeleton extraction: pickle the structure, section the pages
# ----------------------------------------------------------------------


class _SkeletonPickler(pickle.Pickler):
    """Pickles an index with devices and counters lifted out by id.

    Each first-seen :class:`Disk` is appended to :attr:`disks` and
    replaced by ``("disk", i)``; each first-seen :class:`IOStats` by
    ``("stats", j)``.  A disk's own ``stats`` object registers with
    the same table, so the common ``index.stats is disk.stats``
    aliasing round-trips by construction.
    """

    def __init__(self, buf) -> None:
        super().__init__(buf, protocol=_PICKLE_PROTOCOL)
        self.disks: list[Disk] = []
        self.disk_stats: list[int] = []  # disks[i].stats -> stats key
        self.stats: list[IOStats] = []
        self._disk_ids: dict[int, int] = {}
        self._stats_ids: dict[int, int] = {}

    def _register_stats(self, obj: IOStats) -> int:
        key = self._stats_ids.get(id(obj))
        if key is None:
            key = len(self.stats)
            self._stats_ids[id(obj)] = key
            self.stats.append(obj)
        return key

    def persistent_id(self, obj):
        if isinstance(obj, Disk):
            i = self._disk_ids.get(id(obj))
            if i is None:
                i = len(self.disks)
                self._disk_ids[id(obj)] = i
                self.disks.append(obj)
                self.disk_stats.append(self._register_stats(obj.stats))
            return ("disk", i)
        if isinstance(obj, IOStats):
            return ("stats", self._register_stats(obj))
        return None


class _SkeletonUnpickler(pickle.Unpickler):
    """Re-links extracted devices and counters while unpickling.

    ``states`` maps disk index to its rehydrated :class:`DiskState`;
    ``stats_keys`` maps disk index to its stats-table key.  Both
    caches are per-load, so however many references the skeleton
    holds, each identity is rebuilt exactly once — aliasing is
    restored order-independently.
    """

    def __init__(self, buf, states, stats_keys, lazy: bool) -> None:
        super().__init__(buf)
        self._states = states
        self._stats_keys = stats_keys
        self._lazy = lazy
        self._disks: dict[int, Disk] = {}
        self._stats: dict[int, IOStats] = {}

    def persistent_load(self, pid):
        try:
            kind, key = pid
        except Exception:
            raise CorruptSnapshot(f"unknown persistent id {pid!r}") from None
        if kind == "stats":
            stats = self._stats.get(key)
            if stats is None:
                stats = self._stats[key] = IOStats()
            return stats
        if kind == "disk":
            disk = self._disks.get(key)
            if disk is None:
                try:
                    state = self._states[key]
                    stats = self.persistent_load(
                        ("stats", self._stats_keys[key])
                    )
                except (IndexError, KeyError):
                    raise CorruptSnapshot(
                        f"skeleton references missing device {key}"
                    ) from None
                disk = Disk.from_state(state, stats=stats, copy=not self._lazy)
                self._disks[key] = disk
            return disk
        raise CorruptSnapshot(f"unknown persistent id kind {kind!r}")


# ----------------------------------------------------------------------
# Writing
# ----------------------------------------------------------------------


class _SectionWriter:
    """Appends 8-aligned sections to an open file, tracking refs."""

    def __init__(self, fh) -> None:
        self._fh = fh
        self.sections: list[list[int]] = []

    def add(self, data) -> int:
        """Write one section; returns its index in the table."""
        fh = self._fh
        pad = (-fh.tell()) % 8
        if pad:
            fh.write(b"\x00" * pad)
        offset = fh.tell()
        view = memoryview(data)
        fh.write(view)
        self.sections.append([offset, len(view), _crc(view)])
        return len(self.sections) - 1


def _column_entry(column: EngineColumn, writer: _SectionWriter) -> dict:
    entry: dict = {
        "name": column.name,
        "backend": column.spec.name,
        "version": column.version,
        "stats": asdict(column.stats),
        "codes": writer.add(flatten_codes(column.codes)),
        "deferred": column.deferred,
        "skeleton": None,
        "disks": [],
    }
    if column.deferred:
        return entry
    buf = io.BytesIO()
    pickler = _SkeletonPickler(buf)
    pickler.dump(column._index)
    entry["skeleton"] = writer.add(buf.getvalue())
    entry["n_stats"] = len(pickler.stats)
    for disk, stats_key in zip(pickler.disks, pickler.disk_stats):
        state = disk.snapshot_state()
        entry["disks"].append(
            {
                "block_bits": state.block_bits,
                "mem_blocks": state.mem_blocks,
                "alloc_bits": state.alloc_bits,
                "latency_s": state.latency_s,
                "stats_key": stats_key,
                "data": writer.add(state.data),
            }
        )
    return entry


def write_shard_snapshot(
    path: str,
    engine: QueryEngine,
    *,
    io_latency_s: float = 0.0,
    cache_size: int | None = None,
    fsync: bool = True,
) -> dict:
    """Write one shard engine to ``path`` atomically; returns the manifest.

    Every column is captured as codes + stats + verdict + version,
    plus the built index's skeleton and device pages (deferred columns
    persist codes and verdict only — their restored twin stays
    deferred and builds lazily if ever touched locally).
    """
    if cache_size is None:
        cache_size = engine.cache.capacity
    manifest: dict = {
        "format": FORMAT_VERSION,
        "kind": "shard-engine",
        "cache_size": cache_size,
        "io_latency_s": io_latency_s,
        "columns": [],
        "sections": [],
    }
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as fh:
        fh.write(b"\x00" * _HEADER.size)
        writer = _SectionWriter(fh)
        for column in engine.columns.values():
            manifest["columns"].append(_column_entry(column, writer))
        manifest["sections"] = writer.sections
        pad = (-fh.tell()) % 8
        if pad:
            fh.write(b"\x00" * pad)
        manifest_off = fh.tell()
        manifest_bytes = json.dumps(manifest, sort_keys=True).encode()
        fh.write(manifest_bytes)
        fh.seek(0)
        fh.write(
            _HEADER.pack(
                MAGIC,
                FORMAT_VERSION,
                0,
                manifest_off,
                len(manifest_bytes),
                _crc(manifest_bytes),
            )
        )
        fh.flush()
        if fsync:
            os.fsync(fh.fileno())
    os.replace(tmp, path)
    if fsync:
        fsync_dir(os.path.dirname(os.path.abspath(path)))
    return manifest


# ----------------------------------------------------------------------
# Reading
# ----------------------------------------------------------------------


class SnapshotFile:
    """An ``mmap``-backed reader over one ``*.snap`` file.

    The header and manifest are validated on open; ``verify=True``
    additionally CRC32s every section up front (one sequential pass
    over the mapping — still far cheaper than a rebuild), which is
    what turns a flipped bit anywhere in the file into a typed
    :class:`CorruptSnapshot` instead of a wrong answer.  Section
    views are zero-copy into the mapping; the mapping stays alive as
    long as any view (or rehydrated disk) references it.
    """

    def __init__(self, path: str, verify: bool = True) -> None:
        self.path = path
        try:
            with open(path, "rb") as fh:
                self._mm = mmap.mmap(
                    fh.fileno(), 0, access=mmap.ACCESS_READ
                )
        except (OSError, ValueError) as exc:
            raise CorruptSnapshot(
                f"cannot open snapshot {path!r}: {exc}"
            ) from None
        view = memoryview(self._mm)
        if len(view) < _HEADER.size:
            raise CorruptSnapshot(f"{path!r} is shorter than its header")
        magic, fmt, _flags, man_off, man_len, man_crc = _HEADER.unpack(
            view[: _HEADER.size]
        )
        if magic != MAGIC:
            raise CorruptSnapshot(f"{path!r} has bad magic {magic!r}")
        if fmt != FORMAT_VERSION:
            raise CorruptSnapshot(
                f"{path!r} is format {fmt}; this build reads "
                f"{FORMAT_VERSION}"
            )
        if man_off + man_len > len(view):
            raise CorruptSnapshot(f"{path!r} manifest extends past EOF")
        manifest_bytes = view[man_off : man_off + man_len]
        if _crc(manifest_bytes) != man_crc:
            raise CorruptSnapshot(f"{path!r} manifest failed its checksum")
        try:
            self.manifest = json.loads(bytes(manifest_bytes))
        except ValueError:
            raise CorruptSnapshot(
                f"{path!r} manifest is not valid JSON"
            ) from None
        if verify:
            self.verify()

    def section(self, index: int) -> memoryview:
        """A zero-copy view of one section by table index."""
        try:
            offset, length, _crc32 = self.manifest["sections"][index]
        except (KeyError, IndexError, TypeError, ValueError):
            raise CorruptSnapshot(
                f"{self.path!r} has no section {index}"
            ) from None
        view = memoryview(self._mm)
        if offset + length > len(view):
            raise CorruptSnapshot(
                f"{self.path!r} section {index} extends past EOF"
            )
        return view[offset : offset + length]

    def close(self) -> None:
        """Release the mapping if nothing references it anymore.

        A no-op (deliberately) while rehydrated disks still hold
        zero-copy views into the mapping — their pages must stay
        valid; the mapping is reclaimed when the last view goes.
        """
        try:
            self._mm.close()
        except BufferError:
            pass

    def verify(self) -> None:
        """CRC32 every section; raises :class:`CorruptSnapshot` on any
        mismatch."""
        for index, (offset, length, crc32) in enumerate(
            self.manifest.get("sections", [])
        ):
            view = memoryview(self._mm)
            if offset + length > len(view):
                raise CorruptSnapshot(
                    f"{self.path!r} section {index} extends past EOF"
                )
            if _crc(view[offset : offset + length]) != crc32:
                raise CorruptSnapshot(
                    f"{self.path!r} section {index} failed its CRC32"
                )


def load_shard_engine(
    path: str,
    *,
    advisor=None,
    cache_size: int | None = None,
    defer: bool = False,
    verify: bool = True,
    lazy: bool = True,
) -> QueryEngine:
    """Rebuild one shard :class:`QueryEngine` from a snapshot file.

    No index is rebuilt and no advisor is consulted: each column comes
    back on the exact backend, version, and device bits it was
    checkpointed with.  ``lazy=True`` (the default) keeps device pages
    as zero-copy views into the mapping; ``defer=True`` skips skeleton
    deserialization entirely and restores control-plane columns only
    (codes + stats + verdict) — the mode a resident-executor
    coordinator wants, whose worker twins rehydrate the full index
    from the same file.
    """
    snap = SnapshotFile(path, verify=verify)
    manifest = snap.manifest
    if manifest.get("kind") != "shard-engine":
        raise CorruptSnapshot(
            f"{path!r} is a {manifest.get('kind')!r} snapshot, not a "
            "shard engine"
        )
    if cache_size is None:
        cache_size = manifest["cache_size"]
    engine = QueryEngine(advisor=advisor, cache_size=cache_size)
    for entry in manifest["columns"]:
        codes = unflatten_codes(snap.section(entry["codes"]))
        try:
            stats = WorkloadStats(**entry["stats"])
            spec = get_spec(entry["backend"])
        except (TypeError, InvalidParameterError) as exc:
            raise CorruptSnapshot(
                f"{path!r} column {entry.get('name')!r}: {exc}"
            ) from None
        index = None
        if not defer and not entry["deferred"]:
            states = []
            stats_keys = []
            for disk_entry in entry["disks"]:
                states.append(
                    DiskState(
                        block_bits=disk_entry["block_bits"],
                        mem_blocks=disk_entry["mem_blocks"],
                        data=snap.section(disk_entry["data"]),
                        alloc_bits=disk_entry["alloc_bits"],
                        latency_s=disk_entry["latency_s"],
                    )
                )
                stats_keys.append(disk_entry["stats_key"])
            buf = io.BytesIO(bytes(snap.section(entry["skeleton"])))
            try:
                index = _SkeletonUnpickler(
                    buf, states, stats_keys, lazy
                ).load()
            except CorruptSnapshot:
                raise
            except Exception as exc:
                raise CorruptSnapshot(
                    f"{path!r} column {entry['name']!r} skeleton failed "
                    f"to deserialize: {exc}"
                ) from None
        column = EngineColumn(entry["name"], codes, spec, index, stats)
        column.apply_memo(cache_size > 0)
        column.version = entry["version"]
        engine.columns[entry["name"]] = column
    return engine
