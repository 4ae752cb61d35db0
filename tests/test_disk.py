"""Unit tests for the simulated block device and its accounting."""

import random
from array import array

import pytest

from repro.bits.ebitmap import decode_gaps, encode_gaps
from repro.bits.bitio import BitWriter
from repro.errors import CodecError, InvalidParameterError, StorageError
from repro.iomodel import Disk, IOStats
from repro.iomodel import disk as disk_module
from repro.iomodel.disk import DiskState
from repro.iomodel.cache import LRUBlockCache


class TestAllocation:
    def test_alloc_is_byte_aligned(self):
        d = Disk(block_bits=256, mem_blocks=0)
        a = d.alloc(3)
        b = d.alloc(3)
        assert a % 8 == 0 and b % 8 == 0
        assert b >= a + 3

    def test_alloc_block_aligned(self):
        d = Disk(block_bits=256, mem_blocks=0)
        d.alloc(10)
        off = d.alloc(10, align_block=True)
        assert off % 256 == 0

    def test_alloc_block(self):
        d = Disk(block_bits=256, mem_blocks=0)
        off = d.alloc_block()
        assert off % 256 == 0
        assert d.size_bits >= 256

    def test_negative_alloc_rejected(self):
        d = Disk()
        with pytest.raises(InvalidParameterError):
            d.alloc(-1)

    def test_block_size_validation(self):
        with pytest.raises(InvalidParameterError):
            Disk(block_bits=100)  # not a multiple of 8
        with pytest.raises(InvalidParameterError):
            Disk(block_bits=0)

    def test_size_blocks(self):
        d = Disk(block_bits=256, mem_blocks=0)
        d.alloc(257)
        assert d.size_blocks == 2


class TestDataIntegrity:
    def test_store_and_read_roundtrip(self):
        d = Disk(block_bits=256, mem_blocks=0)
        positions = [1, 5, 6, 900, 901]
        w = BitWriter()
        encode_gaps(w, positions)
        ext = d.store(w.getvalue(), w.bit_length)
        r = d.read_extent(ext)
        assert decode_gaps(r, len(positions)) == positions

    def test_many_extents_do_not_interfere(self):
        d = Disk(block_bits=256, mem_blocks=0)
        extents = []
        for k in range(20):
            w = BitWriter()
            encode_gaps(w, [k, 100 + k])
            extents.append(d.store(w.getvalue(), w.bit_length))
        for k, ext in enumerate(extents):
            assert decode_gaps(d.read_extent(ext), 2) == [k, 100 + k]

    def test_read_bits_write_bits_subbyte(self):
        d = Disk(block_bits=256, mem_blocks=0)
        off = d.alloc(64)
        d.write_bits(off + 3, 0b1011, 4)
        assert d.read_bits(off + 3, 4) == 0b1011
        # Neighbours untouched.
        assert d.read_bits(off, 3) == 0
        assert d.read_bits(off + 7, 8) == 0

    def test_write_bits_across_block_boundary(self):
        d = Disk(block_bits=256, mem_blocks=0)
        d.alloc(512)
        d.write_bits(250, (1 << 12) - 1, 12)
        assert d.read_bits(250, 12) == (1 << 12) - 1

    def test_out_of_region_read_rejected(self):
        d = Disk(block_bits=256, mem_blocks=0)
        d.alloc(16)
        with pytest.raises(StorageError):
            d.read_bits(8, 16)

    def test_out_of_region_write_rejected(self):
        d = Disk(block_bits=256, mem_blocks=0)
        with pytest.raises(StorageError):
            d.write_bits(0, 1, 1)

    def test_unaligned_write_bytes_rejected(self):
        d = Disk(block_bits=256, mem_blocks=0)
        d.alloc(64)
        with pytest.raises(StorageError):
            d.write_bytes(4, b"\xff", 8)

    def test_value_too_wide_rejected(self):
        d = Disk(block_bits=256, mem_blocks=0)
        d.alloc(8)
        with pytest.raises(StorageError):
            d.write_bits(0, 256, 8)


class TestAccounting:
    def test_read_counts_blocks_touched(self):
        d = Disk(block_bits=256, mem_blocks=0)
        off = d.alloc(1024)
        d.stats.reset()
        d.read_bits(off, 1)
        assert d.stats.reads == 1
        d.read_bits(off + 200, 100)  # crosses into block 1
        assert d.stats.reads == 3

    def test_write_counts_blocks(self):
        d = Disk(block_bits=256, mem_blocks=0)
        off = d.alloc(512)
        d.stats.reset()
        d.write_bits(off + 252, 0xFF, 8)  # spans blocks 0 and 1
        assert d.stats.writes == 2

    def test_cache_absorbs_repeated_reads(self):
        d = Disk(block_bits=256, mem_blocks=4)
        off = d.alloc(256)
        d.flush_cache()
        d.stats.reset()
        d.read_bits(off, 8)
        d.read_bits(off, 8)
        d.read_bits(off + 100, 8)
        assert d.stats.reads == 1  # one miss, then hits

    def test_flush_cache_makes_reads_cold(self):
        d = Disk(block_bits=256, mem_blocks=4)
        off = d.alloc(256)
        d.flush_cache()
        d.stats.reset()
        d.read_bits(off, 8)
        d.flush_cache()
        d.read_bits(off, 8)
        assert d.stats.reads == 2

    def test_zero_capacity_cache_never_hits(self):
        d = Disk(block_bits=256, mem_blocks=0)
        off = d.alloc(256)
        d.stats.reset()
        d.read_bits(off, 8)
        d.read_bits(off, 8)
        assert d.stats.reads == 2

    def test_touch_range_and_block(self):
        d = Disk(block_bits=256, mem_blocks=0)
        d.alloc(1024)
        d.stats.reset()
        d.touch_range(0, 600)
        assert d.stats.reads == 3
        d.touch_block(3, write=True)
        assert d.stats.writes == 1

    def test_bits_read_tracks_payload(self):
        d = Disk(block_bits=256, mem_blocks=0)
        off = d.alloc(64)
        d.stats.reset()
        d.read_bits(off, 10)
        assert d.stats.bits_read == 10

    def test_measure_context(self):
        d = Disk(block_bits=256, mem_blocks=0)
        off = d.alloc(256)
        with d.stats.measure() as m:
            d.read_bits(off, 8)
        assert m.reads == 1
        assert m.total == 1
        # Counters outside the region are unaffected by measuring.
        assert d.stats.reads >= 1

    def test_shared_stats_object(self):
        stats = IOStats()
        d1 = Disk(block_bits=256, mem_blocks=0, stats=stats)
        d2 = Disk(block_bits=256, mem_blocks=0, stats=stats)
        o1, o2 = d1.alloc(256), d2.alloc(256)
        stats.reset()
        d1.read_bits(o1, 8)
        d2.read_bits(o2, 8)
        assert stats.reads == 2


class TestLRUCache:
    def test_eviction_order(self):
        c = LRUBlockCache(2)
        assert not c.access(1)
        assert not c.access(2)
        assert c.access(1)      # refresh 1
        assert not c.access(3)  # evicts 2
        assert not c.access(2)  # 2 was evicted
        assert c.access(3)

    def test_negative_capacity_rejected(self):
        with pytest.raises(InvalidParameterError):
            LRUBlockCache(-1)

    def test_counters(self):
        c = LRUBlockCache(2)
        c.access(1)
        c.access(1)
        assert (c.hits, c.misses) == (1, 1)
        c.reset_counters()
        assert (c.hits, c.misses) == (0, 0)

    def test_clear_and_evict(self):
        c = LRUBlockCache(4)
        c.access(1)
        c.access(2)
        c.evict(1)
        assert 1 not in c and 2 in c
        c.clear()
        assert len(c) == 0


class TestDiskStateSplit:
    """The picklable-state / runtime-handle split and the latency model."""

    def test_snapshot_state_roundtrip_preserves_bits(self):
        d = Disk(block_bits=256, mem_blocks=2, latency_s=0.0)
        extent = d.store(b"\xde\xad\xbe\xef", 32)
        d.read_bits(extent.offset, 8)  # warm cache, bump counters
        state = d.snapshot_state()
        clone = Disk.from_state(state)
        # Same geometry, same bits at the same offsets.
        assert clone.block_bits == d.block_bits
        assert clone.size_bits == d.size_bits
        assert clone.read_bits(extent.offset, 32) == 0xDEADBEEF
        # Runtime is local: the clone started cold with zero counters
        # (the read above is the clone's own, freshly counted I/O).
        assert clone.stats.reads == 1
        assert d.stats is not clone.stats

    def test_state_pickles(self):
        import pickle

        d = Disk(block_bits=256, mem_blocks=4, latency_s=0.25)
        d.store(b"\x12\x34", 16)
        state = pickle.loads(pickle.dumps(d.snapshot_state()))
        clone = Disk.from_state(state)
        assert clone.latency_s == 0.25
        assert clone.read_bits(0, 16) == 0x1234

    def test_mutating_the_clone_leaves_the_source_alone(self):
        d = Disk(block_bits=256, mem_blocks=0)
        extent = d.store(b"\x00", 8)
        clone = Disk.from_state(d.snapshot_state())
        clone.write_bits(extent.offset, 0xFF, 8)
        assert d.read_bits(extent.offset, 8) == 0x00
        assert clone.read_bits(extent.offset, 8) == 0xFF

    def test_latency_sleeps_per_transfer_only(self):
        import time

        latency = 0.01
        d = Disk(block_bits=256, mem_blocks=1, latency_s=latency)
        offset = d.alloc(256 * 4)
        d.stats.reset()
        t0 = time.perf_counter()
        d.touch_range(offset, 256 * 4)  # 4 transfers
        elapsed = time.perf_counter() - t0
        assert d.stats.reads == 4
        assert elapsed >= 4 * latency * 0.9
        # Cache-resident touches are internal-memory accesses: free
        # and instant (1 block resident; touch it alone).
        t0 = time.perf_counter()
        d.touch_range(offset + 3 * 256, 256)
        assert time.perf_counter() - t0 < latency
        assert d.stats.reads == 4

    def test_negative_latency_rejected(self):
        with pytest.raises(InvalidParameterError):
            Disk(latency_s=-0.1)



class TestDiskStatePacking:
    """The flat header + raw pages wire form used by shared memory."""

    def test_pack_unpack_roundtrip(self):
        d = Disk(block_bits=256, mem_blocks=3, latency_s=0.125)
        extent = d.store(b"\xca\xfe\xba\xbe", 32)
        state = d.snapshot_state()
        packed = state.pack()
        assert isinstance(packed, bytes)
        rehydrated = DiskState.unpack(packed)
        assert rehydrated.block_bits == state.block_bits
        assert rehydrated.mem_blocks == state.mem_blocks
        assert rehydrated.alloc_bits == state.alloc_bits
        assert rehydrated.latency_s == state.latency_s
        assert bytes(rehydrated.data) == bytes(state.data)
        clone = Disk.from_state(rehydrated)
        assert clone.read_bits(extent.offset, 32) == 0xCAFEBABE

    def test_unpack_is_zero_copy_but_from_state_copies(self):
        d = Disk(block_bits=256, mem_blocks=0)
        extent = d.store(b"\x41", 8)
        buf = bytearray(d.snapshot_state().pack())
        rehydrated = DiskState.unpack(buf)
        assert isinstance(rehydrated.data, memoryview)
        clone = Disk.from_state(rehydrated)
        # The clone owns its pages: scribbling on the source buffer
        # afterwards must not reach through.
        buf[-1] ^= 0xFF
        assert clone.read_bits(extent.offset, 8) == 0x41

    def test_unpack_rejects_short_header(self):
        with pytest.raises(StorageError):
            DiskState.unpack(b"\x00" * 8)

    def test_unpack_rejects_truncated_pages(self):
        d = Disk(block_bits=256, mem_blocks=1)
        d.store(b"\x55" * 8, 64)
        packed = d.snapshot_state().pack()
        with pytest.raises(StorageError):
            DiskState.unpack(packed[:-1])

    def test_empty_disk_packs(self):
        d = Disk(block_bits=512, mem_blocks=2)
        clone = Disk.from_state(DiskState.unpack(d.snapshot_state().pack()))
        assert clone.block_bits == 512
        assert clone.size_bits == d.size_bits

class TestMergeableStats:
    def test_snapshot_addition(self):
        from repro.iomodel import Snapshot

        a = Snapshot(reads=1, writes=2, bits_read=10, bits_written=20)
        b = Snapshot(reads=3, writes=4, bits_read=30, bits_written=40)
        total = a + b
        assert (total.reads, total.writes) == (4, 6)
        assert (total.bits_read, total.bits_written) == (40, 60)
        assert total.total == 10

    def test_iostats_add_folds_worker_deltas(self):
        from repro.iomodel import Snapshot

        total = IOStats()
        total.add(Snapshot(reads=2, bits_read=16))
        other = IOStats()
        other.writes = 5
        other.bits_written = 50
        total.add(other)
        assert total.snapshot() == Snapshot(
            reads=2, writes=5, bits_read=16, bits_written=50
        )


def gap_disk(memo=True, mem_blocks=3):
    """A disk holding four gap lists back to back across several blocks.

    Returns ``(disk, extent, runs, lists)``: ``runs`` are the lists'
    ``(bit offset, count)`` pairs, ``lists`` their positions.
    """
    rng = random.Random(7)
    lists = [sorted(rng.sample(range(5000), k)) for k in (40, 0, 25, 60)]
    writer = BitWriter()
    starts = []
    for positions in lists:
        starts.append(writer.bit_length)
        encode_gaps(writer, positions)
    d = Disk(block_bits=256, mem_blocks=mem_blocks)
    d.alloc(13)  # the extent does not start on a block boundary
    extent = d.store(writer.getvalue(), writer.bit_length)
    runs = [(extent.offset + at, len(p)) for at, p in zip(starts, lists)]
    if memo:
        d.memoize_gaps()
    return d, extent, runs, lists


class TestGapMemo:
    """The memo of decoded gap lists is invisible to the I/O model."""

    @pytest.mark.parametrize("mem_blocks", [0, 2, 64])
    @pytest.mark.parametrize("resident", [0, 300])
    def test_a_hit_charges_what_a_reader_charges(
        self, monkeypatch, mem_blocks, resident
    ):
        d, extent, runs, lists = gap_disk(mem_blocks=mem_blocks)
        d.read_gaps(extent.offset, extent.nbits, runs)
        assert d.memoized_gaps == len(runs)
        decodes = []
        real_decode = disk_module.decode_gaps
        monkeypatch.setattr(
            disk_module, "decode_gaps",
            lambda reader, count: decodes.append(count)
            or real_decode(reader, count),
        )
        sleeps = []
        monkeypatch.setattr(disk_module.time, "sleep", sleeps.append)
        d.latency_s = 0.001

        def measured(read):
            # The same block-cache state before each side: empty, or
            # holding the blocks of the extent's first ``resident`` bits.
            d.cache.clear()
            d.touch_range(extent.offset, resident)
            before = d.stats.snapshot()
            del sleeps[:]
            got = read()
            return got, d.stats.snapshot() - before, list(sleeps)

        got, memo_io, memo_sleeps = measured(
            lambda: d.read_gaps(extent.offset, extent.nbits, runs)
        )

        def plain():
            reader = d.reader(extent.offset, extent.nbits)
            return [decode_gaps(reader, count) for _, count in runs]

        want, reader_io, reader_sleeps = measured(plain)
        assert decodes == []  # every list came from the memo
        assert [list(g) for g in got] == want == lists
        assert memo_io == reader_io and memo_io.bits_read == extent.nbits
        assert memo_sleeps == reader_sleeps

    def test_hits_are_copies_of_narrow_typed_arrays(self):
        d, extent, runs, lists = gap_disk()
        d.read_gaps(extent.offset, extent.nbits, runs)
        for got in d.read_gaps(extent.offset, extent.nbits, runs):
            assert isinstance(got, array) and got.itemsize <= 8
        wide = [[3, 70_000], [5, 1 << 33]]
        writer = BitWriter()
        starts = []
        for positions in wide:
            starts.append(writer.bit_length)
            encode_gaps(writer, positions)
        extent = d.store(writer.getvalue(), writer.bit_length)
        wide_runs = [(extent.offset + at, 2) for at in starts]
        for _ in range(2):
            got = d.read_gaps(extent.offset, extent.nbits, wide_runs)
            assert [list(g) for g in got] == wide

    @pytest.mark.parametrize(
        "mutate",
        ["alloc", "store", "write_bytes", "write_bits", "flush_cache"],
    )
    def test_mutations_and_flush_cache_empty_the_memo(self, mutate):
        d, extent, runs, lists = gap_disk()
        d.read_gaps(extent.offset, extent.nbits, runs)
        assert d.memoized_gaps == len(runs)
        first_byte = d.read_bits(extent.offset, 8)
        {
            "alloc": lambda: d.alloc(8),
            "store": lambda: d.store(b"\x01", 8),
            "write_bytes": lambda: d.write_bytes(
                extent.offset, bytes([first_byte]), 8
            ),
            "write_bits": lambda: d.write_bits(extent.offset, first_byte, 8),
            "flush_cache": d.flush_cache,
        }[mutate]()
        assert d.memoized_gaps == 0
        got = d.read_gaps(extent.offset, extent.nbits, runs)
        assert [list(g) for g in got] == lists

    def test_a_rewritten_list_is_decoded_afresh(self):
        def encoded(positions):
            writer = BitWriter()
            encode_gaps(writer, positions)
            assert writer.bit_length == 7
            return writer.getvalue()

        # Gaps (1, 2, 2) and (2, 1, 2) take the same 7 bits.
        d = Disk(block_bits=256, mem_blocks=2)
        d.memoize_gaps()
        extent = d.store(encoded([0, 2, 4]), 7)
        runs = [(extent.offset, 3)]
        assert d.read_gaps(extent.offset, 7, runs) == [[0, 2, 4]]
        d.write_bytes(extent.offset, encoded([1, 2, 4]), 7)
        got = d.read_gaps(extent.offset, 7, runs)
        assert [list(g) for g in got] == [[1, 2, 4]]

    def test_warm_reads_leave_the_packed_state_byte_identical(self):
        d, extent, runs, _ = gap_disk()
        packed = d.snapshot_state().pack()
        for _ in range(3):
            d.read_gaps(extent.offset, extent.nbits, runs)
        assert d.memoized_gaps == len(runs)
        assert d.snapshot_state().pack() == packed
        assert Disk.from_state(d.snapshot_state()).memoized_gaps is None

    def test_mutating_an_answer_leaves_the_next_one_unchanged(self):
        d, extent, runs, lists = gap_disk()
        for _ in range(3):  # a miss, then hits
            got = d.read_gaps(extent.offset, extent.nbits, runs)
            assert [list(g) for g in got] == lists
            for positions in got:
                positions.append(4999)
                if len(positions) > 1:
                    positions[0] += 1

    def test_a_bare_disk_keeps_no_memo(self):
        assert Disk().memoized_gaps is None
        d, extent, runs, lists = gap_disk(memo=False)
        for _ in range(2):
            got = d.read_gaps(extent.offset, extent.nbits, runs)
            assert got == lists and all(type(g) is list for g in got)
        assert d.memoized_gaps is None
        d.memoize_gaps()
        d.read_gaps(extent.offset, extent.nbits, runs)
        d.memoize_gaps(False)
        assert d.memoized_gaps is None

    @pytest.mark.parametrize("memo", [False, True])
    def test_a_list_outside_the_charged_extent_is_refused(self, memo):
        d, extent, runs, _ = gap_disk(memo=memo)
        d.read_gaps(extent.offset, extent.nbits, runs)
        at, count = runs[-1]
        with pytest.raises(CodecError):  # the extent ends inside it
            d.read_gaps(extent.offset, at + 3 - extent.offset, [(at, count)])
        with pytest.raises(InvalidParameterError):  # it starts before
            d.read_gaps(runs[0][0] + 8, 64, [runs[0]])
        with pytest.raises(StorageError):  # past the allocated region
            d.read_gaps(extent.offset, d.size_bits, runs)
