"""Tests for Theorem 4 (§4.1) — append-only dynamization."""

import math
import random

import pytest

from tests.conftest import brute_range, random_ranges
from repro.core import AppendableIndex
from repro.errors import InvalidParameterError
from repro.model import distributions as dist


class TestCorrectness:
    def test_appends_match_oracle(self):
        sigma = 24
        x0 = dist.uniform(500, sigma, seed=1)
        idx = AppendableIndex(x0, sigma)
        x = list(x0)
        rng = random.Random(0)
        for step in range(900):
            ch = rng.randrange(sigma)
            idx.append(ch)
            x.append(ch)
            if step % 111 == 0:
                lo, hi = sorted((rng.randrange(sigma), rng.randrange(sigma)))
                assert idx.range_query(lo, hi).positions() == brute_range(x, lo, hi)
        for lo, hi in random_ranges(rng, sigma, 10):
            assert idx.range_query(lo, hi).positions() == brute_range(x, lo, hi)

    def test_append_to_empty(self):
        idx = AppendableIndex([], 4)
        for ch in [2, 0, 2, 3]:
            idx.append(ch)
        assert idx.range_query(2, 2).positions() == [0, 2]
        assert idx.n == 4

    def test_unseen_character_goes_to_a_provisional_leaf(self):
        idx = AppendableIndex([0] * 100, 4)
        before = idx.rebuilds
        payload = idx.space().payload_bits
        idx.append(3)  # 3 never occurred: no leaf, but no rebuild
        assert idx.rebuilds == before
        # The provisional leaf is one block of payload.
        assert idx.space().payload_bits == payload + idx.disk.block_bits
        assert idx.range_query(3, 3).positions() == [100]
        assert idx.count_range(1, 3) == 1
        assert idx.range_query(0, 3).positions() == list(range(101))

    def test_provisional_leaves_fold_at_the_lg_n_cap(self):
        # n = 100 at the build: lg n rounds up to 7 provisional leaves;
        # the 8th never-seen character folds them all into the tree.
        sigma = 16
        idx = AppendableIndex([0] * 100, sigma)
        x = [0] * 100
        cap = (100).bit_length()
        for ch in range(1, cap + 1):
            idx.append(ch)
            x.append(ch)
            assert idx.rebuilds == 0
        idx.append(cap + 1)
        x.append(cap + 1)
        assert idx.rebuilds == 1
        assert idx.tree.char_count(cap + 1) == 1
        for lo, hi in [(0, 0), (1, sigma - 1), (3, 5), (0, sigma - 1)]:
            assert idx.range_query(lo, hi).positions() == brute_range(x, lo, hi)

    def test_provisional_reads_go_through_the_disk(self):
        idx = AppendableIndex([0, 1] * 200, 8, mem_blocks=0)
        for _ in range(3):
            idx.append(5)
        idx.stats.reset()
        assert idx.range_query(5, 5).positions() == [400, 401, 402]
        assert idx.stats.reads >= 1
        assert idx.stats.bits_read > 0

    def test_rebuild_on_doubling(self):
        idx = AppendableIndex([0, 1] * 50, 2, rebuild_factor=2.0)
        for _ in range(110):
            idx.append(0)
        assert idx.rebuilds >= 1
        assert idx.n == 210

    def test_count_range_tracks_appends(self):
        sigma = 8
        idx = AppendableIndex(dist.uniform(200, sigma, seed=2), sigma)
        x = list(dist.uniform(200, sigma, seed=2))
        for ch in [3, 3, 3, 7]:
            idx.append(ch)
            x.append(ch)
        assert idx.count_range(3, 3) == x.count(3)
        assert idx.count_range(0, 7) == len(x)

    def test_complement_after_appends(self):
        sigma = 4
        idx = AppendableIndex([0, 1, 2, 3] * 50, sigma)
        x = [0, 1, 2, 3] * 50
        for _ in range(60):
            idx.append(1)
            x.append(1)
        r = idx.range_query(0, 2)
        assert r.positions() == brute_range(x, 0, 2)

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            AppendableIndex([0], 1, rebuild_factor=1.0)
        with pytest.raises(InvalidParameterError):
            AppendableIndex([5], 4)
        idx = AppendableIndex([0], 2)
        with pytest.raises(InvalidParameterError):
            idx.append(2)


class TestIOBounds:
    def test_append_io_near_lg_lg_n(self):
        # Theorem 4: amortized O(lg lg n) I/Os per append.  Between
        # rebuilds each append writes one block per materialized level.
        sigma = 32
        n0 = 4000
        idx = AppendableIndex(
            dist.uniform(n0, sigma, seed=3), sigma, rebuild_factor=4.0
        )
        idx.stats.reset()
        appends = 400
        rng = random.Random(1)
        for _ in range(appends):
            idx.append(rng.randrange(sigma))
        per_append = idx.stats.writes / appends
        # lg lg n ~ 3.6; materialized levels + leaf => a few writes.
        assert per_append <= 3 * (math.log2(math.log2(idx.n)) + 2)

    def test_query_io_matches_static_shape(self):
        # Queries after appends stay within a constant of the static
        # structure's cost on the same string.
        from repro.core import PaghRaoIndex

        sigma = 32
        x = dist.uniform(3000, sigma, seed=4)
        dyn = AppendableIndex(x[:2000], sigma, rebuild_factor=10.0)
        for ch in x[2000:]:
            dyn.append(ch)
        static = PaghRaoIndex(x, sigma)
        for lo, hi in [(3, 3), (4, 11), (0, 15)]:
            dyn.disk.flush_cache()
            dyn.stats.reset()
            dyn.range_query(lo, hi)
            dyn_reads = dyn.stats.reads
            static.disk.flush_cache()
            static.stats.reset()
            static.range_query(lo, hi)
            static_reads = static.stats.reads
            assert dyn_reads <= 12 * static_reads + 64


class TestShardedIngest:
    def test_rebuilds_only_at_doubling_cap_or_split(self, monkeypatch):
        # An ingest-like stream on a serial cluster: a sigma=4096
        # appendable column on ~2k-row shards, one never-seen code every
        # five appends.  Every build of an appendable index must be a
        # construction inside a split, a doubling, or the lg n cap.
        from repro.cluster import ClusterEngine
        from repro.query import Range

        events = []
        build = AppendableIndex._build_structure

        def recording(self):
            if not hasattr(self, "_tree"):
                events.append("construct")
            elif len(self._x) >= self._rebuild_factor * self._built_n:
                events.append("doubling")
            elif self.provisional_leaves > self._built_n.bit_length():
                events.append("cap")
            else:
                events.append("other")
            build(self)

        monkeypatch.setattr(AppendableIndex, "_build_structure", recording)
        sigma, fresh_base = 4096, 3584
        rng = random.Random(5)
        x = [rng.randrange(fresh_base) for _ in range(4000)]
        cluster = ClusterEngine(target_shard_rows=2000, drift_window=None)
        cluster.add_column(
            "price", x, sigma, dynamism="semidynamic", backend="appendable"
        )
        fresh = iter(range(fresh_base, sigma))
        fresh_appends = 0
        for i in range(1500):
            if i % 5 == 4:
                ch = next(fresh)
                fresh_appends += 1
            else:
                ch = rng.randrange(8)
            before, splits = len(events), len(cluster.splits)
            cluster.append("price", ch)
            x.append(ch)
            new = events[before:]
            assert "other" not in new, i
            if "construct" in new:
                assert len(cluster.splits) > splits, i
        assert cluster.splits, "the stream must split the last shard"
        # Shards keep >= 512 rows, so a cap fold takes >= 10 new codes.
        rebuilds = events.count("doubling") + events.count("cap")
        assert 0 < rebuilds <= fresh_appends // 10
        for lo, hi in [(fresh_base, sigma - 1), (0, 7), (100, 3000)]:
            assert cluster.count(Range("price", lo, hi)) == len(
                brute_range(x, lo, hi)
            )
