"""Tests for deletion support (§4 introduction)."""

import random

import pytest

from tests.conftest import brute_range
from repro.core import DeletableIndex
from repro.core.deletions import DeletionTracker, compaction_due
from repro.errors import InvalidParameterError, UpdateError
from repro.iomodel import Disk
from repro.model import distributions as dist


class TestDeletionTracker:
    def test_rank_and_membership(self):
        t = DeletionTracker(Disk(block_bits=512, mem_blocks=0))
        for p in [5, 17, 3, 99]:
            t.mark_deleted(p)
        assert len(t) == 4
        assert t.is_deleted(17)
        assert not t.is_deleted(4)
        assert t.deleted_at_or_before(5) == 2
        assert t.deleted_at_or_before(99) == 4

    def test_double_delete_rejected(self):
        t = DeletionTracker(Disk(block_bits=512, mem_blocks=0))
        t.mark_deleted(5)
        with pytest.raises(UpdateError):
            t.mark_deleted(5)

    def test_translation(self):
        t = DeletionTracker(Disk(block_bits=512, mem_blocks=0))
        n = 20
        for p in [0, 3, 4, 10]:
            t.mark_deleted(p)
        live = [i for i in range(n) if i not in (0, 3, 4, 10)]
        for logical, physical in enumerate(live):
            assert t.logical_to_physical(logical, n) == physical
            assert t.physical_to_logical(physical) == logical

    def test_translation_errors(self):
        t = DeletionTracker(Disk(block_bits=512, mem_blocks=0))
        t.mark_deleted(1)
        with pytest.raises(UpdateError):
            t.physical_to_logical(1)
        with pytest.raises(InvalidParameterError):
            t.logical_to_physical(-1, 10)
        with pytest.raises(InvalidParameterError):
            t.logical_to_physical(9, 10)  # only 9 live elements (0..8)


class TestDeletableIndex:
    def test_deleted_positions_disappear(self):
        x = [3, 1, 3, 2, 3]
        idx = DeletableIndex(x, 4)
        assert idx.range_query(3, 3).positions() == [0, 2, 4]
        idx.delete(2)
        assert idx.range_query(3, 3).positions() == [0, 4]
        assert idx.is_deleted(2)
        assert idx.live_count() == 4

    def test_full_range_excludes_deleted(self):
        x = dist.uniform(300, 8, seed=1)
        idx = DeletableIndex(x, 8)
        idx.delete(7)
        idx.delete(100)
        got = idx.range_query(0, 7).positions()
        assert 7 not in got and 100 not in got
        assert len(got) == 298

    def test_mixed_workload_matches_oracle(self):
        sigma = 12
        x = list(dist.uniform(400, sigma, seed=2))
        idx = DeletableIndex(x, sigma, rebuild_fraction=0.9)
        dead: set[int] = set()
        rng = random.Random(0)
        for step in range(600):
            r = rng.random()
            if r < 0.3 and len(dead) < len(x) - 20:
                live = [i for i in range(len(x)) if i not in dead]
                p = rng.choice(live)
                idx.delete(p)
                dead.add(p)
            elif r < 0.6:
                ch = rng.randrange(sigma)
                idx.append(ch)
                x.append(ch)
            else:
                live = [i for i in range(len(x)) if i not in dead]
                p = rng.choice(live)
                ch = rng.randrange(sigma)
                idx.change(p, ch)
                x[p] = ch
            if step % 97 == 0:
                lo, hi = sorted((rng.randrange(sigma), rng.randrange(sigma)))
                want = [
                    i for i in brute_range(x, lo, hi) if i not in dead
                ]
                assert idx.range_query(lo, hi).positions() == want

    def test_compaction_renumbers(self):
        x = [0, 1] * 20
        idx = DeletableIndex(x, 2, rebuild_fraction=0.25)
        for p in range(0, 20, 2):  # delete ten 0s
            idx.delete(p)
        assert idx.compactions >= 1
        # After compaction: 10 zeros and 20 ones remain, renumbered.
        assert idx.live_count() == 30
        assert idx.n == 30
        assert len(idx.range_query(0, 0).positions()) == 10
        assert len(idx.range_query(1, 1).positions()) == 20

    def test_operations_on_deleted_position_rejected(self):
        idx = DeletableIndex([0, 1, 0], 2)
        idx.delete(1)
        with pytest.raises(UpdateError):
            idx.delete(1)
        with pytest.raises(UpdateError):
            idx.change(1, 0)

    def test_rejected_delete_leaves_the_index_unchanged(self):
        idx = DeletableIndex([0, 1, 2, 3, 1, 0, 2, 3], 4)
        for pos in (100, -1, 8):
            with pytest.raises(UpdateError):
                idx.delete(pos)
        assert idx.live_count() == 8
        assert not idx.is_deleted(100) and not idx.is_deleted(-1)
        # 2 of 8 deleted stays under the 0.5 rule: no compaction.
        idx.delete(0)
        idx.delete(1)
        assert idx.compactions == 0
        assert idx.n == 8
        assert idx.live_count() == 6

    def test_compaction_rule_is_a_function_of_the_counts(self):
        assert not compaction_due(3, 8)
        assert compaction_due(4, 8)
        assert compaction_due(1, 1)
        assert not compaction_due(0, 0)
        assert not compaction_due(2, 8, fraction=0.3)
        assert compaction_due(3, 8, fraction=0.3)
        idx = DeletableIndex([0, 1] * 4, 2)
        for pos in range(4):
            assert idx.compactions == 0
            idx.delete(pos)
        assert compaction_due(4, 8) and idx.compactions == 1

    def test_infinity_outside_user_alphabet(self):
        idx = DeletableIndex([0, 1], 2)
        assert idx.infinity == 2
        with pytest.raises(InvalidParameterError):
            idx.append(idx.infinity)
        with pytest.raises(InvalidParameterError):
            idx.change(0, idx.infinity)

    def test_translation_roundtrip(self):
        x = dist.uniform(100, 4, seed=3)
        idx = DeletableIndex(x, 4, rebuild_fraction=0.95)
        for p in [3, 50, 51, 99]:
            idx.delete(p)
        live = [i for i in range(100) if i not in (3, 50, 51, 99)]
        for j in [0, 10, len(live) - 1]:
            assert idx.logical_to_physical(j) == live[j]
            assert idx.physical_to_logical(live[j]) == j
