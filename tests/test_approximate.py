"""Tests for the Theorem 3 structure (§3) — approximate range queries."""

import random

import pytest

from tests.conftest import brute_range, random_ranges
from repro.core import (
    ApproximatePaghRaoIndex,
    ApproximateResult,
    RangeResult,
    at_least_k_candidates,
)
from repro.errors import QueryError
from repro.model import distributions as dist


def make_index(n=4096, sigma=64, theta=0.0, seed=0):
    x = dist.zipf(n, sigma, theta=theta, seed=seed)
    return x, ApproximatePaghRaoIndex(x, sigma, seed=seed)


class TestSupersetProperty:
    def test_no_false_negatives(self):
        # The defining guarantee: the answer is a superset of the truth.
        x, idx = make_index(seed=1)
        rng = random.Random(1)
        for lo, hi in random_ranges(rng, 64, 25):
            r = idx.approx_range_query(lo, hi, eps=1 / 16)
            truth = set(brute_range(x, lo, hi))
            if isinstance(r, ApproximateResult):
                assert truth <= set(r.positions())
                for p in truth:
                    assert r.might_contain(p)
            else:
                assert set(r.positions()) == truth

    def test_exact_fallback_when_z_large(self):
        x, idx = make_index(seed=2)
        # z/eps near n forces the exact path (j > k or no savings).
        r = idx.approx_range_query(0, 60, eps=1 / 2)
        assert isinstance(r, RangeResult)
        assert r.positions() == brute_range(x, 0, 60)

    def test_empty_range(self):
        x = [0, 3] * 500
        idx = ApproximatePaghRaoIndex(x, 4, seed=3)
        r = idx.approx_range_query(1, 2, eps=1 / 8)
        assert isinstance(r, RangeResult)
        assert r.positions() == []

    def test_eps_validation(self):
        _, idx = make_index(seed=4)
        with pytest.raises(QueryError):
            idx.approx_range_query(0, 1, eps=0.0)
        with pytest.raises(QueryError):
            idx.approx_range_query(0, 1, eps=1.0)


class TestLevelChoice:
    def test_choose_level_smallest_sufficient(self):
        _, idx = make_index(n=65536 if False else 4096, seed=5)
        # 2^(2^j) must exceed z/eps.
        j = idx.choose_level(z=10, eps=1 / 4)
        if j is not None:
            assert (1 << (1 << j)) > 40
            if j > 1:
                assert (1 << (1 << (j - 1))) <= 40

    def test_choose_level_none_when_huge(self):
        _, idx = make_index(seed=6)
        assert idx.choose_level(z=4000, eps=1 / 1024) is None

    def test_k_is_lg_lg_n(self):
        _, idx = make_index(n=4096, seed=7)
        # lg lg 4096 = lg 12 ≈ 3.58 → k = 3.
        assert idx.k == 3


class TestFalsePositiveRate:
    def test_fpp_at_most_eps_statistically(self):
        # For i not in the answer, Pr[i reported] <= eps over the hash
        # draw.  Average over seeds and probes; allow 3x sampling slack.
        # sigma=256 keeps z ~ 16 so the hashed path engages at eps=1/8:
        # z/eps = 128 < 2^(2^3) = 256 with k = 3.
        n, sigma = 4096, 256
        eps = 1 / 8
        x = dist.uniform(n, sigma, seed=8)
        truth = set(brute_range(x, 20, 20))
        probes = [i for i in range(0, n, 13) if i not in truth][:150]
        fp = trials = 0
        for seed in range(12):
            idx = ApproximatePaghRaoIndex(x, sigma, seed=seed)
            r = idx.approx_range_query(20, 20, eps=eps)
            if not isinstance(r, ApproximateResult):
                continue
            trials += len(probes)
            fp += sum(1 for i in probes if r.might_contain(i))
        assert trials > 0, "approximate path never engaged; adjust workload"
        assert fp / trials <= 3 * eps

    def test_smaller_eps_fewer_false_positives(self):
        n, sigma = 4096, 64
        x = dist.uniform(n, sigma, seed=9)
        counts = {}
        for eps in (1 / 4, 1 / 64):
            total = 0
            for seed in range(8):
                idx = ApproximatePaghRaoIndex(x, sigma, seed=seed)
                r = idx.approx_range_query(30, 30, eps=eps)
                if isinstance(r, ApproximateResult):
                    total += len(r.positions()) - r.exact_cardinality
            counts[eps] = total
        assert counts[1 / 64] <= counts[1 / 4]


class TestIOAndSize:
    def test_hashed_read_smaller_than_exact(self):
        # The point of §3: bits read ~ z lg(1/eps) < z lg(n/z).
        n, sigma = 4096, 64
        x = dist.uniform(n, sigma, seed=10)
        idx = ApproximatePaghRaoIndex(x, sigma, seed=10)
        lo, hi = 12, 12
        idx.disk.flush_cache()
        idx.stats.reset()
        r = idx.approx_range_query(lo, hi, eps=1 / 4)
        approx_bits = idx.stats.bits_read
        assert isinstance(r, ApproximateResult)
        idx.disk.flush_cache()
        idx.stats.reset()
        idx.range_query(lo, hi)
        exact_bits = idx.stats.bits_read
        assert approx_bits < exact_bits

    def test_space_overhead_constant_factor(self):
        # Hashed sets cost O(lg C(n,|I|)) per node: total payload within
        # a constant factor of the exact-only index.
        from repro.core import PaghRaoIndex

        n, sigma = 4096, 64
        x = dist.uniform(n, sigma, seed=11)
        exact = PaghRaoIndex(x, sigma)
        approx = ApproximatePaghRaoIndex(x, sigma, seed=11)
        assert approx.space().payload_bits <= 4 * exact.space().payload_bits


class TestIntersection:
    def test_intersect_filters(self):
        # Two independent dimensions; intersecting their approximate
        # answers keeps all true matches.  sigma=256 keeps per-character
        # z ~ 8, so z/eps = 64 < 2^(2^3) and the hashed path engages.
        n, sigma = 2048, 256
        x1 = dist.uniform(n, sigma, seed=12)
        x2 = dist.uniform(n, sigma, seed=13)
        i1 = ApproximatePaghRaoIndex(x1, sigma, seed=1)
        i2 = ApproximatePaghRaoIndex(x2, sigma, seed=2)
        r1 = i1.approx_range_query(4, 4, eps=1 / 8)
        r2 = i2.approx_range_query(9, 9, eps=1 / 8)
        assert isinstance(r1, ApproximateResult)
        assert isinstance(r2, ApproximateResult)
        truth = set(brute_range(x1, 4, 4)) & set(brute_range(x2, 9, 9))
        got = at_least_k_candidates([r1, r2], 2)
        assert truth <= set(got)
        assert got == [p for p in r1.positions() if r2.might_contain(p)]

    def test_candidates_sorted_and_bounded(self):
        n, sigma = 2048, 256
        x = dist.uniform(n, sigma, seed=14)
        idx = ApproximatePaghRaoIndex(x, sigma, seed=14)
        r = idx.approx_range_query(7, 7, eps=1 / 8)
        assert isinstance(r, ApproximateResult)
        cands = r.positions()
        assert cands == sorted(cands)
        assert len(cands) <= r.candidate_bound
