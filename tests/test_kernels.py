"""Fast kernels vs. pure-Python references — randomized parity suite.

Every block-oriented kernel in :mod:`repro.bits.kernels` must compute
exactly what the reference loop it replaces computes, on the same
adversarial inputs: empty operands, complemented operands,
universe-boundary positions, 31-bit group edges, truncated bit
streams.  The suite runs the public entry points under *both*
``REPRO_KERNEL`` values (the ``kernel`` fixture flips the switch) and
additionally compares fast kernels head-to-head with their reference
twins, so a divergence is pinned to the kernel rather than the test
oracle.
"""

from __future__ import annotations

import random
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bits import kernels, ops
from repro.bits.bitio import BitReader, BitWriter
from repro.bits.ebitmap import GapCompressedBitmap, decode_gaps, encode_gaps
from repro.bits.wah import GROUP_BITS, WahBitmap, _MAX_RUN
from repro.errors import CodecError, InvalidParameterError

position_lists = st.lists(
    st.integers(min_value=0, max_value=200), unique=True
).map(sorted)


# The kernel fixture is a pure switch-flip, safe to share across
# generated examples; silence the function-scoped-fixture check.
fixture_ok = settings(
    suppress_health_check=[
        HealthCheck.function_scoped_fixture,
        HealthCheck.too_slow,
    ]
)


@pytest.fixture(params=kernels.KERNELS)
def kernel(request):
    """Run the test once per kernel, restoring the ambient switch."""
    before = kernels.kernel_name()
    kernels.set_kernel(request.param)
    yield request.param
    kernels.set_kernel(before)


class TestKernelSwitch:
    def test_set_kernel_and_name(self):
        before = kernels.kernel_name()
        try:
            kernels.set_kernel("python")
            assert kernels.kernel_name() == "python"
            assert not kernels.USE_FAST
            kernels.set_kernel("fast")
            assert kernels.kernel_name() == "fast"
            assert kernels.USE_FAST
        finally:
            kernels.set_kernel(before)

    def test_set_kernel_rejects_unknown(self):
        with pytest.raises(InvalidParameterError):
            kernels.set_kernel("numpy")

    @pytest.mark.parametrize("name", ["python", "fast"])
    def test_env_selects_kernel(self, name):
        code = (
            "from repro.bits import kernels; print(kernels.kernel_name())"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={
                "PYTHONPATH": "src",
                "PYTHONDONTWRITEBYTECODE": "1",
                "REPRO_KERNEL": name,
                "PATH": "",
            },
        )
        assert out.stdout.strip() == name

    def test_env_rejects_unknown(self):
        code = "import repro.bits.kernels"
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={
                "PYTHONPATH": "src",
                "PYTHONDONTWRITEBYTECODE": "1",
                "REPRO_KERNEL": "turbo",
                "PATH": "",
            },
        )
        assert out.returncode != 0
        assert "REPRO_KERNEL" in out.stderr


class TestSetAlgebraParity:
    """ops.* under each kernel against brute-force set oracles."""

    @fixture_ok
    @given(a=position_lists, b=position_lists)
    def test_intersect(self, kernel, a, b):
        assert ops.intersect_sorted(a, b) == sorted(set(a) & set(b))
        assert ops.intersect_count(a, b) == len(set(a) & set(b))

    @fixture_ok
    @given(a=position_lists, b=position_lists)
    def test_difference(self, kernel, a, b):
        assert ops.difference_sorted(a, b) == sorted(set(a) - set(b))

    @fixture_ok
    @given(lists=st.lists(position_lists, max_size=5))
    def test_union(self, kernel, lists):
        expect = sorted(set().union(*map(set, lists)))
        assert ops.union_sorted(lists) == expect
        assert ops.intersect_many(lists) == (
            sorted(set.intersection(*map(set, lists))) if lists else []
        )

    @fixture_ok
    @given(lists=st.lists(position_lists, max_size=5))
    def test_union_disjoint(self, kernel, lists):
        # Make the lists pairwise disjoint by striding each into its
        # own residue class, preserving sortedness.
        k = max(len(lists), 1)
        disjoint = [
            [p * k + i for p in lst] for i, lst in enumerate(lists)
        ]
        expect = sorted(set().union(*map(set, disjoint)))
        assert ops.union_disjoint_sorted(disjoint) == expect

    @fixture_ok
    @given(a=position_lists, universe=st.integers(0, 260))
    def test_complement(self, kernel, a, universe):
        a = [p for p in a if p < universe]
        expect = [p for p in range(universe) if p not in set(a)]
        assert ops.complement_sorted(a, universe) == expect

    @fixture_ok
    @given(
        a=position_lists,
        a_comp=st.booleans(),
        b=position_lists,
        b_comp=st.booleans(),
    )
    def test_complemented_operands(self, kernel, a, a_comp, b, b_comp):
        # The aware twins compose the dispatched base kernels; check
        # them against materialized sets over a concrete universe.
        universe = 230
        sa = set(range(universe)) - set(a) if a_comp else set(a)
        sb = set(range(universe)) - set(b) if b_comp else set(b)

        def concrete(stored, comp):
            return set(range(universe)) - set(stored) if comp else set(stored)

        got, comp = ops.union_aware(a, a_comp, b, b_comp)
        assert concrete(got, comp) == sa | sb
        got, comp = ops.intersect_aware(a, a_comp, b, b_comp)
        assert concrete(got, comp) == sa & sb
        got, comp = ops.difference_aware(a, a_comp, b, b_comp)
        assert concrete(got, comp) == sa - sb
        assert ops.union_aware_count(a, a_comp, b, b_comp, universe) == len(
            sa | sb
        )
        assert ops.intersect_aware_count(
            a, a_comp, b, b_comp, universe
        ) == len(sa & sb)
        assert ops.difference_aware_count(
            a, a_comp, b, b_comp, universe
        ) == len(sa - sb)

    @fixture_ok
    @given(
        a=position_lists,
        a_comp=st.booleans(),
        groups=st.lists(
            st.tuples(position_lists, st.booleans()), max_size=6
        ),
    )
    def test_many_count_matches_per_leaf_loop(
        self, kernel, a, a_comp, groups
    ):
        # Random flags reach all four complement combinations, and the
        # strategies draw empty stored lists and empty leaves.
        universe = 230
        want = [
            ops.intersect_aware_count(a, a_comp, g, g_comp, universe)
            for g, g_comp in groups
        ]
        sa = set(range(universe)) - set(a) if a_comp else set(a)
        assert want == [
            len(sa & (set(range(universe)) - set(g) if g_comp else set(g)))
            for g, g_comp in groups
        ]
        assert ops.intersect_aware_count_many(
            a, a_comp, groups, universe
        ) == want
        assert kernels.intersect_aware_count_many(
            a, a_comp, groups, universe
        ) == want
        # evaluate_count_by hands over a generator that fetches each
        # leaf as it is reached: one pass, in order.
        assert ops.intersect_aware_count_many(
            a, a_comp, (g for g in groups), universe
        ) == want

    @pytest.mark.parametrize("a_comp", [False, True])
    @pytest.mark.parametrize("g_comp", [False, True])
    def test_many_count_empty_operands(self, kernel, a_comp, g_comp):
        universe = 10
        cases = [
            ([], [[], [3], [0, 9]]),
            ([2, 3], [[], [3, 4]]),
            ([], []),
        ]
        everything = set(range(universe))
        for a, leaves in cases:
            groups = [(g, g_comp) for g in leaves]
            sa = everything - set(a) if a_comp else set(a)
            assert ops.intersect_aware_count_many(
                a, a_comp, groups, universe
            ) == [
                len(sa & (everything - set(g) if g_comp else set(g)))
                for g in leaves
            ]

    def test_empty_operands(self, kernel):
        assert ops.intersect_sorted([], [1, 2]) == []
        assert ops.intersect_sorted([1, 2], []) == []
        assert ops.difference_sorted([], [1]) == []
        assert ops.difference_sorted([1], []) == [1]
        assert ops.union_sorted([]) == []
        assert ops.union_sorted([[], []]) == []
        assert ops.intersect_many([]) == []
        assert ops.intersect_many([[], [1]]) == []
        assert ops.complement_sorted([], 0) == []
        assert ops.complement_sorted([], 3) == [0, 1, 2]

    def test_results_are_fresh_lists(self, kernel):
        a = [1, 2, 3]
        for got in (
            ops.union_disjoint_sorted([a]),
            ops.union_sorted([a]),
            ops.difference_sorted(a, []),
        ):
            assert got == a and got is not a


class TestWahDecodeParity:
    """WahBitmap.positions() under each kernel vs. the reference."""

    @fixture_ok
    @given(
        data=st.data(),
        universe=st.integers(min_value=1, max_value=6 * GROUP_BITS + 5),
    )
    def test_roundtrip_group_edges(self, kernel, data, universe):
        positions = data.draw(
            st.lists(
                st.integers(0, universe - 1), unique=True
            ).map(sorted)
        )
        bm = WahBitmap.from_positions(positions, universe)
        assert bm.positions() == positions
        assert list(bm.iter_positions()) == positions

    @pytest.mark.parametrize(
        "universe",
        [1, GROUP_BITS - 1, GROUP_BITS, GROUP_BITS + 1, 2 * GROUP_BITS,
         3 * GROUP_BITS - 1, 3 * GROUP_BITS + 1],
    )
    def test_all_ones_at_group_edges(self, kernel, universe):
        positions = list(range(universe))
        bm = WahBitmap.from_positions(positions, universe)
        assert bm.positions() == positions

    def test_universe_boundary_position(self, kernel):
        for universe in (GROUP_BITS, GROUP_BITS + 1, 5 * GROUP_BITS + 3):
            bm = WahBitmap.from_positions([universe - 1], universe)
            assert bm.positions() == [universe - 1]

    def test_malformed_literal_raises(self, kernel):
        # A literal bit at/after the universe is corrupt data in every
        # kernel: universe 5, literal sets position 6.
        word = 1 << (GROUP_BITS - 1 - 6)
        bad = WahBitmap((word,), 5, 1)
        with pytest.raises(CodecError):
            bad.positions()

    def test_sparse_random_parity(self, kernel):
        rng = random.Random(13)
        universe = 40_000
        positions = sorted(rng.sample(range(universe), 700))
        bm = WahBitmap.from_positions(positions, universe)
        assert bm.positions() == positions

    def test_clustered_runs_parity(self, kernel):
        rng = random.Random(5)
        universe = 50_000
        positions, p = [], 0
        while p < universe:
            run = rng.randint(1, 400)
            positions.extend(range(p, min(p + run, universe)))
            p += run + rng.randint(1, 400)
        bm = WahBitmap.from_positions(positions, universe)
        assert bm.positions() == positions


class TestWahFillBoundaries:
    """Exact-boundary regressions for fill runs of _MAX_RUN groups.

    ``emit_fill`` must emit one fill word for exactly ``_MAX_RUN``
    equal groups and split at ``_MAX_RUN + 1``; both decoders must
    round-trip the split, and ``count`` must stay consistent.  The
    all-one cases narrow ``wah._MAX_RUN`` (3 — intentionally an
    all-ones bit pattern, since decoders mask ``word & _MAX_RUN``) so
    the splits are reachable without 2**30 groups of ones; the
    all-zero cases run at the real boundary, which costs only two
    literals around one giant zero fill.
    """

    def _fill_words(self, bm):
        return [w for w in bm.words if w >> 31]

    @pytest.mark.parametrize("extra", [0, 1])
    def test_zero_run_at_real_max_run(self, kernel, extra):
        # A literal group followed by exactly _MAX_RUN (+ extra)
        # trailing all-zero groups; the encoder's all-zero-tail
        # shortcut makes this O(1), so the split is tested at the real
        # 2**30 - 1 boundary.
        ngroups = _MAX_RUN + extra
        universe = (ngroups + 1) * GROUP_BITS
        positions = [0]
        bm = WahBitmap.from_positions(positions, universe)
        fills = self._fill_words(bm)
        runs = [w & _MAX_RUN for w in fills]
        assert all((w >> 30) & 1 == 0 for w in fills)
        if extra == 0:
            assert runs == [_MAX_RUN]
        else:
            assert sorted(runs) == [1, _MAX_RUN]
        assert sum(runs) == ngroups
        assert bm.positions() == positions
        assert bm.count == len(positions)

    @pytest.mark.parametrize("extra", [0, 1])
    def test_one_run_at_narrowed_max_run(
        self, kernel, monkeypatch, extra
    ):
        import repro.bits.wah as wah_mod

        monkeypatch.setattr(wah_mod, "_MAX_RUN", 3)
        ngroups = 3 + extra
        universe = (ngroups + 1) * GROUP_BITS
        positions = list(range(ngroups * GROUP_BITS))
        bm = WahBitmap.from_positions(positions, universe)
        # The trailing empty group encodes as a zero fill; the one
        # runs are what the narrowed boundary must split.
        one_runs = [
            w & 3 for w in self._fill_words(bm) if (w >> 30) & 1
        ]
        if extra == 0:
            assert one_runs == [3]
        else:
            assert one_runs == [3, 1]
        assert sum(one_runs) == ngroups
        assert bm.positions() == positions
        assert list(bm.iter_positions()) == positions
        assert bm.count == len(positions)

    def test_narrowed_zero_run_split_roundtrip(self, kernel, monkeypatch):
        import repro.bits.wah as wah_mod

        monkeypatch.setattr(wah_mod, "_MAX_RUN", 3)
        # 9 zero groups between two literals: splits into 3+3+3.
        universe = 11 * GROUP_BITS
        positions = [3, 10 * GROUP_BITS + 1]
        bm = WahBitmap.from_positions(positions, universe)
        runs = [w & 3 for w in self._fill_words(bm)]
        assert runs == [3, 3, 3]
        assert bm.positions() == positions


class TestGammaDecodeParity:
    """decode_gaps under each kernel: values, reader position, errors."""

    @fixture_ok
    @given(
        gaps=st.lists(st.integers(min_value=1, max_value=1 << 20)),
        tail=st.integers(min_value=1, max_value=500),
    )
    def test_positions_and_reader_position(self, kernel, gaps, tail):
        positions, prev = [], -1
        for g in gaps:
            prev += g
            positions.append(prev)
        w = BitWriter()
        encode_gaps(w, positions)
        marker_at = w.bit_length
        from repro.bits.gamma import write_gamma

        write_gamma(w, tail)
        r = BitReader(w.getvalue(), bit_length=w.bit_length)
        assert decode_gaps(r, len(positions)) == positions
        # The contract: exactly the gamma bits consumed, reader left
        # positioned for the next sequential decode.
        assert r.tell() == marker_at
        from repro.bits.gamma import read_gamma

        assert read_gamma(r) == tail

    def test_zero_count(self, kernel):
        r = BitReader(b"", bit_length=0)
        assert decode_gaps(r, 0) == []
        assert r.tell() == 0

    def test_truncated_unary_raises(self, kernel):
        # Six zero bits and no marker: unary runs off the stream.
        r = BitReader(b"\x00", bit_length=6)
        with pytest.raises(CodecError):
            decode_gaps(r, 1)

    def test_truncated_payload_raises(self, kernel):
        # "001" promises two payload bits; only one follows.
        r = BitReader(b"\x24", bit_length=4)
        with pytest.raises(CodecError):
            decode_gaps(r, 1)

    def test_bitmap_roundtrip_large_gaps(self, kernel):
        rng = random.Random(99)
        universe = 1 << 22
        positions = sorted(rng.sample(range(universe), 400))
        bm = GapCompressedBitmap.from_positions(positions, universe)
        assert bm.positions() == positions


class TestFastVsReferenceHeadToHead:
    """Direct fast-kernel calls against the reference loops."""

    @settings(
        max_examples=60,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        data=st.data(),
        universe=st.integers(min_value=1, max_value=4000),
    )
    def test_wah_decode_matches_iter(self, data, universe):
        positions = data.draw(
            st.lists(st.integers(0, universe - 1), unique=True).map(sorted)
        )
        bm = WahBitmap.from_positions(positions, universe)
        assert kernels.wah_decode(bm.words, bm.universe) == list(
            bm.iter_positions()
        )

    @fixture_ok
    @given(gaps=st.lists(st.integers(min_value=1, max_value=1 << 16)))
    def test_gamma_decode_matches_read_gamma(self, gaps):
        positions, prev = [], -1
        for g in gaps:
            prev += g
            positions.append(prev)
        w = BitWriter()
        encode_gaps(w, positions)
        fast_r = BitReader(w.getvalue(), bit_length=w.bit_length)
        got = kernels.decode_gaps_fast(fast_r, len(positions))
        from repro.bits.gamma import read_gamma

        ref_r = BitReader(w.getvalue(), bit_length=w.bit_length)
        expect, prev = [], -1
        for _ in positions:
            prev += read_gamma(ref_r)
            expect.append(prev)
        assert got == expect
        assert fast_r.tell() == ref_r.tell()
