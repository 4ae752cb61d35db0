"""E4 — Theorem 4: appends in amortized O(lg lg n) I/Os.

Measures the amortized block transfers per append across string sizes
(the bound grows only doubly-logarithmically) and confirms queries
after appends retain the Theorem 2 shape.  E4d appends codes the build
never saw: they go to provisional leaves, so the same bound holds.
"""

import math

import pytest

from repro.bench import cold_query, output_bits_bound, ratio, standard_string
from repro.core import AppendableIndex, BufferedAppendableIndex

SIGMA = 64


def _amortized_append_io(n0: int, appends: int, mem_blocks: int = 4) -> float:
    x = standard_string("uniform", n0, SIGMA, seed=11)
    idx = AppendableIndex(
        x, SIGMA, rebuild_factor=2.0, mem_blocks=mem_blocks
    )
    extra = standard_string("uniform", appends, SIGMA, seed=12)
    idx.stats.reset()
    for ch in extra:
        idx.append(ch)
    return idx.stats.total / appends


def test_e4_append_cost_vs_n(report, benchmark):
    rows = []
    for n0 in [1 << 10, 1 << 12, 1 << 14]:
        per_op = _amortized_append_io(n0, appends=n0 // 2)
        bound = math.log2(math.log2(n0)) + 2  # lg lg n + materialized-leaf slack
        rows.append(
            [n0, f"{per_op:.2f}", f"{bound:.2f}", ratio(per_op, bound)]
        )
    report.table(
        "E4a  Theorem 4 append cost (amortized block I/Os per append)",
        ["n at build", "I/Os per append", "lg lg n + 2", "ratio"],
        rows,
        note="includes rebuild charges (doubling policy); ratio must stay "
        "O(1) as n grows 16x.",
    )
    idx = AppendableIndex(standard_string("uniform", 2048, SIGMA, seed=13), SIGMA)
    benchmark(lambda: idx.append(3))


def test_e4_queries_after_appends_keep_theorem2_shape(report, benchmark):
    n0 = 1 << 12
    x = standard_string("uniform", n0, SIGMA, seed=14)
    idx = AppendableIndex(x, SIGMA, rebuild_factor=4.0)
    extra = standard_string("uniform", n0 // 2, SIGMA, seed=15)
    for ch in extra:
        idx.append(ch)
    rows = []
    B = idx.disk.block_bits
    for lo, hi in [(3, 3), (0, 7), (0, 31), (10, 40)]:
        io = cold_query(idx, lo, hi)
        bound = output_bits_bound(idx.n, io["z"]) / B + 2 * math.log2(idx.n)
        rows.append(
            [f"[{lo},{hi}]", io["z"], io["reads"], f"{bound:.1f}",
             ratio(io["reads"], bound)]
        )
    report.table(
        "E4b  query I/O after 50% growth by appends",
        ["range", "z", "block reads", "bound", "ratio"],
        rows,
        note="chained blocks waste O(1) I/O per bitmap (DESIGN.md sub. 2); "
        "the bound uses lg n slack accordingly.",
    )
    benchmark(lambda: idx.range_query(0, 31))


def test_e4_space_preserved(report, benchmark):
    # After appends + rebuild, space returns to the Theorem 2 budget.
    from repro.model.entropy import entropy_bits

    n0 = 1 << 12
    x = standard_string("zipf", n0, SIGMA, seed=16, theta=1.0)
    idx = AppendableIndex(x, SIGMA, rebuild_factor=2.0)
    extra = standard_string("zipf", n0 + 10, SIGMA, seed=17, theta=1.0)
    for ch in extra:
        idx.append(ch)  # forces one rebuild
    assert idx.rebuilds >= 1
    final_x = x + extra
    bound = entropy_bits(final_x) + len(final_x)
    rows = [
        [idx.n, idx.rebuilds, idx.space().payload_bits, f"{bound:,.0f}",
         ratio(idx.space().payload_bits, bound)]
    ]
    report.table(
        "E4c  space after growth (payload vs nH0 + n)",
        ["n now", "rebuilds", "payload bits", "nH0+n", "ratio"],
        rows,
        note="block chains round bitmaps up to whole blocks; the ratio "
        "includes that overhead and must stay O(1).",
    )
    benchmark(lambda: idx.count_range(0, SIGMA - 1))


def _never_seen_append_io(cls, n0: int) -> tuple[float, int]:
    """Block I/Os per append and rebuilds when half the codes are new."""
    x = [2 * c for c in standard_string("uniform", n0, SIGMA // 2, seed=18)]
    idx = cls(x, SIGMA, rebuild_factor=2.0, mem_blocks=4)  # as in E4a
    extra = standard_string("uniform", n0 // 2, SIGMA, seed=19)
    idx.stats.reset()
    for ch in extra:
        idx.append(ch)
    return idx.stats.total / len(extra), idx.rebuilds


def test_e4d_never_seen_codes(report, benchmark):
    rows = []
    for n0 in [1 << 10, 1 << 12, 1 << 14]:
        bound = math.log2(math.log2(n0)) + 2
        for cls in (AppendableIndex, BufferedAppendableIndex):
            per_op, rebuilds = _never_seen_append_io(cls, n0)
            rows.append(
                [cls.__name__, n0, rebuilds, f"{per_op:.2f}", f"{bound:.2f}",
                 ratio(per_op, bound)]
            )
            assert per_op <= bound, (cls.__name__, n0, per_op)
    report.table(
        "E4d  appends over all of sigma=64 after a build over its even half",
        ["index", "n at build", "rebuilds", "I/Os per append", "lg lg n + 2",
         "ratio"],
        rows,
        note="n0/2 appends; each odd code starts a provisional leaf, and "
        "more than lg n of them fold into the tree by a rebuild.",
    )
    x = [2 * c for c in standard_string("uniform", 2048, SIGMA // 2, seed=20)]
    idx = AppendableIndex(x, SIGMA)
    benchmark(lambda: idx.append(1))
