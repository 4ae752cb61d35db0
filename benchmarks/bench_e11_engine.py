"""E11 — the engine: advisor picks vs fixed backends, and the cache.

The engine's claim is twofold.  First, the advisor's per-column choice
should land at (or near) the backend a fixed-choice caller would only
find by building *every* structure: we build the full static matrix on
four characteristic workloads and rank the advisor's pick by measured
cost (space + query I/O, the cost model's own currency).  Second,
repeated queries served from the LRU result cache must be measurably
faster than cold queries against the underlying structure.
"""

import time

import pytest

from repro.bench import cold_query, prefix_range_for_selectivity, standard_string
from repro.engine import (
    Advisor,
    CostModel,
    QueryEngine,
    WorkloadStats,
    specs,
)
from repro.model.entropy import h0
from repro.query import Range

N = 1 << 12

WORKLOADS = [
    ("low-card uniform", "uniform", 4, {}),
    ("zipf skew", "zipf", 64, {"theta": 1.2}),
    ("runs-heavy markov", "markov_runs", 32, {"stay": 0.97}),
    ("high-entropy uniform", "uniform", 256, {}),
]

SELS = [1 / 64, 1 / 4]
QUERIES_PER_BUILD = 64.0


@pytest.fixture(scope="module")
def workloads():
    return [
        (name, standard_string(kind, N, sigma, seed=21, **kw), sigma)
        for name, kind, sigma, kw in WORKLOADS
    ]


def measured_cost(x, sigma, idx):
    """Space + weighted query bits: the cost model's currency, measured."""
    space = idx.space().total_bits
    query_bits = 0.0
    for sel in SELS:
        lo, hi = prefix_range_for_selectivity(x, sigma, sel)
        idx.disk.flush_cache()
        with idx.stats.measure() as m:
            idx.range_query(lo, hi)
        query_bits += m.bits_read / len(SELS)
    return space + QUERIES_PER_BUILD * query_bits


@pytest.fixture(scope="module")
def measured_matrix(workloads):
    """Measured cost of every static exact backend on every workload,
    built once and shared by E11a (ranking) and E11e (calibration)."""
    fixed = specs(dynamism="static", exact=True)
    matrix = {}
    for name, x, sigma in workloads:
        for spec in fixed:
            idx = spec.build(x, sigma)
            matrix[(name, spec.name)] = measured_cost(x, sigma, idx)
    return fixed, matrix


def test_e11a_advisor_rank_in_fixed_matrix(
    workloads, measured_matrix, report, benchmark
):
    fixed, matrix = measured_matrix
    rows = []
    for name, x, sigma in workloads:
        stats = WorkloadStats.measure(x, sigma)
        pick = Advisor().pick(stats)
        costs = {spec.name: matrix[(name, spec.name)] for spec in fixed}
        ranked = sorted(costs, key=costs.get)
        best, worst = ranked[0], ranked[-1]
        rank = ranked.index(pick.name) + 1
        rows.append(
            [
                name,
                f"{h0(x):.2f}",
                pick.name,
                f"{rank}/{len(ranked)}",
                best,
                f"{costs[pick.name] / costs[best]:.2f}x",
                f"{costs[worst] / costs[pick.name]:.1f}x",
            ]
        )
        # The advisor must always land in the better half of the
        # matrix, never at the bottom.
        assert rank <= len(ranked) // 2, (
            f"advisor picked {pick.name} ranked {rank} on {name}"
        )
    report.table(
        "E11a  advisor pick vs the measured fixed-backend matrix "
        f"(n={N}, space + {QUERIES_PER_BUILD:.0f} queries)",
        ["workload", "H0", "advisor pick", "rank", "measured best",
         "vs best", "worst vs pick"],
        rows,
        note="rank = advisor's position among all static exact backends "
        "by measured cost; 'vs best' is the advisor's regret.",
    )
    benchmark(lambda: Advisor().pick(WorkloadStats.measure(workloads[0][1], 4)))


def test_e11b_advisor_families_match_theory(workloads, report, benchmark):
    # The *analytic* advisor documents the paper's taxonomy; the
    # calibrated default (CostModel()) re-weighs these verdicts by
    # measurement and may disagree — both are recorded.
    analytic = Advisor(CostModel(calibration=None))
    rows = []
    for name, x, sigma in workloads:
        stats = WorkloadStats.measure(x, sigma)
        pick = analytic.pick(stats)
        default_pick = Advisor().pick(stats)
        rows.append(
            [name, sigma, f"{stats.h0:.2f}", pick.name, pick.family,
             default_pick.name]
        )
    report.table(
        "E11b  who the advisor chooses where",
        ["workload", "sigma", "H0", "backend", "family",
         "calibrated default pick"],
        rows,
        note="the paper's §1.3 message: bitmap variants at low "
        "cardinality, the entropy-bounded Thm-2 structure at high "
        "entropy (with sigma << n); the last column is the checked-in "
        "calibrated model's (possibly re-ranked) verdict.",
    )
    by_name = {row[0]: row[4] for row in rows}
    assert by_name["low-card uniform"] == "bitmap"
    assert by_name["high-entropy uniform"] == "pagh-rao"
    benchmark(lambda: Advisor().rank(WorkloadStats.measure(workloads[0][1], 4)))


def test_e11c_cache_hot_vs_cold(workloads, report, benchmark):
    _, x, sigma = workloads[-1]
    engine = QueryEngine(cache_size=256)
    engine.add_column("c", x, sigma)
    ranges = [
        prefix_range_for_selectivity(x, sigma, sel)
        for sel in [1 / 128, 1 / 32, 1 / 8, 1 / 2]
    ]
    index = engine.columns["c"].index

    def run_cold():
        total = 0
        for lo, hi in ranges:
            index.disk.flush_cache()
            total += index.range_query(lo, hi).cardinality
        return total

    def run_hot():
        total = 0
        for lo, hi in ranges:
            total += engine.query("c", lo, hi).cardinality
        return total

    run_hot()  # warm the result cache
    t0 = time.perf_counter()
    for _ in range(20):
        cold_total = run_cold()
    cold_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(20):
        hot_total = run_hot()
    hot_s = time.perf_counter() - t0

    assert hot_total == cold_total
    assert hot_s < cold_s / 2, (
        f"cached queries not measurably faster: hot={hot_s:.4f}s "
        f"cold={cold_s:.4f}s"
    )
    report.table(
        "E11c  LRU result cache: hot vs cold (20 rounds x 4 ranges)",
        ["mode", "seconds", "speedup", "cache hit rate"],
        [
            ["cold (flushed disk cache)", f"{cold_s:.4f}", "1.0x", "-"],
            [
                "hot (engine LRU)",
                f"{hot_s:.4f}",
                f"{cold_s / max(hot_s, 1e-9):.0f}x",
                f"{engine.cache.hit_rate:.0%}",
            ],
        ],
        note="identical answers; the engine serves repeats from the "
        "result cache and invalidates on the update paths (E11d).",
    )
    benchmark(run_hot)


def test_e11e_calibration_table_fits_family_weights(
    workloads, measured_matrix, report, benchmark
):
    """Record estimated vs measured cost per backend — the calibration
    table ``CostModel.from_reports`` fits per-family weights from —
    then prove the round-trip on this very report."""
    fixed, matrix = measured_matrix
    # The estimated column must be the *analytic* model's: the fitted
    # weights correct the raw estimators (fitting against the already
    # calibrated default would double-apply the correction).
    model = CostModel(queries_per_build=QUERIES_PER_BUILD, calibration=None)
    stats_by_workload = {
        name: [
            WorkloadStats.measure(x, sigma, expected_selectivity=sel)
            for sel in SELS
        ]
        for name, x, sigma in workloads
    }
    rows = []
    for spec in fixed:
        est = measured = 0.0
        for name, x, sigma in workloads:
            stats_per_sel = stats_by_workload[name]
            est += sum(model.score(spec, s) for s in stats_per_sel) / len(SELS)
            measured += matrix[(name, spec.name)]
        rows.append([spec.name, spec.family, est, measured])
    report.table(
        "E11e  calibration: estimated vs measured cost "
        f"(summed over {len(workloads)} workloads)",
        ["backend", "family", "est_bits", "measured_bits"],
        rows,
        note="CostModel.from_reports() fits family weights as "
        "measured/estimated ratios from exactly this table.",
    )
    # Round-trip: save what we have so far and fit weights from it.
    report.save()
    path = report.json_path(report.out_dir, report.name)
    calibrated = CostModel.from_reports([path])
    families = {spec.family for spec in fixed}
    for family in families:
        weight = calibrated.family_weight(family)
        assert 0.0 < weight < float("inf")
        assert weight != 1.0  # a measured ratio, not the neutral default
    # Emit the compact feedback artifact: the per-family weights JSON
    # that CostModel.load_calibrated() (and through it Table /
    # ShardedTable via cost_model=) loads back in — the workflow
    # documented in src/repro/engine/README.md.
    import json
    import os

    weights_path = os.path.join(report.out_dir, "e11_family_weights.json")
    with open(weights_path, "w") as f:
        json.dump(
            {
                "family_weights": dict(calibrated.family_weights),
                "source": report.name,
            },
            f,
            indent=2,
        )
    loaded = CostModel.load_calibrated(weights_path)
    assert loaded.family_weights == calibrated.family_weights
    # ...and the report-JSON fallback parses to the same weights.
    assert (
        CostModel.load_calibrated(path).family_weights
        == calibrated.family_weights
    )
    # The calibrated model must not degrade the advisor's verdict: its
    # pick still lands in the better half of the measured matrix.
    for name, x, sigma in workloads:
        stats = WorkloadStats.measure(x, sigma)
        pick = Advisor(loaded).pick(stats)
        costs = {spec.name: matrix[(name, spec.name)] for spec in fixed}
        ranked = sorted(costs, key=costs.get)
        assert ranked.index(pick.name) + 1 <= len(ranked) // 2, (
            f"calibrated advisor picked {pick.name} on {name}"
        )
    # End to end: tables accept the loaded model and still serve.
    from repro.queries import Table

    table = Table({"v": [3, 1, 4, 1, 5, 9, 2, 6]}, cost_model=loaded)
    assert table.select(Range("v", 1, 4)) == [0, 1, 2, 3, 6]
    benchmark(lambda: CostModel.load_calibrated(weights_path))


def test_e11d_invalidation_keeps_answers_exact(workloads, report, benchmark):
    engine = QueryEngine(cache_size=64)
    x = standard_string("uniform", 1 << 10, 16, seed=22)
    engine.add_column("d", list(x), 16, dynamism="fully_dynamic")
    model = list(x)
    stale = 0
    checks = 0
    for step in range(200):
        lo, hi = step % 8, step % 8 + 8
        want = [i for i, c in enumerate(model) if lo <= c <= hi]
        # Twice per step: the second answer is a cache hit that must
        # reflect every update applied so far.
        for _ in range(2):
            got = engine.query("d", lo, hi).positions()
            checks += 1
            if got != want:
                stale += 1
        if step % 3 == 0:
            pos, ch = (step * 7) % len(model), (step * 5) % 16
            engine.change("d", pos, ch)
            model[pos] = ch
        else:
            engine.append("d", step % 16)
            model.append(step % 16)
    assert stale == 0
    report.table(
        "E11d  cache correctness under 200 interleaved update/query steps",
        ["checks", "stale answers", "cache hits", "cache misses"],
        [[checks, stale, engine.cache.hits, engine.cache.misses]],
        note="every query checked against a plain-Python model while "
        "appends and changes invalidate the column's cache entries.",
    )
    benchmark(lambda: engine.query("d", 0, 15).cardinality)
