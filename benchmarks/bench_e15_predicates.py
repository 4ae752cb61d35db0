"""E15 — the predicate algebra: plans that read only what they must.

Four claims.  (a) Disjunction width scales in *unique leaves*: an
``Or`` of w disjoint ranges costs w leaf fetches, each individually
cached, and stays bit-identical to the brute oracle at every width.
(b) An IN-list compiles to maximal code-interval *runs* via the
dictionary: a contiguous membership list costs one range query and
reads strictly fewer index bits than the per-point ``Eq`` loop it
replaces.  (c) Disjuncts share cached legs: a leaf paid for by one
arm of an ``Or`` is a cache hit for every later predicate that
reuses it — zero index bits for the shared leg.  (d) The acceptance
claim: a ``Not`` over a *sparse* predicate fetches the sparse leaf
and subtracts (complement-aware set algebra, §2.1's representation
reused), reading strictly fewer index bits than materializing the
complement as the two flanking range queries.  A final parity check
runs a fixed predicate workload through ``ClusterEngine`` under the
serial and worker-resident executors: identical RIDs, identical
aggregated I/O (the batched compiled-leaf fetch op buys no slack).
"""

from collections import Counter

import pytest

from repro.bench import standard_string
from repro.cluster import ClusterEngine, ProcessExecutor
from repro.engine import QueryEngine
from repro.query import And, Eq, In, Not, Or, Range

N = 1 << 12
SIGMA = 64
THETA = 1.3


@pytest.fixture(scope="module")
def data():
    return standard_string("zipf", N, SIGMA, seed=151, theta=THETA)


def fresh_engine(data):
    engine = QueryEngine(cache_size=512)
    engine.add_column("c", data, SIGMA)
    return engine


def go_cold(engine):
    engine.cache.invalidate()
    for column in engine.columns.values():
        column.index.disk.flush_cache()


def bits_of(engine, fn):
    stats = engine.columns["c"].index.stats
    before = stats.snapshot()
    result = fn()
    return result, (stats.snapshot() - before).bits_read


def oracle(data, pred_fn):
    return [i for i, v in enumerate(data) if pred_fn(v)]


def test_e15a_disjunction_width_scaling(data, report, benchmark):
    engine = fresh_engine(data)
    rows = []
    prev_leaves = 0
    for width in (1, 2, 4, 8, 16):
        # Non-adjacent single-code ranges, so normalization cannot
        # merge them: the plan's unique-leaf count IS the width.
        codes = [2 * k for k in range(width)]
        pred = Or(*(Range("c", c, c) for c in codes))
        plan = engine.plan(pred)
        assert len(plan.leaves) == width
        assert len(plan.leaves) >= prev_leaves
        prev_leaves = len(plan.leaves)
        go_cold(engine)
        got, cold_bits = bits_of(engine, lambda: engine.select(pred))
        assert got == oracle(data, lambda v: v in set(codes))
        _, hot_bits = bits_of(engine, lambda: engine.select(pred))
        assert hot_bits == 0  # every leaf served from the result cache
        rows.append([width, len(plan.leaves), cold_bits, hot_bits])
    report.table(
        "E15a  disjunction width: unique leaves and bits read "
        f"(n={N}, sigma={SIGMA}, zipf {THETA})",
        ["or-width", "unique leaves", "cold bits", "hot bits"],
        rows,
        note="an Or of w disjoint ranges compiles to exactly w leaf "
        "fetches; repeats are served entirely from the result cache.",
    )
    benchmark(lambda: engine.select(Or(Range("c", 0, 0), Range("c", 2, 2))))


def test_e15b_in_list_vs_per_point_loop(data, report, benchmark):
    members = list(range(8, 24))  # 16 adjacent codes -> ONE interval run
    in_pred = In("c", members)
    # A range-friendly backend makes the claim sharp: range-encoded
    # bitmaps answer ANY interval with <= 2 bitmap reads, so one run
    # beats 16 point queries outright.  (On a per-code backend like
    # bitmap-gamma both plans read the same bitmaps — the run still
    # wins on round-trips and result-cache entries.)
    def pinned_engine():
        engine = QueryEngine(cache_size=512)
        engine.add_column("c", data, SIGMA, backend="bitmap-range-encoded")
        return engine

    engine = pinned_engine()
    plan = engine.plan(in_pred)
    assert len(plan.leaves) == 1, "adjacent members must fuse into a run"
    go_cold(engine)
    want, in_bits = bits_of(engine, lambda: engine.select(in_pred))
    assert want == oracle(data, lambda v: v in set(members))

    # The pre-algebra alternative: one Eq select per member, unioned.
    loop_engine = pinned_engine()
    go_cold(loop_engine)

    def per_point():
        out = set()
        for member in members:
            out.update(loop_engine.select(Eq("c", member)))
        return sorted(out)

    got, loop_bits = bits_of(loop_engine, per_point)
    assert got == want
    assert in_bits < loop_bits, (
        f"IN-list run read {in_bits} bits, per-point loop {loop_bits}"
    )
    # Scattered members still collapse to runs, never more leaves
    # than members.
    scattered = In("c", list(range(0, 32, 4)))
    assert len(engine.plan(scattered).leaves) == 8
    report.table(
        "E15b  IN-list (interval runs) vs per-point Eq loop "
        f"({len(members)} adjacent members)",
        ["plan", "leaf fetches", "bits read"],
        [
            ["In(...) as one run", 1, in_bits],
            ["Eq loop + union", len(members), loop_bits],
            ["advantage", "-", f"{loop_bits / max(in_bits, 1):.1f}x fewer"],
        ],
        note="the dictionary turns adjacent membership codes into one "
        "range query (§1.1); the loop pays per member.",
    )
    benchmark(lambda: engine.select(in_pred))


def test_e15c_cached_leg_reuse_across_or_arms(data, report, benchmark):
    shared = Range("c", 4, 9)
    first = Or(shared, Range("c", 20, 33))
    second = And(shared, Range("c", None, 25))
    cold_engine = fresh_engine(data)
    go_cold(cold_engine)
    _, second_cold = bits_of(cold_engine, lambda: cold_engine.select(second))

    engine = fresh_engine(data)
    go_cold(engine)
    _, first_bits = bits_of(engine, lambda: engine.select(first))
    hits_before = engine.cache.hits
    _, second_bits = bits_of(engine, lambda: engine.select(second))
    assert engine.cache.hits > hits_before, "the shared leg must hit"
    assert second_bits < second_cold, (
        f"shared leg not reused: {second_bits} vs cold {second_cold}"
    )
    report.table(
        "E15c  cached-leg reuse across predicates",
        ["query", "bits read"],
        [
            ["Or(A, B)  (cold)", first_bits],
            ["And(A, C) after the Or", second_bits],
            ["And(A, C) cold (control)", second_cold],
        ],
        note="leaf cache keys are the normalized intervals, so any "
        "predicate reusing a leg pays zero index bits for it.",
    )
    benchmark(lambda: engine.select(second))


def test_e15d_not_sparse_beats_materialized_complement(
    data, report, benchmark
):
    """The acceptance criterion: a Not plan over a sparse predicate
    reads fewer index bits than materializing the complement."""
    counts = Counter(data)
    rare = min(
        (c for c in range(SIGMA) if counts.get(c)), key=counts.get
    )
    sparse_z = counts[rare]
    engine = fresh_engine(data)
    plan = engine.plan(Not(Eq("c", rare)))
    assert len(plan.leaves) == 1
    go_cold(engine)
    want, not_bits = bits_of(
        engine, lambda: engine.select(Not(Eq("c", rare)))
    )
    assert want == oracle(data, lambda v: v != rare)

    # The materialized alternative: query the complement's two
    # flanking ranges directly and concatenate.
    comp_engine = fresh_engine(data)
    go_cold(comp_engine)

    def materialized():
        out = []
        if rare > 0:
            out.extend(comp_engine.select(Range("c", 0, rare - 1)))
        if rare < SIGMA - 1:
            out.extend(comp_engine.select(Range("c", rare + 1, SIGMA - 1)))
        return sorted(out)

    got, comp_bits = bits_of(comp_engine, materialized)
    assert got == want
    assert not_bits < comp_bits, (
        f"Not plan read {not_bits} bits, materialized complement "
        f"{comp_bits} — the sparse leaf must win"
    )
    report.table(
        "E15d  Not over a sparse predicate (z={}) vs materialized "
        "complement".format(sparse_z),
        ["plan", "bits read"],
        [
            [f"Not(Eq(c, {rare})) — sparse leaf + flip", not_bits],
            ["flanking ranges materialized", comp_bits],
            ["advantage", f"{comp_bits / max(not_bits, 1):.1f}x fewer bits"],
        ],
        note="the complement-aware algebra reuses the paper's §2.1 "
        "representation: the answer is the sparse leaf, flagged "
        "complemented, never expanded by the index layer.",
    )
    benchmark(lambda: engine.select(Not(Eq("c", rare))))


def test_e15e_cluster_parity_serial_vs_process(data, report):
    """A fixed predicate workload is bit-identical — results and
    aggregated I/O — under the serial and worker-resident executors,
    leaf fetches batched into one pipe message per worker."""
    preds = [
        And(Range("c", 4, 20), Or(In("c", [2, 3, 40]), Not(Eq("c", 7)))),
        Or(*(Range("c", 3 * k, 3 * k + 1) for k in range(6))),
        And(Not(In("c", [0, 1])), Range("c", None, 30)),
    ]
    rows = []
    with ProcessExecutor(max_workers=2) as pool:
        serial = ClusterEngine(num_shards=4)
        resident = ClusterEngine(num_shards=4, executor=pool)
        serial.add_column("c", data, SIGMA)
        resident.add_column("c", data, SIGMA)
        try:
            for i, pred in enumerate(preds):
                want = serial.select(pred)
                got = resident.select(pred)
                assert got == want
                # Batch-scatter form: one grouped message per worker.
                assert (
                    resident.query(pred).positions()
                    == serial.query(pred).positions()
                    == want
                )
                rows.append(
                    [i, repr(pred)[:48] + "...", len(want),
                     len(serial.plan(pred).leaves)]
                )
            assert (
                resident.scatter_io.snapshot()
                == serial.scatter_io.snapshot()
            )
        finally:
            resident.close()
    report.table(
        "E15e  predicate parity: serial vs worker-resident executors",
        ["#", "predicate", "matches", "unique leaves"],
        rows,
        note="identical RIDs and identical aggregated scatter I/O; "
        "resident leaf fetches ship one grouped message per worker.",
    )
