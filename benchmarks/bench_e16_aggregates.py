"""E16 — aggregate pushdown: answers, not row-id lists.

Four claims.  (a) The acceptance claim: ``count`` over a wide
positive disjunction reads *strictly fewer* index bits than
materialize-then-``len`` (every leg fetched, then folded) — the fold
watches the union's cardinality and stops fetching legs the moment
it saturates the universe.  ``select`` runs the same fold, so it
reads exactly the bits ``count`` does.  (b) ``exists`` reads fewer
bits still: it stops at the first non-empty disjunct.  (c) At cluster
scale the fold ships *counts* across the worker pipes: the
coordinator gathers zero positions and the reply payload is bytes,
not megabytes — measured against coordinator-side
materialize-then-count over the same predicates.  (d) Cost-ordered
``And`` evaluation (the advisor's predicted bits ordering legs)
fetches a cheap empty leg first and skips the expensive one, reading
fewer bits than the canonical leaf-table order.  (e) A repeated
aggregate costs nothing at the coordinator: each shard's fold value
sits in the shared result cache under its shard's column versions, so
the identical repeat sends no ``fold`` message and reads no bits, and
a write routed to one shard makes exactly that shard fold again.
These are counts, not timings, so the claim holds on any host.
"""

import pickle

import pytest

from repro.bench import standard_string
from repro.cluster import ClusterEngine, ProcessExecutor
from repro.engine import QueryEngine
from repro.query import (
    And,
    Not,
    Or,
    Range,
    compile_pred,
    evaluate,
    evaluate_fetch,
)

N = 1 << 12
SIGMA = 64
THETA = 1.3


@pytest.fixture(scope="module")
def data():
    # Column "c"'s codes live in {0..3} U {8..11}, so its two legs in
    # the wide disjunction below cover every row; column "d" (codes
    # {20..27}) supplies non-empty legs that become redundant once the
    # union saturates.  Same-column legs would constant-fold in
    # normalization — cross-column legs survive to execution.
    base = standard_string("zipf", N, 8, seed=161, theta=THETA)
    other = standard_string("zipf", N, 8, seed=162, theta=THETA)
    return (
        [c if c < 4 else c + 4 for c in base],
        [c + 20 for c in other],
    )


def fresh_engine(data):
    c, d = data
    engine = QueryEngine(cache_size=512)
    engine.add_column("c", c, SIGMA)
    engine.add_column("d", d, SIGMA)
    return engine


def go_cold(engine):
    engine.cache.invalidate()
    for column in engine.columns.values():
        column.index.disk.flush_cache()


def bits_of(engine, fn):
    columns = list(engine.columns.values())
    before = [col.index.stats.snapshot() for col in columns]
    result = fn()
    read = sum(
        (col.index.stats.snapshot() - b).bits_read
        for col, b in zip(columns, before)
    )
    return result, read


WIDE_OR = Or(
    Range("c", 0, 3),
    Range("c", 8, 11),
    Range("d", 20, 22),  # gap at 23 keeps the legs from merging
    Range("d", 24, 27),
)


def test_e16a_count_beats_materialize_then_len(data, report, benchmark):
    """The acceptance criterion: count-from-bitmap reads strictly
    fewer index bits than materializing the RIDs and counting them."""
    count_engine = fresh_engine(data)
    go_cold(count_engine)
    got, count_bits = bits_of(
        count_engine, lambda: count_engine.count(WIDE_OR)
    )

    select_engine = fresh_engine(data)
    go_cold(select_engine)
    rids, select_bits = bits_of(
        select_engine, lambda: select_engine.select(WIDE_OR)
    )

    def materialize_then_len(engine):
        plan = compile_pred(WIDE_OR, lambda name: engine.column(name).sigma)
        legs = [engine.query(*leaf) for leaf in plan.leaves]
        return len(evaluate(plan, legs, N).positions())

    all_engine = fresh_engine(data)
    go_cold(all_engine)
    total, all_bits = bits_of(
        all_engine, lambda: materialize_then_len(all_engine)
    )
    assert got == len(rids) == total == N
    assert count_bits < all_bits, (
        f"count read {count_bits} bits, materialize-then-len "
        f"{all_bits} — saturation must cut the tail legs"
    )
    assert select_bits == count_bits, (
        f"select read {select_bits} bits, count {count_bits} — both "
        "run the one saturating fold"
    )
    report.table(
        "E16a  count(wide Or) vs materialize-then-len "
        f"(n={N}, sigma={SIGMA}, 4 legs, the first 2 carry all rows)",
        ["path", "bits read", "answer"],
        [
            ["count (cardinality fold)", count_bits, got],
            ["select + len (same fold)", select_bits, len(rids)],
            ["every leg fetched + len", all_bits, total],
            [
                "advantage",
                f"{all_bits / max(count_bits, 1):.1f}x fewer",
                "-",
            ],
        ],
        note="the fold tracks the union's *length* and stops fetching "
        "disjuncts once it saturates the universe; fetching every leg "
        "first and folding afterwards reads them all.",
    )
    benchmark(lambda: count_engine.count(WIDE_OR))


def test_e16b_exists_stops_at_first_evidence(data, report, benchmark):
    pred = Or(Range("c", 0, 3), Range("c", 8, 11))  # both legs non-empty
    exists_engine = fresh_engine(data)
    go_cold(exists_engine)
    found, exists_bits = bits_of(
        exists_engine, lambda: exists_engine.exists(pred)
    )
    assert found

    count_engine = fresh_engine(data)
    go_cold(count_engine)
    total, count_bits = bits_of(
        count_engine, lambda: count_engine.count(pred)
    )
    assert total == N
    assert exists_bits < count_bits, (
        f"exists read {exists_bits} bits, count {count_bits} — the "
        "first non-empty disjunct must settle it"
    )
    report.table(
        "E16b  exists vs count over a two-leg disjunction",
        ["verb", "bits read"],
        [
            ["exists (first evidence)", exists_bits],
            ["count (full fold)", count_bits],
        ],
        note="exists recurses Or disjuncts cheapest-first and returns "
        "at the first non-empty fold; count must combine every leg "
        "(modulo saturation).",
    )
    benchmark(lambda: exists_engine.exists(pred))


def test_e16c_pushdown_ships_counts_not_rids(data, report):
    """The cluster acceptance claim: aggregates under a worker-resident
    executor return oracle answers while zero positions cross the
    pipes — only fold ops run, and the reply payloads are integers."""
    preds = [
        Or(Range("c", 0, 3), Range("c", 16, 19)),
        Not(Range("c", 0, 1)),
        And(Range("c", 0, 10), Or(Range("c", 2, 3), Range("c", 8, 9))),
    ]
    rows = []
    with ProcessExecutor(max_workers=2) as pool:
        cluster = ClusterEngine(num_shards=4, executor=pool)
        cluster.add_column("c", data[0], SIGMA)
        try:
            for i, pred in enumerate(preds):
                oracle = [
                    rid for rid in range(N)
                    if rid in set(cluster.select(pred))
                ]
                pool.op_counts.clear()
                rids_before = cluster.gather_rids
                got = cluster.count(pred)
                assert got == len(oracle)
                fold_ops = pool.op_counts.get("fold", 0)
                assert pool.op_counts.get("query", 0) == 0
                assert cluster.gather_rids == rids_before, (
                    "the fold path must gather zero positions"
                )
                # Payload economics: what each path sends back per
                # shard, estimated with pickle (the pipes' codec).
                count_bytes = len(pickle.dumps(got))
                rid_bytes = len(pickle.dumps(oracle))
                rows.append(
                    [i, got, fold_ops, count_bytes, rid_bytes]
                )
        finally:
            cluster.close()
    report.table(
        "E16c  aggregate pushdown over worker pipes "
        f"(n={N}, 4 shards, 2 workers)",
        ["#", "count", "fold ops", "count reply B", "rid list B"],
        rows,
        note="counts come back as integers (plus an I/O snapshot); "
        "the coordinator-side alternative ships the full global "
        "row-id list across the pipe before it can call len().",
    )


def test_e16d_cost_ordered_and_skips_expensive_leg(data, report, benchmark):
    # Leaf table order is c's wide leg first, then d's point leg.  The
    # point leg sits in the result cache (a prior query paid for it),
    # so its predicted cost is zero: cost ordering probes it first,
    # finds it empty, and never touches the wide uncached leg.  Both
    # engines get the identical warm cache — only the leg order
    # differs.
    pred = And(Range("c", 0, 40), Range("d", 60, 60))
    plan = compile_pred(pred, lambda _name: SIGMA)

    def warmed_engine():
        engine = fresh_engine(data)
        engine.select(Range("d", 60, 60))  # cache the point leg
        for column in engine.columns.values():
            column.index.disk.flush_cache()
        return engine

    canonical_engine = warmed_engine()
    want, canonical_bits = bits_of(
        canonical_engine,
        lambda: evaluate_fetch(
            plan, canonical_engine.query, N
        ).positions(),
    )
    assert want == []

    ordered_engine = warmed_engine()
    costs = ordered_engine._leaf_costs(plan)
    assert costs[1] == 0.0, "the cached point leg must predict free"
    got, ordered_bits = bits_of(
        ordered_engine,
        lambda: evaluate_fetch(
            plan, ordered_engine.query, N, leaf_costs=costs
        ).positions(),
    )
    assert got == want
    assert ordered_bits < canonical_bits, (
        f"cost-ordered And read {ordered_bits} bits, canonical order "
        f"{canonical_bits} — the cheap empty leg must run first"
    )
    report.table(
        "E16d  And leg ordering: predicted cost vs leaf-table order",
        ["order", "bits read"],
        [
            ["leaf-table (wide leg first)", canonical_bits],
            ["cost-ordered (cached empty leg first)", ordered_bits],
            [
                "advantage",
                f"{canonical_bits / max(ordered_bits, 1):.1f}x fewer",
            ],
        ],
        note="order_children sorts And legs by predicted uncached "
        "bits (cached legs predict zero); an empty cheap leg "
        "short-circuits the conjunction before the expensive leg "
        "is ever fetched.",
    )
    benchmark(lambda: ordered_engine.select(pred))


def test_e16e_repeat_folds_are_answered_at_the_coordinator(data, report):
    """Fold values are cached per shard: a repeat sends no message."""
    codes = list(data[0])
    pred = Or(Range("c", 0, 2), Range("c", 8, 9))

    def matches(c):
        return 0 <= c <= 2 or 8 <= c <= 9

    def oracle():
        return sum(1 for c in codes if matches(c))

    rows = []
    with ProcessExecutor(max_workers=2) as pool:
        cluster = ClusterEngine(
            num_shards=4, executor=pool, drift_window=None
        )
        cluster.add_column("c", codes, SIGMA, dynamism="fully_dynamic")
        try:

            def step(label):
                pool.op_counts.clear()
                before = cluster.scatter_io.snapshot()
                got = cluster.count(pred)
                bits = (cluster.scatter_io.snapshot() - before).bits_read
                folds = pool.op_counts.get("fold", 0)
                assert got == oracle(), label
                rows.append([label, got, folds, bits])
                return folds, bits

            first_folds, first_bits = step("first count")
            assert first_folds == 4 and first_bits > 0
            assert step("identical repeat") == (0, 0)
            lo, _ = cluster.plan_.slices()[1]
            new = 5 if matches(codes[lo]) else 1  # flips the row
            cluster.change("c", lo, new)
            codes[lo] = new
            folds, bits = step("repeat after a change to shard 1")
            assert folds == 1 and bits > 0
            assert step("identical repeat") == (0, 0)
        finally:
            cluster.close()
    report.table(
        "E16e  repeated count: fold messages and bits "
        f"(n={N}, 4 shards, 2 workers)",
        ["call", "count", "fold msgs", "bits read"],
        rows,
        note="each shard's fold value is cached at the coordinator "
        "under (shard uid, shard plan, column epoch and version); a "
        "write bumps one shard's version, so only that shard folds "
        "again.",
    )
