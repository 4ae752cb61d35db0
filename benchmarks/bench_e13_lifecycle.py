"""E13 — shard lifecycle: split cost, latency recovery, streaming gather.

Three claims.  (a) Under sustained appends the auto lifecycle keeps
every shard at or below ``target_shard_rows`` — the fleet of splits is
timed against the same append stream with the lifecycle off, so the
recorded overhead is the honest price of staying balanced.  (b) The
balance buys the advisor back its per-shard verdicts and recovers
query latency: a cluster whose last shard absorbed all growth is
measured against the rebalanced one on the identical data, and the
explicit ``rebalance()`` that converts the former into the latter is
timed (the "split cost" a deployment would pay online).  (c) The
streaming gather bounds memory: each shard folds the conjunctive
select itself, and on a low-selectivity select the peak buffered RID
count must stay within one shard (max shard rows) however large the
answer — asserted, not just recorded.
"""

import pytest

from repro.bench import best_of, standard_string
from repro.bench.workloads import random_ranges
from repro.cluster import ClusterEngine
from repro.query import And, Range

N = 1 << 12
SIGMA = 32
TARGET = 512
NUM_QUERIES = 16


@pytest.fixture(scope="module")
def append_stream():
    return standard_string("zipf", N, SIGMA, seed=61, theta=1.2)


@pytest.fixture(scope="module")
def query_batch():
    return random_ranges(SIGMA, NUM_QUERIES, seed=62)


def run_queries(cluster, query_batch):
    return [
        cluster.query("c", lo, hi).cardinality for lo, hi in query_batch
    ]


def test_e13a_autosplit_keeps_shards_bounded(
    append_stream, query_batch, report, benchmark
):
    base = standard_string("zipf", N, SIGMA, seed=60, theta=1.2)

    def grow(lifecycle: bool) -> ClusterEngine:
        cluster = ClusterEngine(
            target_shard_rows=TARGET,
            auto_split=lifecycle,
            drift_window=None,
        )
        cluster.add_column("c", base, SIGMA, dynamism="semidynamic")
        for ch in append_stream:
            cluster.append("c", ch)
        return cluster

    managed_s, managed = best_of(lambda: grow(True), repeats=1)
    frozen_s, frozen = best_of(lambda: grow(False), repeats=1)
    # Exactness: the lifecycle is invisible to answers.
    reference = run_queries(frozen, query_batch)
    assert run_queries(managed, query_batch) == reference
    # The balance claim: no shard above target, splits actually fired.
    assert managed.splits
    assert max(managed.shard_lengths("c")) <= TARGET
    assert max(frozen.shard_lengths("c")) > TARGET  # the control bloated
    managed_q, _ = best_of(lambda: run_queries(managed, query_batch), 3)
    frozen_q, _ = best_of(lambda: run_queries(frozen, query_batch), 3)
    report.table(
        f"E13a  auto-split under {N} appends onto n={N} "
        f"(target_shard_rows={TARGET})",
        ["lifecycle", "appends+splits", "final shards", "max shard rows",
         "splits", f"{NUM_QUERIES}-query batch"],
        [
            ["on", f"{managed_s:.4f}s", managed.num_shards,
             max(managed.shard_lengths("c")), len(managed.splits),
             f"{managed_q:.4f}s"],
            ["off (control)", f"{frozen_s:.4f}s", frozen.num_shards,
             max(frozen.shard_lengths("c")), 0, f"{frozen_q:.4f}s"],
        ],
        note="identical answers asserted; the lifecycle column's extra "
        "append time is the total split cost of staying balanced.",
    )
    benchmark(lambda: run_queries(managed, query_batch))


def test_e13b_rebalance_recovers_maintenance_pause(
    query_batch, report, benchmark
):
    # One fat shard (every append landed there) vs the same data
    # rebalanced.  The explicit rebalance is the timed "split cost";
    # the recovery shows up in the *online maintenance pause* — the
    # in-place rebuild any migration/freeze/split of the worst shard
    # must eat, which scales with that shard's rows.  (Total query
    # bits are answer-bound either way — §1.1's point — so the batch
    # wall-clock is recorded for honesty, not claimed as a win on the
    # serial in-process substrate.)
    from repro.engine import get_spec

    base = standard_string("uniform", N // 4, SIGMA, seed=63)
    growth = standard_string("zipf", N, SIGMA, seed=64, theta=1.3)
    cluster = ClusterEngine(num_shards=4, drift_window=None)
    cluster.add_column("c", base, SIGMA, dynamism="semidynamic")
    for ch in growth:
        cluster.append("c", ch)
    spec = get_spec("appendable")

    def worst_rebuild_pause() -> tuple[int, float]:
        lengths = cluster.shard_lengths("c")
        fattest = max(range(len(lengths)), key=lengths.__getitem__)
        codes = [
            c
            for c in cluster.shard_column("c", fattest).codes
            if c is not None
        ]
        seconds, _ = best_of(lambda: spec.build(codes, SIGMA), repeats=3)
        return lengths[fattest], seconds

    fat_rows, fat_pause = worst_rebuild_pause()
    assert fat_rows > TARGET  # lopsided by design
    before_counts = run_queries(cluster, query_batch)
    before_q, _ = best_of(lambda: run_queries(cluster, query_batch), 3)
    split_s, ops = best_of(
        lambda: cluster.rebalance(target_shard_rows=TARGET), repeats=1
    )
    assert ops > 0 and max(cluster.shard_lengths("c")) <= TARGET
    assert run_queries(cluster, query_batch) == before_counts
    after_q, _ = best_of(lambda: run_queries(cluster, query_batch), 3)
    balanced_rows, balanced_pause = worst_rebuild_pause()
    assert balanced_pause < fat_pause  # the pause really recovered
    report.table(
        f"E13b  rebalance of one fat shard ({N // 4}+{N} rows, 4 shards "
        f"-> target {TARGET})",
        ["phase", "shards", "max shard rows", "worst rebuild pause",
         "query batch", "split cost"],
        [
            ["before", 4, fat_rows, f"{fat_pause * 1e3:.2f}ms",
             f"{before_q:.4f}s", "-"],
            ["after rebalance", cluster.num_shards, balanced_rows,
             f"{balanced_pause * 1e3:.2f}ms", f"{after_q:.4f}s",
             f"{split_s:.4f}s ({ops} ops)"],
        ],
        note="answers asserted identical across the reshape; the split "
        "cost is paid once, the bounded rebuild pause (what an online "
        "migration or the next split stalls for) recurs on every "
        "maintenance action.  Query totals are answer-bound either "
        "way; under a parallel executor the scatter makespan follows "
        "the max-shard bound instead.",
    )
    benchmark(lambda: run_queries(cluster, query_batch))


def test_e13c_streaming_gather_bounds_memory(report, benchmark):
    a = standard_string("uniform", N, 8, seed=65)
    b = standard_string("uniform", N, 8, seed=66)
    cluster = ClusterEngine(num_shards=16, drift_window=None)
    cluster.add_column("a", a, 8)
    cluster.add_column("b", b, 8)
    # Low selectivity: a huge answer.
    conditions = And(Range("a", 0, 6), Range("b", 0, 6))

    def streamed():
        cluster.gather_stats.reset()
        count = 0
        for _ in cluster.select_iter(conditions):
            count += 1
        return count, cluster.gather_stats.peak_rids

    seconds, (answer, peak) = best_of(streamed, repeats=3)
    max_shard = max(cluster.shard_lengths("a"))
    bound = max_shard  # one shard's answer at a time
    assert answer > N // 2  # the answer really is huge
    assert peak <= bound, f"peak {peak} RIDs exceeds block bound {bound}"
    assert cluster.select(conditions) == [
        i for i in range(N) if a[i] <= 6 and b[i] <= 6
    ]
    report.table(
        f"E13c  streaming gather: 2-dim select over {N} rows x "
        "16 shards",
        ["answer RIDs", "peak buffered RIDs", "block bound (max "
         "shard)", "full answer", "seconds"],
        [[answer, peak, bound, f"{answer / peak:.0f}x peak", f"{seconds:.4f}"]],
        note="peak <= bound asserted: each shard intersects the two "
        "dimensions in its own select fold, and the stream buffers "
        "one shard's answer at a time, never the whole answer.",
    )
    benchmark(lambda: sum(1 for _ in cluster.select_iter(conditions)))
