"""E14 — process-parallel scatter-gather: overlap that is real.

Three claims.  (a) With the disk latency model on (every block
transfer sleeps, as a real device would), executors that overlap
per-shard fetches beat the serial walk on wall clock: the
worker-resident ``ProcessExecutor`` must clear >1.5x at 4 and 16
shards — asserted, not just recorded — and the threaded executor
overlaps too (the sleeps release the GIL).  Latency-off rows are
*asserted* too, not just recorded: with the fast kernels doing the
decode and the transport speaking grouped per-worker messages plus
shared-memory bulk payloads, the process scatter must beat the
serial walk at 16 shards when real cores are available; on a
single-core host, where parallel decode is physically serialized and
IPC can only cost, the same row must stay within a small bounded
overhead of serial (the old regression was unbounded — it *grew*
with shard count).  (b) Parallelism buys no slack on accounting: the
aggregated per-worker ``IOStats`` totals equal the serial run's
exactly, transfer for transfer.  (c) The prefetching streamed gather
pipelines the next shards' fetches while the current buffer drains —
faster than the serial walk under latency while ``GatherStats`` still
proves the O(max shard answer) delivered-buffer bound.
"""

import os

import pytest

from repro.bench import best_of, standard_string
from repro.bench.workloads import random_ranges
from repro.cluster import ClusterEngine, ProcessExecutor, ThreadedExecutor
from repro.query import And, Range

N = 1 << 15
SIGMA = 32
LATENCY_S = 2e-4
WORKERS = 4
NUM_QUERIES = 6
SHARD_COUNTS = [1, 4, 16]
REQUIRED_SPEEDUP = 1.5
#: Latency-off bound for hosts without real parallelism (see CORES).
MAX_SINGLE_CORE_OVERHEAD = 1.75

try:
    CORES = len(os.sched_getaffinity(0))
except AttributeError:  # pragma: no cover - non-Linux fallback
    CORES = os.cpu_count() or 1


@pytest.fixture(scope="module")
def data():
    return standard_string("zipf", N, SIGMA, seed=81, theta=1.2)


@pytest.fixture(scope="module")
def query_batch():
    return random_ranges(SIGMA, NUM_QUERIES, seed=82)


@pytest.fixture(scope="module")
def process_pool():
    with ProcessExecutor(max_workers=WORKERS) as pool:
        yield pool


@pytest.fixture(scope="module")
def thread_pool():
    with ThreadedExecutor(max_workers=WORKERS) as pool:
        yield pool


def build_cluster(data, num_shards, executor=None, **kwargs):
    cluster = ClusterEngine(
        num_shards=num_shards, executor=executor, drift_window=None, **kwargs
    )
    cluster.add_column("c", data, SIGMA)
    return cluster


def cold_batch(cluster, query_batch):
    """Every query cold: all result and block caches dropped first."""

    def run():
        out = 0
        for lo, hi in query_batch:
            cluster.drop_caches()
            out += cluster.query("c", lo, hi).cardinality
        return out

    return run


def test_e14a_process_scatter_beats_serial_under_latency(
    data, query_batch, process_pool, thread_pool, report, benchmark
):
    rows = []
    speedups = {}
    speedups_off = {}
    for num_shards in SHARD_COUNTS:
        timings = {}
        for label, executor in [
            ("serial", None),
            ("threaded", thread_pool),
            ("process", process_pool),
        ]:
            cluster = build_cluster(data, num_shards, executor)
            run = cold_batch(cluster, query_batch)
            reference = run()
            off_s, total = best_of(run, repeats=3)
            assert total == reference
            cluster.set_io_latency(LATENCY_S)
            on_s, total = best_of(run, repeats=2)
            assert total == reference
            timings[label] = (off_s, on_s)
            cluster.close()
        serial_off, serial_on = timings["serial"]
        for label in ("serial", "threaded", "process"):
            off_s, on_s = timings[label]
            speedup = serial_on / max(on_s, 1e-9)
            speedup_off = serial_off / max(off_s, 1e-9)
            speedups[(num_shards, label)] = speedup
            speedups_off[(num_shards, label)] = speedup_off
            rows.append(
                [
                    num_shards,
                    label,
                    f"{off_s * 1e3:.1f}ms",
                    f"{speedup_off:.2f}x",
                    f"{on_s * 1e3:.1f}ms",
                    f"{speedup:.2f}x",
                ]
            )
    # The tentpole claim: real overlap at 4+ shards, not just a seam.
    for num_shards in (4, 16):
        got = speedups[(num_shards, "process")]
        assert got > REQUIRED_SPEEDUP, (
            f"process executor {got:.2f}x at {num_shards} shards "
            f"(need > {REQUIRED_SPEEDUP}x with latency on)"
        )
    # The fixed regression row: latency OFF, 16 shards.  With real
    # cores the resident scatter must now win outright; a single-core
    # host serializes the workers' decode by definition, so the win
    # is impossible there and the assertion is the bounded-overhead
    # form (the regression this replaces grew with shard count).
    off_16 = speedups_off[(16, "process")]
    if CORES >= 2:
        assert off_16 > 1.0, (
            f"process executor {off_16:.2f}x vs serial at 16 shards "
            f"with latency off ({CORES} cores available: must win)"
        )
    else:
        assert off_16 > 1.0 / MAX_SINGLE_CORE_OVERHEAD, (
            f"process executor {1 / off_16:.2f}x overhead vs serial at "
            f"16 shards with latency off (single-core bound "
            f"{MAX_SINGLE_CORE_OVERHEAD}x)"
        )
    report.table(
        f"E14a  scatter wall clock: {NUM_QUERIES} cold queries over "
        f"n={N} (latency {LATENCY_S * 1e3:.1f}ms/block, {WORKERS} workers, "
        f"{CORES} cores)",
        ["shards", "executor", "lat off", "off speedup", "lat on",
         "on speedup"],
        rows,
        note="speedups are serial vs executor at the same shard count "
        "and latency setting; >1.5x asserted for the process executor "
        "at 4 and 16 shards with latency on, and the latency-off "
        "16-shard row (the old regression) is asserted too: an "
        "outright win with >= 2 cores, bounded overhead "
        f"(< {MAX_SINGLE_CORE_OVERHEAD}x) on a single-core host.",
    )
    cluster = build_cluster(data, 4, process_pool)
    benchmark(cold_batch(cluster, query_batch))
    cluster.close()


def test_e14b_parallelism_buys_no_accounting_slack(
    data, query_batch, process_pool, thread_pool, report, benchmark
):
    results = {}
    for label, executor in [
        ("serial", None),
        ("threaded", thread_pool),
        ("process", process_pool),
    ]:
        cluster = build_cluster(data, 8, executor)
        answers = []
        for lo, hi in query_batch:
            cluster.drop_caches()  # pay the transfers, don't hide them
            answers.append(cluster.query("c", lo, hi).positions())
        answers.append(cluster.select(Range("c", 1, SIGMA // 2)))
        results[label] = (answers, cluster.scatter_io.snapshot())
        cluster.close()
    base_answers, base_io = results["serial"]
    for label in ("threaded", "process"):
        answers, io = results[label]
        assert answers == base_answers, f"{label} diverged on answers"
        assert io == base_io, f"{label} diverged on I/O totals"
    report.table(
        "E14b  serial vs parallel accounting on one fixed workload "
        f"({NUM_QUERIES + 1} queries, 8 shards)",
        ["executor", "block reads", "bits read", "identical to serial"],
        [
            [label, io.reads, io.bits_read, "yes" if io == base_io else "NO"]
            for label, (_, io) in results.items()
        ],
        note="asserted: aggregated per-worker IOStats snapshots fold "
        "into exactly the serial totals — the I/O model's cost is a "
        "property of the plan, not of where it runs.",
    )
    benchmark(lambda: base_io.total)


def test_e14c_prefetching_gather_overlaps_the_stream(
    data, process_pool, report, benchmark
):
    second = standard_string("uniform", N, 8, seed=83)
    conditions = And(Range("c", 0, SIGMA - 2), Range("d", 0, 6))

    def build(executor, prefetch_depth=None):
        cluster = ClusterEngine(
            num_shards=16,
            executor=executor,
            drift_window=None,
            prefetch_depth=prefetch_depth,
        )
        cluster.add_column("c", data, SIGMA)
        cluster.add_column("d", second, 8)
        cluster.set_io_latency(LATENCY_S)
        return cluster

    def streamed(cluster):
        def run():
            cluster.drop_caches()
            cluster.gather_stats.reset()
            return sum(1 for _ in cluster.select_iter(conditions))

        return run

    serial = build(None)
    assert serial.prefetch_depth == 0  # the inline executor never prefetches
    serial_s, serial_count = best_of(streamed(serial), repeats=2)
    serial.close()
    prefetching = build(process_pool, prefetch_depth=WORKERS)
    prefetch_s, prefetch_count = best_of(streamed(prefetching), repeats=2)
    peak = prefetching.gather_stats.peak_rids
    max_shard = max(prefetching.shard_lengths("c"))
    bound = 2 * 2 * max_shard  # 2 dims x (drain + handoff buffer)
    assert prefetch_count == serial_count > N // 2
    assert peak <= bound, f"peak {peak} RIDs exceeds {bound}"
    speedup = serial_s / max(prefetch_s, 1e-9)
    assert speedup > REQUIRED_SPEEDUP, (
        f"prefetching gather {speedup:.2f}x (need > {REQUIRED_SPEEDUP}x)"
    )
    report.table(
        f"E14c  streamed 2-dim select over {N} rows x 16 shards "
        f"(latency {LATENCY_S * 1e3:.1f}ms/block)",
        ["gather", "seconds", "speedup", "answer RIDs",
         "peak buffered RIDs", "bound"],
        [
            ["serial walk", f"{serial_s:.3f}", "1.0x", serial_count, "-", "-"],
            [
                f"prefetch depth {WORKERS} (process)",
                f"{prefetch_s:.3f}",
                f"{speedup:.2f}x",
                prefetch_count,
                peak,
                bound,
            ],
        ],
        note="speedup > 1.5x and peak <= bound both asserted: the "
        "bridge pipelines later shards' fetches while the current "
        "buffer drains, still materializing at most one draining plus "
        "one handoff buffer per dimension.",
    )
    run = streamed(prefetching)
    benchmark(run)
    prefetching.close()
