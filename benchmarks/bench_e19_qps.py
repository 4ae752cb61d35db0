"""E19 — serving front-end QPS: coalescing and admission.

Two claims, each against a serial oracle so throughput never buys
wrong answers.

(a) **Single-flight coalescing** lifts closed-loop QPS >= 1.5x on a
Zipf-skewed query mix once concurrency rises: duplicate in-flight
plans collapse onto one scatter.  The shared result cache is
deliberately nulled out so the measured effect is coalescing's alone
— with caching on, both sides would be answering from memory.

(b) **Admission control** bounds tail latency under overload: with
requests arriving at ~2x the serving capacity, a shed-enabled front
end keeps admitted-request p99 within 3x the uncontended p99, while
a no-admission run (same arrivals) lets the queue grow without bound
and blows far past it.

Every test folds its numbers into one consolidated
``benchmarks/results/BENCH_E19.json`` (QPS, p50/p99, coalesce rate)
on top of the standard per-module report.
"""

import asyncio
import gc
import json
import os
import random
import time

from repro.cluster import ClusterEngine, InMemorySharedCache
from repro.errors import Overloaded
from repro.iomodel.cache import LRUBlockCache
from repro.obs import MetricsRegistry
from repro.query import Range
from repro.serve import FrontEnd

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
CONSOLIDATED = os.path.join(RESULTS_DIR, "BENCH_E19.json")

N = 40_000
SIGMA = 64
SHARDS = 6
REQUIRED_COALESCE_SPEEDUP = 1.5
P99_BOUND = 3.0


def _merge_consolidated(section: str, payload: dict) -> None:
    os.makedirs(RESULTS_DIR, exist_ok=True)
    data = {}
    if os.path.exists(CONSOLIDATED):
        with open(CONSOLIDATED) as f:
            data = json.load(f)
    data[section] = payload
    with open(CONSOLIDATED, "w") as f:
        json.dump(data, f, indent=2, sort_keys=True)


def _percentile(samples, q):
    ordered = sorted(samples)
    if not ordered:
        return 0.0
    index = min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))
    return ordered[index]


def _make_cluster(io_latency_s=0.0, sigma=SIGMA, cache_size=128):
    # At 40k rows the per-request cost is real plan evaluation (a few
    # ms), not a disk-block-cache artifact — tiny columns go fully
    # resident after one touch and would make every repeat free.  The
    # shared fold cache holds nothing, so every repeat is real work
    # (see the module doc).
    random.seed(190)
    codes = [random.randrange(sigma) for _ in range(N)]
    cluster = ClusterEngine(
        num_shards=SHARDS,
        io_latency_s=io_latency_s,
        cache_size=cache_size,
        shared_cache=InMemorySharedCache(0),
        drift_window=None,
    )
    cluster.add_column("v", codes, sigma)
    return cluster, codes


def _zipf_picks(rng, universe, count, theta=1.2):
    weights = [1.0 / (rank + 1) ** theta for rank in range(universe)]
    return rng.choices(range(universe), weights=weights, k=count)


def test_e19a_coalescing_qps(report):
    # cache_size=0 switches off the per-shard fold LRU (and capacity 0
    # the shared result cache), so a repeated predicate is real work
    # every time — the measured speedup is coalescing's alone.
    cluster, _ = _make_cluster(cache_size=0)
    preds = [
        Range("v", lo, min(SIGMA - 1, lo + 5)) for lo in range(0, 48)
    ]
    oracle = [cluster.count(p) for p in preds]
    rng = random.Random(191)
    ladder = [4, 16, 32]
    per_client = 8
    # One workload per ladder level, shared by both coalesce modes —
    # an rng drawn inside the mode loop would hand the two modes
    # different Zipf mixes and bias the comparison.
    workloads = {
        clients: [
            _zipf_picks(rng, len(preds), per_client)
            for _ in range(clients)
        ]
        for clients in ladder
    }
    rows = []
    qps = {}

    for coalesce in (True, False):
        for clients in ladder:
            picks = workloads[clients]
            metrics = MetricsRegistry()
            fe = FrontEnd(
                cluster,
                coalesce=coalesce,
                max_inflight=4096,
                metrics=metrics,
            )
            latencies = []

            async def client(sequence):
                for index in sequence:
                    t0 = time.perf_counter()
                    value = await fe.count(preds[index])
                    latencies.append(time.perf_counter() - t0)
                    assert value == oracle[index], "QPS bought a wrong answer"

            async def main():
                t0 = time.perf_counter()
                await asyncio.gather(*[client(s) for s in picks])
                elapsed = time.perf_counter() - t0
                await fe.close()
                return elapsed

            elapsed = asyncio.run(main())
            total = clients * per_client
            rate = total / elapsed
            coalesce_rate = fe.coalesced / total
            qps[(coalesce, clients)] = rate
            rows.append(
                [
                    "on" if coalesce else "off",
                    clients,
                    total,
                    f"{rate:.0f}",
                    f"{_percentile(latencies, 0.50) * 1e3:.2f}",
                    f"{_percentile(latencies, 0.99) * 1e3:.2f}",
                    f"{coalesce_rate:.2f}",
                ]
            )

    top = ladder[-1]
    speedup = qps[(True, top)] / qps[(False, top)]
    assert speedup >= REQUIRED_COALESCE_SPEEDUP, (
        f"coalescing-on QPS only {speedup:.2f}x coalescing-off at "
        f"{top} clients (need >= {REQUIRED_COALESCE_SPEEDUP}x)"
    )
    report.table(
        f"E19a  single-flight coalescing: closed-loop Zipf mix, "
        f"{SHARDS} shards, null shared cache",
        [
            "coalesce", "clients", "requests", "qps",
            "p50 ms", "p99 ms", "coalesce rate",
        ],
        rows,
        note=(
            f"at {top} clients coalescing-on serves "
            f"{speedup:.2f}x the QPS of coalescing-off"
        ),
    )
    _merge_consolidated(
        "coalescing",
        {
            "ladder": ladder,
            "qps_on": {str(c): qps[(True, c)] for c in ladder},
            "qps_off": {str(c): qps[(False, c)] for c in ladder},
            "speedup_at_top": speedup,
            "rows": rows,
        },
    )
    cluster.close()


def test_e19b_admission_bounds_p99(report):
    # The disk-latency model sleeps per block miss *releasing the GIL*
    # — which is what lets offered load actually exceed capacity: a
    # pure-compute service would starve the event loop and throttle
    # arrivals to capacity on its own.  Service times must also be
    # *history-independent*, or the workload itself biases the
    # verdict: with a warm block cache, a query's cost depends on
    # which ranges ran before it — and since shed requests never
    # execute, the shed run's admitted queries land on colder regions
    # than the no-admission run's contiguous stream ever does.
    # Zeroing every shard's block cache (the disk model's documented
    # mem_blocks=0 mode: every access is a transfer) makes each
    # query pay its full block cost every time — one flat service
    # time from the first baseline sample to the last overload
    # arrival, whatever got shed in between.  cache_size=0 switches
    # off the per-shard fold LRU too, so even a repeated range (the
    # retry loop below replays the same workload) is real work.
    cluster, _ = _make_cluster(io_latency_s=0.0002, cache_size=0)
    for shard in cluster.shards:
        shard.column("v").index.disk.cache = LRUBlockCache(0)
    preds = [
        Range("v", lo, lo + width)
        for width in (7, 8, 9, 10)
        for lo in range(0, 50)
    ]

    def measure_baseline():
        # Uncontended: sequential requests, no queueing anywhere.  One
        # warmup request spawns the pool threads before timing starts.
        gc.collect()
        fe = FrontEnd(cluster, coalesce=False)
        base = []

        async def baseline():
            await fe.count(preds[0])
            for pred in preds[1:17]:
                t0 = time.perf_counter()
                await fe.count(pred)
                base.append(time.perf_counter() - t0)
            await fe.close()

        asyncio.run(baseline())
        return base

    def offered_run(max_inflight, service, warm, batch):
        # One untimed warmup spawns the fresh front end's pool threads
        # and a gc.collect clears the previous phase's debt, so the
        # timed samples see steady state only.
        gc.collect()
        front = FrontEnd(
            cluster, coalesce=False, max_inflight=max_inflight
        )
        admitted_latencies = []
        shed = 0

        async def one(pred):
            nonlocal shed
            t0 = time.perf_counter()
            try:
                await front.count(pred)
            except Overloaded:
                shed += 1
                return
            admitted_latencies.append(time.perf_counter() - t0)

        async def main():
            await front.count(warm)
            # Open loop at ~2x capacity: one serialized engine serves
            # one request per `service`, arrivals land every service/2.
            tasks = []
            for pred in batch:
                tasks.append(asyncio.ensure_future(one(pred)))
                await asyncio.sleep(service / 2)
            await asyncio.gather(*tasks)
            await front.close()

        asyncio.run(main())
        return admitted_latencies, shed

    # Timing benches retry on scheduler noise (the best_of philosophy
    # in repro.bench.harness: noise only ever *adds* time).  A single
    # OS stall freezes every in-flight request at once, so no sample
    # size can absorb it — a contaminated attempt is discarded and
    # the whole measurement re-run, up to three times.
    for attempt in range(3):
        base = measure_baseline()
        base_p99 = _percentile(base, 0.99)
        service = sum(base) / len(base)
        # ~120 arrivals admit 60+, enough that p99 is no longer the
        # max of the sample.
        shed_latencies, shed_count = offered_run(
            max_inflight=2, service=service,
            warm=preds[17], batch=preds[18:138],
        )
        noadm_latencies, noadm_shed = offered_run(
            max_inflight=100_000, service=service,
            warm=preds[138], batch=preds[139:199],
        )
        shed_p99 = _percentile(shed_latencies, 0.99)
        noadm_p99 = _percentile(noadm_latencies, 0.99)
        if (
            shed_count > 0
            and noadm_shed == 0
            and shed_p99 <= P99_BOUND * base_p99
            and noadm_p99 > P99_BOUND * base_p99
        ):
            break

    assert shed_count > 0, "2x offered load never tripped admission"
    assert noadm_shed == 0
    assert shed_p99 <= P99_BOUND * base_p99, (
        f"admitted p99 {shed_p99 * 1e3:.1f}ms exceeds "
        f"{P99_BOUND}x uncontended p99 {base_p99 * 1e3:.1f}ms"
    )
    assert noadm_p99 > P99_BOUND * base_p99, (
        "the no-admission run should have blown the tail bound "
        f"(p99 {noadm_p99 * 1e3:.1f}ms vs base {base_p99 * 1e3:.1f}ms)"
    )
    report.table(
        "E19b  admission control under 2x offered load "
        f"({SHARDS} shards, service ~{service * 1e3:.1f}ms)",
        ["front end", "admitted", "shed", "p50 ms", "p99 ms", "p99/base"],
        [
            [
                "max_inflight=2",
                len(shed_latencies),
                shed_count,
                f"{_percentile(shed_latencies, 0.5) * 1e3:.2f}",
                f"{shed_p99 * 1e3:.2f}",
                f"{shed_p99 / base_p99:.2f}",
            ],
            [
                "unbounded",
                len(noadm_latencies),
                noadm_shed,
                f"{_percentile(noadm_latencies, 0.5) * 1e3:.2f}",
                f"{noadm_p99 * 1e3:.2f}",
                f"{noadm_p99 / base_p99:.2f}",
            ],
        ],
        note=(
            f"uncontended p99 {base_p99 * 1e3:.2f}ms; the bound is "
            f"{P99_BOUND}x"
        ),
    )
    _merge_consolidated(
        "admission",
        {
            "base_p99_s": base_p99,
            "shed": {
                "p99_s": shed_p99,
                "admitted": len(shed_latencies),
                "shed": shed_count,
            },
            "no_admission": {
                "p99_s": noadm_p99,
                "admitted": len(noadm_latencies),
            },
            "bound": P99_BOUND,
            "attempts": attempt + 1,
        },
    )
    cluster.close()
