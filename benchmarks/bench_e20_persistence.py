"""E20 — durable persistence: cold restore, WAL replay, checkpoint pause.

Three claims, each measured against the live cluster the durable
directory was written from, so durability never buys wrong answers.

(a) **Cold restore beats rebuild >= 3x**: restoring a 16-shard
cluster from its checkpoint (mmap'd snapshot sections + WAL tail
replay) is at least 3x faster than rebuilding the same cluster from
the raw code sequences, and the restored cluster — under the serial
executor *and* a resident process executor — answers a probe battery
identically to the cluster that wrote the checkpoint.  The gap is
structural: a rebuild re-derives every index (the paper's
construction cost), a restore pages the already-built bytes in on
demand.

(b) **WAL replay throughput**: acknowledged mutations journaled
after the checkpoint replay through the public API at a reported
records/second — the recovery-time budget a deployment sizes its
checkpoint cadence against.

(c) **Checkpoint pause**: a checkpoint runs under the serve lock, so
concurrent queries observe a pause, not a torn cut — measured as the
worst query latency while a checkpoint lands vs the uncontended p99.

Numbers fold into ``benchmarks/results/BENCH_E20.json`` on top of the
standard per-module report.
"""

import json
import os
import random
import shutil
import threading
import time

from repro.cluster import ClusterEngine, ProcessExecutor
from repro.persist import checkpoint_cluster, init_persistence, restore_cluster
from repro.query import Range

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
CONSOLIDATED = os.path.join(RESULTS_DIR, "BENCH_E20.json")

N = 60_000
SIGMA = 64
SHARDS = 16
TAIL_MUTATIONS = 400
REQUIRED_RESTORE_SPEEDUP = 3.0


def _merge_consolidated(section: str, payload: dict) -> None:
    os.makedirs(RESULTS_DIR, exist_ok=True)
    data = {}
    if os.path.exists(CONSOLIDATED):
        with open(CONSOLIDATED) as f:
            data = json.load(f)
    data[section] = payload
    with open(CONSOLIDATED, "w") as f:
        json.dump(data, f, indent=2, sort_keys=True)


def _codes(seed=200):
    rng = random.Random(seed)
    return [rng.randrange(SIGMA) for _ in range(N)]


def _build(codes, executor=None):
    cluster = ClusterEngine(
        num_shards=SHARDS, executor=executor, drift_window=None
    )
    cluster.add_column("v", codes, SIGMA, dynamism="semidynamic")
    return cluster


def _probes():
    rng = random.Random(201)
    out = [(0, SIGMA - 1), (0, 3), (SIGMA - 8, SIGMA - 1)]
    out += [
        (lo, min(SIGMA - 1, lo + rng.randrange(1, 12)))
        for lo in rng.sample(range(SIGMA - 12), 12)
    ]
    return out


def _answers(cluster, probes):
    return [
        (cluster.count(Range("v", lo, hi)),
         cluster.query("v", lo, hi).positions()[:64])
        for lo, hi in probes
    ]


def test_e20a_cold_restore_vs_rebuild(report, tmp_path):
    codes = _codes()
    probes = _probes()

    t0 = time.perf_counter()
    cluster = _build(codes)
    build_s = time.perf_counter() - t0

    directory = str(tmp_path / "dur")
    t0 = time.perf_counter()
    init_persistence(cluster, directory)
    checkpoint_s = time.perf_counter() - t0

    # A journaled tail: the restore has real replay work to do.
    rng = random.Random(202)
    for _ in range(TAIL_MUTATIONS):
        cluster.append("v", rng.randrange(SIGMA))
    expected = _answers(cluster, probes)
    wal_records = cluster.wal.last_seq
    cluster.close()

    t0 = time.perf_counter()
    restored = restore_cluster(directory)
    restore_s = time.perf_counter() - t0
    assert _answers(restored, probes) == expected, (
        "serial restore diverged from the cluster that wrote the log"
    )
    restored.close()

    # The honest rival: rebuild every index from the raw codes (plus
    # replaying the same tail through the public API).
    t0 = time.perf_counter()
    rebuilt = _build(codes)
    rng = random.Random(202)
    for _ in range(TAIL_MUTATIONS):
        rebuilt.append("v", rng.randrange(SIGMA))
    rebuild_s = time.perf_counter() - t0
    assert _answers(rebuilt, probes) == expected
    rebuilt.close()

    speedup = rebuild_s / restore_s
    with ProcessExecutor(max_workers=4) as pool:
        t0 = time.perf_counter()
        resident = restore_cluster(directory, executor=pool)
        resident_restore_s = time.perf_counter() - t0
        assert _answers(resident, probes) == expected, (
            "resident restore diverged from the cluster that wrote "
            "the log"
        )
        assert all(
            column.deferred
            for engine in resident.shards
            for column in engine.columns.values()
        ), "the resident coordinator built an index during replay"
        resident.close()

    assert speedup >= REQUIRED_RESTORE_SPEEDUP, (
        f"cold restore only {speedup:.2f}x faster than rebuild "
        f"(need >= {REQUIRED_RESTORE_SPEEDUP}x)"
    )
    snap_bytes = sum(
        os.path.getsize(os.path.join(root, name))
        for root, _dirs, names in os.walk(directory)
        for name in names
    )
    report.table(
        f"E20a  cold restore vs rebuild: {N} rows, {SHARDS} shards, "
        f"{wal_records} WAL records",
        ["path", "seconds", "notes"],
        [
            ["initial build", build_s, "indexes from raw codes"],
            ["checkpoint", checkpoint_s, "snapshots + CURRENT flip"],
            ["rebuild + tail", rebuild_s, "the crash-recovery rival"],
            ["cold restore (serial)", restore_s,
             f"mmap + replay {TAIL_MUTATIONS} records"],
            ["cold restore (resident)", resident_restore_s,
             "workers rehydrate; replay writes codes only"],
        ],
        note=(
            f"restore is {speedup:.1f}x faster than rebuild "
            f"(assert >= {REQUIRED_RESTORE_SPEEDUP}x); durable dir "
            f"holds {snap_bytes / 1e6:.1f} MB; answers identical on "
            f"both executors; the resident coordinator builds no index "
            f"(replay updates its codes mirror, workers the indexes)"
        ),
    )
    _merge_consolidated(
        "cold_restore",
        {
            "rows": N,
            "shards": SHARDS,
            "build_s": build_s,
            "checkpoint_s": checkpoint_s,
            "rebuild_s": rebuild_s,
            "restore_serial_s": restore_s,
            "restore_resident_s": resident_restore_s,
            "speedup_vs_rebuild": speedup,
            "durable_bytes": snap_bytes,
        },
    )


def test_e20b_wal_replay_throughput(report, tmp_path):
    rng = random.Random(203)
    cluster = ClusterEngine(num_shards=4, drift_window=None)
    cluster.add_column(
        "v", [rng.randrange(SIGMA) for _ in range(8_000)],
        SIGMA, dynamism="fully_dynamic", backend="deletable",
    )
    directory = str(tmp_path / "dur")
    init_persistence(cluster, directory)
    deleted = set()
    records = 3_000
    t0 = time.perf_counter()
    for i in range(records):
        op = rng.randrange(10)
        if op < 7:
            cluster.append("v", rng.randrange(SIGMA))
        elif op < 9:
            pos = rng.randrange(cluster.total_rows("v"))
            if pos not in deleted:
                cluster.change("v", pos, rng.randrange(SIGMA))
        else:
            pos = rng.randrange(cluster.total_rows("v"))
            if pos not in deleted:
                cluster.delete("v", pos)
                deleted.add(pos)
    journal_s = time.perf_counter() - t0
    journaled = cluster.wal.last_seq
    expected = cluster.count(Range("v", 0, SIGMA // 2))
    cluster.close()

    t0 = time.perf_counter()
    restored = restore_cluster(directory)
    replay_s = time.perf_counter() - t0
    assert restored.count(Range("v", 0, SIGMA // 2)) == expected
    restored.close()
    replay_rate = journaled / replay_s

    report.table(
        f"E20b  WAL replay: {journaled} records "
        "(append/change/delete mix)",
        ["phase", "seconds", "records/s"],
        [
            ["journal (live, acked)", journal_s, journaled / journal_s],
            ["replay (cold restore)", replay_s, replay_rate],
        ],
        note=(
            "replay re-derives auto lifecycle through the public "
            "API; checkpoint cadence bounds this recovery debt"
        ),
    )
    _merge_consolidated(
        "wal_replay",
        {
            "records": journaled,
            "journal_s": journal_s,
            "replay_s": replay_s,
            "replay_records_per_s": replay_rate,
        },
    )


def test_e20c_checkpoint_pause_vs_serving(report, tmp_path):
    codes = _codes(seed=204)
    cluster = _build(codes)
    directory = str(tmp_path / "dur")
    init_persistence(cluster, directory)
    probes = _probes()

    def one_query(i):
        lo, hi = probes[i % len(probes)]
        t0 = time.perf_counter()
        cluster.count(Range("v", lo, hi))
        return time.perf_counter() - t0

    # Uncontended baseline.
    base = sorted(one_query(i) for i in range(60))
    base_p99 = base[int(0.99 * (len(base) - 1))]

    # Serve while a checkpoint lands mid-stream.
    latencies = []
    stop = threading.Event()

    def serve():
        i = 0
        while not stop.is_set():
            latencies.append(one_query(i))
            i += 1

    thread = threading.Thread(target=serve)
    thread.start()
    time.sleep(0.05)
    t0 = time.perf_counter()
    info = checkpoint_cluster(cluster, directory)
    pause_s = time.perf_counter() - t0
    time.sleep(0.05)
    stop.set()
    thread.join()
    cluster.close()
    shutil.rmtree(directory)

    worst = max(latencies)
    report.table(
        "E20c  checkpoint pause under load",
        ["metric", "seconds"],
        [
            ["uncontended query p99", base_p99],
            ["checkpoint wall (serve-locked)", pause_s],
            ["checkpoint internal", info.seconds],
            ["worst concurrent query", worst],
        ],
        note=(
            "a concurrent query waits at most ~one checkpoint for "
            "the serve lock; reads are consistent, never torn"
        ),
    )
    _merge_consolidated(
        "checkpoint_pause",
        {
            "base_p99_s": base_p99,
            "checkpoint_s": pause_s,
            "worst_concurrent_query_s": worst,
        },
    )
