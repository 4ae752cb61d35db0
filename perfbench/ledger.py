"""One workload run through FrontEnd -> cluster -> worker -> persist.

The phases of a run, in order:

1. generate rows and operations from the seed (before any timing);
2. set up the stack ``SETUP_REPEATS`` times (``setup_s`` is the
   median) and keep the last one;
3. an untimed warm-up;
4. the measured ops, ``window_ops`` per segment (see ``host.py``);
5. read-only workloads: a durable write tail (``init_persistence``,
   ``ack`` writes, one checkpoint half way) in segments of its own;
6. probe answers, disk bytes, peak RSS, then close;
7. ``RESTORE_REPEATS`` cold restores (fresh executor, checkpoint + WAL
   tail, probe battery; ``restore_s`` is the median);
8. the brute-force oracle checks the sampled answers.

Every time metric is a sum of segment times, each scaled by its
segment's host-speed factor; the raw sums go to the detail record.
"""

from __future__ import annotations

import asyncio
import gc
import multiprocessing
import os
import shutil
import statistics
import tempfile
import time
from contextlib import contextmanager

from repro.bits.kernels import kernel_name
from repro.cluster import ClusterEngine, ProcessExecutor
from repro.obs import Tracer
from repro.persist import init_persistence
from repro.query import And, In, Not, Or, Range
from repro.serve import FrontEnd

from . import host
from . import workloads as wl
from .layers import LayerProbe

SETUP_REPEATS = 3
RESTORE_REPEATS = 3
TAIL_WINDOW_OPS = 10
REPLAY_SPLIT = 10
WARMUP_OPS = 10
#: About this many answers per run are checked against the oracle.
CHECKS = 60
#: Read-only workloads pin ``price`` to the paper's index: the default
#: (calibrated) advisor picks the bitmap family for every static
#: column here, and the ledger must measure the Pagh-Rao structure.
PRICE_BACKEND = "pagh-rao"
#: The durability policy of every run, parent and change alike.
WAL_SYNC = "flush"
CHECKPOINT_FSYNC = False


def to_pred(t: tuple):
    kind = t[0]
    if kind == "range":
        return Range(t[1], t[2], t[3])
    if kind == "in":
        return In(t[1], t[2])
    if kind == "and":
        return And(*map(to_pred, t[1]))
    if kind == "or":
        return Or(*map(to_pred, t[1]))
    if kind == "not":
        return Not(to_pred(t[1]))
    raise ValueError(f"unknown predicate {kind!r}")


def pred_of(op: tuple) -> tuple:
    return op[2] if op[0] in ("count_by", "topk") else op[1]


def read(target, op: tuple, pred):
    """Issue a read on a ``FrontEnd`` (awaitable) or a cluster."""
    kind = op[0]
    if kind == "count":
        return target.count(pred)
    if kind == "select":
        return target.select(pred)
    if kind == "count_by":
        return target.count_by(op[1], pred)
    return target.topk(op[1], pred, op[3])


def write(cluster, op: tuple) -> None:
    if op[0] == "row":
        cluster.append("status", op[1])
        cluster.append("region", op[2])
        cluster.append("price", op[3])
    elif op[0] == "ack":
        for rid in op[1]:
            cluster.change("ack", rid, 1)
    else:
        cluster.change(op[1], op[2], op[3])


def dir_bytes(path: str) -> int:
    total = 0
    for dirpath, _dirs, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(dirpath, name))
    return total


def percentile(values: list[float], q: float) -> float:
    """The q-quantile by the nearest-rank rule."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 1))
    return ordered[int(rank) - 1]


def p95_supported(values: list) -> bool:
    # p95 is the highest percentile with >= 10 samples beyond it.
    return len(values) * 0.05 >= 10


class Run:
    """State and results of one workload run."""

    def __init__(self, name: str, seed: int, seconds: int, trace: bool,
                 scratch: str) -> None:
        self.w = wl.WORKLOADS[name]
        self.seed = seed
        self.scratch = scratch
        self.clock = host.HostClock()
        self.workers = self.clock.nworkers
        self.timeline = host.Timeline(self.clock)
        self.probe = LayerProbe(self.timeline) if trace else None
        self.tracer = Tracer(keep=1_000_000) if trace else None
        # Inputs: everything the program will see, made before timing.
        self.cols = wl.make_rows(self.w, seed)
        count = max(1, round(self.w.rate * seconds))
        if self.w.ingest:
            warm = len(wl.INGEST_CYCLE)
            ops = wl.ingest_ops(seed, warm + count, self.w.rows)
            self.warmup, self.ops = ops[:warm], ops[warm:]
        elif self.w.clients > 1:
            # Warm the head of the pool; the cold tail reads bits.
            pool, warm = wl.dashboard_pool()
            self.warmup = pool[:warm]
            self.ops = wl.dashboard_ops(seed, count)
        else:
            self.warmup = wl.adhoc_ops(seed, WARMUP_OPS, tag="warmup")
            self.ops = wl.adhoc_ops(seed, count)
        self.tail = (
            [] if self.w.ingest
            else wl.tail_ops(seed, self.w.rows, self.w.num_shards)
        )
        self.probes = wl.probes(seed, self.w.ingest)
        # One predicate object per op: the traced run pairs calls by it.
        self.preds = [
            to_pred(pred_of(op)) if op[0] in wl.READS else None
            for op in self.ops
        ]
        reads = [i for i, op in enumerate(self.ops) if op[0] in wl.READS]
        self.sampled = set(reads[:: max(1, len(reads) // CHECKS)])
        self.checkpoint_at = (3 * len(self.ops)) // 4 if self.w.ingest else None
        self.durable_dir: str | None = None
        # Results.
        #: (segment, seconds, seconds stolen during the op) per op
        self.lat = {"read": [], "write": []}
        self.answers: dict[int, object] = {}
        self.attempted = 0
        self.failures: dict[str, int] = {}
        self.setup_segments: list[list[int]] = []
        self.window_segments: list[int] = []
        self.tail_segments: list[int] = []
        #: (restore segments, probe segments) per restore
        self.restore_segments: list[tuple[list[int], list[int]]] = []
        self.checkpoint: tuple[int, float] | None = None  # (segment, raw s)
        self.rss_mb = 0.0
        self.mismatches: list[str] = []
        self.facts: dict = {}

    # -- stack -----------------------------------------------------------

    def _columns(self):
        for name, codes in self.cols.items():
            if self.w.ingest:
                dyn = "fully_dynamic" if name == "status" else "semidynamic"
                backend = None
            else:
                dyn = "fully_dynamic" if name == "ack" else "static"
                backend = PRICE_BACKEND if name == "price" else None
            yield name, codes, dyn, backend

    def _executor(self) -> ProcessExecutor:
        executor = ProcessExecutor(max_workers=self.workers)
        self.clock.pin_workers()
        self.timeline.barrier = executor.io_totals
        return executor

    def setup(self):
        """Build the stack, one segment per step; returns it."""
        segment = self.timeline.segment
        segments = []
        self.timeline.barrier = None
        with segment() as seg:
            executor = self._executor()
            if self.probe is not None:
                self.probe.attach_executor(executor)
            cluster = ClusterEngine(
                num_shards=self.w.num_shards,
                target_shard_rows=self.w.target_shard_rows,
                executor=executor,
                tracer=self.tracer,
            )
        segments += seg
        for name, codes, dyn, backend in self._columns():
            with segment() as seg:
                cluster.add_column(
                    name, codes, wl.SIGMA[name], dynamism=dyn, backend=backend
                )
            segments += seg
        with segment() as seg:
            if self.w.ingest:
                init_persistence(cluster, self.durable_dir, sync=WAL_SYNC,
                                 fsync=CHECKPOINT_FSYNC)
            front = FrontEnd(cluster, coalesce=True)
        segments += seg
        self.setup_segments.append(segments)
        return executor, cluster, front

    def stack_pids(self) -> list[int]:
        helpers = self.clock.helper_pids()
        return [os.getpid()] + [
            p.pid for p in multiprocessing.active_children()
            if p.pid not in helpers
        ]

    async def _close(self, executor, cluster, front) -> None:
        self.rss_mb = max(self.rss_mb, host.peak_rss_mb(self.stack_pids()))
        await front.close()
        cluster.close()
        executor.close()
        self.timeline.barrier = None

    # -- ops -------------------------------------------------------------

    def _fail(self, exc: BaseException) -> None:
        name = type(exc).__name__
        self.failures[name] = self.failures.get(name, 0) + 1

    async def _client(self, front, cluster, indices, segment, ops, preds):
        probe, clock = self.probe, self.clock
        for i in indices:
            op = ops[i]
            self.attempted += 1
            mark = clock.steal() if segment is not None else None
            if op[0] in wl.READS:
                pred = preds[i] if preds is not None else to_pred(pred_of(op))
                t0 = time.perf_counter()
                try:
                    value = await read(front, op, pred)
                except Exception as exc:  # every failure type counts
                    self._fail(exc)
                    continue
                dt = time.perf_counter() - t0
                if segment is not None:
                    stolen, _ = self.timeline.stolen_since(mark)
                    self.lat["read"].append((segment, dt, stolen))
                    if probe is not None:
                        probe.note_read(segment, op, pred, dt, value, cluster)
                    if i in self.sampled:
                        self.answers[i] = value
            else:
                t0 = time.perf_counter()
                try:
                    write(cluster, op)
                except Exception as exc:
                    self._fail(exc)
                    continue
                dt = time.perf_counter() - t0
                if segment is not None:
                    _, stolen = self.timeline.stolen_since(mark)
                    self.lat["write"].append((segment, dt, stolen))
                    if probe is not None:
                        probe.note_write(segment, dt)
            if i == self.checkpoint_at and segment is not None:
                t0 = time.perf_counter()
                cluster.checkpoint(self.durable_dir, fsync=CHECKPOINT_FSYNC)
                self.checkpoint = (segment, time.perf_counter() - t0)

    async def _measure(self, front, cluster, ops, preds, per_window, clients):
        """Run ``ops`` in segments of ``per_window``; their indices."""
        segments = []
        for start in range(0, len(ops), per_window):
            span = range(start, min(len(ops), start + per_window))
            with self.timeline.segment() as seg:
                await asyncio.gather(*(
                    self._client(front, cluster, span[c::clients], seg[0], ops, preds)
                    for c in range(clients)
                ))
            segments += seg
        return segments

    # -- phases ----------------------------------------------------------

    async def run(self) -> None:
        try:
            await self._run()
        finally:
            self.clock.close()

    async def _run(self) -> None:
        w = self.w
        cpu0 = host.cpu_times()
        stack = None
        dirs = []
        for _ in range(SETUP_REPEATS):
            if stack is not None:
                await self._close(*stack)
            if w.ingest:
                self.durable_dir = tempfile.mkdtemp(prefix="wal-", dir=self.scratch)
                dirs.append(self.durable_dir)
            gc.collect()
            stack = self.setup()
        for stale in dirs[:-1]:
            shutil.rmtree(stale, ignore_errors=True)
        executor, cluster, front = stack
        self.facts["backends"] = {
            name: sorted(set(cluster.backends(name))) for name in cluster.columns
        }
        await self._client(front, cluster, range(len(self.warmup)), None,
                           self.warmup, None)
        # The inputs, the oracle's copy of the rows and the built stack
        # live for the whole run: keep full collections from rescanning
        # them at random points in the measured ops.
        gc.collect()
        gc.freeze()
        if self.probe is not None:
            self.probe.start(cluster)
        stats0 = cluster.stats()
        fe0 = (front.requests, front.coalesced)
        gc.collect()
        self.window_segments = await self._measure(
            front, cluster, self.ops, self.preds, w.window_ops, w.clients
        )
        stats1 = cluster.stats()
        self.facts["window"] = {
            "bits_read": stats1.scatter_io.bits_read - stats0.scatter_io.bits_read,
            "block_reads": stats1.scatter_io.reads - stats0.scatter_io.reads,
            "shared_hits": stats1.shared_cache.hits - stats0.shared_cache.hits,
            "shared_misses": stats1.shared_cache.misses - stats0.shared_cache.misses,
            "gather_rids": stats1.gather_rids - stats0.gather_rids,
            "msgs": sum(stats1.op_counts.values()) - sum(stats0.op_counts.values()),
            "coalesced": front.coalesced - fe0[1],
            "requests": front.requests - fe0[0],
            "splits": stats1.splits - stats0.splits,
            "num_shards": stats1.num_shards,
        }
        if not w.ingest:
            self.durable_dir = tempfile.mkdtemp(prefix="wal-", dir=self.scratch)
            init_persistence(cluster, self.durable_dir, sync=WAL_SYNC,
                             fsync=CHECKPOINT_FSYNC)
            if self.probe is not None:
                self.probe.attach_wal(cluster.wal)
            self.checkpoint_at = len(self.tail) // 2
            self.tail_segments = await self._measure(
                front, cluster, self.tail, None, TAIL_WINDOW_OPS, 1
            )
        self.pre_probe = [
            wl.normalize_answer(op, read(cluster, op, to_pred(pred_of(op))))
            for op in self.probes
        ]
        self.live_rows = cluster.total_rows("status")
        self.disk_bytes = dir_bytes(self.durable_dir)
        if self.probe is not None:
            self.probe.finish()
        gc.unfreeze()
        await self._close(executor, cluster, front)
        gc.collect()
        gc.freeze()
        for _ in range(RESTORE_REPEATS):
            gc.collect()
            self.restore_once()
        shutil.rmtree(self.durable_dir, ignore_errors=True)
        self.facts["steal_share"] = host.steal_share(cpu0, host.cpu_times())

    @contextmanager
    def _replay_segments(self):
        """Split the restore segment every ``REPLAY_SPLIT`` replayed records.

        ``restore`` replays the WAL tail through the public mutators;
        wrapping them for the restore's duration lets the host-speed
        reference follow the replay (the split's worker barrier also
        keeps coordinator and worker work from overlapping, so the CPU
        weights hold), and times the replay in the traced run.
        """
        timeline, probe = self.timeline, self.probe
        replayed = 0
        originals = {
            name: ClusterEngine.__dict__[name]
            for name in ("append", "change", "delete")
        }

        def wrap(original):
            def mutator(*args, **kwargs):
                nonlocal replayed
                replayed += 1
                if replayed % REPLAY_SPLIT == 0:
                    timeline.split()
                t0 = time.perf_counter()
                try:
                    return original(*args, **kwargs)
                finally:
                    if probe is not None:
                        probe.add("replay", time.perf_counter() - t0)
            return mutator

        for name, original in originals.items():
            setattr(ClusterEngine, name, wrap(original))
        try:
            yield
        finally:
            for name, original in originals.items():
                setattr(ClusterEngine, name, original)

    def restore_once(self) -> None:
        segment = self.timeline.segment
        with segment() as restore:
            executor = self._executor()
            with self._replay_segments():
                cluster = ClusterEngine.restore(self.durable_dir, executor=executor)
        with segment() as probes:
            answers = [
                wl.normalize_answer(op, read(cluster, op, to_pred(pred_of(op))))
                for op in self.probes
            ]
        self.restore_segments.append((restore, probes))
        for op, got, want in zip(self.probes, answers, self.pre_probe):
            if got != want:
                self.mismatches.append(f"restore probe {op!r}")
        self.rss_mb = max(self.rss_mb, host.peak_rss_mb(self.stack_pids()))
        cluster.close()
        executor.close()
        self.timeline.barrier = None

    # -- checks ----------------------------------------------------------

    def verify(self) -> int:
        """Check sampled answers and probes against the oracle."""
        oracle = wl.Oracle(self.cols)
        checked = 0
        if self.w.ingest:
            for op in self.warmup:
                if op[0] in wl.WRITES:
                    oracle.apply(op)
            for i, op in enumerate(self.ops):
                if op[0] in wl.WRITES:
                    oracle.apply(op)
                elif i in self.answers:
                    checked += self._check(oracle, op, self.answers[i], i)
        else:
            for i, value in self.answers.items():
                checked += self._check(oracle, self.ops[i], value, i)
            for op in self.tail:
                oracle.apply(op)
        for op, got in zip(self.probes, self.pre_probe):
            if oracle.answer(op) != got:
                self.mismatches.append(f"pre-shutdown probe {op!r}")
            checked += 1
        return checked

    def _check(self, oracle, op, value, index) -> int:
        if wl.normalize_answer(op, value) != oracle.answer(op):
            self.mismatches.append(f"op {index} {op!r}")
        return 1

    # -- results ---------------------------------------------------------

    def setup_times(self) -> tuple[list[float], list[float]]:
        t = self.timeline
        norm = [t.normalized(segs) for segs in self.setup_segments]
        raw = [sum(t.wall(i) for i in segs) for segs in self.setup_segments]
        return norm, raw

    def restore_times(self) -> tuple[list[float], list[float]]:
        t = self.timeline
        both = [a + b for a, b in self.restore_segments]
        norm = [t.normalized(segs) for segs in both]
        raw = [sum(t.wall(i) for i in segs) for segs in both]
        return norm, raw

    def metrics(self) -> tuple[dict, dict]:
        t = self.timeline
        reads = [t.latency(k, dt, stolen) for k, dt, stolen in self.lat["read"]]
        writes = [
            t.latency(k, dt, stolen, coordinator=True)
            for k, dt, stolen in self.lat["write"]
        ]
        for kind, values in (("reads", reads), ("writes", writes)):
            if not p95_supported(values):
                raise RuntimeError(f"too few {kind} for a p95: {len(values)}")
        measured = len(self.ops)
        busy = t.normalized(self.window_segments)
        busy_raw = sum(t.wall(k) for k in self.window_segments)
        setup, setup_raw = self.setup_times()
        restore, restore_raw = self.restore_times()
        window = self.facts["window"]
        values = {
            "setup_s": (statistics.median(setup), "s"),
            "ops_per_s": (measured / busy, "ops/s"),
            "read_p50_ms": (1e3 * percentile(reads, 0.50), "ms"),
            "read_p95_ms": (1e3 * percentile(reads, 0.95), "ms"),
            "write_p50_ms": (1e3 * percentile(writes, 0.50), "ms"),
            "write_p95_ms": (1e3 * percentile(writes, 0.95), "ms"),
            "bits_read_per_op": (window["bits_read"] / measured, "bits/op"),
            "disk_bytes_per_row": (self.disk_bytes / self.live_rows, "bytes/row"),
            "restore_s": (statistics.median(restore), "s"),
            "peak_rss_mb": (self.rss_mb, "MB"),
        }
        raw_reads = [dt for _k, dt, _s in self.lat["read"]]
        raw_writes = [dt for _k, dt, _s in self.lat["write"]]
        raw = {
            "setup_s": statistics.median(setup_raw),
            "setup_s_samples": setup_raw,
            "setup_s_normalized_samples": setup,
            "ops_per_s": measured / busy_raw,
            "read_p50_ms": 1e3 * percentile(raw_reads, 0.50),
            "read_p95_ms": 1e3 * percentile(raw_reads, 0.95),
            "write_p50_ms": 1e3 * percentile(raw_writes, 0.50),
            "write_p95_ms": 1e3 * percentile(raw_writes, 0.95),
            "restore_s": statistics.median(restore_raw),
            "restore_s_samples": restore_raw,
            "restore_s_normalized_samples": restore,
            "checkpoint_s": self.checkpoint[1] if self.checkpoint else None,
        }
        refs = t.refs
        factors = [t.factor(k) for k in range(len(t.segments))]
        failed = sum(self.failures.values())
        detail = {
            "workload": self.w.name,
            "seed": self.seed,
            "host": dict(host.facts(self.clock), repro_kernel=kernel_name(),
                         steal_share=self.facts["steal_share"]),
            "workers": self.workers,
            "clients": self.w.clients,
            "reference_s": {
                "median": statistics.median(refs),
                "quartiles": statistics.quantiles(refs, n=4),
                "samples": len(refs),
                "segments": len(t.segments),
                "factor_quartiles": statistics.quantiles(factors, n=4),
                "stolen_s": t.stolen,
            },
            "raw": raw,
            "samples": {"reads": len(reads), "writes": len(writes),
                        "measured_ops": measured},
            "failed_share": failed / max(1, self.attempted),
            "failures": self.failures,
            "durability": {"wal_sync": WAL_SYNC,
                           "checkpoint_fsync": CHECKPOINT_FSYNC},
            "backends": self.facts["backends"],
            "window": window,
        }
        return values, detail
