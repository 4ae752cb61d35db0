"""Per-layer accounting for the traced run, from the benchmark's side.

Nothing under ``src/`` changes.  The probe wraps the public calls the
run makes into each layer, on the objects the run owns:

* ``FrontEnd`` latency is what the client awaits;
* the bridged ``ClusterEngine`` read calls and its ``append``/
  ``change`` are wrapped on the cluster instance;
* ``ProcessExecutor.submit_*`` futures are wrapped so the time blocked
  in ``result()`` is executor wait; ``flush_deltas`` and
  ``build_shard`` are timed likewise;
* ``compile_pred``/``specialize`` (as the cluster module calls them)
  and ``Pred.fingerprint`` are plan time;
* the attached ``DeltaLog.append`` is WAL time, and the mutators that
  ``ClusterEngine.restore`` replays the WAL tail through (wrapped by
  ``ledger.Run``) are replay time;
* worker time comes from the ``worker_query``/``worker_fold`` spans
  the cluster's ``Tracer`` stitches from the workers' replies.

Every time is normalized by the factor of the segment it fell in (see
``host.py``).  For reads, serve bridge + plan + cluster self + executor
wait is the client-observed latency by construction (bridge and self
are residuals), and executor wait = worker busy + transport, where
transport also holds worker time no span covers (routed deltas
applied ahead of a query) and goes negative when worker spans overlap
coordinator work (prefetch).  The accounting check is therefore
against wall time: ``trace.accounted_share`` is the client-observed
time of every measured op plus the checkpoint, over clients x the
segments' wall time less their closing worker barriers and this
probe's own bookkeeping; it must lie within ``ACCOUNTING_TOLERANCE``
of 1.
"""

from __future__ import annotations

import statistics
import threading
import time
from collections import defaultdict

import repro.cluster.engine as cluster_module
from repro.query.predicates import Pred

from . import workloads as wl

#: |accounted share - 1| allowed: the client loop between ops and an
#: idle client at the end of a two-client segment are not a layer.
ACCOUNTING_TOLERANCE = 0.10
_READ_CALLS = ("count", "select", "count_by", "topk")
_WORKER_SPANS = ("worker_query", "worker_fold")


def _pred_arg(name: str, args: tuple):
    return args[1] if name in ("count_by", "topk") else args[0]


class _TimedFuture:
    """A submitted future whose blocking ``result()`` is executor wait."""

    __slots__ = ("_future", "_probe")

    def __init__(self, future, probe: "LayerProbe") -> None:
        self._future = future
        self._probe = probe

    def result(self):
        t0 = time.perf_counter()
        try:
            return self._future.result()
        finally:
            self._probe.add("wait", time.perf_counter() - t0)


class LayerProbe:
    def __init__(self, timeline) -> None:
        self.timeline = timeline
        self._lock = threading.Lock()
        self._tls = threading.local()
        #: name -> segment -> summed seconds (or counts)
        self.sums = defaultdict(lambda: defaultdict(float))
        self.counts = defaultdict(int)
        #: name -> [(segment, seconds)], one per event
        self.samples = defaultdict(list)
        self._calls: dict[int, float] = {}
        self._fingerprints: dict[int, float] = {}
        self._write_time = 0.0
        self._patches: list = []
        self.optimal_bits = 0.0
        self.tracer = None
        self.wal = None

    # -- accumulation ----------------------------------------------------

    def add(self, name: str, value: float) -> None:
        segment = self.timeline.current
        if segment is None:
            return
        with self._lock:
            self.sums[name][segment] += value

    def total(self, name: str, segments) -> float:
        """Normalized seconds of ``name`` over the given segments."""
        sums = self.sums[name]
        factor = self.timeline.factor
        return sum(factor(k) * sums[k] for k in segments if k in sums)

    def p50_ms(self, name: str, coordinator: bool = False) -> float:
        t = self.timeline
        factor = t.coordinator_factor if coordinator else t.factor
        values = [factor(k) * s for k, s in self.samples[name]]
        return 1e3 * statistics.median(values) if values else 0.0

    # -- wiring ----------------------------------------------------------

    def _patch(self, owner, name: str, replacement) -> None:
        self._patches.append((owner, name, owner.__dict__.get(name)))
        setattr(owner, name, replacement)

    def _unpatch(self) -> None:
        while self._patches:
            owner, name, previous = self._patches.pop()
            if previous is None:
                delattr(owner, name)
            else:
                setattr(owner, name, previous)

    def attach_executor(self, executor) -> None:
        probe = self

        def timed_submit(original):
            return lambda *a, **k: _TimedFuture(original(*a, **k), probe)

        for name in ("submit_query", "submit_leaves", "submit_fold"):
            setattr(executor, name, timed_submit(getattr(executor, name)))
        group = executor.submit_query_group
        executor.submit_query_group = lambda *a, **k: [
            _TimedFuture(f, probe) for f in group(*a, **k)
        ]
        flush = executor.flush_deltas

        def flush_deltas():
            t0 = time.perf_counter()
            try:
                flush()
            finally:
                probe.add("wait", time.perf_counter() - t0)

        executor.flush_deltas = flush_deltas
        build = executor.build_shard

        def build_shard(*args):
            t0 = time.perf_counter()
            try:
                build(*args)
            finally:
                probe.add("build", time.perf_counter() - t0)

        executor.build_shard = build_shard

    def start(self, cluster) -> None:
        """Wrap the cluster and the plan layer before the measured ops."""
        probe = self
        tls = self._tls
        self.tracer = cluster.tracer
        self.tracer.traces.clear()
        for name in _READ_CALLS:
            original = getattr(cluster, name)

            def call(*args, _name=name, _original=original, **kwargs):
                depth = getattr(tls, "depth", 0)
                tls.depth = depth + 1
                t0 = time.perf_counter()
                try:
                    return _original(*args, **kwargs)
                finally:
                    tls.depth = depth
                    if depth == 0:  # topk calls count_by
                        dt = time.perf_counter() - t0
                        probe._calls[id(_pred_arg(_name, args))] = dt
                        probe.add("call", dt)

            setattr(cluster, name, call)
        for name in ("append", "change"):
            original = getattr(cluster, name)

            def mutate(*args, _original=original):
                t0 = time.perf_counter()
                try:
                    return _original(*args)
                finally:
                    probe._write_time += time.perf_counter() - t0

            setattr(cluster, name, mutate)
        compile_pred = cluster_module.compile_pred
        specialize = cluster_module.specialize
        fingerprint = Pred.fingerprint

        def timed_compile(*args, **kwargs):
            t0 = time.perf_counter()
            plan = compile_pred(*args, **kwargs)
            probe.add("plan_call", time.perf_counter() - t0)
            probe.add("leaves", len(plan.leaves))
            return plan

        def timed_specialize(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return specialize(*args, **kwargs)
            finally:
                probe.add("plan_call", time.perf_counter() - t0)

        def timed_fingerprint(pred, *args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fingerprint(pred, *args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                probe._fingerprints[id(pred)] = dt
                probe.add("fingerprint", dt)

        self._patch(cluster_module, "compile_pred", timed_compile)
        self._patch(cluster_module, "specialize", timed_specialize)
        self._patch(Pred, "fingerprint", timed_fingerprint)
        if cluster.wal is not None:
            self.attach_wal(cluster.wal)

    def attach_wal(self, wal) -> None:
        probe = self
        append = wal.append

        def timed_append(record):
            t0 = time.perf_counter()
            try:
                return append(record)
            finally:
                segment = probe.timeline.current
                if segment is not None:
                    probe.samples["wal"].append(
                        (segment, time.perf_counter() - t0)
                    )

        wal.append = timed_append
        self.wal = wal
        self.wal_bytes0 = wal.bytes_written

    def finish(self) -> None:
        self._unpatch()
        self.wal_bytes = self.wal.bytes_written - self.wal_bytes0

    # -- per-op notes ----------------------------------------------------

    def _drain_traces(self, segment: int) -> None:
        traces = list(self.tracer.traces)
        self.tracer.traces.clear()
        for trace in traces:
            optimal_op = trace.root.name in ("count", "select")
            for span in trace.spans():
                if span.name in _WORKER_SPANS:
                    self.sums["worker"][segment] += span.duration_s
                if span.name == "worker_query":
                    self.counts["worker_queries"] += 1
                    self.counts["worker_hits"] += span.tags.get("cache") == "hit"
                if optimal_op:
                    self.counts["optimal_op_bits"] += span.tags.get("bits_read", 0)

    def note_read(self, segment, op, pred, latency, value, cluster) -> None:
        t0 = time.perf_counter()
        call = self._calls.pop(id(pred), None)
        fingerprint = self._fingerprints.pop(id(pred), 0.0)
        self._drain_traces(segment)
        self.sums["read_latency"][segment] += latency
        if call is not None:  # else a coalesced follower rode another call
            self.samples["bridge"].append((segment, latency - call - fingerprint))
            if op[0] in ("count", "select"):
                size = value if op[0] == "count" else len(value)
                rows = cluster.total_rows("status")
                self.optimal_bits += wl.log2_binomial(rows, size)
        self.sums["probe"][segment] += time.perf_counter() - t0

    def note_write(self, segment, latency) -> None:
        self.counts["writes"] += 1
        self.samples["cluster_write"].append((segment, self._write_time))
        self.sums["write_latency"][segment] += latency
        self._write_time = 0.0

    # -- metrics ---------------------------------------------------------

    def compute(self, run) -> dict:
        t = self.timeline
        reads_at, tail_at = run.window_segments, run.tail_segments
        writes_at = reads_at + tail_at
        ops = len(run.ops)
        writes = max(1, self.counts["writes"])
        window = run.facts["window"]
        busy = t.normalized(reads_at)

        def per_op_ms(name: str) -> float:
            return 1e3 * self.total(name, reads_at) / ops

        plan = per_op_ms("plan_call") + per_op_ms("fingerprint")
        wait = per_op_ms("wait")
        worker = per_op_ms("worker")
        ckpt_segment, ckpt_raw = run.checkpoint
        checkpoint = t.factor(ckpt_segment) * ckpt_raw
        accounted = (
            self.total("read_latency", reads_at)
            + self.total("write_latency", writes_at)
            + checkpoint
        )
        # The closing worker barrier and this probe's own bookkeeping
        # between ops are measurement, not the program's busy time.
        clients = {k: run.w.clients for k in reads_at}
        offered = sum(
            clients.get(k, 1) * t.factor(k) * (t.wall(k) - t.barrier_s.get(k, 0.0))
            for k in writes_at
        )
        share = accounted / (offered - self.total("probe", writes_at))
        builds = [
            sum(
                t.factor(k) * (self.sums["build"].get(k, 0.0) + t.barrier_s.get(k, 0.0))
                for k in segments
            )
            for segments in run.setup_segments
        ]
        restores, _raw = run.restore_times()
        middle = sorted(range(len(restores)), key=restores.__getitem__)[len(restores) // 2]
        restore_at, probes_at = run.restore_segments[middle]
        replay = self.total("replay", restore_at)
        probes = t.normalized(probes_at)
        lookups = window["shared_hits"] + window["shared_misses"]
        worker_queries = self.counts["worker_queries"]
        return {
            "trace.ops_per_s": (ops / busy, "ops/s"),
            "trace.accounted_share": (share, "ratio"),
            "serve.bridge_ms_p50": (self.p50_ms("bridge"), "ms"),
            "serve.coalesced_share": (
                window["coalesced"] / max(1, window["requests"]), "ratio"
            ),
            "query.plan_ms_per_op": (plan, "ms/op"),
            "query.leaves_per_op": (
                sum(self.sums["leaves"].values()) / ops, "leaves/op"
            ),
            "cluster.self_ms_per_op": (
                per_op_ms("call") - wait - per_op_ms("plan_call"), "ms/op"
            ),
            "cluster.shared_hit_rate": (
                window["shared_hits"] / lookups if lookups else 0.0, "ratio"
            ),
            "cluster.gather_rids_per_op": (window["gather_rids"] / ops, "rids/op"),
            "cluster.write_ms_p50": (
                self.p50_ms("cluster_write", coordinator=True), "ms"
            ),
            "cluster.splits": (window["splits"], "count"),
            "executor.wait_ms_per_op": (wait, "ms/op"),
            "executor.msgs_per_op": (window["msgs"] / ops, "msgs/op"),
            "executor.transport_ms_per_op": (wait - worker, "ms/op"),
            "executor.build_s": (statistics.median(builds), "s"),
            "worker.busy_ms_per_op": (worker, "ms/op"),
            "engine.lru_hit_rate": (
                self.counts["worker_hits"] / worker_queries if worker_queries else 0.0,
                "ratio",
            ),
            "iomodel.block_reads_per_op": (window["block_reads"] / ops, "reads/op"),
            "iomodel.bits_over_optimal": (
                self.counts["optimal_op_bits"] / self.optimal_bits
                if self.optimal_bits else 0.0,
                "ratio",
            ),
            "persist.wal_append_ms_p50": (
                self.p50_ms("wal", coordinator=True), "ms"
            ),
            "persist.wal_bytes_per_write": (self.wal_bytes / writes, "bytes/write"),
            "persist.checkpoint_s": (checkpoint, "s"),
            "persist.replay_s": (replay, "s"),
            "persist.load_s": (restores[middle] - replay - probes, "s"),
        }
