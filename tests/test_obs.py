"""The unified observability layer: traces, metrics, slow-query log.

The tentpole claims, proved here end to end:

* one query becomes one *stitched* trace — coordinator spans (plan,
  scatter, gather_merge) and worker-side ``worker_fold`` spans (built
  inside resident processes and shipped back on the existing reply
  tuples) in a single tree whose per-span
  ``bits_read`` tags sum to exactly the cluster's ``scatter_io``
  accounting;
* tracing never changes what a query reads: traced and untraced runs
  of every read op answer alike and read the same bits under every
  executor and in an in-process worker runtime, and with tracing off
  no shard op reads a clock or builds a span;
* abandoned pipelined replies from an early-closed streaming gather
  are dropped and counted, never grafted into a later query's trace;
* delta-batch flushes are attributed to the query that triggered them;
* every ``stats()`` snapshot is one typed object that survives
  ``json.dumps`` round trips, as do ``Snapshot``, ``GatherStats`` and
  ``PlanReport``.
"""

import json
import random

import pytest

import repro.obs.tracer as tracer_module
from repro.cluster import (
    ClusterEngine,
    GatherStats,
    ProcessExecutor,
    SerialExecutor,
    ThreadedExecutor,
)
from repro.cluster.worker import ShardHost
from repro.engine import QueryEngine
from repro.iomodel.stats import Snapshot
from repro.obs import (
    NULL_TRACE,
    ManualClock,
    MetricsRegistry,
    SlowQueryLog,
    Span,
    Trace,
    Tracer,
)
from repro.queries import Table
from repro.query import And, Or, PlanReport, Range

from tests.conftest import pred_oracle


def all_bits(trace):
    """Sum of every span's ``bits_read`` tag across the whole trace."""
    return sum(s.tags.get("bits_read", 0) for s in trace.spans())


# ---------------------------------------------------------------------------
# Primitives: clock, spans, traces, tracer
# ---------------------------------------------------------------------------


class TestManualClock:
    def test_advances_deterministically(self):
        clock = ManualClock(10.0)
        assert clock() == 10.0
        clock.advance(2.5)
        assert clock() == 12.5


class TestSpan:
    def test_dict_round_trip_preserves_tree(self):
        root = Span("scatter", t0=1.0, t1=4.0, tags={"mode": "count"})
        child = Span("worker_fold", t0=1.5, t1=3.0, tags={"bits_read": 64})
        root.children.append(child)
        back = Span.from_dict(json.loads(json.dumps(root.to_dict())))
        assert back.name == "scatter"
        assert back.tags == {"mode": "count"}
        assert back.duration_s == pytest.approx(3.0)
        (kid,) = back.children
        assert kid.name == "worker_fold"
        assert kid.tags["bits_read"] == 64
        assert [s.name for s in back.walk()] == ["scatter", "worker_fold"]


class TestTrace:
    def make(self, clock=None):
        tracer = Tracer(clock=clock or ManualClock())
        return tracer, tracer.begin("query")

    def test_spans_nest_under_the_innermost_open_span(self):
        tracer, trace = self.make()
        with trace.span("scatter"):
            with trace.span("leaf_fetch", column="a"):
                pass
            trace.event("delta_flush", deltas=3)
        names = [s.name for s in trace.spans()]
        assert names == ["query", "scatter", "leaf_fetch", "delta_flush"]
        (scatter,) = trace.find("scatter")
        assert {c.name for c in scatter.children} == {
            "leaf_fetch",
            "delta_flush",
        }

    def test_span_timing_comes_from_the_injected_clock(self):
        clock = ManualClock()
        tracer, trace = self.make(clock)
        with trace.span("scatter") as span:
            clock.advance(0.25)
        assert span.duration_s == pytest.approx(0.25)

    def test_graft_attaches_serialized_worker_spans(self):
        tracer, trace = self.make()
        shipped = Span("worker_fold", tags={"bits_read": 8}).to_dict()
        with trace.span("scatter"):
            trace.graft([shipped])
        (grafted,) = trace.find("worker_fold")
        assert grafted.tags["bits_read"] == 8
        assert tracer.dropped_spans == 0

    def test_graft_after_finish_drops_and_counts(self):
        tracer, trace = self.make()
        tracer.finish(trace)
        stale = Span("worker_query").to_dict()
        assert trace.graft([stale, stale]) == []
        assert tracer.dropped_spans == 2
        assert trace.find("worker_query") == []

    def test_to_dict_is_json_serializable(self):
        tracer, trace = self.make()
        with trace.span("plan"):
            pass
        tracer.finish(trace)
        data = json.loads(json.dumps(trace.to_dict()))
        assert data["trace_id"] == trace.trace_id
        assert data["finished"] is True
        assert data["root"]["name"] == "query"


class TestTracer:
    def test_disabled_begin_returns_none(self):
        tracer = Tracer(enabled=False)
        assert tracer.begin("query") is None
        assert tracer.last() is None

    def test_finish_is_idempotent_and_ring_is_bounded(self):
        tracer = Tracer(clock=ManualClock(), keep=2)
        traces = [tracer.begin(f"op{i}") for i in range(3)]
        for trace in traces:
            tracer.finish(trace)
            tracer.finish(trace)  # second finish is a no-op
        assert len(tracer.traces) == 2
        assert tracer.last() is traces[-1]
        assert [t.root.name for t in tracer.traces] == ["op1", "op2"]

    def test_trace_ids_are_unique(self):
        tracer = Tracer(clock=ManualClock())
        a, b = tracer.begin("query"), tracer.begin("query")
        assert a.trace_id != b.trace_id
        assert a.root.tags["trace_id"] == a.trace_id

    def test_non_plain_tags_serialize_by_repr(self):
        tracer = Tracer(clock=ManualClock())
        trace = tracer.begin("query")
        pred = Range("a", 2, 9)
        with trace.span("plan", predicate=pred) as span:
            span.tag(leaves=1)
        (plan,) = trace.find("plan")
        assert plan.tags["predicate"] is pred  # formatted only on export
        data = json.loads(json.dumps(trace.to_dict()))
        tags = data["root"]["children"][0]["tags"]
        assert tags == {"predicate": repr(pred), "leaves": 1}


class TestNullTrace:
    def test_records_nothing(self):
        assert NULL_TRACE.trace_id is None
        with NULL_TRACE.span("scatter", leaves=2) as span:
            span.tag(bits_read=5)
            assert NULL_TRACE.event("delta_flush", deltas=1) is None
        assert NULL_TRACE.graft([{"name": "worker_query"}]) == []
        assert NULL_TRACE.to_dict() is None

    def test_graft_skips_empty_span_slots(self):
        tracer = Tracer(clock=ManualClock())
        trace = tracer.begin("query")
        assert trace.graft([None]) == []
        tracer.finish(trace)
        trace.graft([None, Span("late").to_dict()])
        assert tracer.dropped_spans == 1


# ---------------------------------------------------------------------------
# Metrics registry
# ---------------------------------------------------------------------------


class TestMetricsRegistry:
    def test_counters_gauges_histograms(self):
        metrics = MetricsRegistry()
        metrics.inc("query.count")
        metrics.inc("query.count", 2)
        metrics.set_gauge("shards", 4)
        for v in (1.0, 3.0, 2.0):
            metrics.observe("latency", v)
        assert metrics.counter("query.count").value == 3
        assert metrics.gauge("shards").value == 4
        hist = metrics.histogram("latency")
        assert hist.count == 3
        assert hist.min == 1.0 and hist.max == 3.0
        assert hist.mean == pytest.approx(2.0)
        assert hist.percentile(50) == pytest.approx(2.0)
        assert hist.percentile(0) == pytest.approx(1.0)
        assert hist.percentile(100) == pytest.approx(3.0)

    def test_reservoir_is_bounded_but_totals_are_not(self):
        metrics = MetricsRegistry(reservoir=4)
        for v in range(100):
            metrics.observe("x", float(v))
        hist = metrics.histogram("x")
        assert len(hist.samples) == 4
        assert hist.count == 100
        assert hist.min == 0.0 and hist.max == 99.0

    def test_to_dict_is_json_serializable_and_reset_clears(self):
        metrics = MetricsRegistry()
        metrics.inc("a")
        metrics.set_gauge("b", 7)
        metrics.observe("c", 0.5)
        data = json.loads(json.dumps(metrics.to_dict()))
        assert data["counters"] == {"a": 1}
        assert data["gauges"] == {"b": 7}
        assert data["histograms"]["c"]["count"] == 1
        metrics.reset()
        assert metrics.to_dict() == {
            "counters": {},
            "gauges": {},
            "histograms": {},
        }


# ---------------------------------------------------------------------------
# Slow-query log
# ---------------------------------------------------------------------------


class TestSlowQueryLog:
    def test_fast_queries_are_not_recorded(self):
        log = SlowQueryLog(threshold_s=1.0)
        assert log.observe("query", 0.5) is None
        assert len(log) == 0

    def test_slow_queries_capture_trace_and_lazy_report(self):
        log = SlowQueryLog(threshold_s=1.0)
        tracer = Tracer(clock=ManualClock())
        trace = tracer.begin("select")
        tracer.finish(trace)
        calls = []

        def report_fn():
            calls.append(1)
            return {"root": "Range"}

        record = log.observe(
            "select", 2.0, trace=trace, report_fn=report_fn
        )
        assert record is not None and calls == [1]
        assert record.op == "select"
        assert record.elapsed_s == 2.0
        assert record.trace["trace_id"] == trace.trace_id
        assert record.report == {"root": "Range"}
        json.dumps(log.to_dict())

    def test_report_fn_exceptions_never_fail_the_query(self):
        log = SlowQueryLog(threshold_s=0.0)

        def broken():
            raise RuntimeError("planner exploded")

        record = log.observe("count", 1.0, report_fn=broken)
        assert record is not None and record.report is None

    def test_ring_is_bounded_newest_last(self):
        log = SlowQueryLog(threshold_s=0.0, capacity=2)
        for i in range(4):
            log.observe(f"op{i}", float(i))
        assert log.capacity == 2
        assert [r.op for r in log.records()] == ["op2", "op3"]
        log.clear()
        assert len(log) == 0


# ---------------------------------------------------------------------------
# Engine-level observability
# ---------------------------------------------------------------------------


def make_engine(**kwargs):
    engine = QueryEngine(**kwargs)
    rng = random.Random(11)
    engine.add_column("a", [rng.randrange(16) for _ in range(400)], 16)
    engine.add_column("b", [rng.randrange(8) for _ in range(400)], 8)
    return engine


class TestEngineTracing:
    def test_leaf_query_miss_then_hit(self):
        tracer = Tracer(clock=ManualClock())
        engine = make_engine(tracer=tracer)
        engine.query("a", 2, 9)
        miss = tracer.last()
        (fetch,) = miss.find("leaf_fetch")
        assert fetch.tags["cache"] == "miss"
        assert fetch.tags["column"] == "a"
        assert fetch.tags["backend"]
        assert fetch.tags["bits_read"] > 0
        (lookup,) = miss.find("cache_lookup")
        assert lookup.tags == {"tier": "engine", "hit": False}

        engine.query("a", 2, 9)
        hit = tracer.last()
        assert hit.trace_id != miss.trace_id
        (fetch,) = hit.find("leaf_fetch")
        assert fetch.tags["cache"] == "hit"
        assert fetch.tags["bits_read"] == 0
        (lookup,) = hit.find("cache_lookup")
        assert lookup.tags["hit"] is True

    def test_predicate_ops_trace_as_one_tree(self):
        tracer = Tracer(clock=ManualClock())
        engine = make_engine(tracer=tracer)
        pred = And(Range("a", 2, 9), Range("b", 1, 5))
        engine.count(pred)
        trace = tracer.last()
        assert trace.root.name == "count"
        # Nested leaf queries stitched into the same tree, not their
        # own traces.
        assert len(trace.find("leaf_fetch")) == 2
        assert len(tracer.traces) == 1

    def test_disabled_tracer_produces_nothing(self):
        tracer = Tracer(enabled=False)
        engine = make_engine(tracer=tracer)
        result = engine.query("a", 2, 9)
        assert result.positions()  # still answers
        assert len(tracer.traces) == 0
        assert tracer.last() is None

    def test_traced_answers_match_untraced(self):
        plain = make_engine()
        traced = make_engine(
            tracer=Tracer(clock=ManualClock()),
            metrics=MetricsRegistry(),
            slow_log=SlowQueryLog(threshold_s=0.0),
        )
        pred = And(Range("a", 3, 12), Range("b", 0, 4))
        assert traced.query("a", 2, 9).positions() == (
            plain.query("a", 2, 9).positions()
        )
        assert traced.select(pred) == plain.select(pred)
        assert traced.count(pred) == plain.count(pred)


class TestEngineMetrics:
    def test_query_and_cache_counters(self):
        metrics = MetricsRegistry()
        engine = make_engine(metrics=metrics)
        for column in engine.columns.values():
            column.index.disk.flush_cache()  # make the read pay transfers
        engine.query("a", 2, 9)
        engine.query("a", 2, 9)
        counters = metrics.to_dict()["counters"]
        assert counters["query.count"] == 2
        assert counters["cache.engine.misses"] == 1
        assert counters["cache.engine.hits"] == 1
        assert counters["query.bits_read"] > 0
        # The simulated disk reports transfers into the same registry.
        assert counters["io.read_transfers"] > 0
        assert metrics.histogram("query.latency_s").count == 2

    @pytest.mark.parametrize(
        "backend, dynamism, require_delete, rebuild",
        [
            # Doubling: appends of a code the build saw.
            ("appendable", "semidynamic", False,
             lambda e: [e.append("c", 0) for _ in range(200)]),
            # A never-seen code rebuilds the Theorem-7 index.
            ("fully-dynamic", "fully_dynamic", False,
             lambda e: e.append("c", 7)),
            # Deleting half the rows compacts.
            ("deletable", "fully_dynamic", True,
             lambda e: [e.delete("c", p) for p in range(100)]),
        ],
        ids=["appendable", "fully-dynamic", "deletable"],
    )
    def test_rebuilds_keep_the_metrics_handle(
        self, backend, dynamism, require_delete, rebuild
    ):
        # A global rebuild swaps the device; the replacement must keep
        # reporting transfers into the engine's registry.
        metrics = MetricsRegistry()
        engine = QueryEngine(metrics=metrics)
        engine.add_column(
            "c", [0, 1, 2] * 66 + [0, 1], 8, dynamism=dynamism,
            require_delete=require_delete, backend=backend,
        )
        index = engine.column("c").index
        old_disk = index.disk
        rebuild(engine)
        index = engine.column("c").index
        assert index.disk is not old_disk
        assert index.disk.metrics is metrics
        before = metrics.to_dict()["counters"].get("io.read_transfers", 0)
        index.disk.flush_cache()
        engine.query("c", 1, 2)
        assert metrics.to_dict()["counters"]["io.read_transfers"] > before

    def test_lru_counters_agree_with_fast_path(self):
        # The instrumented leaf path must charge the LRU's own hit/miss
        # stats exactly as the fast path does.
        plain = make_engine()
        traced = make_engine(tracer=Tracer(clock=ManualClock()))
        for engine in (plain, traced):
            engine.query("a", 2, 9)
            engine.query("a", 2, 9)
            engine.query("a", 0, 3)
        assert traced.cache.hits == plain.cache.hits
        assert traced.cache.misses == plain.cache.misses


class TestEngineSlowLog:
    def test_slow_select_captures_trace_and_plan_report(self):
        tracer = Tracer(clock=ManualClock())
        log = SlowQueryLog(threshold_s=0.0)
        engine = make_engine(tracer=tracer, slow_log=log)
        engine.select(And(Range("a", 2, 9), Range("b", 1, 5)))
        (record,) = log.records()
        assert record.op == "select"
        assert record.trace["root"]["name"] == "select"
        assert record.report is not None
        assert record.report["root"]["op"] == "and"
        json.dumps(record.to_dict())

    def test_threshold_filters(self):
        log = SlowQueryLog(threshold_s=10.0)
        engine = make_engine(slow_log=log)
        engine.query("a", 2, 9)
        assert len(log) == 0  # nothing takes ten wall-clock seconds


class TestEngineStats:
    def test_snapshot_embeds_columns_cache_io_metrics(self):
        metrics = MetricsRegistry()
        log = SlowQueryLog(threshold_s=0.0)
        engine = make_engine(metrics=metrics, slow_log=log)
        engine.query("a", 2, 9)
        stats = engine.stats()
        assert {c.name for c in stats.columns} == {"a", "b"}
        assert stats.cache.tier == "engine"
        assert stats.cache.misses == 1
        assert stats.io.bits_read > 0
        assert stats.metrics["counters"]["query.count"] == 1
        assert stats.slow_queries == 1
        data = json.loads(json.dumps(stats.to_dict()))
        assert data["io"]["bits_read"] == stats.io.bits_read

    def test_table_stats_wraps_engine_stats(self):
        table = Table({"x": [3, 1, 4, 1, 5, 9, 2, 6]})
        stats = table.stats()
        assert stats.num_rows == 8
        assert stats.engine is not None and stats.cluster is None
        json.dumps(stats.to_dict())


# ---------------------------------------------------------------------------
# Serialization round trips (satellite a)
# ---------------------------------------------------------------------------


class TestJsonRoundTrips:
    def test_snapshot(self):
        snap = Snapshot(reads=3, writes=1, bits_read=512, bits_written=64)
        back = Snapshot.from_json(json.loads(json.dumps(snap.to_json())))
        assert back == snap

    def test_gather_stats(self):
        stats = GatherStats()
        stats.acquire(10)
        stats.acquire(5)
        stats.release(10)
        back = GatherStats.from_json(
            json.loads(json.dumps(stats.to_json()))
        )
        assert back.live_rids == stats.live_rids
        assert back.peak_rids == stats.peak_rids

    def test_plan_report(self):
        engine = make_engine()
        report = engine.plan(And(Range("a", 2, 9), Range("b", 1, 5)))
        back = PlanReport.from_json(
            json.loads(json.dumps(report.to_json()))
        )
        assert back == report

    def test_cluster_plan_report_with_shard_verdicts(self):
        cluster = ClusterEngine(num_shards=3)
        rng = random.Random(7)
        cluster.add_column(
            "a", [rng.randrange(16) for _ in range(300)], 16
        )
        report = cluster.plan(Range("a", 2, 9))
        back = PlanReport.from_json(
            json.loads(json.dumps(report.to_json()))
        )
        assert back == report
        assert back.leaves[0].shards  # per-shard verdicts survived


# ---------------------------------------------------------------------------
# Cluster-level observability (serial executor)
# ---------------------------------------------------------------------------


def make_cluster(num_shards=3, rows=600, **kwargs):
    cluster = ClusterEngine(num_shards=num_shards, **kwargs)
    rng = random.Random(23)
    cluster.add_column(
        "a", [rng.randrange(16) for _ in range(rows)], 16
    )
    cluster.add_column("b", [rng.randrange(8) for _ in range(rows)], 8)
    return cluster


PRED = Or(And(Range("a", 3, 12), Range("b", 0, 4)), Range("a", 15, 15))

#: Every cluster read op, as a callable returning a comparable answer.
READ_OPS = {
    "query_leaf": lambda c: c.query("a", 2, 9).positions(),
    "query_pred": lambda c: c.query(PRED).positions(),
    "select": lambda c: c.select(PRED),
    "select_iter": lambda c: list(c.select_iter(PRED)),
    "count": lambda c: c.count(PRED),
    "exists": lambda c: c.exists(PRED),
    "count_by": lambda c: c.count_by("b", PRED),
    "topk": lambda c: c.topk("b", PRED, k=3),
}


@pytest.fixture
def executor_of(request):
    """Build a fresh executor by kind; threaded pools close at teardown."""
    pools = []

    def make(kind):
        if kind == "process":
            return request.getfixturevalue("obs_pool")
        if kind == "threaded":
            pools.append(ThreadedExecutor(max_workers=2))
            return pools[-1]
        return SerialExecutor()

    yield make
    for pool in pools:
        pool.close()


class TestClusterTracingSerial:
    def test_predicate_query_trace_shape_and_bits(self):
        tracer = Tracer(clock=ManualClock())
        cluster = make_cluster(tracer=tracer)
        before = cluster.scatter_io.snapshot()
        cluster.query(And(Range("a", 2, 9), Range("b", 1, 5)))
        delta = cluster.scatter_io.snapshot() - before
        trace = tracer.last()
        assert trace.root.name == "query"
        assert trace.find("plan")
        assert trace.find("scatter")
        assert trace.find("gather_merge")
        folds = trace.find("shard_fold")
        assert folds and all(s.tags["mode"] == "select" for s in folds)
        assert all(
            s.tags["trace_id"] == trace.trace_id for s in folds
        )
        assert all_bits(trace) == delta.bits_read

    def test_repeat_query_hits_shared_cache(self):
        tracer = Tracer(clock=ManualClock())
        metrics = MetricsRegistry()
        cluster = make_cluster(tracer=tracer, metrics=metrics)
        cluster.query("a", 2, 9)
        cluster.query("a", 2, 9)
        trace = tracer.last()
        lookups = trace.find("cache_lookup")
        assert lookups and all(
            s.tags["tier"] == "shared" and s.tags["hit"] for s in lookups
        )
        assert all_bits(trace) == 0
        counters = metrics.to_dict()["counters"]
        assert counters["cache.shared.hits"] > 0
        assert counters["cache.shared.misses"] > 0

    def test_aggregate_folds_trace_locally(self):
        tracer = Tracer(clock=ManualClock())
        cluster = make_cluster(tracer=tracer)
        before = cluster.scatter_io.snapshot()
        cluster.count(Range("a", 2, 9))
        delta = cluster.scatter_io.snapshot() - before
        trace = tracer.last()
        assert trace.root.name == "count"
        folds = trace.find("shard_fold")
        assert folds
        assert all(s.tags["mode"] == "count" for s in folds)
        assert all_bits(trace) == delta.bits_read

    def test_slow_log_records_cluster_queries(self):
        log = SlowQueryLog(threshold_s=0.0)
        cluster = make_cluster(
            tracer=Tracer(clock=ManualClock()), slow_log=log
        )
        cluster.select(Range("a", 2, 9))
        (record,) = log.records()
        assert record.op == "select"
        assert record.report["root"]["op"] == "leaf"
        assert record.trace["root"]["name"] == "select"

    def test_stats_snapshot(self):
        metrics = MetricsRegistry()
        cluster = make_cluster(metrics=metrics)
        cluster.query("a", 2, 9)
        stats = cluster.stats()
        assert stats.num_shards == 3
        assert set(stats.columns) == {"a", "b"}
        assert stats.scatter_io.bits_read > 0
        assert len(stats.shards) == 3
        assert all(s.rows > 0 for s in stats.shards)
        assert stats.shared_cache is not None
        assert stats.shared_cache.tier == "shared"
        assert stats.metrics["counters"]["query.count"] == 1
        data = json.loads(json.dumps(stats.to_dict()))
        assert data["num_shards"] == 3
        assert data["scatter_io"]["bits_read"] == (
            stats.scatter_io.bits_read
        )

    @pytest.mark.parametrize("op", sorted(READ_OPS))
    @pytest.mark.parametrize("kind", ["serial", "threaded", "process"])
    def test_traced_cluster_answers_match_untraced(
        self, executor_of, kind, op
    ):
        plain = make_cluster(executor=executor_of(kind))
        traced = make_cluster(
            executor=executor_of(kind),
            tracer=Tracer(clock=ManualClock()),
            metrics=MetricsRegistry(),
            slow_log=SlowQueryLog(threshold_s=0.0),
        )
        run = READ_OPS[op]
        answers, deltas = [], []
        for cluster in (plain, traced):
            before = cluster.scatter_io.snapshot()
            answers.append(run(cluster))
            deltas.append(cluster.scatter_io.snapshot() - before)
        assert answers[0] == answers[1]
        # The I/O accounting itself is unchanged by instrumentation.
        assert deltas[0] == deltas[1]
        assert deltas[0].bits_read > 0

    def test_tracing_off_reads_no_clock_and_builds_no_span(
        self, monkeypatch
    ):
        reads = []

        def clock():
            reads.append(1)
            return 0.0

        built = []

        class CountingSpan(Span):
            __slots__ = ()

            def __init__(self, name, *args, **kwargs):
                built.append(name)
                super().__init__(name, *args, **kwargs)

        monkeypatch.setattr(tracer_module, "Span", CountingSpan)
        cluster = make_cluster(tracer=Tracer(enabled=False, clock=clock))
        for op, run in READ_OPS.items():
            reads.clear()
            run(cluster)
            # Only the op's own latency timing: no fetch or fold reads
            # the clock while tracing is off.
            assert len(reads) <= 2, op
        assert built == []
        assert cluster.tracer.last() is None

    @pytest.mark.parametrize("kind", ["serial", "threaded", "process"])
    def test_engine_lru_hits_are_tagged(self, executor_of, kind):
        # The shared cache misses but each shard's engine LRU answers:
        # every re-submitted select fold, local or in a worker, says
        # so with a zero-bit span and its LRU hit/miss counts.
        tracer = Tracer(clock=ManualClock())
        cluster = make_cluster(executor=executor_of(kind), tracer=tracer)
        name = "worker_fold" if kind == "process" else "shard_fold"
        cluster.query("a", 2, 9)
        first = tracer.last().find(name)
        assert len(first) == cluster.num_shards
        assert all(
            (s.tags["lru_hits"], s.tags["lru_misses"]) == (0, 1)
            for s in first
        )
        cluster.shared_cache.invalidate()
        before = cluster.scatter_io.snapshot()
        cluster.query("a", 2, 9)
        assert (cluster.scatter_io.snapshot() - before).bits_read == 0
        folds = tracer.last().find(name)
        assert len(folds) == cluster.num_shards
        assert all(
            s.tags["mode"] == "select" and s.tags["bits_read"] == 0
            and (s.tags["lru_hits"], s.tags["lru_misses"]) == (1, 0)
            for s in folds
        )

    @pytest.mark.parametrize("kind", ["serial", "threaded", "process"])
    def test_count_by_fold_tags_every_group_leaf(self, executor_of, kind):
        # A count_by fold makes one engine-LRU lookup for its predicate
        # leaf and one per group code on the shard, so its span counts
        # exactly that many: all misses on a cold shard, all hits on
        # the repeat once the shared cache is dropped.
        tracer = Tracer(clock=ManualClock())
        cluster = make_cluster(executor=executor_of(kind), tracer=tracer)
        name = "worker_fold" if kind == "process" else "shard_fold"
        pred = Range("a", 2, 9)
        lookups = {
            uid: 1 + len(set(shard.column("b").codes))
            for uid, shard in zip(cluster.shard_uids, cluster.shards)
        }

        def tags():
            return {
                s.tags["shard_uid"]: (
                    s.tags["lru_hits"], s.tags["lru_misses"],
                    s.tags["bits_read"] > 0,
                )
                for s in tracer.last().find(name)
            }

        answer = cluster.count_by("b", pred)
        assert tags() == {uid: (0, n, True) for uid, n in lookups.items()}
        cluster.shared_cache.invalidate()
        assert cluster.count_by("b", pred) == answer
        assert tags() == {uid: (n, 0, False) for uid, n in lookups.items()}

    def test_exists_accounts_like_count(self):
        # exists walks shards through the same fold submission count
        # uses: its bits reach query.bits_read, exactly its scatter_io
        # delta, and its shard_fold spans carry them.
        pred = And(Range("a", 3, 12), Range("b", 0, 4))
        for op in ("count", "exists"):
            metrics = MetricsRegistry()
            cluster = make_cluster(metrics=metrics)
            before = cluster.scatter_io.snapshot()
            getattr(cluster, op)(pred)
            delta = cluster.scatter_io.snapshot() - before
            counted = metrics.to_dict()["counters"]["query.bits_read"]
            assert counted == delta.bits_read > 0, op

            tracer = Tracer(clock=ManualClock())
            cluster = make_cluster(tracer=tracer)
            before = cluster.scatter_io.snapshot()
            getattr(cluster, op)(pred)
            delta = cluster.scatter_io.snapshot() - before
            trace = tracer.last()
            folds = trace.find("shard_fold")
            assert folds and all(s.tags["mode"] == op for s in folds), op
            assert all_bits(trace) == delta.bits_read > 0, op


# ---------------------------------------------------------------------------
# Worker-side runtime, in-process: tracing reads the same bits
# ---------------------------------------------------------------------------


def make_host():
    host = ShardHost(clock=ManualClock())
    rng = random.Random(5)
    codes = [rng.randrange(16) for _ in range(400)]
    host.build(0, (16, 0.0, [("c", codes, 16, "static", 0.1, True,
                              False, "pagh-rao")]))
    return host


class TestShardHostReads:
    @pytest.mark.parametrize("op", ["query", "leaves", "fold"])
    def test_traced_and_untraced_read_the_same_bits(self, op):
        def read(host, lo, hi, trace):
            if op == "query":
                return host.query(0, "c", lo, hi, trace)
            if op == "leaves":
                (reply,) = host.leaves(0, "c", [(lo, hi)], trace)
                return reply
            leaf = ("select", ("c",), (("c", lo, hi),), ("leaf", 0), None)
            return host.fold(0, leaf, trace)

        plain = make_host()
        traced = make_host()
        # A miss decodes and fills the engine LRU, and the repeat is an
        # LRU hit that reads nothing.  Once the caches are dropped no
        # tier is left to answer, so the next read decodes again.
        steps = [(2, 9, "miss"), (2, 9, "hit"), None, (3, 5, "miss"),
                 (3, 5, "hit"), None, (2, 9, "miss")]
        for step in steps:
            if step is None:
                plain.drop_caches_all()
                traced.drop_caches_all()
                continue
            lo, hi, cache = step
            positions, io, span = read(plain, lo, hi, None)
            t_positions, t_io, t_span = read(traced, lo, hi, "t-host")
            assert span is None
            assert t_positions == positions
            assert t_io == io
            assert (io.bits_read > 0) == (cache == "miss")
            assert t_span["tags"]["bits_read"] == io.bits_read
            if op == "fold":
                assert t_span["name"] == "worker_fold"
                tags = t_span["tags"]
                lru = (tags["lru_hits"], tags["lru_misses"])
                assert lru == ((1, 0) if cache == "hit" else (0, 1))
            else:
                assert t_span["name"] == "worker_query"
                assert t_span["tags"]["cache"] == cache


# ---------------------------------------------------------------------------
# Worker-resident stitching (ProcessExecutor)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def obs_pool():
    with ProcessExecutor(max_workers=2) as pool:
        yield pool


class TestProcessExecutorStitching:
    def test_aggregate_trace_stitches_worker_spans_bits_exact(
        self, obs_pool
    ):
        # The acceptance criterion: one cluster aggregate under a
        # ProcessExecutor yields a single trace holding coordinator
        # AND worker spans, and the worker spans' summed bits_read
        # equals the scatter_io snapshot delta exactly.
        tracer = Tracer()
        cluster = make_cluster(executor=obs_pool, tracer=tracer)
        before = cluster.scatter_io.snapshot()
        n = cluster.count(Range("a", 2, 9))
        delta = cluster.scatter_io.snapshot() - before
        assert n > 0 and delta.bits_read > 0
        trace = tracer.last()
        assert trace.root.name == "count"
        assert trace.find("plan") and trace.find("scatter")
        folds = trace.find("worker_fold")
        assert folds  # spans built inside the resident workers
        assert all(
            s.tags["trace_id"] == trace.trace_id for s in folds
        )
        assert sum(s.tags["bits_read"] for s in folds) == delta.bits_read
        assert all_bits(trace) == delta.bits_read

    def test_leaf_query_stitches_worker_fold_spans(self, obs_pool):
        tracer = Tracer()
        cluster = make_cluster(executor=obs_pool, tracer=tracer)
        before = cluster.scatter_io.snapshot()
        cluster.query("a", 2, 9)
        delta = cluster.scatter_io.snapshot() - before
        trace = tracer.last()
        folds = trace.find("worker_fold")
        assert folds and all(s.tags["mode"] == "select" for s in folds)
        assert all(
            s.tags["trace_id"] == trace.trace_id for s in folds
        )
        assert all_bits(trace) == delta.bits_read

        # Repeat: answered from the shared cache, no worker spans.
        before = cluster.scatter_io.snapshot()
        cluster.query("a", 2, 9)
        assert (cluster.scatter_io.snapshot() - before).bits_read == 0
        repeat = tracer.last()
        assert repeat.find("worker_fold") == []
        lookups = repeat.find("cache_lookup")
        assert lookups and all(s.tags["hit"] for s in lookups)

    def test_early_closed_stream_drops_abandoned_spans(self, obs_pool):
        tracer = Tracer()
        cluster = make_cluster(
            num_shards=4, executor=obs_pool, tracer=tracer,
            prefetch_depth=2,
        )
        stream = cluster.query_iter("a", 0, 15)
        next(stream)
        stream.close()  # prefetched replies are still in flight
        first = tracer.last()
        assert first.root.name == "query_iter"
        assert first.finished
        assert tracer.dropped_spans > 0

        # The next query's trace contains only its own spans.
        cluster.query(Range("a", 2, 9))
        second = tracer.last()
        assert second.trace_id != first.trace_id
        tagged = [
            s for s in second.spans() if "trace_id" in s.tags
        ]
        assert tagged and all(
            s.tags["trace_id"] == second.trace_id for s in tagged
        )

    def test_streamed_answers_unchanged_by_tracing(self, obs_pool):
        plain = make_cluster(executor=obs_pool)
        traced = make_cluster(executor=obs_pool, tracer=Tracer())
        assert list(traced.query_iter("a", 2, 9)) == list(
            plain.query_iter("a", 2, 9)
        )

    def test_delta_flush_attributed_to_flushing_query(self, obs_pool):
        tracer = Tracer()
        metrics = MetricsRegistry()
        saved = obs_pool.metrics
        obs_pool.metrics = metrics
        try:
            cluster = ClusterEngine(
                num_shards=2, executor=obs_pool, tracer=tracer
            )
            rng = random.Random(3)
            codes = [rng.randrange(16) for _ in range(300)]
            cluster.add_column("a", codes, 16, dynamism="semidynamic")
            for _ in range(3):
                cluster.append("a", 5)
            last_uid = cluster.shard_uids[-1]
            assert obs_pool.pending_delta_count(last_uid) == 3
            # A strict-subset range: a full range would specialize to
            # an ALL root answered at the coordinator, shipping no
            # fold and flushing nothing.
            n = cluster.count(Range("a", 0, 14))
            assert n == sum(1 for c in codes if c <= 14) + 3
            assert obs_pool.pending_delta_count(last_uid) == 0
            trace = tracer.last()
            events = trace.find("delta_flush")
            assert events
            assert any(
                e.tags["shard_uid"] == last_uid and e.tags["deltas"] == 3
                for e in events
            )
            hist = metrics.histogram("delta.flush_size")
            assert hist.count >= 1 and hist.max == 3
        finally:
            obs_pool.metrics = saved

    def test_reset_op_counts_and_stats_embedding(self, obs_pool):
        cluster = make_cluster(executor=obs_pool)
        obs_pool.reset_op_counts()
        cluster.count(Range("a", 2, 9))
        stats = cluster.stats()
        assert stats.op_counts  # fold traffic shows up
        assert stats.op_counts == dict(obs_pool.op_counts)
        json.dumps(stats.to_dict())
        obs_pool.reset_op_counts()
        assert dict(obs_pool.op_counts) == {}
        assert cluster.stats().op_counts == {}


# ---------------------------------------------------------------------------
# Table facades
# ---------------------------------------------------------------------------


class TestTableOverClusterStats:
    def test_stats_wraps_cluster_stats(self):
        table = Table.sharded(
            {"x": [3, 1, 4, 1, 5, 9, 2, 6] * 20}, num_shards=2
        )
        table.select(Range("x", 1, 5))
        stats = table.stats()
        assert stats.num_rows == 160
        assert stats.engine is None
        assert stats.cluster is not None
        data = json.loads(json.dumps(stats.to_dict()))
        assert data["cluster"]["num_shards"] == 2

    def test_traced_sharded_table_matches_oracle(self):
        tracer = Tracer(clock=ManualClock())
        rng = random.Random(41)
        columns = {
            "a": [rng.randrange(12) for _ in range(240)],
            "b": [rng.randrange(6) for _ in range(240)],
        }
        table = Table.sharded(dict(columns), num_shards=3, tracer=tracer)
        pred = And(Range("a", 2, 8), Range("b", 1, 4))
        assert table.select(pred) == pred_oracle(pred, columns)
        assert tracer.last().root.name == "select"
