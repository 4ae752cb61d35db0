"""Process-parallel serving: resident shard runtimes vs the serial path.

The contract under test is the strongest one the executor protocol
makes: a cluster served by worker-resident engine replicas
(``ProcessExecutor``) must be *observationally identical* to the
serial in-process cluster on any fixed workload — bit-identical
query/select/explain results and bit-identical aggregated
``scatter_io`` totals — because the replicas are built from the same
snapshots and kept in sync by the same routed deltas the coordinator
applies locally.
"""

import pytest

from repro.cluster import (
    ClusterEngine,
    ProcessExecutor,
    SerialExecutor,
    ThreadedExecutor,
)
from repro.cluster.worker import ShardHost
from repro.engine import Advisor, WorkloadStats, get_spec
from repro.errors import InvalidParameterError, QueryError, UpdateError
from repro.model.distributions import uniform, zipf
from repro.obs import Tracer
from repro.query import And, Range

from tests.conftest import brute_range

SIGMA = 16


class FlipAdvisor(Advisor):
    """Deterministic advisor for drift tests: entropy decides the pick."""

    def __init__(self, threshold: float) -> None:
        super().__init__()
        self.threshold = threshold

    def pick(self, stats: WorkloadStats):
        if stats.h0 < self.threshold:
            return get_spec("fully-dynamic")
        return get_spec("deletable")


@pytest.fixture(scope="module")
def process_pool():
    with ProcessExecutor(max_workers=2) as pool:
        yield pool


def drive_fixed_workload(cluster: ClusterEngine) -> dict:
    """One deterministic workload exercising every delta kind.

    Build, query, route updates (append/change/delete), migrate with a
    pin, freeze nothing, query again — recording everything observable
    so two executors can be compared field by field.
    """
    x = zipf(240, SIGMA, theta=1.2, seed=31)
    y = uniform(240, 8, seed=32)
    cluster.add_column("c", x, SIGMA, dynamism="fully_dynamic",
                       require_delete=True)
    cluster.add_column("d", y, 8, dynamism="fully_dynamic")
    out = {"phases": []}

    def observe(tag):
        out["phases"].append(
            {
                "tag": tag,
                "q_c": cluster.query("c", 2, 11).positions(),
                "q_d": cluster.query("d", 1, 5).positions(),
                "select": cluster.select(
                    And(Range("c", 0, 9), Range("d", 2, 7))
                ),
                "stream": list(
                    cluster.select_iter(
                        And(Range("c", 2, 13), Range("d", 0, 6))
                    )
                ),
                "explain": cluster.explain("c", 2, 11),
                "backends_c": cluster.backends("c"),
                "backends_d": cluster.backends("d"),
            }
        )

    observe("built")
    for i in range(24):
        cluster.append("c", (3 * i) % SIGMA)
        cluster.append("d", (5 * i) % 8)
    for i in range(12):
        cluster.change("c", (7 * i) % 240, (i + 4) % SIGMA)
    for i in range(6):
        try:
            cluster.delete("c", (11 * i) % 200)
        except UpdateError:
            pass  # slot already holds a pending hole; same on every run
    observe("updated")
    cluster.migrate("c", backend="deletable")
    cluster.migrate("d")
    observe("migrated")
    out["scatter_io"] = cluster.scatter_io.snapshot()
    return out


class TestProcessMatchesSerial:
    def test_fixed_workload_identical_results_and_io(self, process_pool):
        serial = ClusterEngine(num_shards=4, drift_window=None)
        proc = ClusterEngine(
            num_shards=4, drift_window=None, executor=process_pool
        )
        try:
            want = drive_fixed_workload(serial)
            got = drive_fixed_workload(proc)
            assert got["phases"] == want["phases"]
            # The headline: per-worker I/O snapshots folded back into
            # cluster totals equal the serial run's, transfer for
            # transfer and bit for bit.
            assert got["scatter_io"] == want["scatter_io"]
            assert got["scatter_io"].bits_read > 0
        finally:
            proc.close()

    def test_static_columns_and_pruning(self, process_pool):
        # Static shards re-dictionary onto local alphabets; the
        # translated ranges and pruned shards must ship identically.
        x = [0] * 60 + [7] * 60 + [13] * 60
        serial = ClusterEngine(num_shards=3)
        serial.add_column("s", x, SIGMA)
        proc = ClusterEngine(num_shards=3, executor=process_pool)
        proc.add_column("s", x, SIGMA)
        try:
            for lo, hi in [(0, 0), (1, 6), (7, 13), (0, 15), (8, 12)]:
                assert (
                    proc.query("s", lo, hi).positions()
                    == serial.query("s", lo, hi).positions()
                    == brute_range(x, lo, hi)
                )
            assert proc.scatter_io.snapshot() == serial.scatter_io.snapshot()
        finally:
            proc.close()

    def test_drift_migration_ships_rebuilds(self, process_pool):
        # Low-entropy start, high-entropy hammering of shard 1: the
        # drift detector rebuilds in place; the resident replica must
        # follow and keep answering identically.
        def build(executor):
            cluster = ClusterEngine(
                num_shards=2, drift_window=8, executor=executor,
                advisor=FlipAdvisor(threshold=1.0),
            )
            cluster.add_column("c", [0] * 40, 8, dynamism="fully_dynamic")
            return cluster

        serial, proc = build(None), build(process_pool)
        try:
            model = [0] * 40
            for i in range(20):
                pos, ch = 20 + (i % 20), i % 8
                for cluster in (serial, proc):
                    cluster.change("c", pos, ch)
                model[pos] = ch
                assert (
                    proc.query("c", 0, 3).positions()
                    == serial.query("c", 0, 3).positions()
                    == brute_range(model, 0, 3)
                )
            assert proc.backends("c") == serial.backends("c")
            assert len(proc.migrations) == len(serial.migrations) > 0
            assert proc.scatter_io.snapshot() == serial.scatter_io.snapshot()
        finally:
            proc.close()

    def test_drop_and_readd_column(self, process_pool):
        proc = ClusterEngine(num_shards=2, executor=process_pool)
        x = uniform(40, 8, seed=33)
        proc.add_column("c", x, 8)
        try:
            assert proc.query("c", 1, 4).positions() == brute_range(x, 1, 4)
            proc.drop_column("c")
            with pytest.raises(QueryError):
                proc.query("c", 0, 1)
            y = [7 - c for c in x]
            proc.add_column("c", y, 8)
            assert proc.query("c", 1, 4).positions() == brute_range(y, 1, 4)
        finally:
            proc.close()


class TestPlanScatter:
    """Leaf ranges and predicates share one scatter: a compiled plan."""

    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_full_range_leaf_query_skips_pending_deletes(
        self, process_pool, executor
    ):
        tracer = Tracer()
        cluster = ClusterEngine(
            num_shards=2,
            executor=process_pool if executor == "process" else None,
            tracer=tracer,
        )
        try:
            cluster.add_column(
                "d", [i % 4 for i in range(40)], 4,
                dynamism="fully_dynamic", require_delete=True,
            )
            cluster.delete("d", 3)
            cluster.delete("d", 30)
            # The deletes leave holes, not compactions: 40 positions,
            # 38 live rows.  A full-alphabet Range normalizes to TRUE,
            # which would answer all 40.
            assert cluster.shard_lengths("d") == [20, 20]
            result = cluster.query("d", 0, 3)
            live = [p for p in range(40) if p not in (3, 30)]
            assert result.positions() == live
            assert result.universe == 40
            (scatter,) = tracer.last().find("scatter")
            assert scatter.tags["mode"] == "select"
        finally:
            cluster.close()

    def test_pred_query_ships_one_fold_per_mixed_shard(self):
        a = uniform(400, 8, seed=41)
        b = zipf(400, 8, theta=1.2, seed=42)
        pred = And(Range("a", 1, 5), Range("b", 0, 3))
        want = [i for i in range(400) if 1 <= a[i] <= 5 and b[i] <= 3]
        serial = ClusterEngine(num_shards=8)
        with ProcessExecutor(max_workers=2) as pool:
            resident = ClusterEngine(num_shards=8, executor=pool)
            try:
                for cluster in (serial, resident):
                    cluster.add_column("a", a, 8, dynamism="semidynamic")
                    cluster.add_column("b", b, 8, dynamism="semidynamic")
                pool.reset_op_counts()
                got = resident.query(pred).positions()
                # Both leaves touch all 8 shards: one select fold per
                # shard evaluates the whole plan there, and no leaf
                # message crosses a pipe.
                assert pool.op_counts["fold"] == 8
                assert pool.op_counts["query"] == 0
                assert pool.op_counts["leaves"] == 0
                assert got == serial.query(pred).positions() == want
                assert (
                    resident.scatter_io.snapshot()
                    == serial.scatter_io.snapshot()
                )
                # A repeat is served by the shared cache on every
                # shard: no message, no bits.
                before = resident.scatter_io.snapshot()
                assert resident.select(pred) == want
                assert pool.op_counts["fold"] == 8
                assert resident.scatter_io.snapshot() == before
                # A write re-folds its own shard only.
                resident.append("a", 3)
                resident.append("b", 0)
                want.append(400)
                assert resident.select(pred) == want
                assert pool.op_counts["fold"] == 9
            finally:
                resident.close()

    def test_every_read_is_a_fold(self, process_pool):
        a = uniform(240, 8, seed=45)
        b = uniform(240, 8, seed=46)
        pred = And(Range("a", 1, 5), Range("b", 0, 3))
        cluster = ClusterEngine(num_shards=4, executor=process_pool)
        cluster.add_column("a", a, 8)
        cluster.add_column("b", b, 8)
        want = [i for i in range(240) if 1 <= a[i] <= 5 and b[i] <= 3]
        reads = [
            lambda: cluster.count(pred) == len(want),
            lambda: cluster.exists(pred),
            lambda: sum(cluster.count_by("b", pred).values()) == len(want),
            lambda: sum(n for _, n in cluster.topk("b", pred)) == len(want),
            lambda: cluster.select(pred) == want,
            lambda: list(cluster.select_iter(pred)) == want,
            lambda: cluster.query(pred).positions() == want,
            lambda: (
                cluster.query("a", 2, 6).positions()
                == brute_range(a, 2, 6)
            ),
            lambda: (
                list(cluster.query_iter("b", 1, 1)) == brute_range(b, 1, 1)
            ),
        ]
        try:
            for read in reads:
                cluster.drop_caches()
                process_pool.reset_op_counts()
                assert read()
                assert process_pool.op_counts["fold"] > 0
                assert process_pool.op_counts["query"] == 0
                assert process_pool.op_counts["leaves"] == 0
        finally:
            cluster.close()


class TestProcessLifecycle:
    def test_auto_split_and_merge_stay_in_sync(self, process_pool):
        def grow(executor):
            cluster = ClusterEngine(
                target_shard_rows=32,
                drift_window=None,
                executor=executor,
            )
            cluster.add_column(
                "c", uniform(48, 8, seed=34), 8,
                dynamism="fully_dynamic", require_delete=True,
            )
            for i in range(40):
                cluster.append("c", (5 * i) % 8)
            deleted, i = 0, 0
            while deleted < 30 and i < 200:
                try:
                    cluster.delete("c", (7 * i) % cluster.total_rows("c"))
                    deleted += 1
                except UpdateError:
                    pass  # pending hole; deterministic on every run
                i += 1
            return cluster

        serial, proc = grow(None), grow(process_pool)
        try:
            assert proc.splits and proc.num_shards == serial.num_shards
            assert len(proc.splits) == len(serial.splits)
            assert len(proc.merges) == len(serial.merges)
            for lo, hi in [(0, 2), (3, 7), (0, 7), (4, 4)]:
                assert (
                    proc.query("c", lo, hi).positions()
                    == serial.query("c", lo, hi).positions()
                )
            pred = Range("c", 1, 6)
            assert proc.select(pred) == serial.select(pred)
            assert proc.scatter_io.snapshot() == serial.scatter_io.snapshot()
        finally:
            proc.close()

    def test_explicit_rebalance_under_process_executor(self, process_pool):
        proc = ClusterEngine(
            num_shards=2, drift_window=None, executor=process_pool
        )
        x = zipf(200, 8, theta=1.1, seed=35)
        proc.add_column("c", x, 8)
        try:
            ops = proc.rebalance(target_shard_rows=40)
            assert ops > 0 and max(proc.shard_lengths("c")) <= 40
            assert proc.query("c", 0, 7).positions() == list(range(200))
            assert proc.select(Range("c", 2, 5)) == brute_range(x, 2, 5)
        finally:
            proc.close()


class TestPrefetchingGather:
    @pytest.mark.parametrize("depth", [0, 1, 2])
    def test_stream_order_and_bound_at_depth(self, process_pool, depth):
        n, shards = 1024, 8
        a = uniform(n, 8, seed=36)
        b = uniform(n, 8, seed=37)
        proc = ClusterEngine(
            num_shards=shards,
            drift_window=None,
            executor=process_pool,
            prefetch_depth=depth,
        )
        proc.add_column("a", a, 8)
        proc.add_column("b", b, 8)
        try:
            proc.gather_stats.reset()
            got = list(
                proc.select_iter(And(Range("a", 0, 6), Range("b", 0, 6)))
            )
            want = [i for i in range(n) if a[i] <= 6 and b[i] <= 6]
            assert got == want and len(want) > n // 2
            max_shard = max(proc.shard_lengths("a"))
            # Delivered-buffer bound: one draining shard answer, plus
            # one handoff answer when a prefetch window exists.
            buffers = 1 if depth == 0 else 2
            assert proc.gather_stats.peak_rids <= buffers * max_shard
            assert proc.gather_stats.live_rids == 0
        finally:
            proc.close()

    def test_early_close_drains_pipelined_requests(self, process_pool):
        n = 512
        a = uniform(n, 8, seed=38)
        proc = ClusterEngine(
            num_shards=8, drift_window=None, executor=process_pool,
            prefetch_depth=2,
        )
        proc.add_column("a", a, 8)
        try:
            it = proc.query_iter("a", 0, 6)
            for _ in range(5):
                next(it)
            it.close()  # abandons in-flight pipe requests: must drain
            assert proc.gather_stats.live_rids == 0
            # The pipe is clean: the next query sees only its own
            # replies.
            assert proc.query("a", 0, 6).positions() == brute_range(a, 0, 6)
        finally:
            proc.close()

    def test_depth_zero_walk_is_lazy_about_io(self):
        # The serial walk's contract: an early-exiting consumer never
        # pays for shards it did not reach — the next fetch must not
        # even start until the current buffer is drained.
        a = uniform(120, 8, seed=43)
        cluster = ClusterEngine(num_shards=3, drift_window=None)
        cluster.add_column("a", a, 8)
        assert cluster.prefetch_depth == 0
        it = cluster.query_iter("a", 0, 6)
        next(it)  # shard 0's buffer delivered; shards 1-2 untouched
        it.close()
        assert len(cluster.shared_cache) == 1  # only shard 0 was fetched
        one_shard_io = cluster.scatter_io.snapshot()
        # Draining fully fetches the rest (and the bound stays 1 buffer).
        cluster.gather_stats.reset()
        assert list(cluster.query_iter("a", 0, 6)) == brute_range(a, 0, 6)
        assert cluster.scatter_io.bits_read > one_shard_io.bits_read
        max_shard = max(cluster.shard_lengths("a"))
        assert cluster.gather_stats.peak_rids <= max_shard

    def test_pipelined_requests_beyond_the_throttle_cap(self, process_pool):
        # More outstanding requests than _Worker.MAX_PIPELINE: the
        # throttle resolves the oldest first, and every future still
        # answers correctly afterwards.
        x = uniform(60, 8, seed=44)
        proc = ClusterEngine(num_shards=1, drift_window=None,
                             executor=process_pool)
        proc.add_column("a", x, 8)
        try:
            uid = proc.shard_uids[0]
            futures = [
                process_pool.submit_query(uid, "a", lo, lo)
                for _ in range(40)
                for lo in range(8)
            ]  # 320 requests down one pipe
            for i, future in enumerate(futures):
                positions, _, span = future.result()
                assert positions == brute_range(x, i % 8, i % 8)
                assert span is None  # untraced: the span slot is empty
        finally:
            proc.close()

    def test_threaded_prefetch_matches_serial(self):
        n = 600
        a = uniform(n, 8, seed=39)
        b = zipf(n, 8, theta=1.2, seed=40)
        serial = ClusterEngine(num_shards=6, drift_window=None)
        serial.add_column("a", a, 8)
        serial.add_column("b", b, 8)
        with ThreadedExecutor(4) as pool:
            threaded = ClusterEngine(
                num_shards=6, drift_window=None, executor=pool
            )
            threaded.add_column("a", a, 8)
            threaded.add_column("b", b, 8)
            assert threaded.prefetch_depth == 1  # auto: threads overlap
            conds = And(Range("a", 0, 5), Range("b", 1, 6))
            assert list(threaded.select_iter(conds)) == list(
                serial.select_iter(conds)
            )
            assert (
                threaded.scatter_io.snapshot() == serial.scatter_io.snapshot()
            )


class TestExecutorProtocol:
    def test_serial_submit_is_inline_and_captures_errors(self):
        pool = SerialExecutor()
        assert pool.submit(lambda a, b: a + b, 2, 3).result() == 5
        failing = pool.submit(lambda: 1 // 0)
        with pytest.raises(ZeroDivisionError):
            failing.result()
        assert pool.supports_prefetch is False and pool.kind == "local"

    def test_threaded_submit(self):
        with ThreadedExecutor(2) as pool:
            futures = [pool.submit(lambda v=v: v * v) for v in range(8)]
            assert [f.result() for f in futures] == [v * v for v in range(8)]
            assert pool.supports_prefetch is True

    def test_process_executor_validation(self):
        with pytest.raises(InvalidParameterError):
            ProcessExecutor(max_workers=0)

    def test_worker_errors_propagate(self, process_pool):
        with pytest.raises(InvalidParameterError):
            process_pool.apply_delta(999_999_999, ("append", "c", 0))

    def test_shared_executor_serves_many_clusters(self, process_pool):
        # Shard uids are process-unique, so one pool hosts replicas of
        # several clusters without collision.
        one = ClusterEngine(num_shards=2, executor=process_pool)
        two = ClusterEngine(num_shards=2, executor=process_pool)
        x = uniform(40, 8, seed=41)
        y = [7 - c for c in x]
        one.add_column("c", x, 8)
        two.add_column("c", y, 8)
        try:
            assert one.query("c", 1, 3).positions() == brute_range(x, 1, 3)
            assert two.query("c", 1, 3).positions() == brute_range(y, 1, 3)
        finally:
            one.close()
            two.close()


class TestShardHost:
    """The worker-side runtime, driven in-process for edge coverage."""

    def test_unknown_uid_and_delta_rejected(self):
        host = ShardHost()
        with pytest.raises(InvalidParameterError):
            host.delta(0, ("append", "c", 1))
        host.build(0, (16, 0.0, [("c", [0, 1, 2, 3], 4, "fully_dynamic",
                                  0.1, True, False, "fully-dynamic")]))
        with pytest.raises(InvalidParameterError):
            host.delta(0, ("warp", "c"))
        positions, io, span = host.query(0, "c", 1, 2)
        assert positions == [1, 2]
        assert io.total >= 0
        assert span is None
        host.retire(0)
        with pytest.raises(InvalidParameterError):
            host.query(0, "c", 1, 2)

    def test_latency_reapplied_after_rebuild(self):
        host = ShardHost()
        host.build(0, (16, 0.0, [("c", [0, 1, 2, 3], 4, "fully_dynamic",
                                  0.1, True, False, "fully-dynamic")]))
        host.delta(0, ("set_latency", 0.25))
        host.delta(0, ("rebuild", "c", "deletable"))
        engine = host.engines[0]
        assert engine.column("c").index.disk.latency_s == 0.25
        host.delta(0, ("set_latency", 0.0))
        assert engine.column("c").index.disk.latency_s == 0.0


def _payload(codes, sigma, dynamism="fully_dynamic", backend="fully-dynamic"):
    return (
        16,
        0.0,
        [("c", list(codes), sigma, dynamism, 0.1, True, False, backend)],
    )


class TestDeltaBatching:
    """Coalesced routed deltas: one pipe message, exact ordering."""

    def test_coalescable_deltas_buffer_and_flush_on_query(self, process_pool):
        uid = 9_000_001
        process_pool.build_shard(uid, _payload([0, 1, 2, 3], 8))
        try:
            for ch in (5, 6, 7):
                process_pool.apply_delta(uid, ("append", "c", ch))
            assert process_pool.pending_delta_count(uid) == 3
            # The query flushes the buffer ahead of itself on the same
            # FIFO pipe, so its reply reflects every buffered append.
            positions, _ = process_pool.query_shard(uid, "c", 5, 7)
            assert positions == [4, 5, 6]
            assert process_pool.pending_delta_count(uid) == 0
        finally:
            process_pool.retire_shard(uid)

    def test_batch_cap_auto_flushes(self, process_pool):
        uid = 9_000_002
        process_pool.build_shard(uid, _payload([0, 1, 2, 3], 8))
        old_cap = process_pool.DELTA_BATCH_MAX
        process_pool.DELTA_BATCH_MAX = 4
        try:
            for ch in range(3):
                process_pool.apply_delta(uid, ("append", "c", ch))
            assert process_pool.pending_delta_count(uid) == 3  # under cap
            process_pool.apply_delta(uid, ("append", "c", 3))
            assert process_pool.pending_delta_count(uid) == 0  # cap hit
            positions, _ = process_pool.query_shard(uid, "c", 0, 7)
            assert positions == list(range(8))
        finally:
            process_pool.DELTA_BATCH_MAX = old_cap
            process_pool.retire_shard(uid)

    def test_non_coalescable_delta_preserves_order(self, process_pool):
        # The buffered append creates position 4; the synchronous
        # delete targets it.  Shipping out of order would make the
        # worker raise on an out-of-range position.
        uid = 9_000_003
        process_pool.build_shard(
            uid, _payload([0, 1, 2, 3], 8, backend="deletable")
        )
        try:
            process_pool.apply_delta(uid, ("append", "c", 7))
            assert process_pool.pending_delta_count(uid) == 1
            process_pool.apply_delta(uid, ("delete", "c", 4))
            assert process_pool.pending_delta_count(uid) == 0
            positions, _ = process_pool.query_shard(uid, "c", 0, 7)
            assert positions == [0, 1, 2, 3]
        finally:
            process_pool.retire_shard(uid)

    def test_same_worker_buffers_are_per_shard(self):
        # One worker, two resident shards: flushing one shard's buffer
        # (via its query) must leave the sibling's buffer untouched.
        with ProcessExecutor(max_workers=1) as pool:
            pool.build_shard(1, _payload([0, 1], 8))
            pool.build_shard(2, _payload([2, 3], 8))
            pool.apply_delta(1, ("append", "c", 4))
            pool.apply_delta(2, ("append", "c", 5))
            pool.query_shard(1, "c", 0, 7)
            assert pool.pending_delta_count(1) == 0
            assert pool.pending_delta_count(2) == 1
            pool.flush_deltas()
            assert pool.pending_delta_count(2) == 0
            positions, _ = pool.query_shard(2, "c", 5, 5)
            assert positions == [2]

    def test_worker_error_surfaces_at_flush(self):
        # A buffered delta that the worker rejects (append to a static
        # column) raises at the flush point, not at the buffered call.
        with ProcessExecutor(max_workers=1) as pool:
            pool.build_shard(
                1, _payload([0, 1, 2, 3], 8, dynamism="static",
                            backend=None)
            )
            pool.apply_delta(1, ("append", "c", 1))  # buffered: no error
            assert pool.pending_delta_count(1) == 1
            with pytest.raises(UpdateError):
                pool.flush_deltas()
            # The worker loop survived the failed batch.
            positions, _ = pool.query_shard(1, "c", 0, 1)
            assert positions == [0, 1]

    def test_io_totals_reflect_buffered_updates(self, process_pool):
        uid = 9_000_004
        process_pool.build_shard(uid, _payload([0, 1, 2, 3], 8))
        try:
            process_pool.apply_delta(uid, ("append", "c", 6))
            process_pool.io_totals()
            assert process_pool.pending_delta_count(uid) == 0
        finally:
            process_pool.retire_shard(uid)

    def test_retire_flushes_before_retiring(self, process_pool):
        uid = 9_000_005
        process_pool.build_shard(uid, _payload([0, 1, 2, 3], 8))
        process_pool.apply_delta(uid, ("append", "c", 6))
        process_pool.retire_shard(uid)  # must not leave a dangling buffer
        assert process_pool.pending_delta_count(uid) == 0
        with pytest.raises(InvalidParameterError):
            process_pool.query_shard(uid, "c", 0, 1)

    def test_host_delta_batch_applies_in_order(self):
        host = ShardHost()
        host.build(0, _payload([0, 1, 2, 3], 8))
        host.delta_batch(
            0,
            [("append", "c", 5), ("change", "c", 4, 6), ("append", "c", 5)],
        )
        positions, _, _ = host.query(0, "c", 5, 6)
        assert positions == [4, 5]

    def test_batched_cluster_updates_match_serial(self, process_pool):
        # End to end through the cluster: write-heavy routed traffic
        # rides the batch path and stays bit-identical to serial.
        x = uniform(120, SIGMA, seed=77)
        serial = ClusterEngine(num_shards=3, drift_window=None)
        proc = ClusterEngine(
            num_shards=3, drift_window=None, executor=process_pool
        )
        try:
            model = list(x)
            for cluster in (serial, proc):
                cluster.add_column(
                    "c", x, SIGMA, dynamism="fully_dynamic"
                )
            for i in range(40):
                ch = (3 * i) % SIGMA
                serial.append("c", ch)
                proc.append("c", ch)
                model.append(ch)
                if i % 5 == 0:
                    pos = (7 * i) % len(model)
                    serial.change("c", pos, (ch + 1) % SIGMA)
                    proc.change("c", pos, (ch + 1) % SIGMA)
                    model[pos] = (ch + 1) % SIGMA
            want = brute_range(model, 2, 9)
            assert serial.query("c", 2, 9).positions() == want
            assert proc.query("c", 2, 9).positions() == want
            assert (
                proc.scatter_io.snapshot() == serial.scatter_io.snapshot()
            )
        finally:
            proc.close()


class TestSharedMemoryTransport:
    """Big snapshots and long batches ride shared memory, bit-exact."""

    def test_large_build_ships_codes_through_a_segment(self):
        rng_codes = [(7 * i) % SIGMA for i in range(3000)]
        with ProcessExecutor(max_workers=1) as pool:
            assert len(rng_codes) >= pool.SHM_MIN_CODES
            pool.build_shard(7_100_001, _payload(rng_codes, SIGMA))
            # The build is synchronous, so its segment is already gone.
            assert pool.segment_count() == 0
            positions, _ = pool.query_shard(7_100_001, "c", 2, 9)
            assert positions == brute_range(rng_codes, 2, 9)

    def test_long_delta_batch_ships_through_a_segment(self):
        codes = list(range(8)) * 300
        with ProcessExecutor(max_workers=1) as pool:
            pool.build_shard(7_100_002, _payload(codes, 8))
            model = list(codes)
            for i in range(pool.SHM_MIN_DELTAS + 9):
                ch = (3 * i) % 8
                if i % 3 == 0:
                    pos = (11 * i) % len(model)
                    pool.apply_delta(7_100_002, ("change", "c", pos, ch))
                    model[pos] = ch
                else:
                    pool.apply_delta(7_100_002, ("append", "c", ch))
                    model.append(ch)
            assert pool.pending_delta_count(7_100_002) > 0
            pool.flush_deltas()
            # Blocking flush resolved the shipment: segment released.
            assert pool.segment_count() == 0
            positions, _ = pool.query_shard(7_100_002, "c", 2, 5)
            assert positions == brute_range(model, 2, 5)

    def test_large_resident_cluster_matches_serial(self, process_pool):
        from repro.model.distributions import zipf

        x = zipf(6000, SIGMA, theta=1.1, seed=91)
        serial = ClusterEngine(num_shards=2, drift_window=None)
        proc = ClusterEngine(
            num_shards=2, drift_window=None, executor=process_pool
        )
        try:
            for cluster in (serial, proc):
                cluster.add_column("c", x, SIGMA, dynamism="fully_dynamic")
            assert (
                proc.query("c", 3, 10).positions()
                == serial.query("c", 3, 10).positions()
                == brute_range(x, 3, 10)
            )
            assert proc.stats().scatter_io == serial.stats().scatter_io
        finally:
            serial.close()
            proc.close()

    def test_no_segments_survive_close(self):
        import os

        before = set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else None
        pool = ProcessExecutor(max_workers=1)
        codes = [(5 * i) % 8 for i in range(4000)]
        pool.build_shard(7_100_003, _payload(codes, 8))
        for i in range(pool.SHM_MIN_DELTAS):
            pool.apply_delta(7_100_003, ("append", "c", i % 8))
        # Close without flushing or draining: the abandoned-shipment
        # path must still release every segment.
        pool.close()
        assert pool.segment_count() == 0
        if before is not None:
            assert set(os.listdir("/dev/shm")) - before == set()

    def test_coordinator_keeps_codes_and_stats_only(
        self, process_pool, tmp_path
    ):
        from repro.persist import init_persistence, restore_cluster

        # Writes, lifecycle, migrations and a WAL replay all reach the
        # coordinator's codes mirror only: no coordinator column ever
        # builds its index, and every answer matches the serial
        # cluster's, whose shards build theirs.
        x = [0] * 80
        y = uniform(80, 8, seed=51)
        durable = str(tmp_path / "dur")

        def build(executor):
            cluster = ClusterEngine(
                num_shards=2, drift_window=8, executor=executor,
                advisor=FlipAdvisor(threshold=1.0),
            )
            cluster.add_column("c", x, 8, dynamism="fully_dynamic")
            cluster.add_column(
                "d", y, 8, dynamism="fully_dynamic", require_delete=True,
                backend="deletable",
            )
            return cluster

        def answers(cluster):
            return (
                cluster.query("c", 1, 4).positions(),
                cluster.count(Range("c", 0, 0)),
                cluster.select(Range("d", 2, 6)),
                cluster.count_by("d", Range("d", 0, 7)),
                cluster.shard_lengths("c"),
                cluster.shard_lengths("d"),
                cluster.backends("c"),
                cluster.backends("d"),
            )

        def deferred(cluster):
            return [
                [column.deferred for column in engine.columns.values()]
                for engine in cluster.shards
            ]

        steps = [
            ("append", lambda c: [c.append("c", 3), c.append("d", 5)]),
            # Shard 1 of "c" gains entropy: the drift detector migrates
            # it off fully-dynamic.
            ("change", lambda c: [
                c.change("c", 40 + i, i % 8) for i in range(12)
            ]),
            # Half of "d"'s shard 0 goes: the last delete compacts it.
            ("delete", lambda c: [c.delete("d", i) for i in range(20)]),
            ("migrate", lambda c: c.migrate("c", 0, "deletable")),
            ("split", lambda c: c.split_shard(1)),
            ("merge", lambda c: c.merge_shards(0)),
            ("append", lambda c: [c.append("c", i % 8) for i in range(6)]),
        ]
        serial = build(None)
        proc = build(process_pool)
        try:
            assert not any(map(any, deferred(serial)))
            assert all(map(all, deferred(proc)))
            init_persistence(proc, durable)
            assert answers(proc) == answers(serial)
            for tag, step in steps:
                step(serial)
                step(proc)
                assert all(map(all, deferred(proc))), tag
                assert answers(proc) == answers(serial), tag
                if tag == "delete":
                    assert proc.shard_lengths("d") == [20, 41]  # compacted
            assert len(proc.migrations) == len(serial.migrations) >= 2
            assert len(proc.splits) == len(proc.merges) == 1
            want = answers(serial)
            proc.close()

            restored = restore_cluster(
                durable, executor=process_pool,
                advisor=FlipAdvisor(threshold=1.0),
            )
            try:
                assert all(map(all, deferred(restored)))
                assert answers(restored) == want
            finally:
                restored.close()
        finally:
            serial.close()
            proc.close()

    def test_invalid_writes_are_refused_before_the_wal(
        self, process_pool, tmp_path
    ):
        from repro.persist import init_persistence

        def build(executor):
            cluster = ClusterEngine(num_shards=2, executor=executor)
            cluster.add_column(
                "f", [i % 2 for i in range(40)], 2, dynamism="fully_dynamic"
            )
            cluster.add_column(
                "d", [i % 2 for i in range(40)], 2,
                dynamism="fully_dynamic", require_delete=True,
            )
            cluster.add_column("s", [i % 2 for i in range(40)], 2)
            cluster.delete("d", 3)
            return cluster

        invalid = [
            (InvalidParameterError, lambda c: c.change("f", 5, 5)),
            (UpdateError, lambda c: c.change("d", 3, 1)),
            (UpdateError, lambda c: c.delete("f", 4)),
            (UpdateError, lambda c: c.append("s", 1)),
        ]
        serial = build(None)
        proc = build(process_pool)
        try:
            init_persistence(proc, str(tmp_path / "dur"))
            for cluster in (serial, proc):
                cluster.change("f", 30, 0)  # buffered for the worker
            uids = list(proc.shard_uids)
            before = (
                proc.wal.last_seq,
                [process_pool.pending_delta_count(uid) for uid in uids],
            )
            assert before[1] == [0, 1]
            for error, write in invalid:
                # The coordinator's mirror refuses the write before it
                # is shipped or journaled, as a built index would.
                for cluster in (serial, proc):
                    with pytest.raises(error):
                        write(cluster)
                assert (
                    proc.wal.last_seq,
                    [process_pool.pending_delta_count(uid) for uid in uids],
                ) == before
            process_pool.flush_deltas()
            for name, lo, hi in [("f", 0, 0), ("d", 0, 1), ("s", 1, 1)]:
                assert (
                    proc.query(name, lo, hi).positions()
                    == serial.query(name, lo, hi).positions()
                )
            assert all(
                column.deferred
                for engine in proc.shards
                for column in engine.columns.values()
            )
        finally:
            serial.close()
            proc.close()


class TestWorkerDeath:
    """A dead worker surfaces typed errors, never a hang or a leak."""

    def _fresh_pool_with_shard(self, uid, codes=(0, 1, 2, 3)):
        pool = ProcessExecutor(max_workers=1)
        pool.build_shard(uid, _payload(list(codes), 8))
        return pool

    def test_query_after_kill_raises_worker_died(self):
        from repro.errors import WorkerDiedError

        uid = 7_200_001
        pool = self._fresh_pool_with_shard(uid)
        try:
            pool._workers[0].process.kill()
            pool._workers[0].process.join(timeout=10)
            with pytest.raises(WorkerDiedError) as exc_info:
                pool.query_shard(uid, "c", 0, 1)
            assert exc_info.value.uid == uid
            assert exc_info.value.worker_index == 0
        finally:
            pool.close()

    def test_kill_mid_delta_batch_flush(self):
        from repro.errors import WorkerDiedError

        uid = 7_200_002
        pool = self._fresh_pool_with_shard(uid)
        try:
            for i in range(5):
                pool.apply_delta(uid, ("append", "c", i % 8))
            pool._workers[0].process.kill()
            pool._workers[0].process.join(timeout=10)
            with pytest.raises(WorkerDiedError) as exc_info:
                pool.flush_deltas()
                # The send can win the race with the pipe teardown; the
                # reply never comes, so the blocking harvest raises.
            assert exc_info.value.uid == uid
        finally:
            pool.close()

    def test_kill_before_shm_build_releases_segment(self):
        from repro.errors import WorkerDiedError

        uid = 7_200_003
        pool = self._fresh_pool_with_shard(uid)
        try:
            pool._workers[0].process.kill()
            pool._workers[0].process.join(timeout=10)
            codes = [(3 * i) % 8 for i in range(4000)]
            with pytest.raises(WorkerDiedError):
                pool.build_shard(7_200_004, _payload(codes, 8))
            # The segment created for the doomed build must not leak.
            assert pool.segment_count() == 0
        finally:
            pool.close()

    def test_worker_deaths_counted_once_per_worker(self):
        from repro.errors import WorkerDiedError
        from repro.obs import MetricsRegistry

        uid = 7_200_006
        pool = self._fresh_pool_with_shard(uid)
        pool.metrics = MetricsRegistry()
        try:
            assert pool.worker_deaths == 0
            pool._workers[0].process.kill()
            pool._workers[0].process.join(timeout=10)
            # Several failed calls against one dead worker still count
            # a single death — the counter tracks the alive->dead
            # transition, not the error volume.
            for _ in range(3):
                with pytest.raises(WorkerDiedError):
                    pool.query_shard(uid, "c", 0, 1)
            assert pool.worker_deaths == 1
            assert (
                pool.metrics.counter("cluster.worker_deaths").value == 1
            )
        finally:
            pool.close()

    def test_worker_deaths_surface_in_cluster_stats(self):
        from repro.errors import WorkerDiedError

        pool = ProcessExecutor(max_workers=1)
        cluster = ClusterEngine(
            num_shards=1, drift_window=None, executor=pool
        )
        try:
            cluster.add_column("c", [0, 1, 2, 3], 8)
            assert cluster.stats().worker_deaths == 0
            pool._workers[0].process.kill()
            pool._workers[0].process.join(timeout=10)
            with pytest.raises(WorkerDiedError):
                cluster.query("c", 0, 1)
            stats = cluster.stats()
            assert stats.worker_deaths == 1
            assert stats.to_dict()["worker_deaths"] == 1
        finally:
            cluster.close()

    def test_pipelined_futures_all_resolve_on_death(self):
        from repro.errors import WorkerDiedError

        uid = 7_200_005
        pool = self._fresh_pool_with_shard(uid)
        try:
            futures = [pool.submit_query(uid, "c", 0, 1) for _ in range(6)]
            pool._workers[0].process.kill()
            pool._workers[0].process.join(timeout=10)
            for future in futures:
                with pytest.raises(WorkerDiedError) as exc_info:
                    future.result()
                assert exc_info.value.uid == uid
        finally:
            pool.close()
