"""Unit tests for the asyncio serving front end.

``pytest-asyncio`` is deliberately not a dependency: every async test
drives its own event loop through ``asyncio.run`` from a synchronous
test function, which also pins the loop's lifetime inside the test.
"""

import asyncio
import random
import threading
from collections import Counter
from types import SimpleNamespace

import pytest

from repro.cluster import (
    ClusterEngine,
    InMemorySharedCache,
    ProcessExecutor,
    SerialExecutor,
)
from repro.errors import (
    InvalidParameterError,
    Overloaded,
    QueryError,
    RequestTimeout,
)
from repro.obs import MetricsRegistry, Tracer
from repro.query import Range
from repro.serve import FrontEnd

from tests.conftest import brute_range


def _make_cluster(num_shards=3, rows=120, sigma=32, **kwargs):
    random.seed(20260808)
    codes = [random.randrange(16) for _ in range(rows)]
    cluster = ClusterEngine(num_shards=num_shards, **kwargs)
    cluster.add_column(
        "v", codes, sigma, dynamism="fully_dynamic", require_delete=True
    )
    return cluster, codes


class _GateEngine:
    """A stub engine whose ``count`` blocks until released.

    Implements exactly the surface the front end touches: ``count``,
    ``mutations``, and ``_meta`` (for fingerprinting).
    """

    def __init__(self) -> None:
        self.mutations = 0
        self.gate = threading.Event()
        self.calls = 0
        self._lock = threading.Lock()

    def _meta(self, name):
        return SimpleNamespace(sigma=32, epoch="e0")

    def count(self, pred):
        with self._lock:
            self.calls += 1
        if not self.gate.wait(timeout=30):
            raise AssertionError("test gate never released")
        return self.calls


class TestFrontEndOps:
    """Every op answers exactly what the engine answers serially."""

    def test_all_ops_match_serial_oracle(self):
        cluster, codes = _make_cluster()
        fe = FrontEnd(cluster)
        pred = Range("v", 2, 9)

        async def main():
            assert await fe.count(pred) == cluster.count(pred)
            assert await fe.select(pred) == cluster.select(pred)
            assert await fe.exists(pred) == cluster.exists(pred)
            assert (await fe.query(pred)).positions() == cluster.query(
                pred
            ).positions()
            assert await fe.count_by("v", pred) == cluster.count_by(
                "v", pred
            )
            assert await fe.topk("v", pred, 3) == cluster.topk(
                "v", pred, 3
            )
            await fe.close()

        asyncio.run(main())
        assert cluster.count(pred) == len(brute_range(codes, 2, 9))
        stats = fe.stats()
        assert stats.requests == 6 and stats.completed == 6
        assert stats.shed == 0 and stats.errors == 0

    def test_engine_errors_propagate_typed(self):
        cluster, _ = _make_cluster()
        fe = FrontEnd(cluster)

        async def main():
            with pytest.raises(QueryError):
                await fe.count(Range("nope", 0, 1))
            await fe.close()

        asyncio.run(main())

    def test_constructor_validation(self):
        cluster, _ = _make_cluster()
        with pytest.raises(InvalidParameterError):
            FrontEnd([])
        with pytest.raises(InvalidParameterError):
            FrontEnd(cluster, max_inflight=0)
        with pytest.raises(InvalidParameterError):
            FrontEnd(cluster, timeout_s=0)

    def test_closed_front_end_rejects_requests(self):
        cluster, _ = _make_cluster()
        fe = FrontEnd(cluster)

        async def main():
            await fe.close()
            await fe.close()  # idempotent
            with pytest.raises(InvalidParameterError):
                await fe.count(Range("v", 0, 1))

        asyncio.run(main())


class TestCoalescing:
    def test_duplicates_share_one_scatter(self):
        # A resident executor counts worker ops; a zero-capacity
        # shared cache guarantees repeats are real scatters — so the
        # fold count *is* the number of scatters that actually ran.
        pool = ProcessExecutor(max_workers=2)
        cluster = ClusterEngine(
            num_shards=2,
            executor=pool,
            shared_cache=InMemorySharedCache(0),
            drift_window=None,
        )
        try:
            random.seed(3)
            cluster.add_column(
                "v", [random.randrange(8) for _ in range(40)], 8
            )
            pool.reset_op_counts()
            fe = FrontEnd(cluster)
            pred = Range("v", 1, 6)

            async def main():
                results = await asyncio.gather(
                    *[fe.count(pred) for _ in range(6)]
                )
                assert set(results) == {cluster.count(pred)}
                await fe.close()

            folds_before = pool.op_counts.get("fold", 0)
            asyncio.run(main())
            # Six requests, one execution: one fold per shard, once —
            # the serial-oracle call above accounts separately.
            assert (
                pool.op_counts.get("fold", 0) - folds_before
                == cluster.num_shards + cluster.num_shards
            )
            assert fe.coalesced == 5 and fe.admitted == 1
        finally:
            cluster.close()

    def test_equivalent_predicates_coalesce(self):
        engine = _GateEngine()
        fe = FrontEnd(engine)
        a = Range("v", 1, 5) & Range("w", 2, 6)
        b = Range("w", 2, 6) & Range("v", 1, 5)

        async def main():
            leader = asyncio.create_task(fe.count(a))
            await asyncio.sleep(0)
            follower = asyncio.create_task(fe.count(b))
            await asyncio.sleep(0)
            assert fe.coalesced == 1
            engine.gate.set()
            assert await leader == await follower == 1
            await fe.close()

        asyncio.run(main())
        assert engine.calls == 1

    def test_mutation_fence_closes_the_window(self):
        # A write between two identical requests must start a fresh
        # flight: the key embeds every engine's mutation counter.
        engine = _GateEngine()
        engine.gate.set()  # no blocking needed here
        fe = FrontEnd(engine)
        pred = Range("v", 0, 3)

        async def main():
            await fe.count(pred)
            engine.mutations += 1  # what any cluster write does
            await fe.count(pred)
            await fe.close()

        asyncio.run(main())
        assert engine.calls == 2 and fe.coalesced == 0

    @pytest.mark.parametrize("op", ["select", "count_by", "topk"])
    def test_coalesced_callers_own_their_answers(self, op):
        # The first caller mutates its answer before the second caller
        # resumes; the second must still see the oracle's answer.
        cluster, codes = _make_cluster()
        fe = FrontEnd(cluster)
        pred = Range("v", 2, 9)
        rows = brute_range(codes, 2, 9)
        counts = Counter(codes[rid] for rid in rows)
        want = {
            "select": rows,
            "count_by": dict(counts),
            "topk": sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:3],
        }[op]
        call = {
            "select": lambda: fe.select(pred),
            "count_by": lambda: fe.count_by("v", pred),
            "topk": lambda: fe.topk("v", pred, 3),
        }[op]

        async def mutate_first():
            answer = await call()
            if isinstance(answer, dict):
                answer[-1] = -1
            else:
                answer.append(-1)
            return answer

        async def main():
            first, second = await asyncio.gather(mutate_first(), call())
            await fe.close()
            return first, second

        first, second = asyncio.run(main())
        assert fe.coalesced == 1
        assert second == want
        assert first != second

    def test_coalescing_off_executes_every_request(self):
        engine = _GateEngine()
        fe = FrontEnd(engine, coalesce=False)
        pred = Range("v", 0, 3)

        async def main():
            tasks = [
                asyncio.create_task(fe.count(pred)) for _ in range(3)
            ]
            await asyncio.sleep(0.05)
            engine.gate.set()
            await asyncio.gather(*tasks)
            await fe.close()

        asyncio.run(main())
        assert engine.calls == 3 and fe.coalesced == 0

    def test_sequential_repeats_are_fold_cache_hits(self):
        # Coalescing joins only requests in flight together: a repeat
        # that arrives after its twin completed executes again, and
        # the cluster's fold cache answers it, one hit per shard.
        cluster, codes = _make_cluster()
        fe = FrontEnd(cluster)
        pred = Range("v", 2, 9)
        cache = cluster.shared_cache
        hits, misses = cache.hits, cache.misses

        async def main():
            answers = [await fe.count(pred) for _ in range(3)]
            await fe.close()
            return answers

        assert asyncio.run(main()) == [len(brute_range(codes, 2, 9))] * 3
        assert fe.coalesced == 0 and fe.stats().completed == 3
        assert cache.misses - misses == cluster.num_shards
        assert cache.hits - hits == 2 * cluster.num_shards
        cluster.close()


class TestAdmission:
    def test_reject_newest_sheds_typed(self):
        engine = _GateEngine()
        fe = FrontEnd(engine, max_inflight=2, coalesce=False)
        pred = Range("v", 0, 3)

        async def main():
            first = asyncio.create_task(fe.count(pred))
            second = asyncio.create_task(fe.count(pred))
            await asyncio.sleep(0)
            with pytest.raises(Overloaded) as excinfo:
                await fe.count(pred)
            assert excinfo.value.inflight == 2
            assert excinfo.value.capacity == 2
            engine.gate.set()
            await asyncio.gather(first, second)
            # Capacity freed: admitted again.
            assert await fe.count(pred) == 3
            await fe.close()

        asyncio.run(main())
        assert fe.shed == 1 and fe.admitted == 3

    def test_followers_bypass_admission(self):
        engine = _GateEngine()
        fe = FrontEnd(engine, max_inflight=1)
        hot = Range("v", 0, 3)

        async def main():
            leader = asyncio.create_task(fe.count(hot))
            await asyncio.sleep(0)
            follower = asyncio.create_task(fe.count(hot))
            await asyncio.sleep(0)
            # The duplicate rode the leader's slot; a distinct
            # predicate needs its own and is shed.
            with pytest.raises(Overloaded):
                await fe.count(Range("v", 5, 9))
            engine.gate.set()
            assert await leader == await follower
            await fe.close()

        asyncio.run(main())
        assert fe.coalesced == 1 and fe.shed == 1

    def test_deadline_raises_request_timeout(self):
        engine = _GateEngine()
        fe = FrontEnd(engine, timeout_s=0.05)
        pred = Range("v", 0, 3)

        async def main():
            with pytest.raises(RequestTimeout) as excinfo:
                await fe.count(pred)
            assert excinfo.value.op == "count"
            assert excinfo.value.timeout_s == 0.05
            # The shielded execution still completes once released.
            engine.gate.set()
            await fe.drain()
            await fe.close()

        asyncio.run(main())
        assert fe.timeouts == 1 and fe.errors == 0
        assert engine.calls == 1

    def test_per_call_timeout_overrides_default(self):
        engine = _GateEngine()
        engine.gate.set()
        fe = FrontEnd(engine, timeout_s=0.001)

        async def main():
            # A generous per-call deadline rescues a tight default.
            assert await fe.count(Range("v", 0, 3), timeout_s=30.0) == 1
            await fe.close()

        asyncio.run(main())
        assert fe.timeouts == 0


class TestCancellation:
    def test_cancelled_follower_never_cancels_the_leader(self):
        engine = _GateEngine()
        tracer = Tracer()
        fe = FrontEnd(engine, tracer=tracer)
        pred = Range("v", 0, 3)

        async def main():
            leader = asyncio.create_task(fe.count(pred))
            await asyncio.sleep(0)
            follower = asyncio.create_task(fe.count(pred))
            await asyncio.sleep(0)
            follower.cancel()
            await asyncio.sleep(0)
            engine.gate.set()
            assert await leader == 1
            with pytest.raises(asyncio.CancelledError):
                await follower
            await fe.close()

        asyncio.run(main())
        assert fe.cancelled == 1 and engine.calls == 1
        # Nothing leaked: no pending task, no single-flight entry, and
        # every begun trace was finished into the ring.
        assert not fe._tasks and not fe._singleflight
        assert len(tracer.traces) == fe.admitted == 1
        assert all(trace.finished for trace in tracer.traces)

    def test_cancelled_leader_caller_still_serves_followers(self):
        engine = _GateEngine()
        fe = FrontEnd(engine)
        pred = Range("v", 0, 3)

        async def main():
            leader = asyncio.create_task(fe.count(pred))
            await asyncio.sleep(0)
            follower = asyncio.create_task(fe.count(pred))
            await asyncio.sleep(0)
            leader.cancel()
            await asyncio.sleep(0)
            engine.gate.set()
            # The execution outlives its originating caller.
            assert await follower == 1
            await fe.close()

        asyncio.run(main())
        assert engine.calls == 1 and fe.cancelled == 1
        assert not fe._tasks and not fe._singleflight


class TestStress:
    def test_concurrent_mixed_ops_with_midflight_appends(self):
        # Appended codes sit outside every queried range, so each
        # request's oracle answer is time-invariant however the writes
        # interleave — which is what lets 60 concurrent clients each
        # assert an exact result.
        cluster, codes = _make_cluster(num_shards=3, rows=150)
        metrics = MetricsRegistry()
        fe = FrontEnd(cluster, max_inflight=256, metrics=metrics)
        preds = [Range("v", lo, lo + 4) for lo in range(0, 11)]
        oracle = {}
        for i, pred in enumerate(preds):
            oracle[("count", i)] = cluster.count(pred)
            oracle[("select", i)] = cluster.select(pred)
            oracle[("exists", i)] = cluster.exists(pred)
            oracle[("count_by", i)] = cluster.count_by("v", pred)
            oracle[("topk", i)] = cluster.topk("v", pred, 3)

        async def client(op, i):
            pred = preds[i]
            if op == "count":
                return op, i, await fe.count(pred)
            if op == "select":
                return op, i, await fe.select(pred)
            if op == "exists":
                return op, i, await fe.exists(pred)
            if op == "count_by":
                return op, i, await fe.count_by("v", pred)
            return op, i, await fe.topk("v", pred, 3)

        async def writer(loop):
            for _ in range(6):
                await loop.run_in_executor(None, cluster.append, "v", 20)
                await asyncio.sleep(0)

        async def main():
            loop = asyncio.get_running_loop()
            rng = random.Random(99)
            ops = ["count", "select", "exists", "count_by", "topk"]
            tasks = [
                client(rng.choice(ops), rng.randrange(len(preds)))
                for _ in range(60)
            ]
            results, _ = await asyncio.gather(
                asyncio.gather(*tasks), writer(loop)
            )
            for op, i, value in results:
                assert value == oracle[(op, i)], (op, i)
            await fe.close()

        asyncio.run(main())
        stats = fe.stats()
        assert stats.requests == 60
        assert stats.completed == 60  # exactly one result each
        assert stats.shed == 0 and stats.errors == 0
        assert stats.admitted + stats.coalesced == 60
        assert stats.inflight == 0
        assert (
            metrics.counter("serve.requests").value == 60
        )
        # Six writes landed mid-flight.
        assert cluster.total_rows("v") == 156
