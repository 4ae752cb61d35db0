"""Unit tests for the sharded scatter-gather serving layer."""

import pytest

from repro.cluster import (
    ClusterEngine,
    InMemorySharedCache,
    SerialExecutor,
    ThreadedExecutor,
    locate,
    offsets_of,
    plan_shards,
)
from repro.cluster.cache import fold_entry, fold_value
from repro.engine import Advisor, CostModel, WorkloadStats, get_spec
from repro.errors import InvalidParameterError, QueryError, UpdateError
from repro.model.distributions import uniform, zipf
from repro.obs import MetricsRegistry
from repro.query import And, Range

from tests.conftest import brute_range


class TestShardPlan:
    def test_balanced_split_covers_rid_space(self):
        plan = plan_shards(10, 3)
        assert plan.slices() == [(0, 4), (4, 7), (7, 10)]
        assert plan.num_shards == 3

    def test_target_shard_rows(self):
        plan = plan_shards(100, target_shard_rows=30)
        assert plan.num_shards == 4
        assert sum(stop - start for start, stop in plan.slices()) == 100

    def test_no_empty_shards(self):
        assert plan_shards(3, 8).num_shards == 3
        assert all(stop > start for start, stop in plan_shards(3, 8).slices())

    def test_sizing_knobs_exclusive(self):
        with pytest.raises(InvalidParameterError):
            plan_shards(10, num_shards=2, target_shard_rows=5)
        with pytest.raises(InvalidParameterError):
            plan_shards(0, 2)
        with pytest.raises(InvalidParameterError):
            plan_shards(10, num_shards=0)
        with pytest.raises(InvalidParameterError):
            plan_shards(10, target_shard_rows=0)

    def test_locate_routes_by_live_lengths(self):
        offsets = offsets_of([4, 3, 3])
        assert offsets == [0, 4, 7]
        assert locate(offsets, 10, 0) == (0, 0)
        assert locate(offsets, 10, 4) == (1, 0)
        assert locate(offsets, 10, 9) == (2, 2)
        with pytest.raises(QueryError):
            locate(offsets, 10, 10)
        with pytest.raises(QueryError):
            locate(offsets, 10, -1)


class TestSharedCache:
    def test_get_put_roundtrip_returns_copy(self):
        cache = InMemorySharedCache(8)
        key = (0, "d", 0)
        put = [1, 2, 3]
        cache.put(key, put)
        put.append(98)  # nor may the list handed to put
        got = cache.get(key)
        assert got == [1, 2, 3]
        got.append(99)  # a caller mutating its copy must not poison the cache
        assert cache.get(key) == [1, 2, 3]
        assert cache.hits == 2 and cache.misses == 0

    def test_lru_eviction(self):
        cache = InMemorySharedCache(2)
        cache.put((0, "d", 0), [0])
        cache.put((1, "d", 0), [1])
        cache.get((0, "d", 0))
        cache.put((2, "d", 0), [2])
        assert (1, "d", 0) not in cache
        assert cache.evictions == 1

    def test_invalidate_by_shard_and_all(self):
        cache = InMemorySharedCache(8)
        cache.put((0, "d", 0), [0])
        cache.put((0, "f", 2), [1])
        cache.put((1, "d", 0), [2])
        assert cache.invalidate(0) == 2
        assert (1, "d", 0) in cache
        assert cache.invalidate(7) == 0
        assert len(cache) == 1
        assert cache.invalidate() == 1

    def test_fold_key_digest_names_the_plan_and_epochs(self):
        from repro.cluster.cache import fold_key

        payload = ("count", ("a",), (("a", 1, 3),), ("leaf", 0), None)
        key = fold_key(4, payload, (("a", "e1", 2),))
        assert len(key) == 3 and key[0] == 4 and key[2] == 2
        # A write moves only the version slot; a new incarnation of the
        # column, or another plan over it, moves the digest.
        assert fold_key(4, payload, (("a", "e1", 5),))[:2] == key[:2]
        assert fold_key(4, payload, (("a", "e2", 2),))[1] != key[1]
        exists = ("exists",) + payload[1:]
        assert fold_key(4, exists, (("a", "e1", 2),))[1] != key[1]
        # The version slot sums every read column's version.
        pair = ("count", ("a", "b"), payload[2], ("leaf", 0), None)
        versions = (("a", "e1", 2), ("b", "e3", 5))
        assert fold_key(4, pair, versions)[2] == 7

    def test_zero_capacity_stores_nothing(self):
        cache = InMemorySharedCache(0)
        cache.put((0, "d", 0), [0])
        assert len(cache) == 0

    def test_negative_capacity_is_rejected(self):
        with pytest.raises(InvalidParameterError):
            InMemorySharedCache(-1)

    def test_metrics_count_every_get(self):
        metrics = MetricsRegistry()
        cache = InMemorySharedCache(4, metrics=metrics)
        key = (0, "d", 0)
        assert cache.get(key) is None
        cache.put(key, [1])  # a put reports nothing
        assert cache.get(key) == [1]
        counters = metrics.to_dict()["counters"]
        assert counters == {"cache.shared.misses": 1, "cache.shared.hits": 1}

    @pytest.mark.parametrize(
        "mode, value",
        [
            ("count", 7),
            ("exists", False),
            ("count_by", {3: 2, 0: 5}),
            ("select", [1, 4, 9]),
        ],
    )
    def test_fold_value_round_trips_through_the_cache(self, mode, value):
        cache = InMemorySharedCache(4)
        key = (0, "d", 0)
        cache.put(key, fold_entry(mode, value))
        entry = cache.get(key)
        assert all(type(x) is int for x in entry)
        got = fold_value(mode, entry)
        assert got == value and type(got) is type(value)

    def test_overwrite_refreshes_without_evicting(self):
        # Two scatter tasks that miss on one key both put it: the
        # second put replaces the value and refreshes its recency.
        cache = InMemorySharedCache(2)
        cache.put((0, "d", 0), [0])
        cache.put((1, "d", 0), [1])
        cache.put((0, "d", 0), [5])
        assert len(cache) == 2 and cache.evictions == 0
        cache.put((2, "d", 0), [2])
        assert (1, "d", 0) not in cache and cache.evictions == 1
        assert cache.get((0, "d", 0)) == [5]

    def test_round_trips_fold_entries(self):
        cache = InMemorySharedCache(8)
        key = (7, "d", 3)
        assert cache.get(key) is None and key not in cache
        # A count, an empty select answer, a count_by's flat pairs.
        for value in ([4], [], [1, 5, 2, 9]):
            cache.put(key, value)
            assert cache.get(key) == value and key in cache
        # Another version or another shard is another key.
        assert cache.get((7, "d", 4)) is None
        assert cache.get((8, "d", 3)) is None

    def test_readded_column_never_serves_restored_entries(self):
        # Epoch stamping: drop + re-add under the same name must never
        # resurrect the previous incarnation's entries, even though
        # shard versions restart at zero and its entries are put back.
        def folds(codes):
            # Aggregate folds go through the same get/put: their
            # values are int lists too.
            hits = [c for c in codes if 1 <= c <= 4]
            by_code = {c: hits.count(c) for c in set(hits)}
            for _ in range(2):  # the repeat is served by the cache
                assert cluster.count(Range("c", 1, 4)) == len(hits)
                assert cluster.exists(Range("c", 1, 4)) == bool(hits)
                assert cluster.count_by("c", Range("c", 1, 4)) == by_code
                assert cluster.topk("c", Range("c", 1, 4), k=2) == sorted(
                    by_code.items(), key=lambda kv: (-kv[1], kv[0])
                )[:2]

        cache = InMemorySharedCache(64)
        cluster = ClusterEngine(num_shards=2, shared_cache=cache)
        x = uniform(40, 8, seed=40)
        cluster.add_column("c", x, 8, dynamism="fully_dynamic")
        assert cluster.query("c", 1, 4).positions() == brute_range(x, 1, 4)
        folds(x)
        old = {key: cache.get(key) for key in list(cache._lru._data)}
        cluster.drop_column("c")
        assert len(cache) == 0
        for key, entry in old.items():
            cache.put(key, entry)
        y = [7 - c for c in x]
        cluster.add_column("c", y, 8, dynamism="fully_dynamic")
        hits = cache.hits
        assert cluster.query("c", 1, 4).positions() == brute_range(y, 1, 4)
        assert cache.hits == hits
        folds(y)

    def test_cluster_serves_correctly_over_a_bounded_cache(self):
        cache = InMemorySharedCache(4)
        cluster = ClusterEngine(
            num_shards=3, shared_cache=cache, drift_window=None
        )
        x = uniform(60, 8, seed=7)
        cluster.add_column("c", x, 8)
        for lo in range(8):
            assert cluster.query("c", lo, 7).positions() == brute_range(
                x, lo, 7
            )
        # The bound held however many distinct queries flowed through.
        assert len(cache) <= 4
        assert cache.evictions > 0

    def test_write_leaves_the_stale_entry_unreachable(self):
        # A write evicts nothing: versioned keys alone keep answers
        # exact while the stale entry waits for the LRU to reclaim it.
        cache = InMemorySharedCache(64)
        cluster = ClusterEngine(
            num_shards=2, shared_cache=cache, drift_window=None
        )
        x = uniform(40, 8, seed=42)
        cluster.add_column("c", x, 8, dynamism="fully_dynamic")
        model = list(x)
        assert cluster.query("c", 1, 4).positions() == brute_range(model, 1, 4)
        # Shard 0's select fold: the entry the write below makes stale.
        (stale,) = [
            k for k in cache._lru._data if k[0] == cluster.shard_uids[0]
        ]
        cluster.change("c", 0, 7)
        model[0] = 7
        assert cluster.query("c", 1, 4).positions() == brute_range(model, 1, 4)
        assert stale in cache and len(cache) == 3

    def test_explain_marks_each_shards_cache_verdict(self):
        cluster = ClusterEngine(num_shards=3, drift_window=None)
        x = uniform(60, 8, seed=11)
        cluster.add_column("c", x, 8, dynamism="fully_dynamic")

        def verdicts():
            lines = cluster.explain("c", 1, 6).splitlines()[1:]
            return [line.rsplit("[", 1)[1] for line in lines]

        assert verdicts() == ["miss]"] * 3
        assert cluster.query("c", 1, 6).positions() == brute_range(x, 1, 6)
        assert verdicts() == ["shared-cache]"] * 3
        # A write moves only its own shard's key.
        cluster.change("c", 0, (x[0] + 1) % 8)
        assert verdicts() == ["miss]"] + ["shared-cache]"] * 2

    def test_overview_reports_the_hit_rate(self):
        cluster = ClusterEngine(num_shards=2, drift_window=None)
        cluster.add_column("c", uniform(40, 8, seed=9), 8)
        assert "shared cache hit rate 0.0%" in cluster.explain()
        cluster.query("c", 1, 4)
        cluster.query("c", 1, 4)
        assert "shared cache hit rate 50.0%" in cluster.explain()

    def test_stats_report_a_zero_capacity_cache(self):
        cluster = ClusterEngine(
            num_shards=2, shared_cache=InMemorySharedCache(0)
        )
        x = uniform(40, 8, seed=3)
        cluster.add_column("c", x, 8)
        for _ in range(2):
            assert cluster.query("c", 1, 4).positions() == brute_range(
                x, 1, 4
            )
        tier = cluster.stats().shared_cache
        assert (tier.tier, tier.capacity, tier.size) == ("shared", 0, 0)
        assert (tier.hits, tier.misses, tier.evictions) == (0, 4, 0)
        assert "shared-cache" not in cluster.explain("c", 1, 4)

    def test_cluster_metrics_reach_only_a_bare_cache(self):
        # A cluster's registry is attached to a cache that has none; a
        # cache built with its own keeps reporting there.
        x = uniform(40, 8, seed=5)
        theirs = MetricsRegistry()
        for own in (None, MetricsRegistry()):
            cache = InMemorySharedCache(8, metrics=own)
            cluster = ClusterEngine(
                num_shards=2, shared_cache=cache, metrics=theirs
            )
            cluster.add_column("c", x, 8)
            cluster.query("c", 1, 4)
            assert cache.metrics is (own or theirs)
            counters = cache.metrics.to_dict()["counters"]
            assert counters["cache.shared.misses"] == 2
        assert theirs.to_dict()["counters"]["cache.shared.misses"] == 2


class TestExecutors:
    def test_serial_preserves_order(self):
        assert SerialExecutor().map(lambda v: v * v, range(5)) == [0, 1, 4, 9, 16]

    def test_threaded_preserves_order_and_propagates_errors(self):
        with ThreadedExecutor(4) as pool:
            assert pool.map(lambda v: v * v, range(32)) == [
                v * v for v in range(32)
            ]
            with pytest.raises(ZeroDivisionError):
                pool.map(lambda v: 1 // v, [2, 1, 0])

    def test_threaded_rejects_zero_workers(self):
        with pytest.raises(InvalidParameterError):
            ThreadedExecutor(0)


class TestClusterEngine:
    def test_query_matches_oracle_and_merges_in_order(self):
        x = zipf(300, 16, theta=1.1, seed=1)
        cluster = ClusterEngine(num_shards=5)
        cluster.add_column("c", x, 16)
        for lo, hi in [(0, 3), (2, 2), (0, 15), (5, 12)]:
            result = cluster.query("c", lo, hi)
            assert result.positions() == brute_range(x, lo, hi)
            assert result.cardinality == len(brute_range(x, lo, hi))

    def test_per_shard_stats_can_pick_different_backends(self):
        # First half: 4 distinct values (bitmap country); second half:
        # 256 distinct values (pagh-rao country).  With 2 shards the
        # advisor must be free to disagree with itself.
        low = uniform(2048, 4, seed=2)
        high = [4 + v for v in uniform(2048, 252, seed=3)]
        # The analytic model: this test documents the raw estimators'
        # per-shard disagreement, independent of checked-in calibration.
        cluster = ClusterEngine(
            num_shards=2, cost_model=CostModel(calibration=None)
        )
        cluster.add_column("c", low + high, 256)
        families = [
            cluster.shard_column("c", s).spec.family for s in range(2)
        ]
        assert families[0] == "bitmap"
        assert families[1] == "pagh-rao"
        # ...and the split-brain column still answers exactly.
        want = brute_range(low + high, 1, 200)
        assert cluster.query("c", 1, 200).positions() == want

    def test_select_matches_single_engine_table(self):
        a = uniform(400, 8, seed=4)
        b = zipf(400, 8, theta=1.3, seed=5)
        cluster = ClusterEngine(num_shards=3)
        cluster.add_column("a", a, 8)
        cluster.add_column("b", b, 8)
        want = [
            i for i in range(400) if 2 <= a[i] <= 6 and 0 <= b[i] <= 2
        ]
        pred = And(Range("a", 2, 6), Range("b", 0, 2))
        assert cluster.select(pred) == want

    def test_select_short_circuits_and_requires_conditions(self):
        cluster = ClusterEngine(num_shards=2)
        cluster.add_column("c", [1, 1, 1, 1], 3)
        assert cluster.select(Range("c", 0, 0)) == []
        with pytest.raises(QueryError):
            cluster.select({})

    def test_column_length_must_match_shard_plan(self):
        cluster = ClusterEngine(num_shards=2)
        cluster.add_column("a", [0, 1, 2, 3], 4)
        with pytest.raises(InvalidParameterError):
            cluster.add_column("b", [0, 1, 2], 4)
        with pytest.raises(InvalidParameterError):
            cluster.add_column("a", [0, 1, 2, 3], 4)
        with pytest.raises(QueryError):
            cluster.query("missing", 0, 1)

    def test_invalid_range_rejected_before_scatter(self):
        cluster = ClusterEngine(num_shards=2)
        cluster.add_column("c", [0, 1, 2, 3], 4)
        for lo, hi in [(-1, 2), (0, 4), (3, 1)]:
            with pytest.raises(QueryError):
                cluster.query("c", lo, hi)

    def test_updates_route_to_one_shard_and_invalidate_only_it(self):
        x = uniform(90, 8, seed=6)
        cluster = ClusterEngine(num_shards=3, drift_window=None)
        cluster.add_column("c", x, 8, dynamism="fully_dynamic")
        model = list(x)
        cluster.query("c", 0, 3)  # populate all three shards' entries
        assert len(cluster.shared_cache) == 3
        versions_before = [
            cluster.shard_column("c", s).version for s in range(3)
        ]
        cluster.change("c", 0, 7)  # routes to shard 0
        model[0] = 7
        versions_after = [
            cluster.shard_column("c", s).version for s in range(3)
        ]
        assert versions_after[0] == versions_before[0] + 1
        assert versions_after[1:] == versions_before[1:]
        # Only shard 0's entry became unreachable (the write evicts
        # nothing); the others keep serving.
        hits_before = cluster.shared_cache.hits
        misses_before = cluster.shared_cache.misses
        assert cluster.query("c", 0, 3).positions() == brute_range(model, 0, 3)
        assert cluster.shared_cache.hits == hits_before + 2
        assert cluster.shared_cache.misses == misses_before + 1

    def test_append_goes_to_last_shard(self):
        cluster = ClusterEngine(num_shards=2, drift_window=None)
        cluster.add_column("c", [0, 1, 2, 3], 4, dynamism="semidynamic")
        cluster.append("c", 0)
        assert cluster.shard_lengths("c") == [2, 3]
        assert cluster.query("c", 0, 0).positions() == [0, 4]
        assert cluster.total_rows("c") == 5

    def test_delete_translates_global_positions(self):
        x = [3, 1, 2, 0, 3, 1, 2, 0, 3]
        cluster = ClusterEngine(num_shards=3, drift_window=None)
        cluster.add_column(
            "c", x, 4, dynamism="fully_dynamic", require_delete=True
        )
        cluster.delete("c", 4)  # shard 1, local 1
        model = list(x)
        model[4] = None
        want = [i for i, v in enumerate(model) if v == 3]
        assert cluster.query("c", 3, 3).positions() == want

    def test_static_column_rejects_updates(self):
        cluster = ClusterEngine(num_shards=2)
        cluster.add_column("c", [0, 1, 2, 3], 4)
        with pytest.raises(UpdateError):
            cluster.append("c", 1)

    def test_drop_column(self):
        cluster = ClusterEngine(num_shards=2)
        cluster.add_column("c", [0, 1, 2, 3], 4)
        cluster.query("c", 0, 3)
        cluster.drop_column("c")
        assert "c" not in cluster.columns
        assert len(cluster.shared_cache) == 0
        with pytest.raises(QueryError):
            cluster.query("c", 0, 1)

    def test_threaded_executor_matches_serial(self):
        x = zipf(500, 32, theta=1.2, seed=7)
        serial = ClusterEngine(num_shards=8)
        serial.add_column("c", x, 32)
        with ThreadedExecutor(4) as pool:
            threaded = ClusterEngine(num_shards=8, executor=pool)
            threaded.add_column("c", x, 32)
            for lo, hi in [(0, 5), (10, 31), (4, 4)]:
                assert (
                    threaded.query("c", lo, hi).positions()
                    == serial.query("c", lo, hi).positions()
                )

    def test_plan_and_explain_variants(self):
        cluster = ClusterEngine(num_shards=2)
        cluster.add_column("c", uniform(64, 4, seed=8), 4)
        plans = cluster.plan("c", 0, 1)
        assert len(plans) == 2 and all(p.column == "c" for p in plans)
        overview = cluster.explain()
        assert "2 shard(s)" in overview and "c:" in overview
        per_column = cluster.explain("c")
        assert "shard 0" in per_column and "shard 1" in per_column
        cluster.query("c", 0, 1)
        per_query = cluster.explain("c", 0, 1)
        assert "shared-cache" in per_query

    def test_fully_pruned_plan_reports_cold_and_free(self):
        # Regression: a leaf every shard prunes has no live shard
        # plans, so the vacuous all([]) used to render it "cached"
        # with a live shard count of zero.  It must read as what it
        # is: never served, never cached, never costed.
        from repro.query import Eq

        cluster = ClusterEngine(num_shards=2)
        cluster.add_column("c", [0, 0, 2, 2], 4)  # code 3 never occurs
        report = cluster.explain(Eq("c", 3))
        (leaf,) = report.leaves
        assert all(s.pruned for s in leaf.shards)
        assert leaf.cached is False
        assert leaf.estimated_cost_bits == 0
        assert report.estimated_total_bits == 0
        assert "all shards pruned" in str(report)
        assert "0 shard(s)" not in str(report)
        # ...and the pruned plan still answers exactly.
        assert cluster.select(Eq("c", 3)) == []
        assert cluster.count(Eq("c", 3)) == 0


class FlipAdvisor(Advisor):
    """Deterministic advisor for drift tests: entropy decides the pick."""

    def __init__(self, threshold: float) -> None:
        super().__init__()
        self.threshold = threshold

    def pick(self, stats: WorkloadStats):
        if stats.h0 < self.threshold:
            return get_spec("fully-dynamic")
        return get_spec("deletable")


class TestMigration:
    def test_explicit_migrate_refits_static_column(self):
        # An append-capable column that went cold: freezing it re-opens
        # the static pool and the advisor re-picks per shard.
        x = uniform(1024, 4, seed=9)
        cluster = ClusterEngine(num_shards=4)
        cluster.add_column("c", x, 4, dynamism="semidynamic")
        assert set(cluster.backends("c")) <= {"appendable"}
        want = brute_range(x, 1, 2)
        migrations = cluster.migrate("c", dynamism="static")
        assert all(m.changed for m in migrations)
        assert all(
            cluster.shard_column("c", s).spec.dynamism == "static"
            for s in range(4)
        )
        assert cluster.query("c", 1, 2).positions() == want
        with pytest.raises(UpdateError):
            cluster.append("c", 0)  # the freeze is real

    def test_freeze_suspends_the_delete_requirement(self):
        # A frozen column can never see another delete, so the freeze
        # must re-open the static pool instead of keeping the advisor
        # confined to delete-capable backends.
        cluster = ClusterEngine(num_shards=2)
        x = uniform(64, 4, seed=13)
        cluster.add_column(
            "d", x, 4, dynamism="fully_dynamic", require_delete=True
        )
        assert cluster.backends("d") == ["deletable", "deletable"]
        cluster.delete("d", 3)
        migrations = cluster.migrate("d", dynamism="static")
        assert all(m.changed for m in migrations)
        assert all(
            cluster.shard_column("d", s).spec.dynamism == "static"
            for s in range(2)
        )
        # Pending holes were compacted by the rebuild.
        model = [c for i, c in enumerate(x) if i != 3]
        for lo in range(4):
            assert cluster.query("d", lo, lo).positions() == brute_range(
                model, lo, lo
            )
        # The *declared* contract survives the freeze: unfreezing
        # restores delete capability, not just change/append.
        cluster.migrate("d", dynamism="fully_dynamic")
        assert cluster.backends("d") == ["deletable", "deletable"]
        before = cluster.query("d", 0, 3).cardinality
        cluster.delete("d", 0)
        assert cluster.query("d", 0, 3).cardinality == before - 1

    def test_migrate_enforces_require_exact(self):
        cluster = ClusterEngine(num_shards=2)
        cluster.add_column("e", uniform(64, 8, seed=14), 8)
        with pytest.raises(InvalidParameterError):
            cluster.migrate("e", backend="pagh-rao-approx")
        assert all(
            cluster.shard_column("e", s).spec.exact for s in range(2)
        )

    def test_explicit_migrate_with_pinned_backend(self):
        cluster = ClusterEngine(num_shards=2)
        cluster.add_column("c", uniform(64, 8, seed=10), 8)
        migrations = cluster.migrate("c", backend="btree")
        assert [m.new_backend for m in migrations] == ["btree", "btree"]
        assert cluster.backends("c") == ["btree", "btree"]
        assert cluster.query("c", 2, 5).positions() == brute_range(
            uniform(64, 8, seed=10), 2, 5
        )

    def test_migrate_single_shard_only(self):
        cluster = ClusterEngine(num_shards=3)
        cluster.add_column("c", uniform(90, 8, seed=11), 8)
        cluster.migrate("c", shard_id=1, backend="btree")
        backends = cluster.backends("c")
        assert backends[1] == "btree"
        assert backends[0] != "btree" and backends[2] != "btree"
        # A single-shard backend choice pins that shard only: the
        # other shards keep their drift auto-migration.
        assert cluster.columns["c"].backend is None
        assert cluster.columns["c"].shard_pins == {1: "btree"}

    def test_per_shard_pin_survives_drift_until_unpinned(self):
        advisor = FlipAdvisor(threshold=1.0)
        cluster = ClusterEngine(
            num_shards=2, advisor=advisor, drift_window=4
        )
        cluster.add_column("c", [0] * 20, 8, dynamism="fully_dynamic")
        cluster.migrate("c", shard_id=1, backend="deletable")
        # High-entropy traffic to shard 1 would flip the advisor, but
        # the shard pin holds.
        for i in range(10):
            cluster.change("c", 10 + (i % 10), i % 8)
        assert cluster.backends("c")[1] == "deletable"
        # Releasing the pin hands the shard back to the advisor.
        cluster.unpin("c", shard_id=1)
        assert cluster.columns["c"].shard_pins == {}
        cluster.migrate("c", shard_id=1)
        assert cluster.backends("c")[1] == "deletable"  # h0 still high
        # Bare migrate() honors remaining pins; none left, so the
        # advisor governs both shards again.
        cluster.migrate("c")

    def test_shard_id_validated(self):
        cluster = ClusterEngine(num_shards=2)
        cluster.add_column("c", uniform(64, 8, seed=12), 8)
        for bad in (-1, 2, 5):
            with pytest.raises(InvalidParameterError):
                cluster.migrate("c", shard_id=bad)
            with pytest.raises(InvalidParameterError):
                cluster.shard_column("c", bad)

    def test_migrate_validates_dynamism_before_mutating_meta(self):
        cluster = ClusterEngine(num_shards=2)
        cluster.add_column(
            "c", [0, 1, 2, 3], 4, dynamism="fully_dynamic"
        )
        for bad_call in (
            lambda: cluster.migrate("c", dynamism="bogus"),
            lambda: cluster.migrate("c", shard_id=99, dynamism="static"),
            lambda: cluster.migrate("c", dynamism="static", backend="nope"),
            lambda: cluster.migrate("c", shard_id=0, dynamism="static"),
            # The backend/dynamism combination must be validated as a
            # pair before either is recorded.
            lambda: cluster.migrate(
                "c", backend="pagh-rao", dynamism="fully_dynamic"
            ),
        ):
            with pytest.raises(InvalidParameterError):
                bad_call()
            # A rejected migrate leaves the column exactly as it was.
            assert cluster.columns["c"].dynamism == "fully_dynamic"
            assert cluster.columns["c"].backend is None
        cluster.change("c", 0, 3)  # the column is still healthy

    def test_explicit_migrate_resets_drift_clock(self):
        cluster = ClusterEngine(
            num_shards=1, advisor=FlipAdvisor(1.0), drift_window=4
        )
        cluster.add_column("c", [0] * 10, 8, dynamism="fully_dynamic")
        for i in range(3):
            cluster.change("c", i, 0)
        assert cluster.columns["c"].updates_since_stat[0] == 3
        cluster.migrate("c")  # freshly restatted: the clock restarts
        assert cluster.columns["c"].updates_since_stat[0] == 0

    def test_migrate_backend_pin_is_recorded_and_sticks(self):
        advisor = FlipAdvisor(threshold=1.0)
        cluster = ClusterEngine(
            num_shards=2, advisor=advisor, drift_window=4
        )
        cluster.add_column("c", [0] * 20, 8, dynamism="fully_dynamic")
        cluster.migrate("c", backend="deletable")
        assert cluster.columns["c"].backend == "deletable"
        # Drift traffic must not silently revert the operator's pin.
        for i in range(12):
            cluster.change("c", 10 + (i % 10), i % 8)
        assert cluster.backends("c") == ["deletable", "deletable"]
        # Neither must a later advisor-driven migrate: the standing
        # pin keeps governing until a new backend is named.
        cluster.migrate("c")
        assert cluster.backends("c") == ["deletable", "deletable"]
        assert cluster.columns["c"].backend == "deletable"

    def test_add_column_rejects_out_of_alphabet_codes(self):
        # Parity with QueryEngine: static shards are re-dictionaried
        # onto local alphabets, which must not swallow a data error.
        cluster = ClusterEngine(num_shards=2)
        for dynamism in ("static", "semidynamic"):
            with pytest.raises(InvalidParameterError):
                cluster.add_column(
                    f"c_{dynamism}", [0, 1, 2, 9], 4, dynamism=dynamism
                )
            with pytest.raises(InvalidParameterError):
                cluster.add_column(
                    f"n_{dynamism}", [0, -1, 2, 3], 4, dynamism=dynamism
                )
        # Negative codes are rejected on the sigma-inference path too.
        with pytest.raises(InvalidParameterError):
            cluster.add_column("inferred", [0, 1, -1, 2])

    def test_engines_sharing_one_cache_do_not_collide(self):
        # One cache, several engines, same column names — epochs must
        # fence them.
        cache = InMemorySharedCache(64)
        one = ClusterEngine(num_shards=2, shared_cache=cache)
        one.add_column("c", [0, 1, 2, 3, 0, 1, 2, 3], 4)
        assert one.query("c", 1, 2).positions() == [1, 2, 5, 6]
        two = ClusterEngine(num_shards=2, shared_cache=cache)
        two.add_column("c", [1, 0, 3, 2, 3, 2, 1, 0], 4)
        assert two.query("c", 1, 2).positions() == [0, 3, 5, 6]

    def test_add_column_failure_unwinds(self):
        cluster = ClusterEngine(num_shards=2)
        with pytest.raises(InvalidParameterError):
            cluster.add_column(
                "c", [0, 1, 2, 9], 4, dynamism="semidynamic"
            )
        assert "c" not in cluster.columns
        # The name is reusable and the plan was not pinned to the
        # failed attempt.
        cluster.add_column("c", [0, 1, 2, 3, 1, 0], 4)
        assert cluster.query("c", 1, 1).positions() == [1, 4]

    def test_freeze_is_enforced_even_on_update_capable_backends(self):
        # A frozen column may keep an append-capable backend (the
        # advisor or a pin can land on one); the cluster-level contract
        # must still reject updates.
        cluster = ClusterEngine(num_shards=2, drift_window=None)
        cluster.add_column(
            "c", [0, 1, 2, 3], 4, dynamism="semidynamic"
        )
        cluster.migrate("c", dynamism="static", backend="appendable")
        assert cluster.backends("c") == ["appendable", "appendable"]
        with pytest.raises(UpdateError):
            cluster.append("c", 1)

    def test_migrate_rejects_unservable_backend(self):
        cluster = ClusterEngine(num_shards=2)
        cluster.add_column(
            "c", [0, 1, 2, 3], 4, dynamism="fully_dynamic"
        )
        with pytest.raises(InvalidParameterError):
            cluster.migrate("c", backend="pagh-rao")

    def test_drift_detector_migrates_online(self):
        # Start low-entropy (constant column) -> FlipAdvisor picks
        # fully-dynamic.  Hammer one shard with high-entropy changes:
        # past drift_window updates the shard restats and migrates to
        # deletable, in place, with answers staying exact throughout.
        advisor = FlipAdvisor(threshold=1.0)
        cluster = ClusterEngine(
            num_shards=2, advisor=advisor, drift_window=8
        )
        x = [0] * 40
        cluster.add_column("c", x, 8, dynamism="fully_dynamic")
        assert cluster.backends("c") == ["fully-dynamic", "fully-dynamic"]
        model = list(x)
        for i in range(16):
            pos = 20 + (i % 20)  # all routed to shard 1
            ch = i % 8
            cluster.change("c", pos, ch)
            model[pos] = ch
            assert cluster.query("c", 0, 0).positions() == brute_range(
                model, 0, 0
            )
        assert cluster.backends("c") == ["fully-dynamic", "deletable"]
        assert len(cluster.migrations) == 1
        migration = cluster.migrations[0]
        assert migration.shard_id == 1 and migration.changed
        # The untouched shard was never re-advised.
        assert cluster.shard_column("c", 0).spec.name == "fully-dynamic"

    def test_pinned_backend_disables_drift_migration(self):
        advisor = FlipAdvisor(threshold=1.0)
        cluster = ClusterEngine(
            num_shards=2, advisor=advisor, drift_window=4
        )
        cluster.add_column(
            "c", [0] * 20, 8, dynamism="fully_dynamic",
            backend="fully-dynamic",
        )
        for i in range(12):
            cluster.change("c", 10 + (i % 10), i % 8)
        assert cluster.backends("c") == ["fully-dynamic", "fully-dynamic"]
        assert cluster.migrations == []

    def test_restat_refreshes_measured_fields_only(self):
        cluster = ClusterEngine(num_shards=1, drift_window=None)
        cluster.add_column(
            "c", [0] * 32, 8, dynamism="fully_dynamic",
            expected_selectivity=0.25,
        )
        column = cluster.shard_column("c", 0)
        assert column.stats.h0 == 0.0
        for i in range(16):
            cluster.change("c", i, i % 8)
        stale = column.stats
        assert stale.h0 == 0.0  # measured once, now wrong
        fresh = column.restat()
        assert fresh.h0 > 1.5
        assert fresh.n == 32
        assert fresh.dynamism == "fully_dynamic"
        assert fresh.expected_selectivity == 0.25
        assert fresh.sigma == stale.sigma
