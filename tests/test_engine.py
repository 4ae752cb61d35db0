"""Unit tests for the index registry, advisor, and query engine."""

import pytest

from repro.baselines import CompressedBitmapIndex
from repro.core import PaghRaoIndex, SecondaryIndex
from repro.engine import (
    Advisor,
    CostModel,
    CostProfile,
    IndexSpec,
    LRUCache,
    QueryEngine,
    WorkloadStats,
    all_specs,
    get_spec,
    specs,
)
from repro.engine import registry as registry_mod
from repro.errors import InvalidParameterError, QueryError, UpdateError
from repro.model.distributions import uniform, zipf
from repro.queries import Table
from repro.query import And, Range

from tests.conftest import brute_range


class TestRegistry:
    def test_every_spec_builds_a_secondary_index(self):
        x = uniform(64, 8, seed=0)
        for spec in all_specs():
            idx = spec.build(x, 8)
            assert isinstance(idx, SecondaryIndex)
            assert idx.n == 64 and idx.sigma == 8

    def test_known_members_present(self):
        names = {s.name for s in all_specs()}
        assert {"pagh-rao", "btree", "bitmap-gamma", "fully-dynamic",
                "appendable", "deletable"} <= names

    def test_get_spec_unknown(self):
        with pytest.raises(InvalidParameterError):
            get_spec("nope")

    def test_register_rejects_duplicates(self):
        spec = get_spec("pagh-rao")
        with pytest.raises(InvalidParameterError):
            registry_mod.register(spec)

    def test_specs_filters(self):
        assert all(s.family == "bitmap" for s in specs(family="bitmap"))
        assert len(specs(family="bitmap")) >= 6
        dyn = specs(dynamism="fully_dynamic")
        assert {s.name for s in dyn} == {"fully-dynamic", "deletable"}
        semi = {s.name for s in specs(dynamism="semidynamic")}
        assert "appendable" in semi and "fully-dynamic" in semi
        assert all(not s.exact for s in specs(exact=False))

    def test_serves_delete(self):
        assert get_spec("deletable").serves("fully_dynamic", True)
        assert not get_spec("fully-dynamic").serves("static", True)

    def test_cost_estimators_positive(self):
        for spec in all_specs():
            assert spec.cost.space_bits(1000, 16, 3.5) > 0
            assert spec.cost.query_cost(1000, 16, 3.5, 50) > 0


class TestWorkloadStats:
    def test_measure(self):
        stats = WorkloadStats.measure([0, 1, 1, 3])
        assert stats.n == 4 and stats.sigma == 4
        assert 0 < stats.h0 <= 2.0
        assert stats.expected_z == max(1, round(0.1 * 4))

    def test_measure_with_overrides(self):
        stats = WorkloadStats.measure(
            [0, 1], sigma=8, dynamism="semidynamic", expected_selectivity=0.5
        )
        assert stats.sigma == 8
        assert stats.dynamism == "semidynamic"
        assert stats.expected_z == 1

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            WorkloadStats(n=10, sigma=0, h0=1.0)
        with pytest.raises(InvalidParameterError):
            WorkloadStats(n=10, sigma=4, h0=1.0, expected_selectivity=0.0)
        with pytest.raises(InvalidParameterError):
            WorkloadStats(n=10, sigma=4, h0=1.0, dynamism="sometimes")


class TestAdvisor:
    def test_low_cardinality_picks_bitmap_family(self):
        # The acceptance workload: a handful of distinct values.
        x = uniform(4096, 4, seed=1)
        pick = Advisor().pick(WorkloadStats.measure(x, 4))
        assert pick.family == "bitmap"

    def test_high_entropy_picks_pagh_rao_family(self):
        # Near-maximal entropy over a large alphabet: the Theorem-2
        # structure's nH0-bounded space plus directory wins — under the
        # *analytic* estimators (the calibrated default re-weighs them;
        # see TestDefaultCalibration).
        x = uniform(4096, 512, seed=2)
        analytic = Advisor(CostModel(calibration=None))
        pick = analytic.pick(WorkloadStats.measure(x, 512))
        assert pick.family == "pagh-rao"

    def test_dynamism_constrains_candidates(self):
        x = uniform(1024, 16, seed=3)
        adv = Advisor()
        assert adv.pick(
            WorkloadStats.measure(x, 16, dynamism="fully_dynamic")
        ).name == "fully-dynamic"
        assert adv.pick(
            WorkloadStats.measure(
                x, 16, dynamism="fully_dynamic", require_delete=True
            )
        ).name == "deletable"
        semi = adv.pick(WorkloadStats.measure(x, 16, dynamism="semidynamic"))
        assert semi.dynamism in ("semidynamic", "fully_dynamic")

    def test_rank_sorted_and_exactness_filter(self):
        x = zipf(512, 32, theta=1.0, seed=4)
        stats = WorkloadStats.measure(x, 32)
        ranked = Advisor().rank(stats)
        scores = [score for _, score in ranked]
        assert scores == sorted(scores)
        assert all(spec.exact for spec, _ in ranked)
        relaxed = Advisor().rank(stats.with_(require_exact=False))
        assert len(relaxed) == len(ranked) + 1  # + pagh-rao-approx

    def test_cost_model_override_changes_verdict(self):
        # With queries essentially free, space alone decides; with
        # queries enormously weighted, query cost decides.  The two
        # models must be able to disagree on some workload.
        x = uniform(2048, 64, seed=5)
        stats = WorkloadStats.measure(x, 64)
        space_only = Advisor(CostModel(queries_per_build=0.0))
        query_mad = Advisor(CostModel(queries_per_build=1e9))
        assert space_only.pick(stats).name != query_mad.pick(stats).name

    def test_restricted_candidate_pool(self):
        x = uniform(256, 8, seed=6)
        adv = Advisor(candidates=[get_spec("btree")])
        assert adv.pick(WorkloadStats.measure(x, 8)).name == "btree"

    def test_no_eligible_backend_raises(self):
        adv = Advisor(candidates=[get_spec("pagh-rao")])
        stats = WorkloadStats(n=10, sigma=4, h0=1.0, dynamism="fully_dynamic")
        with pytest.raises(InvalidParameterError):
            adv.pick(stats)

    def test_explain_mentions_winner_and_bounds(self):
        x = uniform(512, 4, seed=7)
        stats = WorkloadStats.measure(x, 4)
        text = Advisor().explain(stats)
        winner = Advisor().pick(stats)
        assert winner.name in text
        assert "#1" in text and "H0=" in text


class TestApproximateScoring:
    """Theorem-3 backends are scored, not just filter-relaxed."""

    def stats(self, require_exact=False):
        x = uniform(4096, 256, seed=20)
        return WorkloadStats.measure(
            x, 256, expected_selectivity=0.05, require_exact=require_exact
        )

    def test_fp_rate_declared_only_for_approximate_backends(self):
        for spec in all_specs():
            if spec.exact:
                assert spec.cost.false_positive_rate == 0.0
            else:
                assert 0.0 < spec.cost.false_positive_rate < 1.0

    def test_fp_verification_traffic_raises_the_score(self):
        approx = get_spec("pagh-rao-approx")
        stats = self.stats()
        cheap = CostModel(fp_verify_bits=0.0).score(approx, stats)
        dear = CostModel(fp_verify_bits=4096.0).score(approx, stats)
        assert dear > cheap
        # Exact backends are untouched by the fp weight.
        exact = get_spec("pagh-rao")
        assert CostModel(fp_verify_bits=0.0).score(exact, stats) == (
            CostModel(fp_verify_bits=4096.0).score(exact, stats)
        )

    def test_fp_weight_can_flip_the_relaxed_verdict(self):
        # Against its exact sibling, the Theorem-3 filter's cheaper
        # O(z lg(1/eps)) reads win when verification is free; priced
        # honestly, the fp traffic hands the column back to the exact
        # structure.  Both verdicts come from *scoring* — the
        # approximate spec is eligible either way.
        pool = [get_spec("pagh-rao"), get_spec("pagh-rao-approx")]
        stats = self.stats()
        free_fp = Advisor(
            CostModel(queries_per_build=1e6, fp_verify_bits=0.0),
            candidates=pool,
        )
        paid_fp = Advisor(
            CostModel(queries_per_build=1e6, fp_verify_bits=4096.0),
            candidates=pool,
        )
        assert free_fp.pick(stats).name == "pagh-rao-approx"
        assert paid_fp.pick(stats).name == "pagh-rao"
        ranked = paid_fp.rank(stats)
        assert any(spec.name == "pagh-rao-approx" for spec, _ in ranked)

    def test_require_exact_plumbed_through_add_column(self):
        x = uniform(4096, 256, seed=21)
        engine = QueryEngine(
            advisor=Advisor(
                CostModel(queries_per_build=1e6, fp_verify_bits=0.0),
                candidates=[get_spec("pagh-rao"), get_spec("pagh-rao-approx")],
            )
        )
        col = engine.add_column(
            "c", x, 256, expected_selectivity=0.05, require_exact=False
        )
        assert col.stats.require_exact is False
        assert col.spec.name == "pagh-rao-approx"
        # Exact-by-default columns never land on the approximate spec.
        col2 = engine.add_column("c2", x, 256, expected_selectivity=0.05)
        assert col2.spec.exact


class TestCostCalibration:
    """CostModel.from_reports fits per-family weights from recorded runs."""

    def write_report(self, tmp_path, rows, name="calib"):
        from repro.bench import Report

        report = Report(name, str(tmp_path))
        report.table(
            "calibration",
            ["backend", "family", "est_bits", "measured_bits"],
            rows,
        )
        return report.save().replace(".txt", ".json")

    def test_weights_are_measured_over_estimated(self, tmp_path):
        path = self.write_report(
            tmp_path,
            [
                ["pagh-rao", "pagh-rao", 1000, 2000],
                ["appendable", "pagh-rao", 1000, 4000],
                ["bitmap-gamma", "bitmap", 2000, 1000],
            ],
        )
        model = CostModel.from_reports([path])
        assert model.family_weight("pagh-rao") == pytest.approx(3.0)
        assert model.family_weight("bitmap") == pytest.approx(0.5)
        assert model.family_weight("btree") == 1.0  # absent -> neutral

    def test_weights_scale_scores_and_can_flip_picks(self, tmp_path):
        x = uniform(4096, 512, seed=22)
        stats = WorkloadStats.measure(x, 512)
        analytic = CostModel(calibration=None)
        assert Advisor(analytic).pick(stats).family == "pagh-rao"
        path = self.write_report(
            tmp_path, [["pagh-rao", "pagh-rao", 1, 1000]]
        )
        calibrated = CostModel.from_reports([path], base=analytic)
        assert Advisor(calibrated).pick(stats).family != "pagh-rao"
        spec = get_spec("pagh-rao")
        assert calibrated.score(spec, stats) == pytest.approx(
            1000.0 * analytic.score(spec, stats)
        )

    def test_parses_fmt_thousands_commas(self, tmp_path):
        # Report.table runs cells through fmt(), which adds thousands
        # separators; from_reports must undo them.
        path = self.write_report(
            tmp_path, [["btree", "btree", 1234567, 2469134]]
        )
        model = CostModel.from_reports([path])
        assert model.family_weight("btree") == pytest.approx(2.0)

    def test_ignores_non_calibration_tables_and_keeps_base(self, tmp_path):
        from repro.bench import Report

        report = Report("other", str(tmp_path))
        report.table("unrelated", ["a", "b"], [[1, 2]])
        path = report.save().replace(".txt", ".json")
        base = CostModel(queries_per_build=7.0, calibration=None)
        model = CostModel.from_reports([path], base=base)
        assert model.family_weights == ()
        assert model.queries_per_build == 7.0

    def test_multiple_reports_accumulate(self, tmp_path):
        p1 = self.write_report(
            tmp_path, [["btree", "btree", 100, 100]], name="one"
        )
        p2 = self.write_report(
            tmp_path, [["btree", "btree", 100, 300]], name="two"
        )
        model = CostModel.from_reports([p1, p2])
        assert model.family_weight("btree") == pytest.approx(2.0)


class TestDefaultCalibration:
    """The checked-in calibration is the default cost model."""

    def test_default_model_loads_packaged_weights(self):
        from repro.engine.advisor import (
            PACKAGED_WEIGHTS_PATH,
            _parse_weights_file,
        )

        model = CostModel()
        assert model.family_weights == _parse_weights_file(
            PACKAGED_WEIGHTS_PATH
        )
        assert model.family_weights  # the package data is non-empty

    def test_kwarg_escape_hatch_yields_analytic_model(self):
        assert CostModel(calibration=None).family_weights == ()

    def test_explicit_weights_beat_calibration(self):
        model = CostModel(family_weights=(("bitmap", 2.0),))
        assert model.family_weights == (("bitmap", 2.0),)

    def test_env_escape_hatch_disables(self, monkeypatch):
        from repro.engine.advisor import CALIBRATION_ENV

        monkeypatch.setenv(CALIBRATION_ENV, "off")
        assert CostModel().family_weights == ()

    def test_env_and_kwarg_paths_load_files(self, tmp_path, monkeypatch):
        import json

        from repro.engine.advisor import CALIBRATION_ENV

        path = tmp_path / "weights.json"
        path.write_text(json.dumps({"family_weights": {"btree": 0.25}}))
        assert CostModel(calibration=str(path)).family_weights == (
            ("btree", 0.25),
        )
        monkeypatch.setenv(CALIBRATION_ENV, str(path))
        assert CostModel().family_weights == (("btree", 0.25),)

    def test_packaged_copy_matches_benchmark_artifact(self):
        # The package data is the checked-in E11e emission; the two
        # copies must not drift apart silently.
        import json
        import os

        from repro.engine.advisor import PACKAGED_WEIGHTS_PATH

        results_copy = os.path.join(
            os.path.dirname(__file__), "..", "benchmarks", "results",
            "e11_family_weights.json",
        )
        if not os.path.exists(results_copy):
            pytest.skip("benchmarks/results artifact not present")
        with open(PACKAGED_WEIGHTS_PATH) as f:
            packaged = json.load(f)["family_weights"]
        with open(results_copy) as f:
            emitted = json.load(f)["family_weights"]
        assert packaged == emitted

    def test_calibrated_default_reranks_high_entropy(self):
        # The measured weights penalize families whose estimators
        # flattered them; the default advisor's verdict may therefore
        # differ from the analytic one — and must still be a valid,
        # eligible backend.
        x = uniform(4096, 512, seed=2)
        stats = WorkloadStats.measure(x, 512)
        pick = Advisor().pick(stats)
        assert pick.serves("static")
        ranked = Advisor().rank(stats)
        assert ranked[0][0].name == pick.name


class TestLRUCache:
    def test_hit_miss_accounting(self):
        cache = LRUCache(2)
        assert cache.get("a") is None
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.hits == 1 and cache.misses == 1
        assert cache.hit_rate == 0.5

    def test_eviction_order(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh a; b is now oldest
        cache.put("c", 3)
        assert "b" not in cache and "a" in cache and "c" in cache
        assert cache.evictions == 1

    def test_zero_capacity_never_stores(self):
        cache = LRUCache(0)
        cache.put("a", 1)
        assert len(cache) == 0

    def test_invalidate_predicate(self):
        cache = LRUCache(8)
        cache.put(("x", 0), 1)
        cache.put(("y", 0), 2)
        assert cache.invalidate(lambda k: k[0] == "x") == 1
        assert ("x", 0) not in cache and ("y", 0) in cache
        assert cache.invalidate() == 1
        assert len(cache) == 0


class TestQueryEngine:
    def make(self, **kw):
        # sigma must be well below n for the Pagh-Rao directory term
        # (sigma lg^2 n) to amortize; at sigma ~ n the b-tree wins.
        engine = QueryEngine(**kw)
        engine.add_column("low", uniform(2048, 4, seed=8), 4)
        engine.add_column("high", uniform(2048, 512, seed=9), 512)
        return engine

    def test_plan_families_match_acceptance(self):
        # Analytic economics: the acceptance families of the raw
        # estimators (the calibrated default may re-rank "high").
        engine = self.make(cost_model=CostModel(calibration=None))
        assert engine.plan("low", 0, 1).spec.family == "bitmap"
        assert engine.plan("high", 0, 99).spec.family == "pagh-rao"

    def test_plan_reports_cache_state_without_executing(self):
        engine = self.make()
        assert engine.plan("low", 1, 2).cached is False
        engine.query("low", 1, 2)
        assert engine.plan("low", 1, 2).cached is True
        text = engine.plan("low", 1, 2).describe()
        assert "cache" in text

    def test_query_results_match_oracle_and_cache(self):
        engine = QueryEngine()
        x = uniform(500, 16, seed=10)
        engine.add_column("c", x, 16)
        first = engine.query("c", 3, 9)
        assert first.positions() == brute_range(x, 3, 9)
        again = engine.query("c", 3, 9)
        assert again is first  # served from cache
        assert engine.cache.hits == 1

    def test_select_matches_brute_force(self):
        engine = QueryEngine()
        a = uniform(600, 8, seed=11)
        b = uniform(600, 8, seed=12)
        engine.add_column("a", a, 8)
        engine.add_column("b", b, 8)
        got = engine.select(And(Range("a", 2, 5), Range("b", 0, 3)))
        want = [
            i for i in range(600) if 2 <= a[i] <= 5 and 0 <= b[i] <= 3
        ]
        assert got == want

    def test_select_iter_streams_the_same_answer(self):
        engine = QueryEngine()
        a = uniform(600, 8, seed=11)
        b = uniform(600, 8, seed=12)
        engine.add_column("a", a, 8)
        engine.add_column("b", b, 8)
        conditions = And(Range("a", 2, 5), Range("b", 0, 3))
        want = engine.select(conditions)
        assert list(engine.select_iter(conditions)) == want
        # query_iter flows through the same cache as query().
        hits = engine.cache.hits
        assert list(engine.query_iter("a", 2, 5)) == brute_range(a, 2, 5)
        assert engine.cache.hits == hits + 1
        # Early abandonment is clean: take a few, close, ask again.
        it = engine.select_iter(conditions)
        head = [next(it) for _ in range(3)]
        it.close()
        assert head == want[:3]
        assert engine.select(conditions) == want

    def test_select_requires_conditions(self):
        engine = self.make()
        with pytest.raises(QueryError):
            engine.select({})
        with pytest.raises(QueryError):
            engine.select_iter({})
        with pytest.raises(QueryError):
            engine.select_iter(Range("missing", 0, 1))  # eager validation

    def test_select_short_circuits_empty_dimension(self):
        engine = QueryEngine()
        engine.add_column("c", [1, 1, 1, 3], 4)
        assert engine.select(Range("c", 0, 0)) == []

    def test_updates_invalidate_cache(self):
        engine = QueryEngine()
        engine.add_column(
            "d", [0, 1, 2, 3, 0, 1], 4, dynamism="fully_dynamic"
        )
        before = engine.query("d", 0, 0).positions()
        assert before == [0, 4]
        engine.change("d", 1, 0)
        after = engine.query("d", 0, 0).positions()
        assert after == [0, 1, 4]
        engine.append("d", 0)
        assert engine.query("d", 0, 0).positions() == [0, 1, 4, 6]
        # Eager invalidation: no stale-version keys left behind.
        col = engine.columns["d"]
        assert all(
            key[1] == col.version for key in engine.cache._data
            if key[0] == "d"
        )

    def test_static_column_rejects_updates(self):
        engine = self.make()
        with pytest.raises(UpdateError):
            engine.append("low", 1)
        with pytest.raises(UpdateError):
            engine.change("low", 0, 1)
        with pytest.raises(UpdateError):
            engine.delete("low", 0)

    def test_delete_path(self):
        engine = QueryEngine()
        engine.add_column(
            "d", [0, 1, 2, 3], 4,
            dynamism="fully_dynamic", require_delete=True,
        )
        assert engine.columns["d"].spec.name == "deletable"
        assert engine.query("d", 1, 1).positions() == [1]
        engine.delete("d", 1)
        assert engine.query("d", 1, 1).positions() == []

    def test_delete_keeps_code_mirror_honest(self):
        engine = QueryEngine()
        codes = [0, 1, 2, 3, 0, 1, 2, 3]
        engine.add_column(
            "d", codes, 4, dynamism="fully_dynamic", require_delete=True
        )
        col = engine.columns["d"]
        engine.delete("d", 1)
        # Regression: the mirror used to keep the deleted value.
        assert col.codes[1] is None
        # Drive the backend through compaction: the mirror must follow
        # the rewritten position space and stay oracle-consistent.
        while col.index.compactions == 0:
            live = next(i for i, c in enumerate(col.codes) if c is not None)
            engine.delete("d", live)
        assert None not in col.codes
        assert len(col.codes) == col.index.n
        for lo in range(4):
            want = [i for i, c in enumerate(col.codes) if c == lo]
            assert engine.query("d", lo, lo).positions() == want

    def test_rebuild_swaps_backend_in_place(self):
        engine = QueryEngine()
        x = uniform(256, 8, seed=30)
        col = engine.add_column("c", x, 8, backend="btree")
        want = engine.query("c", 2, 5).positions()
        version = col.version
        col.rebuild(get_spec("bitmap-gamma"))
        assert col.spec.name == "bitmap-gamma"
        assert col.version == version + 1
        assert engine.query("c", 2, 5).positions() == want

    def test_rebuild_rejects_weaker_dynamism(self):
        engine = QueryEngine()
        col = engine.add_column(
            "c", [0, 1, 2, 3], 4, dynamism="fully_dynamic"
        )
        with pytest.raises(InvalidParameterError):
            col.rebuild(get_spec("pagh-rao"))

    def test_rebuild_compacts_pending_deletions(self):
        engine = QueryEngine()
        col = engine.add_column(
            "c", [3, 1, 2, 0], 4, dynamism="fully_dynamic",
            require_delete=True,
        )
        engine.delete("c", 1)
        assert col.codes[1] is None
        col.rebuild(get_spec("deletable"))
        assert col.codes == [3, 2, 0]
        assert engine.query("c", 0, 3).positions() == [0, 1, 2]

    def test_restat_after_updates(self):
        engine = QueryEngine()
        col = engine.add_column(
            "c", [0] * 64, 4, dynamism="fully_dynamic"
        )
        for i in range(32):
            engine.change("c", i, i % 4)
        assert col.stats.h0 == 0.0
        fresh = col.restat()
        assert fresh is col.stats and fresh.h0 > 0.5
        assert fresh.dynamism == "fully_dynamic" and fresh.sigma == 4

    def test_backend_pin_overrides_advisor(self):
        engine = QueryEngine()
        col = engine.add_column(
            "c", uniform(256, 4, seed=13), 4, backend="pagh-rao"
        )
        assert isinstance(col.index, PaghRaoIndex)
        with pytest.raises(InvalidParameterError):
            engine.add_column(
                "c2", [0, 1], 2, dynamism="fully_dynamic", backend="pagh-rao"
            )

    def test_column_name_rules(self):
        engine = self.make()
        with pytest.raises(InvalidParameterError):
            engine.add_column("low", [0, 1], 2)
        with pytest.raises(InvalidParameterError):
            engine.add_column("empty", [], 2)
        with pytest.raises(QueryError):
            engine.query("missing", 0, 1)

    def test_drop_column_clears_cache(self):
        engine = self.make()
        engine.query("low", 0, 1)
        engine.drop_column("low")
        assert "low" not in engine.columns
        assert all(key[0] != "low" for key in engine.cache._data)

    def test_explain_variants(self):
        engine = self.make()
        overview = engine.explain()
        assert "2 column(s)" in overview and "low" in overview
        per_column = engine.explain("high")
        assert "pagh-rao" in per_column and "#1" in per_column
        per_query = engine.explain("low", 0, 1)
        assert "low[0..1]" in per_query

    def test_advisor_and_cost_model_mutually_exclusive(self):
        with pytest.raises(InvalidParameterError):
            QueryEngine(advisor=Advisor(), cost_model=CostModel())


class TestTableIntegration:
    def test_default_table_is_engine_backed(self):
        table = Table({"age": [33, 41, 33, 27], "city": list("abca")})
        assert table.engine is not None
        assert set(table.engine.columns) == {"age", "city"}
        assert table.select(Range("age", 30, 40)) == [0, 2]

    def test_repeated_selects_hit_cache(self):
        table = Table({"v": [5, 1, 5, 2, 5]})
        table.select(Range("v", 5, 5))
        hits_before = table.engine.cache.hits
        table.select(Range("v", 5, 5))
        assert table.engine.cache.hits == hits_before + 1

    def test_explicit_factory_bypasses_engine(self):
        table = Table(
            {"v": [1, 2, 3]},
            factory=lambda codes, sigma: CompressedBitmapIndex(codes, sigma),
        )
        assert table.engine is None
        assert isinstance(table.columns["v"].index, CompressedBitmapIndex)
        assert table.select(Range("v", 2, 3)) == [1, 2]

    def test_factory_and_engine_conflict(self):
        with pytest.raises(InvalidParameterError):
            Table(
                {"v": [1]},
                factory=lambda c, s: PaghRaoIndex(c, s),
                engine=QueryEngine(),
            )

    def test_shared_engine_across_tables_rejects_name_clash(self):
        engine = QueryEngine()
        Table({"v": [1, 2]}, engine=engine)
        with pytest.raises(InvalidParameterError):
            Table({"v": [3, 4]}, engine=engine)


class TestCalibrationFeedback:
    """CostModel.load_calibrated: measured weights back into serving."""

    def test_loads_weights_json_and_validates(self, tmp_path):
        import json

        from repro.engine import CostModel
        from repro.errors import InvalidParameterError

        path = tmp_path / "weights.json"
        path.write_text(
            json.dumps({"family_weights": {"bitmap": 0.5, "btree": 2.0}})
        )
        model = CostModel.load_calibrated(str(path))
        assert model.family_weight("bitmap") == 0.5
        assert model.family_weight("btree") == 2.0
        assert model.family_weight("pagh-rao") == 1.0  # absent: neutral
        # Overrides pass through like from_reports.
        tuned = CostModel.load_calibrated(str(path), queries_per_build=8.0)
        assert tuned.queries_per_build == 8.0
        for bad in ({}, {"family_weights": {}}, {"family_weights": {"x": 0}}):
            path.write_text(json.dumps(bad))
            if bad:
                import pytest

                with pytest.raises(InvalidParameterError):
                    CostModel.load_calibrated(str(path))

    def test_tables_accept_a_cost_model(self, tmp_path):
        import json

        import pytest

        from repro.cluster import ClusterEngine, ShardedTable
        from repro.engine import CostModel
        from repro.errors import InvalidParameterError
        from repro.queries import Table

        path = tmp_path / "weights.json"
        path.write_text(json.dumps({"family_weights": {"btree": 1e-9}}))
        model = CostModel.load_calibrated(str(path))
        # A weight this extreme must actually steer the advisor.
        table = Table({"v": list(range(16)) * 4}, cost_model=model)
        assert table.columns["v"].index.__class__.__name__ == (
            "BTreeSecondaryIndex"
        )
        sharded = ShardedTable(
            {"v": list(range(16)) * 4}, num_shards=2, cost_model=model
        )
        assert sharded.cluster.backends("v") == ["btree", "btree"]
        pred = Range("v", 3, 7)
        assert sharded.select(pred) == table.select(pred)
        with pytest.raises(InvalidParameterError):
            Table({"v": [1, 2]}, cost_model=model, factory=lambda c, s: None)
        with pytest.raises(InvalidParameterError):
            ShardedTable(
                {"v": [1, 2]}, cluster=ClusterEngine(1), cost_model=model
            )
