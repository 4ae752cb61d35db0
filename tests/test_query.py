"""Unit tests for the predicate algebra, planner, and combinators.

Differential end-to-end coverage lives in ``test_conformance.py``
(random ASTs over every registry backend); this file pins the pieces:
normalization rewrites, the complement-aware set algebra, the
streaming combinators, plan compilation/dedup and the typed
PlanReport.
"""

import asyncio
import json
import random

import pytest

from repro.bits.ops import (
    complement_sorted,
    difference_aware,
    intersect_aware,
    union_aware,
    union_many,
)
from repro.cluster import ClusterEngine
from repro.core.interface import RangeResult
from repro.engine import QueryEngine
from repro.errors import InvalidParameterError, QueryError
from repro.queries import Table
from repro.query import (
    FALSE,
    TRUE,
    And,
    Eq,
    In,
    Not,
    Or,
    PlanReport,
    Pred,
    Range,
    columns_of,
    compile_pred,
    evaluate,
    evaluate_count,
    evaluate_count_by,
    evaluate_exists,
    evaluate_fetch,
    normalize,
    order_children,
    specialize,
)
from repro.serve import FrontEnd

from tests.conftest import pred_oracle, random_pred


SIGMAS = {"a": 10, "b": 6}


def norm(pred):
    return normalize(pred, SIGMAS.__getitem__)


class TestNormalization:
    def test_eq_and_in_become_interval_runs(self):
        assert norm(Eq("a", 4)) == Range("a", 4, 4)
        # {1,2,3, 7, 8} -> two maximal runs, not five point queries.
        assert norm(In("a", [8, 2, 1, 7, 3, 2])) == Or(
            Range("a", 1, 3), Range("a", 7, 8)
        )
        assert norm(In("a", [])) is FALSE
        assert norm(In("a", [99])) is FALSE  # outside the alphabet

    def test_open_bounds_clip_and_full_column_folds(self):
        assert norm(Range("a", None, 3)) == Range("a", 0, 3)
        assert norm(Range("a", 7, None)) == Range("a", 7, 9)
        assert norm(Range("a", None, None)) is TRUE
        assert norm(Range("a", -5, 99)) is TRUE
        assert norm(Range("a", 5, 3)) is FALSE

    def test_nnf_pushes_not_to_leaves(self):
        pred = Not(And(Range("a", 0, 2), Not(Range("b", 1, 2))))
        got = norm(pred)
        assert got == Or(Range("b", 1, 2), Not(Range("a", 0, 2)))

    def test_double_negation_cancels(self):
        assert norm(Not(Not(Range("a", 2, 5)))) == Range("a", 2, 5)

    def test_and_intersects_same_column_intervals(self):
        assert norm(
            And(Range("a", 0, 5), Range("a", 3, 9))
        ) == Range("a", 3, 5)
        assert norm(And(Range("a", 0, 2), Range("a", 5, 7))) is FALSE

    def test_and_resolves_same_column_negation_statically(self):
        # [1,9] minus [3,5] is residual runs — no Not leaf survives.
        got = norm(And(Range("a", 1, 9), Not(Range("a", 3, 5))))
        assert got == Or(Range("a", 1, 2), Range("a", 6, 9))
        # A conjunction of only negations stays a (cheap) Not leaf:
        # the whole-column positive folded to TRUE first.
        assert norm(
            And(Range("a", 0, None), Not(Range("a", 3, 5)))
        ) == Not(Range("a", 3, 5))
        # Subtracting everything collapses the conjunction.
        assert norm(
            And(Range("a", 3, 5), Not(Range("a", 0, None)))
        ) is FALSE

    def test_or_merges_adjacent_and_overlapping_runs(self):
        assert norm(
            Or(Range("a", 0, 2), Range("a", 3, 5), Range("a", 5, 6))
        ) == Range("a", 0, 6)

    def test_or_intersects_negated_intervals(self):
        # ~[0,4] | ~[3,8] = ~([0,4] & [3,8]) = ~[3,4]
        got = norm(Or(Not(Range("a", 0, 4)), Not(Range("a", 3, 8))))
        assert got == Not(Range("a", 3, 4))
        # Disjoint negations cover everything.
        assert norm(
            Or(Not(Range("a", 0, 2)), Not(Range("a", 5, 7)))
        ) is TRUE

    def test_merged_full_coverage_refolds_to_constants(self):
        # Runs that merge to the whole alphabet get the same TRUE/FALSE
        # fold a single full-range leaf gets — equivalent predicates
        # must stay equivalent (position-space semantics, incl. holes).
        assert norm(Or(Range("a", 0, 4), Range("a", 5, 9))) is TRUE
        assert norm(
            And(Not(Range("a", 0, 4)), Not(Range("a", 5, 9)))
        ) is FALSE
        assert norm(In("a", list(range(10)))) is TRUE

    def test_constants_fold(self):
        leaf = Range("a", 1, 2)
        assert norm(And(leaf, Range("b", 6, 9))) is FALSE  # empty leaf
        assert norm(Or(leaf, Range("a", None, None))) is TRUE
        assert norm(Not(Range("a", 20, 30))) is TRUE

    def test_canonical_order_and_dedup(self):
        a, b = Range("a", 1, 2), Range("b", 0, 3)
        assert norm(And(b, a, a)) == norm(And(a, b))
        assert norm(Or(b, a, b)) == norm(Or(a, b))

    def test_value_bounds_rejected_in_code_space(self):
        with pytest.raises(QueryError):
            norm(Range("a", "x", "y"))

    def test_operator_sugar(self):
        a, b = Range("a", 1, 2), Range("b", 0, 3)
        assert (a & b) == And(a, b)
        assert (a | b) == Or(a, b)
        assert (~a) == Not(a)

    def test_constructor_validation(self):
        with pytest.raises(InvalidParameterError):
            And()
        with pytest.raises(InvalidParameterError):
            Or()
        with pytest.raises(InvalidParameterError):
            Not("not a predicate")
        with pytest.raises(InvalidParameterError):
            Range(7, 0, 1)

    def test_columns_of_sees_through_simplification(self):
        pred = And(Range("a", 50, 60), Or(Eq("b", 1), Not(In("a", [2]))))
        assert columns_of(pred) == {"a", "b"}

    def test_equivalent_predicates_compile_identically(self):
        p1 = And(In("a", [1, 2, 7]), Not(Range("b", 2, 4)))
        p2 = And(
            Not(Range("b", 2, 4)),
            Or(Range("a", 1, 2), Range("a", 7, 7)),
        )
        plan1 = compile_pred(p1, SIGMAS.__getitem__)
        plan2 = compile_pred(p2, SIGMAS.__getitem__)
        assert plan1.normalized == plan2.normalized
        assert plan1.leaves == plan2.leaves
        assert plan1.root == plan2.root


class TestAwareAlgebra:
    """The complement-aware pair algebra against brute sets."""

    UNIVERSE = 24

    def materialize(self, stored, comp):
        if not comp:
            return set(stored)
        return set(range(self.UNIVERSE)) - set(stored)

    def pairs(self, rng):
        stored = sorted(rng.sample(range(self.UNIVERSE), rng.randrange(9)))
        return stored, rng.random() < 0.5

    def test_matches_set_algebra_on_random_pairs(self):
        rng = random.Random(7)
        for _ in range(300):
            a, ac = self.pairs(rng)
            b, bc = self.pairs(rng)
            sa, sb = self.materialize(a, ac), self.materialize(b, bc)
            for fn, want in [
                (union_aware, sa | sb),
                (intersect_aware, sa & sb),
                (difference_aware, sa - sb),
            ]:
                stored, comp = fn(a, ac, b, bc)
                assert stored == sorted(stored)
                assert self.materialize(stored, comp) == want

    def test_never_materializes_a_complement(self):
        # ~A | ~B stays complemented with a small stored list.
        stored, comp = union_aware([1], True, [1, 2], True)
        assert (stored, comp) == ([1], True)
        stored, comp = intersect_aware([5], False, [2], True)
        assert (stored, comp) == ([5], False)

    def test_union_many(self):
        assert union_many([[1, 3], [2, 3], [0]]) == [0, 1, 2, 3]
        assert union_many([]) == []


class TestEnginePredicates:
    def make(self):
        engine = QueryEngine()
        rng = random.Random(5)
        engine.add_column(
            "a", [rng.randrange(10) for _ in range(200)], 10
        )
        engine.add_column("b", [rng.randrange(6) for _ in range(200)], 6)
        return engine

    def oracle(self, engine, pred):
        columns = {
            name: list(col.codes) for name, col in engine.columns.items()
        }
        return pred_oracle(pred, columns)

    def test_random_asts_and_query_forms_agree(self):
        engine = self.make()
        columns = {
            name: sorted(set(col.codes))
            for name, col in engine.columns.items()
        }
        rng = random.Random(11)
        for _ in range(25):
            pred = random_pred(rng, columns, depth=3)
            want = self.oracle(engine, pred)
            assert engine.select(pred) == want
            assert list(engine.select_iter(pred)) == want
            assert engine.query(pred).positions() == want

    def test_disjuncts_share_cached_legs(self):
        engine = self.make()
        leaf = Range("a", 2, 4)
        engine.select(Or(And(leaf, Range("b", 0, 2)), leaf))
        hits_before = engine.cache.hits
        # The shared leaf appears once in the leaf table, so a second
        # predicate reusing it hits the same entry.
        engine.select(And(leaf, Range("b", 3, 5)))
        assert engine.cache.hits > hits_before

    def test_not_reuses_complement_representation(self):
        engine = self.make()
        result = engine.query(Not(Range("a", 7, 7)))
        # The majority answer comes back complement-represented: the
        # stored list is the sparse complement, never the O(n) answer.
        assert result.complemented
        assert len(result.stored_positions()) < result.cardinality
        assert result.positions() == self.oracle(
            engine, Not(Range("a", 7, 7))
        )

    def test_trivial_plans_read_no_index_bits(self):
        engine = self.make()
        before = engine.columns["a"].index.stats.snapshot()
        assert engine.select(Range("a", None, None)) == list(range(200))
        assert engine.select(In("a", [])) == []
        assert (
            engine.columns["a"].index.stats.snapshot() - before
        ).total == 0

    def test_full_coverage_forms_agree_under_delete_holes(self):
        # A pending-compaction hole matches TRUE (position-space
        # semantics); every predicate equivalent to the full range
        # must agree, whichever shape it arrived in.
        engine = QueryEngine()
        engine.add_column(
            "c", [0, 1, 2, 3, 0, 1], 4,
            dynamism="fully_dynamic", require_delete=True,
            backend="deletable",
        )
        engine.delete("c", 2)
        everything = list(range(6))
        assert engine.select(Range("c", 0, 3)) == everything
        assert engine.select(
            Or(Range("c", 0, 1), Range("c", 2, 3))
        ) == everything
        assert engine.select(Not(Range("c", 0, 3))) == []
        assert engine.select(
            And(Not(Range("c", 0, 1)), Not(Range("c", 2, 3)))
        ) == []

    def test_and_short_circuits_empty_leg(self):
        # The generalized §1 empty-dimension short-circuit: once a
        # conjunct is known empty, the remaining legs' indexes are
        # never read.  (And children fold in canonical column order,
        # so the empty leg's column must sort first.)
        engine = self.make()
        engine.add_column("a_gap", [0, 2] * 100, 4)  # code 1 never occurs
        b_stats = engine.columns["b"].index.stats
        before = b_stats.snapshot()
        assert engine.select(And(In("a_gap", []), Range("b", 0, 5))) == []
        assert (b_stats.snapshot() - before).total == 0  # trivial FALSE
        before = b_stats.snapshot()
        assert engine.select(
            And(Range("a_gap", 1, 1), Range("b", 0, 5))
        ) == []
        assert (b_stats.snapshot() - before).total == 0  # leg skipped

    def test_string_form_requires_both_bounds(self):
        engine = self.make()
        with pytest.raises(InvalidParameterError):
            engine.query("a")
        with pytest.raises(InvalidParameterError):
            engine.plan("a", 0)

    def test_validation(self):
        engine = self.make()
        with pytest.raises(QueryError):
            engine.select(Range("missing", 0, 1))
        with pytest.raises(QueryError):
            # Unknown columns are resolved eagerly even when
            # simplification would discard the leaf.
            engine.select(And(In("a", []), Range("missing", 0, 1)))
        with pytest.raises(InvalidParameterError):
            engine.query(Range("a", 1, 2), 0)
        with pytest.raises(QueryError):
            engine.select_iter({"a": "oops"})

    def test_misaligned_columns_serve_positive_but_not_complement(self):
        engine = self.make()
        engine.add_column(
            "grow", [0, 1] * 100, 4, dynamism="semidynamic"
        )
        engine.append("grow", 2)
        positive = And(Range("a", 0, 5), Range("grow", 0, 1))
        assert engine.select(positive) == sorted(
            set(self.oracle(engine, Range("a", 0, 5)))
            & set(i for i in range(200))
        )
        with pytest.raises(QueryError):
            engine.select(And(Range("a", 0, 5), Not(Range("grow", 2, 2))))

    def test_plan_report_round_trips_json(self):
        engine = self.make()
        pred = And(In("a", [1, 2, 7]), Not(Range("b", 2, 4)))
        report = engine.plan(pred)
        assert isinstance(report, PlanReport)
        assert report.kind == "engine" and report.universe == 200
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["kind"] == "engine"
        assert len(payload["leaves"]) == len(report.leaves) == 3
        assert all(leaf["backend"] for leaf in payload["leaves"])
        assert report.estimated_total_bits > 0
        # explain(pred) returns the same typed report; str() renders.
        assert engine.explain(pred) == report
        assert "and" in str(report) and "not" in str(report)
        # Serving the predicate flips the cache state in a fresh plan.
        engine.select(pred)
        served = engine.plan(pred)
        assert all(leaf.cached for leaf in served.leaves)
        assert served.estimated_total_bits == 0.0


# ----------------------------------------------------------------------
# Leaf alignment (the symmetric universe check)
# ----------------------------------------------------------------------


class TestLeafAlignment:
    """Regression: a leaf universe *smaller* than the plan's used to
    pass unvalidated for non-complemented results; now the check is
    symmetric under Not/TRUE and positive plans explicitly re-anchor.
    """

    def _needs_universe_plan(self):
        return compile_pred(
            And(Range("a", 0, 3), Not(Range("b", 0, 1))),
            SIGMAS.__getitem__,
        )

    def test_evaluate_rejects_smaller_leaf_universe_under_not(self):
        plan = self._needs_universe_plan()
        results = [RangeResult([0, 1], 10), RangeResult([2], 8)]
        with pytest.raises(QueryError):
            evaluate(plan, results, 10)

    def test_evaluate_fetch_rejects_smaller_leaf_universe_under_not(self):
        plan = self._needs_universe_plan()

        def fetch(col, lo, hi):
            return RangeResult([0], 10 if col == "a" else 8)

        with pytest.raises(QueryError):
            evaluate_fetch(plan, fetch, 10)

    def test_larger_leaf_universe_always_rejected(self):
        plan = compile_pred(
            And(Range("a", 0, 3), Range("b", 0, 1)), SIGMAS.__getitem__
        )
        results = [RangeResult([0], 10), RangeResult([1], 12)]
        with pytest.raises(QueryError):
            evaluate(plan, results, 10)

    def test_positive_plans_reanchor_smaller_leaves(self):
        plan = compile_pred(
            And(Range("a", 0, 3), Range("b", 0, 1)), SIGMAS.__getitem__
        )
        # A drifted plain leaf passes through (its positions are
        # already global); a drifted *complemented* leaf expands
        # against its own universe before entering the algebra.
        results = [RangeResult([1, 5, 9], 10), RangeResult([1, 5], 8)]
        assert evaluate(plan, results, 10).positions() == [1, 5]
        results = [
            RangeResult([1, 5, 9], 10),
            RangeResult([0], 8, complemented=True),  # = 1..7 of 8
        ]
        assert evaluate(plan, results, 10).positions() == [1, 5]


# ----------------------------------------------------------------------
# Cost-based And ordering
# ----------------------------------------------------------------------


class TestCostOrderedAnd:
    def _plan(self):
        # Leaf table (sorted): ("a", 0, 3) = 0, ("b", 4, 5) = 1.
        return compile_pred(
            And(Range("a", 0, 3), Range("b", 4, 5)), SIGMAS.__getitem__
        )

    def _recording_fetch(self, fetched):
        def fetch(col, lo, hi):
            fetched.append(col)
            if col == "b":
                return RangeResult([], 10)
            return RangeResult([0, 1], 10)

        return fetch

    def test_canonical_order_without_costs(self):
        fetched = []
        evaluate_fetch(self._plan(), self._recording_fetch(fetched), 10)
        assert fetched == ["a", "b"]

    def test_cheap_empty_leg_first_skips_expensive(self):
        fetched = []
        result = evaluate_fetch(
            self._plan(),
            self._recording_fetch(fetched),
            10,
            leaf_costs=[100.0, 1.0],
        )
        assert fetched == ["b"]  # cheap leg first, empty, "a" skipped
        assert result.positions() == []

    def test_equal_costs_keep_canonical_order(self):
        children = (("leaf", 1), ("leaf", 0))
        assert order_children(children, [5.0, 5.0]) == children
        assert order_children(children, None) == children
        assert order_children(children, [5.0, 1.0]) == (
            ("leaf", 1),
            ("leaf", 0),
        )


# ----------------------------------------------------------------------
# Cardinality-space execution
# ----------------------------------------------------------------------


class TestCountingExecution:
    def _data(self):
        rng = random.Random(23)
        cols = {
            "a": [rng.randrange(10) for _ in range(60)],
            "b": [rng.randrange(6) for _ in range(60)],
        }

        def fetch(col, lo, hi):
            pos = [i for i, c in enumerate(cols[col]) if lo <= c <= hi]
            return RangeResult(pos, 60)

        return cols, fetch

    def test_count_and_exists_match_materialized_random(self):
        cols, fetch = self._data()
        columns = {name: sorted(set(v)) for name, v in cols.items()}
        rng = random.Random(7)
        for _ in range(40):
            pred = random_pred(rng, columns, depth=3)
            plan = compile_pred(pred, SIGMAS.__getitem__)
            want = evaluate_fetch(plan, fetch, 60).positions()
            assert evaluate_count(plan, fetch, 60) == len(want)
            assert evaluate_exists(plan, fetch, 60) == bool(want)

    def test_count_by_matches_per_group_counts(self):
        cols, fetch = self._data()
        pred = Or(Range("a", 0, 4), Not(Range("b", 1, 4)))
        plan = compile_pred(pred, SIGMAS.__getitem__)
        want_rows = evaluate_fetch(plan, fetch, 60).positions()
        group_calls = []

        def group_fetch(code):
            group_calls.append(code)
            return fetch("b", code, code)

        got = evaluate_count_by(
            plan, fetch, 60, sorted(set(cols["b"])), group_fetch
        )
        from collections import Counter

        want = Counter(cols["b"][rid] for rid in want_rows)
        assert got == dict(want)
        # The predicate folded once; one group fetch per group code.
        assert group_calls == sorted(set(cols["b"]))

    def test_count_by_unsatisfiable_pred_skips_group_entirely(self):
        _, fetch = self._data()
        plan = compile_pred(In("a", []), SIGMAS.__getitem__)

        def group_fetch(code):
            raise AssertionError("group column should never be touched")

        assert evaluate_count_by(plan, fetch, 60, [0, 1], group_fetch) == {}

    def test_wide_positive_disjunction_saturates_early(self):
        # Rows 0-4 match the first leg, rows 5-9 the second; the third
        # leg exists in the plan but the fold stops the moment the
        # union's *length* reaches the universe — on the counting and
        # the select path alike.
        cols = {
            "a": [0] * 5 + [5] * 5,
            "b": [1] * 5 + [0] * 5,
            "c": [0] * 10,
        }
        sigmas = {"a": 10, "b": 6, "c": 4}

        fetched = []

        def fetch(col, lo, hi):
            fetched.append(col)
            pos = [i for i, c in enumerate(cols[col]) if lo <= c <= hi]
            return RangeResult(pos, 10)

        pred = Or(Range("a", 0, 0), Range("b", 0, 0), Eq("c", 0))
        plan = compile_pred(pred, sigmas.__getitem__)
        assert len(plan.leaves) == 3
        assert evaluate_count(plan, fetch, 10) == 10
        assert fetched == ["a", "b"]  # "c" never fetched
        fetched.clear()
        assert evaluate_fetch(plan, fetch, 10).cardinality == 10
        assert fetched == ["a", "b"]

    def test_exists_stops_at_first_nonempty_disjunct(self):
        _, fetch = self._data()
        fetched = []

        def recording(col, lo, hi):
            fetched.append((col, lo, hi))
            return fetch(col, lo, hi)

        pred = Or(Range("a", 0, 8), Range("b", 0, 4))
        plan = compile_pred(pred, SIGMAS.__getitem__)
        assert evaluate_exists(plan, recording, 60)
        assert len(fetched) == 1

    def test_exists_orders_disjuncts_by_cost(self):
        _, fetch = self._data()
        fetched = []

        def recording(col, lo, hi):
            fetched.append(col)
            return fetch(col, lo, hi)

        pred = Or(Range("a", 0, 8), Range("b", 0, 4))
        plan = compile_pred(pred, SIGMAS.__getitem__)
        # Leaf 0 = ("a", 0, 8), leaf 1 = ("b", 0, 4); make b cheaper.
        assert evaluate_exists(plan, recording, 60, leaf_costs=[9.0, 1.0])
        assert fetched == ["b"]

    def test_not_is_counted_as_a_flip(self):
        _, fetch = self._data()
        plan = compile_pred(Not(Range("a", 3, 3)), SIGMAS.__getitem__)
        inner = compile_pred(Range("a", 3, 3), SIGMAS.__getitem__)
        assert (
            evaluate_count(plan, fetch, 60)
            == 60 - evaluate_count(inner, fetch, 60)
        )


# ----------------------------------------------------------------------
# Shard specialization (plan pushdown)
# ----------------------------------------------------------------------


class TestSpecialize:
    def test_identity_translation_keeps_plan(self):
        plan = compile_pred(Not(Range("a", 2, 5)), SIGMAS.__getitem__)
        leaves, root = specialize(plan, lambda col, lo, hi: (lo, hi))
        assert leaves == (("a", 2, 5),)
        assert root == ("not", ("leaf", 0))

    def test_fully_pruned_not_becomes_all(self):
        plan = compile_pred(Not(Range("a", 2, 5)), SIGMAS.__getitem__)
        leaves, root = specialize(plan, lambda col, lo, hi: None)
        assert leaves == ()
        assert root == ("all",)

    def test_fully_pruned_positive_becomes_empty(self):
        plan = compile_pred(
            Or(Range("a", 0, 3), Range("b", 0, 1)), SIGMAS.__getitem__
        )
        leaves, root = specialize(plan, lambda col, lo, hi: None)
        assert leaves == ()
        assert root == ("empty",)

    def test_absorption_and_renumbering(self):
        pred = And(Range("a", 0, 3), Or(Range("b", 0, 1), Range("b", 4, 5)))
        plan = compile_pred(pred, SIGMAS.__getitem__)

        def tr(col, lo, hi):
            return None if (col, lo, hi) == ("b", 0, 1) else (lo, hi)

        leaves, root = specialize(plan, tr)
        # The Or collapses onto its surviving leg; the leaf table
        # compacts and the tree renumbers into it.
        assert leaves == (("a", 0, 3), ("b", 4, 5))
        assert root == ("and", (("leaf", 0), ("leaf", 1)))

    def test_translated_ranges_rewrite_leaf_bounds(self):
        plan = compile_pred(Range("a", 4, 9), SIGMAS.__getitem__)
        leaves, root = specialize(plan, lambda col, lo, hi: (1, 3))
        assert leaves == (("a", 1, 3),)
        assert root == ("leaf", 0)


# ----------------------------------------------------------------------
# Stream utilities
# ----------------------------------------------------------------------


class TestFingerprint:
    """Stable content hashes of normalized predicates and plans."""

    def fp(self, pred, epoch_of=None):
        from repro.query import fingerprint_pred

        return fingerprint_pred(
            pred, SIGMAS.__getitem__, epoch_of=epoch_of
        )

    def test_equivalent_predicates_collide(self):
        a = Range("a", 1, 3) & Range("b", 2, 4)
        b = Range("b", 2, 4) & Range("a", 1, 3)
        assert self.fp(a) == self.fp(b)
        # Double negation and De Morgan land on the same normal form.
        assert self.fp(~~a) == self.fp(a)
        c = ~(Not(Range("a", 1, 3)) | Not(Range("b", 2, 4)))
        assert self.fp(c) == self.fp(a)

    def test_adjacent_intervals_fuse_before_hashing(self):
        assert self.fp(Range("a", 1, 2) | Range("a", 3, 5)) == self.fp(
            Range("a", 1, 5)
        )
        assert self.fp(In("a", [1, 2, 3])) == self.fp(Range("a", 1, 3))
        assert self.fp(Eq("a", 4)) == self.fp(Range("a", 4, 4))

    def test_non_equivalent_predicates_differ(self):
        assert self.fp(Range("a", 1, 3)) != self.fp(Range("a", 1, 4))
        assert self.fp(Range("a", 1, 3)) != self.fp(Range("b", 1, 3))
        assert self.fp(Range("a", 1, 3)) != self.fp(~Range("a", 1, 3))
        assert self.fp(
            Range("a", 1, 3) & Range("b", 2, 4)
        ) != self.fp(Range("a", 1, 3) | Range("b", 2, 4))

    def test_method_form_matches_free_function(self):
        pred = Range("a", 1, 3) & Range("b", 2, 4)
        assert pred.fingerprint(SIGMAS.__getitem__) == self.fp(pred)

    def test_dictionary_epoch_changes_the_hash(self):
        pred = Range("a", 1, 3)
        one = self.fp(pred, epoch_of=lambda name: "epoch-1")
        two = self.fp(pred, epoch_of=lambda name: "epoch-2")
        assert one != two
        assert one != self.fp(pred)  # epoch-blind scope differs too
        # Stable across calls for the same epoch.
        assert one == self.fp(pred, epoch_of=lambda name: "epoch-1")

    def test_plan_fingerprint_tracks_equivalence(self):
        sigma_of = SIGMAS.__getitem__
        a = compile_pred(Range("a", 1, 3) & Range("b", 2, 4), sigma_of)
        b = compile_pred(Range("b", 2, 4) & Range("a", 1, 3), sigma_of)
        c = compile_pred(Range("a", 1, 3) | Range("b", 2, 4), sigma_of)
        assert a.fingerprint() == b.fingerprint()
        assert a.fingerprint() != c.fingerprint()
        assert a.fingerprint(
            epoch_of=lambda name: "x"
        ) != a.fingerprint()

    def test_fingerprint_is_plain_hex(self):
        value = self.fp(Range("a", 0, 9))
        assert isinstance(value, str) and len(value) == 32
        int(value, 16)  # raises if not hex


# ----------------------------------------------------------------------
# A {column: (lo, hi)} mapping is not a predicate, on any surface
# ----------------------------------------------------------------------

MAPPING = {"a": (0, 1)}

_SURFACE_READS = {
    "select": lambda s: s.select(MAPPING),
    "select_iter": lambda s: s.select_iter(MAPPING),
    "count": lambda s: s.count(MAPPING),
    "exists": lambda s: s.exists(MAPPING),
    "count_by": lambda s: s.count_by("a", MAPPING),
}

_FRONTEND_READS = {
    "query": lambda fe: fe.query(MAPPING),
    "select": lambda fe: fe.select(MAPPING),
    "count": lambda fe: fe.count(MAPPING),
    "exists": lambda fe: fe.exists(MAPPING),
    "count_by": lambda fe: fe.count_by("a", MAPPING),
    "topk": lambda fe: fe.topk("a", MAPPING),
}


def _surface(kind: str):
    codes = [0, 1, 2, 3] * 4
    if kind == "QueryEngine":
        engine = QueryEngine()
        engine.add_column("a", codes, 4)
        return engine
    if kind in ("ClusterEngine", "FrontEnd"):
        cluster = ClusterEngine(num_shards=2)
        cluster.add_column("a", codes, 4)
        return cluster if kind == "ClusterEngine" else FrontEnd(cluster)
    if kind == "Table":
        return Table({"a": codes})
    return Table.sharded({"a": codes}, num_shards=2)


@pytest.mark.parametrize(
    "kind, op",
    [
        (kind, op)
        for kind in ("QueryEngine", "ClusterEngine", "Table", "Table.sharded")
        for op in _SURFACE_READS
    ]
    + [("Table", "explain"), ("Table.sharded", "explain")]
    + [("FrontEnd", op) for op in _FRONTEND_READS],
)
def test_a_mapping_is_rejected_as_a_non_predicate(kind, op):
    surface = _surface(kind)
    if kind != "FrontEnd":
        read = _SURFACE_READS.get(op, lambda s: s.explain(MAPPING))
        with pytest.raises(QueryError):
            read(surface)
        return

    async def main():
        try:
            with pytest.raises(QueryError):
                await _FRONTEND_READS[op](surface)
        finally:
            await surface.close()

    asyncio.run(main())
    # Rejected before coalescing (which fingerprints the predicate)
    # and before admission.
    assert surface.admitted == 0 and surface.coalesced == 0
