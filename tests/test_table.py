"""Tests for the RID-intersection query layer (§1's application)."""

import random

import pytest

from repro.errors import InvalidParameterError, QueryError
from repro.queries import Table, approximate_factory
from repro.query import And, Range


def people_table(rows=600, seed=0, factory=None):
    rng = random.Random(seed)
    columns = {
        "age": [rng.randrange(18, 80) for _ in range(rows)],
        "sex": [rng.choice(["f", "m"]) for _ in range(rows)],
        "status": [
            rng.choice(["divorced", "married", "single", "widowed"])
            for _ in range(rows)
        ],
    }
    if factory is None:
        return columns, Table(columns)
    return columns, Table(columns, factory=factory)


def oracle(columns, conditions):
    rows = len(next(iter(columns.values())))
    out = []
    for rid in range(rows):
        if all(lo <= columns[c][rid] <= hi for c, (lo, hi) in conditions.items()):
            out.append(rid)
    return out


def conjunction(conditions):
    """The predicate an oracle's ``{column: (lo, hi)}`` conditions mean."""
    return And(*(Range(c, lo, hi) for c, (lo, hi) in conditions.items()))


class TestExactSelect:
    def test_married_men_of_33(self):
        # The paper's §1 example query.
        columns, table = people_table()
        conds = {
            "age": (33, 33),
            "sex": ("m", "m"),
            "status": ("married", "married"),
        }
        assert table.select(conjunction(conds)) == oracle(columns, conds)

    def test_range_conditions(self):
        columns, table = people_table(seed=1)
        conds = {"age": (30, 45), "status": ("married", "single")}
        assert table.select(conjunction(conds)) == oracle(columns, conds)

    def test_single_condition(self):
        columns, table = people_table(seed=2)
        conds = {"age": (50, 60)}
        assert table.select(conjunction(conds)) == oracle(columns, conds)

    def test_unmatched_value_range_empty(self):
        columns, table = people_table(seed=3)
        assert table.select(Range("age", 200, 300)) == []

    def test_value_range_snapping(self):
        # Bounds need not be occurring values.
        columns, table = people_table(seed=4)
        conds = {"age": (32.5, 45.5)}
        want = oracle(columns, {"age": (33, 45)})
        assert table.select(conjunction(conds)) == want

    def test_row_access(self):
        columns, table = people_table(seed=5)
        row = table.row(7)
        assert row["age"] == columns["age"][7]
        with pytest.raises(QueryError):
            table.row(10_000)

    def test_validation(self):
        columns, table = people_table(seed=6)
        with pytest.raises(QueryError):
            table.select({})
        with pytest.raises(QueryError):
            table.select(Range("nope", 0, 1))
        with pytest.raises(InvalidParameterError):
            Table({"a": [1, 2], "b": [1]})
        with pytest.raises(InvalidParameterError):
            Table({})


class TestApproximateSelect:
    def test_verified_equals_exact(self):
        columns, table = people_table(factory=approximate_factory(seed=1))
        conds = {
            "age": (33, 33),
            "sex": ("m", "m"),
            "status": ("married", "married"),
        }
        assert table.select_approximate(conds, eps=1 / 16) == oracle(
            columns, conds
        )

    def test_candidates_superset_of_truth(self):
        columns, table = people_table(factory=approximate_factory(seed=2))
        conds = {"age": (40, 42), "sex": ("f", "f")}
        truth = set(oracle(columns, conds))
        cands = set(table.select_approximate(conds, eps=1 / 8, verify=False))
        assert truth <= cands

    def test_requires_approximate_indexes(self):
        columns, table = people_table()  # exact factory
        with pytest.raises(QueryError):
            table.select_approximate({"age": (30, 31)}, eps=1 / 8)

    def test_multi_dim_filtering_shrinks_candidates(self):
        # eps^(d-k) survival: more dimensions -> fewer false candidates.
        columns, table = people_table(rows=1200, factory=approximate_factory(seed=3))
        one = {"age": (33, 33)}
        three = {
            "age": (33, 33),
            "sex": ("m", "m"),
            "status": ("married", "married"),
        }
        c1 = table.select_approximate(one, eps=1 / 4, verify=False)
        c3 = table.select_approximate(three, eps=1 / 4, verify=False)
        assert len(c3) <= len(c1)


class TestPredicateAlgebra:
    """The value-space algebra on Table."""

    def test_star_style_query_matches_oracle(self):
        from repro.query import And, Eq, In, Not, Or, Range

        columns, table = people_table(seed=10)
        pred = And(
            Range("age", 30, 45),
            Or(In("status", ["married", "widowed"]), Eq("sex", "f")),
            Not(Eq("status", "divorced")),
        )
        want = [
            rid
            for rid in range(len(columns["age"]))
            if 30 <= columns["age"][rid] <= 45
            and (
                columns["status"][rid] in ("married", "widowed")
                or columns["sex"][rid] == "f"
            )
            and columns["status"][rid] != "divorced"
        ]
        assert table.select(pred) == want
        assert list(table.select_iter(pred)) == want

    def test_open_bounds_and_missing_values(self):
        from repro.query import Eq, In, Not, Range

        columns, table = people_table(seed=11)
        assert table.select(Range("age", 60, None)) == oracle(
            columns, {"age": (60, 10**9)}
        )
        assert table.select(Range("age", None, 25)) == oracle(
            columns, {"age": (-(10**9), 25)}
        )
        # Values that never occur: empty for Eq/In, everything for Not.
        assert table.select(Eq("status", "engaged")) == []
        assert table.select(In("age", [200, 300])) == []
        assert table.select(Not(Eq("status", "engaged"))) == list(
            range(len(columns["age"]))
        )

    def test_factory_path_serves_the_algebra_too(self):
        from repro.queries import default_factory
        from repro.query import And, Not, Range

        columns, table = people_table(seed=12, factory=default_factory)
        assert table.engine is None  # the legacy engine-less build
        pred = And(Range("age", 25, 50), Not(Range("sex", "m", "m")))
        want = [
            rid
            for rid in range(len(columns["age"]))
            if 25 <= columns["age"][rid] <= 50
            and columns["sex"][rid] != "m"
        ]
        assert table.select(pred) == want
        assert list(table.select_iter(pred)) == want

    def test_explain_returns_typed_report(self):
        import json

        from repro.query import And, In, Range
        from repro.query import PlanReport

        columns, table = people_table(seed=13)
        report = table.explain(
            And(Range("age", 30, 40), In("status", ["married", "single"]))
        )
        assert isinstance(report, PlanReport)
        assert report.kind == "engine"
        json.dumps(report.to_dict())
