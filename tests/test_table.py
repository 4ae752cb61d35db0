"""Tests for the value-space Table (§1's application) over both engines.

Every behaviour that does not depend on the engine runs twice: over
the default single :class:`QueryEngine` and over a three-shard
:class:`ClusterEngine` built by :meth:`Table.sharded`.
"""

import random

import pytest

from repro.cluster import ClusterEngine
from repro.core import ApproximateResult
from repro.engine import QueryEngine
from repro.errors import (
    InvalidParameterError,
    PersistenceError,
    QueryError,
    UpdateError,
)
from repro.queries import Table
from repro.query import And, Eq, In, Not, Or, PlanReport, Range

ENGINES = {
    "engine": Table,
    "cluster": lambda columns, **kw: Table.sharded(
        columns, num_shards=3, **kw
    ),
}


@pytest.fixture(params=sorted(ENGINES))
def make(request):
    """Builds a Table over one engine kind: ``make(columns, **kw)``."""
    return ENGINES[request.param]


def people(rows=600, seed=0):
    rng = random.Random(seed)
    return {
        "age": [rng.randrange(18, 80) for _ in range(rows)],
        "sex": [rng.choice(["f", "m"]) for _ in range(rows)],
        "status": [
            rng.choice(["divorced", "married", "single", "widowed"])
            for _ in range(rows)
        ],
    }


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


def backends(table, name):
    if isinstance(table.engine, ClusterEngine):
        return table.engine.backends(name)
    return [table.engine.column(name).spec.name]


class TestExactSelect:
    def test_married_men_of_33(self, make):
        # The paper's §1 example query.
        columns = people()
        table = make(columns)
        conds = {
            "age": (33, 33),
            "sex": ("m", "m"),
            "status": ("married", "married"),
        }
        assert table.select(conjunction(conds)) == oracle(columns, conds)

    def test_range_conditions(self, make):
        columns = people(seed=1)
        table = make(columns)
        conds = {"age": (30, 45), "status": ("married", "single")}
        assert table.select(conjunction(conds)) == oracle(columns, conds)

    def test_single_condition(self, make):
        columns = people(seed=2)
        table = make(columns)
        conds = {"age": (50, 60)}
        assert table.select(conjunction(conds)) == oracle(columns, conds)

    def test_unmatched_value_range_empty(self, make):
        table = make(people(seed=3))
        assert table.select(Range("age", 200, 300)) == []

    def test_value_range_snapping(self, make):
        # Bounds need not be occurring values.
        columns = people(seed=4)
        table = make(columns)
        conds = {"age": (32.5, 45.5)}
        want = oracle(columns, {"age": (33, 45)})
        assert table.select(conjunction(conds)) == want

    def test_row_access(self, make):
        columns = people(seed=5)
        table = make(columns)
        row = table.row(7)
        assert row["age"] == columns["age"][7]
        with pytest.raises(QueryError):
            table.row(10_000)

    def test_validation(self, make):
        table = make(people(seed=6))
        with pytest.raises(QueryError):
            table.select({})
        with pytest.raises(QueryError):
            table.select(Range("nope", 0, 1))
        with pytest.raises(QueryError):
            table.column("nope")
        with pytest.raises(InvalidParameterError):
            make({"a": [1, 2], "b": [1]})
        with pytest.raises(InvalidParameterError):
            make({})
        with pytest.raises(InvalidParameterError):
            make({"a": []})

    def test_out_of_domain_range_returns_empty(self, make):
        table = make({"v": [1, 2, 3, 4]})
        assert table.select(Range("v", 100, 200)) == []


class TestEngines:
    def test_sharded_select_matches_single_engine(self):
        rows = {
            "age": [33, 41, 33, 27, 58, 33, 41, 66, 12, 45] * 6,
            "city": list("abcabcabca") * 6,
        }
        sharded = Table.sharded(rows, num_shards=4)
        single = Table(rows)
        conds = And(Range("age", 30, 45), Range("city", "a", "b"))
        assert sharded.select(conds) == single.select(conds)
        assert sharded.row(0) == single.row(0) == {"age": 33, "city": "a"}

    def test_table_sharded_builds_a_cluster(self):
        table = Table.sharded({"v": [5, 1, 5, 2, 5]}, num_shards=2)
        assert isinstance(table, Table)
        assert isinstance(table.engine, ClusterEngine)
        assert table.engine.num_shards == 2
        assert table.select(Range("v", 5, 5)) == [0, 2, 4]
        assert isinstance(Table({"v": [1]}).engine, QueryEngine)

    def test_backend_pinning_per_column(self, make):
        rows = {"a": [1, 2, 3, 4, 5, 6], "b": [6, 5, 4, 3, 2, 1]}
        table = make(rows, backend={"a": "btree", "b": "bitmap-gamma"})
        assert set(backends(table, "a")) == {"btree"}
        assert set(backends(table, "b")) == {"bitmap-gamma"}
        pred = And(Range("a", 2, 5), Range("b", 3, 6))
        assert table.select(pred) == [1, 2, 3]
        pinned = make(rows, backend="btree")
        assert set(backends(pinned, "b")) == {"btree"}

    def test_explain_overview_column_and_predicate(self, make):
        table = make({"age": [33, 41, 27, 58, 33, 41], "city": list("abcabc")})
        overview = table.explain()
        assert isinstance(overview, str) and "2 column(s)" in overview
        per_column = table.explain("age")
        assert isinstance(per_column, str) and "'age'" in per_column
        report = table.explain(And(Range("age", 30, 40), Eq("city", "a")))
        assert isinstance(report, PlanReport)
        assert table.plan(Range("age", 30, 40)).leaves
        with pytest.raises(QueryError):
            table.explain("nope")
        with pytest.raises(QueryError):
            table.explain({})


class TestUpdates:
    def test_append_row_and_change_keep_value_mirror_in_sync(self, make):
        rows = {"v": [5, 1, 5, 2], "w": [1, 2, 3, 4]}
        table = make(rows, dynamism="semidynamic")
        rid = table.append_row({"v": 5, "w": 2})
        assert rid == 4 and table.num_rows == 5
        assert table.select(Range("v", 5, 5)) == [0, 2, 4]
        assert table.count(Eq("w", 2)) == 2
        assert table.row(4) == {"v": 5, "w": 2}
        table2 = make({"v": [5, 1, 5, 2]}, dynamism="fully_dynamic")
        table2.change("v", 1, 5)
        assert table2.select(Range("v", 5, 5)) == [0, 1, 2]
        assert table2.count_by("v") == {5: 3, 2: 1}
        assert table2.row(1) == {"v": 5}

    def test_append_row_validates_before_mutating(self, make):
        table = make({"v": [5, 1], "w": [1, 2]}, dynamism="semidynamic")
        with pytest.raises(InvalidParameterError):
            table.append_row({"v": 5})  # missing column
        with pytest.raises(QueryError):
            table.append_row({"v": 5, "w": 99})  # value outside alphabet
        static = make({"v": [5, 1]})
        with pytest.raises(UpdateError):
            static.append_row({"v": 5})
        with pytest.raises(UpdateError):
            static.change("v", 0, 1)
        # Nothing leaked into any mirror or index.
        assert table.num_rows == 2 and static.num_rows == 2
        assert table.select(Range("v", 5, 5)) == [0]
        assert static.row(0) == {"v": 5}
        with pytest.raises(QueryError):
            table.change("v", 5, 1)

    def test_sharded_split_cuts_every_column_at_one_row(self):
        # Per-column appends trip the split mid-row: "x" has 22 rows
        # when it fires, "y" 21.  Cutting each column at its own
        # midpoint left shard lengths [11, 15] vs [10, 16], and count,
        # which pairs rows by shard-local position, answered 8 where
        # select and the oracle answer 7.
        x = [3, 3, 0, 2, 3, 3, 2, 3, 2, 1, 1, 2, 1, 0, 2, 1, 2, 0, 0, 2]
        y = [3, 0, 2, 3, 2, 1, 3, 3, 2, 0, 0, 0, 3, 0, 3, 2, 1, 2, 0, 1]
        rows = [(1, 1), (1, 3), (0, 0), (2, 3), (0, 2), (2, 0)]
        table = Table.sharded(
            {"x": x, "y": y}, target_shard_rows=21, dynamism="semidynamic"
        )
        for a, b in rows:
            table.append_row({"x": a, "y": b})
        assert table.engine.splits
        lengths = table.engine.shard_lengths("x")
        assert lengths == table.engine.shard_lengths("y") == [11, 15]
        x += [a for a, _ in rows]
        y += [b for _, b in rows]
        cond = And(Range("x", 1, 2), Range("y", 0, 1))
        want = [i for i in range(26) if 1 <= x[i] <= 2 and y[i] <= 1]
        assert table.select(cond) == want
        assert table.count(cond) == len(want) == 7

    def test_single_engine_has_no_persistence(self, tmp_path):
        table = Table({"v": [5, 1, 5]}, dynamism="semidynamic")
        with pytest.raises(PersistenceError):
            table.init_persistence(str(tmp_path / "a"))
        with pytest.raises(PersistenceError):
            table.checkpoint(str(tmp_path / "b"))
        assert not any(tmp_path.iterdir())
        assert table.persist_extra()["table"]["alphabets"] == {"v": [1, 5]}


def approximate_people(rows=600, seed=0):
    columns = people(rows, seed)
    return columns, Table(columns, backend="pagh-rao-approx")


class TestApproximateSelect:
    def test_verified_equals_exact(self):
        columns, table = approximate_people(seed=1)
        conds = {
            "age": (33, 33),
            "sex": ("m", "m"),
            "status": ("married", "married"),
        }
        assert table.select_approximate(
            conjunction(conds), eps=1 / 16
        ) == oracle(columns, conds)

    def test_candidates_superset_of_truth(self):
        columns, table = approximate_people(seed=2)
        conds = {"age": (40, 42), "sex": ("f", "f")}
        truth = set(oracle(columns, conds))
        cands = set(
            table.select_approximate(conjunction(conds), eps=1 / 8, verify=False)
        )
        assert truth <= cands

    def test_requires_approximate_indexes(self):
        table = Table(people())
        with pytest.raises(QueryError):
            table.select_approximate(Range("age", 30, 31), eps=1 / 8)
        sharded = Table.sharded(
            people(), num_shards=2, backend="pagh-rao-approx"
        )
        with pytest.raises(QueryError):
            sharded.select_approximate(Range("age", 30, 31), eps=1 / 8)

    def test_only_conjunctions_of_one_column_conditions(self):
        _, table = approximate_people(seed=3)
        for bad in (
            object(),
            {"age": (30, 31)},
            Or(Eq("age", 30), Eq("sex", "m")),
            In("status", ["divorced", "single"]),
            Not(Range("age", 30, 40)),
        ):
            with pytest.raises(QueryError):
                table.select_approximate(bad, eps=1 / 8)

    def test_unsatisfiable_and_tautological_conjunctions(self):
        columns, table = approximate_people(seed=4)
        assert table.select_approximate(Range("age", 200, 300), eps=1 / 8) == []
        everyone = Range("age", None, None)
        assert table.select_approximate(everyone, eps=1 / 8) == list(
            range(len(columns["age"]))
        )

    def test_multi_dim_filtering_shrinks_candidates(self):
        # eps^(d-k) survival: more dimensions -> fewer false candidates.
        _, table = approximate_people(rows=1200, seed=3)
        one = Eq("age", 33)
        three = And(Eq("age", 33), Eq("sex", "m"), Eq("status", "married"))
        c1 = table.select_approximate(one, eps=1 / 4, verify=False)
        c3 = table.select_approximate(three, eps=1 / 4, verify=False)
        assert len(c3) <= len(c1)


# ----------------------------------------------------------------------
# At least k of d conditions (§1's approximate range search)
# ----------------------------------------------------------------------

D = 4
BOX = (10, 11)


@pytest.fixture(scope="module")
def points():
    """2000 points in 4 dimensions of 128 values, with a planted cluster
    near ``BOX``; every box condition matches ~50 rows, few enough that
    the Theorem 3 filters take the hashed path at eps = 1/4."""
    rng = random.Random(7)
    rows = [[rng.randrange(128) for _ in range(D)] for _ in range(2000)]
    for i in range(0, 2000, 97):
        rows[i] = [
            BOX[0] + rng.randrange(2) if rng.random() < 0.8 else rng.randrange(128)
            for _ in range(D)
        ]
    return {f"d{d}": [row[d] for row in rows] for d in range(D)}


def box_conditions():
    return [Range(f"d{d}", *BOX) for d in range(D)]


def inside_at_least(columns, k):
    n = len(columns["d0"])
    return [
        rid
        for rid in range(n)
        if sum(BOX[0] <= columns[c][rid] <= BOX[1] for c in columns) >= k
    ]


class TestSelectAtLeast:
    @pytest.mark.parametrize("k", range(1, D + 1))
    def test_exact_matches_brute_force(self, make, points, k):
        table = make(points)
        want = inside_at_least(points, k)
        assert table.select_at_least(k, box_conditions()) == want

    @pytest.mark.parametrize("k", range(1, D + 1))
    def test_approximate_candidates_and_verified(self, points, k):
        table = Table(points, backend="pagh-rao-approx")
        truth = inside_at_least(points, k)
        cands = table.select_at_least(k, box_conditions(), eps=1 / 4, verify=False)
        assert cands == sorted(set(cands))
        assert set(truth) <= set(cands)
        assert table.select_at_least(k, box_conditions(), eps=1 / 4) == truth

    def test_filters_take_the_hashed_path(self, points):
        table = Table(points, backend="pagh-rao-approx")
        index = table.engine.column("d0").index
        lo, hi = table.column("d0").code_range(*BOX)
        assert isinstance(index.approx_range_query(lo, hi, 1 / 4), ApproximateResult)

    def test_k_equals_d_is_the_conjunction(self, points):
        table = Table(points, backend="pagh-rao-approx")
        conds = box_conditions()
        assert table.select_at_least(D, conds, eps=1 / 4) == table.select(
            And(*conds)
        )
        assert table.select_at_least(
            D, conds, eps=1 / 4, verify=False
        ) == table.select_approximate(And(*conds), eps=1 / 4, verify=False)

    def test_conditions_that_match_nothing_or_everything(self, points):
        table = Table(points, backend="pagh-rao-approx")
        conds = [Range("d0", 500, 600), Range("d1", None, None), *box_conditions()[2:]]
        for k in range(1, D + 1):
            want = [
                rid
                for rid in range(2000)
                if 1 + sum(
                    BOX[0] <= points[c][rid] <= BOX[1] for c in ("d2", "d3")
                )
                >= k
            ]
            assert table.select_at_least(k, conds) == want
            assert table.select_at_least(k, conds, eps=1 / 4) == want

    def test_exact_mode_takes_any_predicate(self, make, points):
        table = make(points)
        conds = [Or(Eq("d0", 3), Eq("d1", 4)), Not(Range("d2", 0, 100))]
        want = [
            rid
            for rid in range(2000)
            if points["d0"][rid] == 3
            or points["d1"][rid] == 4
            or points["d2"][rid] > 100
        ]
        assert table.select_at_least(1, conds) == want

    def test_validation(self, points):
        table = Table(points, backend="pagh-rao-approx")
        conds = box_conditions()
        for k in (0, D + 1):
            with pytest.raises(QueryError):
                table.select_at_least(k, conds)
        with pytest.raises(QueryError):
            table.select_at_least(1, [])
        with pytest.raises(QueryError):
            table.select_at_least(1, Range("d0", 1, 2))
        with pytest.raises(QueryError):
            table.select_at_least(1, [And(Eq("d0", 1), Eq("d1", 2))], eps=1 / 4)
        with pytest.raises(QueryError):
            Table(points).select_at_least(1, conds, eps=1 / 4)
        with pytest.raises(QueryError):
            table.select_at_least(1, conds, eps=1.5)


class TestPredicateAlgebra:
    """The value-space algebra on Table."""

    def test_star_style_query_matches_oracle(self, make):
        columns = people(seed=10)
        table = make(columns)
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
        assert table.count(pred) == len(want)
        assert table.exists(pred) == bool(want)

    def test_open_bounds_and_missing_values(self, make):
        columns = people(seed=11)
        table = make(columns)
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

    def test_explain_returns_typed_report(self, make):
        import json

        table = make(people(seed=13))
        report = table.explain(
            And(Range("age", 30, 40), In("status", ["married", "single"]))
        )
        assert isinstance(report, PlanReport)
        assert report.kind == (
            "cluster" if isinstance(table.engine, ClusterEngine) else "engine"
        )
        json.dumps(report.to_dict())
