"""Tests for the general §1 query families on the value-space Table:
at-least-k, partial match, and boolean expression plans."""

import random

import pytest

from repro.errors import InvalidParameterError, QueryError
from repro.queries import Table
from repro.query import And, Not, Or, Range

D = 4
N = 800
SIGMA = 16
NAMES = [f"d{d}" for d in range(D)]


@pytest.fixture(scope="module")
def data():
    rng = random.Random(3)
    points = [[rng.randrange(SIGMA) for _ in range(D)] for _ in range(N)]
    columns = {NAMES[d]: [points[i][d] for i in range(N)] for d in range(D)}
    exact = {
        "engine": Table(columns),
        "cluster": Table.sharded(columns, num_shards=3),
    }
    approx = Table(columns, backend="pagh-rao-approx")
    return points, exact, approx


@pytest.fixture(params=["engine", "cluster"])
def engine_kind(request):
    return request.param


BOX = [(3, 7), (2, 9), (5, 12), (0, 4)]


def box(dims=range(D)):
    return [Range(NAMES[d], *BOX[d]) for d in dims]


def dims_inside(points, i):
    return sum(1 for d in range(D) if BOX[d][0] <= points[i][d] <= BOX[d][1])


class TestAtLeastK:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_exact_matches_brute_force(self, data, engine_kind, k):
        points, exact, _ = data
        want = [i for i in range(N) if dims_inside(points, i) >= k]
        assert exact[engine_kind].select_at_least(k, box()) == want

    @pytest.mark.parametrize("k", [2, 4])
    def test_approximate_is_superset(self, data, k):
        points, _, approx = data
        want = set(i for i in range(N) if dims_inside(points, i) >= k)
        got = approx.select_at_least(k, box(), eps=1 / 8, verify=False)
        assert want <= set(got)

    def test_k_equals_d_is_intersection(self, data, engine_kind):
        points, exact, _ = data
        got = exact[engine_kind].select_at_least(D, box())
        want = [i for i in range(N) if dims_inside(points, i) == D]
        assert got == want
        assert exact[engine_kind].select(And(*box())) == want

    def test_validation(self, data, engine_kind):
        _, exact, approx = data
        table = exact[engine_kind]
        with pytest.raises(QueryError):
            table.select_at_least(0, box())
        with pytest.raises(QueryError):
            table.select_at_least(D + 1, box())
        with pytest.raises(QueryError):
            table.select_at_least(3, box([0, 1]))
        with pytest.raises(QueryError):
            table.select_at_least(1, box(), eps=1 / 8)  # exact columns


class TestPartialMatch:
    def test_exact_subset_of_dims(self, data, engine_kind):
        points, exact, _ = data
        dims = [0, 2]
        want = [
            i
            for i in range(N)
            if all(BOX[d][0] <= points[i][d] <= BOX[d][1] for d in dims)
        ]
        assert exact[engine_kind].select(And(*box(dims))) == want

    def test_single_dimension(self, data, engine_kind):
        points, exact, _ = data
        got = exact[engine_kind].select(Range("d1", 4, 4))
        want = [i for i in range(N) if points[i][1] == 4]
        assert got == want

    def test_approximate_superset(self, data):
        points, _, approx = data
        dims = [0, 1, 3]
        want = {
            i
            for i in range(N)
            if all(BOX[d][0] <= points[i][d] <= BOX[d][1] for d in dims)
        }
        got = approx.select_approximate(And(*box(dims)), eps=1 / 8, verify=False)
        assert want <= set(got)
        assert approx.select_approximate(And(*box(dims)), eps=1 / 8) == sorted(
            want
        )

    def test_validation(self, data, engine_kind):
        _, exact, _ = data
        with pytest.raises(InvalidParameterError):
            exact[engine_kind].select(And())  # no dimension chosen
        with pytest.raises(QueryError):
            exact[engine_kind].select(Range("d5", 0, 1))


class TestExpressions:
    def brute(self, points, predicate):
        return [i for i in range(N) if predicate(points[i])]

    def test_and(self, data, engine_kind):
        points, exact, _ = data
        expr = And(Range("d0", 3, 7), Range("d1", 2, 9))
        want = self.brute(points, lambda p: 3 <= p[0] <= 7 and 2 <= p[1] <= 9)
        assert exact[engine_kind].select(expr) == want

    def test_or(self, data, engine_kind):
        points, exact, _ = data
        expr = Or(Range("d0", 0, 1), Range("d2", 14, 15))
        want = self.brute(points, lambda p: p[0] <= 1 or p[2] >= 14)
        assert exact[engine_kind].select(expr) == want

    def test_not(self, data, engine_kind):
        points, exact, _ = data
        expr = Not(Range("d3", 0, 7))
        want = self.brute(points, lambda p: not (p[3] <= 7))
        assert exact[engine_kind].select(expr) == want

    def test_nested(self, data, engine_kind):
        points, exact, _ = data
        # (d0 in [3,7] AND NOT d1 in [0,4]) OR d2 == 9
        expr = Or(
            And(Range("d0", 3, 7), Not(Range("d1", 0, 4))),
            Range("d2", 9, 9),
        )
        want = self.brute(
            points,
            lambda p: (3 <= p[0] <= 7 and not p[1] <= 4) or p[2] == 9,
        )
        assert exact[engine_kind].select(expr) == want

    def test_de_morgan(self, data, engine_kind):
        # NOT(a OR b) == NOT a AND NOT b — through the planner.
        _, exact, _ = data
        a, b = Range("d0", 2, 5), Range("d1", 8, 12)
        left = exact[engine_kind].select(Not(Or(a, b)))
        right = exact[engine_kind].select(And(Not(a), Not(b)))
        assert left == right

    def test_validation(self, data, engine_kind):
        _, exact, _ = data
        table = exact[engine_kind]
        with pytest.raises(InvalidParameterError):
            table.select(And())
        with pytest.raises(InvalidParameterError):
            table.select(Or())
        with pytest.raises(QueryError):
            table.select(Range("d9", 0, 1))
        with pytest.raises(QueryError):
            table.select("nope")
