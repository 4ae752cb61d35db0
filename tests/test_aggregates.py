"""Aggregate execution: count/exists/count_by/topk at every layer.

The tentpole claim of the aggregate pushdown: every aggregate verb —
on a :class:`QueryEngine`, a :class:`Table`, a :class:`ClusterEngine`,
a sharded :class:`Table`, serial or worker-resident — agrees with the
brute-force oracle, and at cluster scale only *counts* cross the
shard boundary: the pushdown path never materializes a global row-id
list, which the executor's op counter and the cluster's gather
accounting prove directly.
"""

import random
import zlib
from collections import Counter

import pytest

from repro.cluster import ClusterEngine, ProcessExecutor
from repro.engine import QueryEngine
from repro.errors import InvalidParameterError, QueryError
from repro.model.distributions import uniform, zipf
from repro.queries import Table
from repro.query import And, Eq, In, Not, Or, Range

from tests.conftest import pred_oracle, random_pred


def brute_count_by(columns, group, rids):
    return dict(Counter(columns[group][rid] for rid in rids))


class TestEngineAggregates:
    """Code-space aggregates on the single-process engine."""

    def make(self):
        engine = QueryEngine()
        rng = random.Random(5)
        engine.add_column(
            "a", [rng.randrange(10) for _ in range(200)], 10
        )
        engine.add_column("b", [rng.randrange(6) for _ in range(200)], 6)
        return engine

    def columns_of(self, engine):
        return {
            name: list(col.codes) for name, col in engine.columns.items()
        }

    def test_random_asts_match_select(self):
        engine = self.make()
        columns = self.columns_of(engine)
        domains = {name: sorted(set(v)) for name, v in columns.items()}
        rng = random.Random(31)
        for _ in range(30):
            pred = random_pred(rng, domains, depth=3)
            want = pred_oracle(pred, columns)
            assert engine.count(pred) == len(want)
            assert engine.exists(pred) == bool(want)
            assert engine.count_by("b", pred) == brute_count_by(
                columns, "b", want
            )

    def test_count_by_without_predicate_is_the_histogram(self):
        engine = self.make()
        columns = self.columns_of(engine)
        assert engine.count_by("b") == dict(Counter(columns["b"]))

    def test_group_column_absent_from_predicate(self):
        # The universe must widen to include the group column even
        # when the predicate never mentions it.
        engine = self.make()
        columns = self.columns_of(engine)
        pred = Range("a", 0, 4)
        want = pred_oracle(pred, columns)
        assert engine.count_by("b", pred) == brute_count_by(
            columns, "b", want
        )

    def test_topk_orders_by_count_then_code(self):
        engine = QueryEngine()
        engine.add_column("g", [2, 2, 0, 0, 1], 3)
        assert engine.topk("g") == [(0, 2), (2, 2), (1, 1)]
        assert engine.topk("g", k=1) == [(0, 2)]
        with pytest.raises(InvalidParameterError):
            engine.topk("g", k=0)

    def test_aggregates_reject_unknown_columns(self):
        engine = self.make()
        with pytest.raises(QueryError):
            engine.count(Range("zzz", 0, 1))
        with pytest.raises(QueryError):
            engine.count_by("zzz")


class TestTableAggregates:
    """Value-space aggregates, advisor-picked and pinned."""

    def data(self):
        rng = random.Random(17)
        return {
            "city": [rng.choice(["ams", "cph", "rio"]) for _ in range(120)],
            "score": [rng.randrange(20) for _ in range(120)],
        }

    def tables(self):
        columns = self.data()
        yield columns, Table(columns)
        yield columns, Table(columns, backend="bitmap-plain")

    def test_aggregates_match_select(self):
        for columns, table in self.tables():
            domains = {k: sorted(set(v)) for k, v in columns.items()}
            rng = random.Random(zlib.crc32(b"table-agg"))
            for _ in range(15):
                pred = random_pred(rng, {"score": domains["score"]}, depth=3)
                want = pred_oracle(pred, columns)
                assert table.count(pred) == len(want)
                assert table.exists(pred) == bool(want)
                assert table.count_by("city", pred) == brute_count_by(
                    columns, "city", want
                )

    def test_count_by_speaks_values(self):
        for columns, table in self.tables():
            assert table.count_by("city") == dict(Counter(columns["city"]))

    def test_topk_tie_breaks_by_value_order(self):
        table = Table({"g": ["b", "b", "a", "a", "c"]})
        assert table.topk("g") == [("a", 2), ("b", 2), ("c", 1)]
        assert table.topk("g", k=2) == [("a", 2), ("b", 2)]
        with pytest.raises(InvalidParameterError):
            table.topk("g", k=-1)

    def test_count_rejects_non_predicate_conditions(self):
        _, table = next(self.tables())
        with pytest.raises(QueryError):
            table.count_by("city", "score > 3")


class TestClusterAggregates:
    """Scatter-fold aggregates against the single-engine truth."""

    def build(self, num_shards, dynamism="static"):
        rng = random.Random(num_shards * 100 + 7)
        columns = {
            "city": [rng.choice(["ams", "cph", "rio"]) for _ in range(150)],
            "score": [rng.randrange(16) for _ in range(150)],
        }
        table = Table.sharded(
            columns, num_shards=num_shards, dynamism=dynamism
        )
        return columns, table

    @pytest.mark.parametrize("num_shards", [1, 2, 7])
    def test_sharded_aggregates_match_oracle(self, num_shards):
        columns, table = self.build(num_shards)
        domains = {k: sorted(set(v)) for k, v in columns.items()}
        rng = random.Random(zlib.crc32(f"shard-agg:{num_shards}".encode()))
        for _ in range(12):
            pred = random_pred(rng, {"score": domains["score"]}, depth=3)
            want = pred_oracle(pred, columns)
            assert table.count(pred) == len(want)
            assert table.exists(pred) == bool(want)
            assert table.count_by("city", pred) == brute_count_by(
                columns, "city", want
            )
        assert table.count_by("city") == dict(Counter(columns["city"]))
        assert table.topk("city", k=2) == Table(columns).topk("city", k=2)

    def test_pruned_not_counts_whole_shards(self):
        # "rare" occurs only in the first rows, so on every other
        # shard the Not's inner leaf prunes away entirely —
        # specialization must constant-fold Not(EMPTY) into ALL and
        # count every row of those shards, not skip them.
        values = ["rare"] * 3 + ["common"] * 97
        table = Table.sharded({"c": values}, num_shards=4)
        assert table.count(Not(Eq("c", "rare"))) == 97
        assert table.count(Eq("c", "rare")) == 3
        assert table.exists(Not(Eq("c", "rare")))

    def test_unsatisfiable_predicates_skip_the_scatter(self):
        columns, table = self.build(3)
        io_before = table.engine.scatter_io.snapshot()
        assert table.count(In("score", [])) == 0
        assert not table.exists(In("score", []))
        assert table.count_by("city", In("score", [])) == {}
        # Every shard's plan folded to EMPTY at the coordinator: no
        # scatter round trips, no index bits.
        assert (
            table.engine.scatter_io.snapshot() - io_before
        ).total == 0

    def test_tautologies_answer_from_shard_metadata(self):
        columns, table = self.build(3)
        io_before = table.engine.scatter_io.snapshot()
        n = len(columns["score"])
        assert table.count(Range("score", None, None)) == n
        assert table.exists(Range("score", None, None))
        assert (
            table.engine.scatter_io.snapshot() - io_before
        ).total == 0

    def test_dynamic_columns_aggregate_after_appends(self):
        columns, table = self.build(2, dynamism="semidynamic")
        for i in range(20):
            row = {
                "city": columns["city"][i * 3 % 150],
                "score": columns["score"][i * 7 % 150],
            }
            table.append_row(row)
            for name in columns:
                columns[name].append(row[name])
        pred = Range("score", 4, 11)
        want = pred_oracle(pred, columns)
        assert table.count(pred) == len(want)
        assert table.count_by("city", pred) == brute_count_by(
            columns, "city", want
        )

    def test_cluster_engine_code_space_aggregates(self):
        cluster = ClusterEngine(num_shards=3)
        x = uniform(90, 8, seed=3)
        g = zipf(90, 5, theta=1.1, seed=4)
        cluster.add_column("c", x, 8)
        cluster.add_column("g", g, 5)
        pred = Or(Range("c", 0, 2), Not(Range("c", 0, 6)))
        want = pred_oracle(pred, {"c": x, "g": g})
        assert cluster.count(pred) == len(want)
        assert cluster.exists(pred) == bool(want)
        assert cluster.count_by("g", pred) == brute_count_by(
            {"c": x, "g": g}, "g", want
        )
        assert cluster.count_by("g") == dict(Counter(g))
        with pytest.raises(InvalidParameterError):
            cluster.topk("g", k=0)


@pytest.fixture(scope="module")
def agg_pool():
    with ProcessExecutor(max_workers=2) as pool:
        yield pool


class TestAggregatePushdownAccounting:
    """The acceptance claim: no global RID list crosses a pipe.

    ``ProcessExecutor.op_counts`` records which worker ops ran and
    ``ClusterEngine.gather_rids`` counts every position a scatter
    reply delivered to the coordinator.  Aggregates must move the
    former only through ``fold`` and the latter not at all.
    """

    def build(self, pool):
        rng = random.Random(99)
        columns = {
            "city": [rng.choice(["ams", "cph", "rio"]) for _ in range(160)],
            "score": [rng.randrange(12) for _ in range(160)],
        }
        serial = Table.sharded(dict(columns), num_shards=2)
        resident = Table.sharded(dict(columns), num_shards=2, executor=pool)
        return columns, serial, resident

    def test_resident_aggregates_ship_counts_not_rids(self, agg_pool):
        columns, serial, resident = self.build(agg_pool)
        pred = Or(Range("score", 0, 3), Not(Range("score", 0, 9)))
        want = pred_oracle(pred, columns)

        agg_pool.op_counts.clear()
        rids_before = resident.engine.gather_rids
        assert resident.count(pred) == len(want)
        assert resident.exists(pred) == bool(want)
        assert resident.count_by("city", pred) == brute_count_by(
            columns, "city", want
        )
        # Only fold ops crossed the pipes, and not a single row id
        # came back: shards answered in cardinality space.
        assert set(agg_pool.op_counts) == {"fold"}
        assert resident.engine.gather_rids == rids_before

        # A select over the same predicate *does* gather positions —
        # the counter is live, the aggregate path simply never feeds
        # it.
        assert resident.select(pred) == want
        assert resident.engine.gather_rids > rids_before

    def test_resident_and_serial_fold_io_agree(self, agg_pool):
        columns, serial, resident = self.build(agg_pool)
        preds = [
            Range("score", 2, 7),
            Not(Eq("city", "rio")),
            And(Range("score", 0, 8), Or(Eq("city", "ams"), Eq("city", "cph"))),
        ]
        for pred in preds:
            assert serial.count(pred) == resident.count(pred)
            assert serial.exists(pred) == resident.exists(pred)
            assert serial.count_by("city", pred) == resident.count_by(
                "city", pred
            )
        # The worker-resident fold reads exactly the bits the serial
        # fold reads: pushdown buys transfer, never accounting slack.
        assert (
            serial.engine.scatter_io.snapshot()
            == resident.engine.scatter_io.snapshot()
        )

    def test_fully_pruned_not_answers_at_the_coordinator(self, agg_pool):
        values = ["rare"] * 2 + ["common"] * 98
        resident = Table.sharded(
            {"c": values}, num_shards=2, executor=agg_pool
        )
        # Both shards hold only indexed codes; Eq on a value no shard's
        # range can serve prunes everywhere, so Not folds to ALL on
        # every shard and count/exists come straight from shard row
        # counts — zero fold round trips.
        agg_pool.op_counts.clear()
        assert resident.count(Not(In("c", []))) == 100
        assert resident.exists(Not(In("c", [])))
        assert agg_pool.op_counts.get("fold", 0) == 0


def _updatable(kind, pool=None):
    """Columns ``x`` and ``g`` (sigma 8; ``g`` never holds 5-7, and
    holds 4 in exactly one row) on the engine kind under test."""
    rng = random.Random(41)
    columns = {
        "x": [rng.randrange(8) for _ in range(120)],
        "g": [rng.randrange(4) for _ in range(120)],
    }
    columns["g"][17] = 4
    if kind == "engine":
        engine = QueryEngine()
    else:
        engine = ClusterEngine(num_shards=3, executor=pool)
    for name, codes in columns.items():
        engine.add_column(name, codes, 8, dynamism="fully_dynamic")
    return columns, engine


class TestCountByTracksWrites:
    """A group code that appears or vanishes after a ``count_by``.

    The group codes a fold visits are memoized per column version: a
    stale memo would miss a never-seen code appended after the first
    ``count_by``.
    """

    def check(self, engine, columns):
        pred = Range("x", 0, 5)
        want = brute_count_by(columns, "g", pred_oracle(pred, columns))
        assert engine.count_by("g", pred) == want
        assert engine.count_by("g") == dict(Counter(columns["g"]))
        assert engine.topk("g", pred, 3) == sorted(
            want.items(), key=lambda kv: (-kv[1], kv[0])
        )[:3]

    def exercise(self, engine, columns):
        self.check(engine, columns)
        for name, code in (("x", 1), ("g", 6)):
            engine.append(name, code)
            columns[name].append(code)
        self.check(engine, columns)
        assert engine.count_by("g")[6] == 1
        engine.change("g", 17, 0)
        columns["g"][17] = 0
        self.check(engine, columns)
        assert 4 not in engine.count_by("g")

    @pytest.mark.parametrize("kind", ["engine", "serial"])
    def test_local(self, kind):
        columns, engine = _updatable(kind)
        self.exercise(engine, columns)

    def test_one_worker_process_cluster(self):
        with ProcessExecutor(max_workers=1) as pool:
            columns, engine = _updatable("process", pool)
            try:
                self.exercise(engine, columns)
            finally:
                engine.close()


@pytest.mark.parametrize("mode", ["count", "exists", "select", "count_by"])
def test_fold_io_is_the_sum_of_its_leaf_reads(mode):
    """A shard fold measures each read column's device delta over the
    whole fold; on a cold engine that equals ``query_measured`` summed
    over the leaves the fold fetched, in the same order.  The plan reads
    both columns, the group column included, so a delta missing a
    column, or counting one twice, would differ."""
    from repro.cluster.worker import fold_shard
    from repro.iomodel.stats import Snapshot
    from repro.query import compile_pred

    def cold():
        rng = random.Random(23)
        engine = QueryEngine()
        engine.add_column("x", [rng.randrange(16) for _ in range(300)], 16)
        engine.add_column("g", [rng.randrange(6) for _ in range(300)], 6)
        return engine

    engine = cold()
    columns = {name: list(col.codes) for name, col in engine.columns.items()}
    pred = Or(
        And(Range("x", 2, 9), Not(Eq("g", 1))),
        And(Range("x", 12, 14), Eq("g", 3)),
    )
    plan = compile_pred(pred, lambda name: engine.column(name).sigma)
    assert len(plan.leaves) == 4
    group = "g" if mode == "count_by" else None
    payload = (mode, ("g", "x"), plan.leaves, plan.root, group)
    seen = []
    query = engine.query

    def recording(name, lo=None, hi=None):
        seen.append((name, lo, hi))
        return query(name, lo, hi)

    engine.query = recording
    value, io, span = fold_shard(engine, 0, payload, None, None, "fold")
    rows = pred_oracle(pred, columns)
    assert rows and span is None
    assert value == {
        "count": len(rows),
        "exists": True,
        "select": rows,
        "count_by": brute_count_by(columns, "g", rows),
    }[mode]
    if mode == "count_by":
        codes = engine.column("g").distinct_codes()
        assert seen[-len(codes):] == [("g", c, c) for c in codes]

    replay = cold()
    total = Snapshot()
    for leaf in seen:
        total = total + replay.query_measured(*leaf)[1]
    assert io.bits_read > 0
    assert io == total
