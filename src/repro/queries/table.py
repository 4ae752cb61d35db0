"""Multi-attribute tables queried by RID intersection (§1, §3).

The paper's motivating application: "in a database of people we may
want to find all married men of age 33", answered by intersecting the
results of one secondary index per attribute.  This module provides

* :class:`Table` — named columns over arbitrary ordered values, each
  carrying an :class:`~repro.model.alphabet.Alphabet` and a secondary
  index (any :class:`~repro.core.interface.SecondaryIndex` factory);
* exact conjunctive range queries via sorted-list intersection;
* approximate conjunctive queries via Theorem 3: each dimension returns
  a compressed hashed filter; candidates are generated from the first
  filter's preimage and cross-checked in O(1) per dimension, so a row
  matching only ``k`` of ``d`` conditions survives with probability at
  most ``eps^(d-k)``; survivors are finally verified against the base
  table ("false positives can be filtered away when accessing the
  associated data", §1.1).
"""

from __future__ import annotations

from typing import Any, Callable, Mapping, Sequence

from ..bits.ops import intersect_many
from ..core.approximate import ApproximatePaghRaoIndex, ApproximateResult
from ..core.interface import SecondaryIndex
from ..core.static_index import PaghRaoIndex
from ..engine import QueryEngine
from ..errors import InvalidParameterError, QueryError
from ..model.alphabet import Alphabet
from ..query import (
    Pred,
    compile_pred,
    evaluate_count,
    evaluate_count_by,
    evaluate_exists,
    evaluate_fetch,
    evaluate_iter,
    translate,
)

IndexFactory = Callable[[Sequence[int], int], SecondaryIndex]


def default_factory(codes: Sequence[int], sigma: int) -> SecondaryIndex:
    """Theorem-2 index, the legacy fixed default (pre-engine)."""
    return PaghRaoIndex(codes, sigma)


def approximate_factory(seed: int = 0) -> IndexFactory:
    """Factory producing Theorem-3 indexes (needed for approximate mode)."""

    def make(codes: Sequence[int], sigma: int) -> SecondaryIndex:
        return ApproximatePaghRaoIndex(codes, sigma, seed=seed)

    return make


class Column:
    """One attribute: values, their alphabet, and a secondary index.

    The index comes either from an explicit ``factory`` (the legacy
    path, still used for approximate mode) or from a
    :class:`~repro.engine.engine.QueryEngine`, which lets the advisor
    pick the backend per column from the measured codes.
    """

    def __init__(
        self,
        name: str,
        values: Sequence[Any],
        factory: IndexFactory | None = None,
        engine: QueryEngine | None = None,
    ) -> None:
        if not values:
            raise InvalidParameterError(f"column {name!r} is empty")
        if (factory is None) == (engine is None):
            raise InvalidParameterError(
                "a column needs exactly one of factory or engine"
            )
        self.name = name
        self.values = list(values)
        self.alphabet = Alphabet(values)
        self.codes = self.alphabet.encode(values)
        if engine is not None:
            self.index = engine.add_column(
                name, self.codes, self.alphabet.sigma
            ).index
        else:
            self.index = factory(self.codes, self.alphabet.sigma)

    def code_range(self, lo: Any, hi: Any) -> tuple[int, int] | None:
        return self.alphabet.code_range(lo, hi)


class Table:
    """Columns of equal length with one secondary index each.

    By default the table builds through a :class:`QueryEngine`: the
    advisor picks each column's backend and repeated range conditions
    are served from the engine's LRU result cache.  Passing ``factory``
    pins every column to one structure, exactly as before the engine
    existed.
    """

    def __init__(
        self,
        columns: Mapping[str, Sequence[Any]],
        factory: IndexFactory | None = None,
        engine: QueryEngine | None = None,
        cost_model=None,
    ) -> None:
        if not columns:
            raise InvalidParameterError("a table needs at least one column")
        if factory is not None and engine is not None:
            raise InvalidParameterError(
                "pass either a factory or an engine, not both"
            )
        if cost_model is not None and (factory is not None or engine is not None):
            raise InvalidParameterError(
                "cost_model configures the default engine; pass it alone"
            )
        lengths = {len(v) for v in columns.values()}
        if len(lengths) != 1:
            raise InvalidParameterError("columns must have equal length")
        self.num_rows = lengths.pop()
        if factory is None and engine is None:
            # The calibration feedback path: a measured CostModel
            # (e.g. CostModel.load_calibrated(path)) re-weighs the
            # advisor that picks every column's backend.
            engine = QueryEngine(cost_model=cost_model)
        self.engine = engine
        self.columns: dict[str, Column] = {
            name: Column(name, values, factory=factory, engine=engine)
            for name, values in columns.items()
        }

    @classmethod
    def sharded(
        cls,
        columns: Mapping[str, Sequence[Any]],
        num_shards: int | None = None,
        target_shard_rows: int | None = None,
        **cluster_kwargs,
    ):
        """The sharded construction path: a scatter-gather table.

        Returns a :class:`repro.cluster.ShardedTable` — same value-space
        ``select``/``row`` interface, but each column is partitioned
        into RID-range shards served by one engine each, behind the
        cluster's shared result cache.  Use it when one process's
        single engine is the bottleneck; see ``src/repro/cluster/``.
        """
        from ..cluster.table import ShardedTable

        return ShardedTable(
            columns,
            num_shards=num_shards,
            target_shard_rows=target_shard_rows,
            **cluster_kwargs,
        )

    def column(self, name: str) -> Column:
        try:
            return self.columns[name]
        except KeyError:
            raise QueryError(f"unknown column {name!r}") from None

    def row(self, rid: int) -> dict[str, Any]:
        """Fetch one row's attribute values (the "associated data")."""
        if rid < 0 or rid >= self.num_rows:
            raise QueryError(f"row id {rid} outside [0, {self.num_rows})")
        return {name: col.values[rid] for name, col in self.columns.items()}

    def stats(self):
        """One typed, JSON-serializable snapshot of the serving layer.

        Engine-built tables embed the full
        :class:`~repro.obs.EngineStats` (per-column backends, cache
        tier, I/O, attached metrics); factory-pinned tables have no
        engine, so the snapshot carries the summed per-index disk
        transfers instead.
        """
        from ..iomodel.stats import Snapshot
        from ..obs import TableStats

        if self.engine is not None:
            return TableStats(
                num_rows=self.num_rows, engine=self.engine.stats()
            )
        total = Snapshot()
        for col in self.columns.values():
            disk = getattr(col.index, "disk", None)
            if disk is not None:
                total = total + disk.stats.snapshot()
        return TableStats(num_rows=self.num_rows, io=total)

    # ------------------------------------------------------------------
    # Exact predicate queries (RID set algebra over §1 range queries)
    # ------------------------------------------------------------------

    def _translate(self, pred: Pred) -> Pred:
        """A value-space predicate in code space (§1.1's dictionary)."""

        def alphabet_of(name: str) -> Alphabet:
            return self.column(name).alphabet

        return translate(pred, alphabet_of)

    def _compile_factory(self, pred: Pred):
        """Compile a code-space predicate against explicit factories.

        The legacy (engine-less) build path still serves the full
        algebra: leaves run straight against each column's index, the
        plan folds through the same :func:`repro.query.evaluate` the
        engine uses — just without a result cache in front.
        """

        def sigma_of(name: str) -> int:
            return self.column(name).alphabet.sigma

        return compile_pred(pred, sigma_of), self.num_rows

    def select(self, conditions: Pred) -> list[int]:
        """Row ids matching a predicate over column *values*.

        Any ``Range``/``Eq``/``In``/``And``/``Or``/``Not`` tree from
        :mod:`repro.query`; bounds and members are values, translated
        through each column's alphabet before planning (a range
        covers every occurring value inside it, either bound may be
        open).
        """
        code_pred = self._translate(conditions)
        if self.engine is not None:
            # Per-leaf results are cached by the engine; identical
            # leaves across disjuncts share entries.
            return self.engine.select(code_pred)
        plan, universe = self._compile_factory(code_pred)

        def fetch(col, lo, hi):
            return self.columns[col].index.range_query(lo, hi)

        return evaluate_fetch(plan, fetch, universe).positions()

    def select_iter(self, conditions: Pred):
        """Streaming :meth:`select`: matching row ids, one at a time."""
        code_pred = self._translate(conditions)
        if self.engine is not None:
            return self.engine.select_iter(code_pred)
        plan, universe = self._compile_factory(code_pred)

        def leaf_iter(col: str, lo: int, hi: int):
            return self.columns[col].index.range_query(lo, hi).iter_positions()

        return evaluate_iter(plan, leaf_iter, universe)

    # ------------------------------------------------------------------
    # Aggregates (value space; answers, not row ids)
    # ------------------------------------------------------------------

    def count(self, conditions: Pred) -> int:
        """How many rows match a value-space predicate.

        Folds in cardinality space — the matching row-id list is
        never materialized, under either build path.
        """
        code_pred = self._translate(conditions)
        if self.engine is not None:
            return self.engine.count(code_pred)
        plan, universe = self._compile_factory(code_pred)
        return evaluate_count(plan, self._factory_fetch, universe)

    def exists(self, conditions: Pred) -> bool:
        """Does at least one row match?  Stops at the first evidence."""
        code_pred = self._translate(conditions)
        if self.engine is not None:
            return self.engine.exists(code_pred)
        plan, universe = self._compile_factory(code_pred)
        return evaluate_exists(plan, self._factory_fetch, universe)

    def count_by(
        self, group: str, conditions: "Pred | None" = None
    ) -> dict[Any, int]:
        """Matching-row counts keyed by the *values* of ``group``.

        The predicate folds once; the group column's equality leaves,
        one per occurring value, are then counted against that one
        answer in a single pass (O(z + sum of group leaf sizes)).
        Zero-count groups are omitted; ``conditions=None`` counts
        every row by group.
        """
        group_col = self.column(group)
        if conditions is not None and not isinstance(conditions, Pred):
            raise QueryError("count_by takes a predicate or None")
        code_pred = (
            None if conditions is None else self._translate(conditions)
        )
        if self.engine is not None:
            code_counts = self.engine.count_by(group, code_pred)
        else:
            if code_pred is None:
                plan, universe = None, self.num_rows
            else:
                plan, universe = self._compile_factory(code_pred)
            # Factory alphabets are built from occurring values, so
            # every code 0..sigma-1 is a live group.
            code_counts = evaluate_count_by(
                plan,
                self._factory_fetch,
                universe,
                range(group_col.alphabet.sigma),
                lambda code: group_col.index.range_query(code, code),
            )
        return {
            group_col.alphabet.value(code): n
            for code, n in code_counts.items()
        }

    def topk(
        self, group: str, conditions: "Pred | None" = None, k: int = 10
    ) -> list[tuple[Any, int]]:
        """The ``k`` most frequent group *values* among matching rows.

        Count-descending; ties break by the group values' own order
        (their alphabet codes), deterministically.
        """
        if k <= 0:
            raise InvalidParameterError("topk requires k >= 1")
        alphabet = self.column(group).alphabet
        counts = self.count_by(group, conditions)
        return sorted(
            counts.items(),
            key=lambda kv: (-kv[1], alphabet.code(kv[0])),
        )[:k]

    def _factory_fetch(self, col: str, lo: int, hi: int):
        return self.columns[col].index.range_query(lo, hi)

    def explain(self, conditions: Pred) -> "Any":
        """The typed plan report for a value-space predicate.

        Requires the engine build path (the report carries the
        engine's backend verdicts and cache state).
        """
        if not isinstance(conditions, Pred):
            raise QueryError("explain takes a predicate; use repro.query")
        if self.engine is None:
            raise QueryError(
                "explain needs an engine-built table (the default); "
                "factory-pinned tables carry no advisor verdicts"
            )
        return self.engine.explain(self._translate(conditions))

    # ------------------------------------------------------------------
    # Approximate RID intersection (§3)
    # ------------------------------------------------------------------

    def select_approximate(
        self,
        conditions: Mapping[str, tuple[Any, Any]],
        eps: float,
        verify: bool = True,
    ) -> list[int]:
        """Candidate row ids via Theorem-3 filters.

        Every dimension answers with a hashed filter read in
        ``O(z lg(1/eps))`` bits; candidates enumerate the smallest
        filter's preimage and must pass every other filter.  With
        ``verify=True`` the survivors are checked against the base
        table, yielding the exact answer (the paper's final filtering
        during data access).
        """
        if not conditions:
            raise QueryError("select requires at least one condition")
        filters: list[ApproximateResult] = []
        exact_dims: list[list[int]] = []
        for name, (lo, hi) in conditions.items():
            col = self.column(name)
            index = col.index
            if not isinstance(index, ApproximatePaghRaoIndex):
                raise QueryError(
                    f"column {name!r} does not carry an approximate index; "
                    "build the Table with approximate_factory()"
                )
            code_range = col.code_range(lo, hi)
            if code_range is None:
                return []
            answer = index.approx_range_query(*code_range, eps)
            if isinstance(answer, ApproximateResult):
                filters.append(answer)
            else:
                exact_dims.append(answer.positions())
        if filters:
            seed_filter = min(filters, key=lambda f: f.candidate_bound)
            rest = [f for f in filters if f is not seed_filter]
            candidates = [
                p
                for p in seed_filter.iter_candidates()
                if all(f.might_contain(p) for f in rest)
            ]
            if exact_dims:
                candidates = intersect_many([candidates, *exact_dims])
        else:
            candidates = intersect_many(exact_dims)
        if not verify:
            return candidates
        return [rid for rid in candidates if self._matches(rid, conditions)]

    def _matches(
        self, rid: int, conditions: Mapping[str, tuple[Any, Any]]
    ) -> bool:
        for name, (lo, hi) in conditions.items():
            value = self.columns[name].values[rid]
            if not (lo <= value <= hi):
                return False
        return True
