"""Value-space tables queried by RID intersection (§1, §3).

The paper's motivating application: "in a database of people we may
want to find all married men of age 33", answered by intersecting the
results of one secondary index per attribute.  :class:`Table` holds
named columns over arbitrary ordered values, each with its §1.1
dictionary, and serves value-space predicates through an engine that
indexes the dense codes: a single
:class:`~repro.engine.engine.QueryEngine` by default, or a sharded
:class:`~repro.cluster.engine.ClusterEngine` built by
:meth:`Table.sharded`.  Both engines speak one code-space surface, so
every read translates the predicate once and delegates.

§1's other query families use the same columns.  Partial match is an
``And`` over the chosen columns; :meth:`Table.select_at_least` answers
"in range in at least ``k`` of ``d`` conditions".  On columns pinned
to ``pagh-rao-approx``, :meth:`Table.select_approximate` and
:meth:`Table.select_at_least` read Theorem 3's hashed filters instead
of exact answers: candidates are cross-checked in O(1) per dimension
(:func:`~repro.core.approximate.at_least_k_candidates`) and then
verified against the column codes ("false positives can be filtered
away when accessing the associated data", §1.1).
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

from ..cluster.engine import ClusterEngine
from ..core.approximate import ApproximatePaghRaoIndex, at_least_k_candidates
from ..engine import QueryEngine
from ..errors import InvalidParameterError, PersistenceError, QueryError
from ..model.alphabet import Alphabet
from ..obs import TableStats
from ..query import PlanReport, Pred, compile_pred, translate
from ..query.planner import ALL, AND, EMPTY, LEAF, Plan


class Column:
    """One attribute: its values and their §1.1 dictionary.

    The column's index lives in the table's engine under the same
    name, built over ``alphabet``'s dense codes; ``values`` is the
    mirror :meth:`Table.row` serves.
    """

    def __init__(
        self,
        name: str,
        values: Sequence[Any],
        alphabet: Alphabet | None = None,
    ) -> None:
        if not values:
            raise InvalidParameterError(f"column {name!r} is empty")
        self.name = name
        self.values = list(values)
        self.alphabet = alphabet if alphabet is not None else Alphabet(values)

    def code_range(self, lo: Any, hi: Any) -> tuple[int, int] | None:
        return self.alphabet.code_range(lo, hi)


class Table:
    """Columns of equal length, one secondary index each, in value space.

    ``engine`` serves the codes.  By default it is a fresh
    :class:`QueryEngine` whose advisor picks each column's backend,
    re-weighed by ``cost_model`` when one is given (the calibration
    feedback path, ``CostModel.load_calibrated``); :meth:`sharded`
    builds a :class:`ClusterEngine` instead.  ``backend`` pins every
    column (a string) or individual columns (a mapping) to a registry
    backend, bypassing the advisor: the conformance suite drives every
    backend through it, and ``"pagh-rao-approx"`` gives a column the
    Theorem 3 filters :meth:`select_approximate` reads.  Row ids are
    global under either engine, so answers compare directly.

    Updates go through the table's own verbs (:meth:`append_row`,
    :meth:`change`), which keep the value mirror (``values``,
    ``num_rows``, what :meth:`row` serves) in sync with the engine;
    they need an update-capable ``dynamism``.  On a cluster built with
    ``target_shard_rows``, appends that outgrow a shard split it in
    place without disturbing row ids.  Mutating ``self.engine``
    directly updates the indexes only and leaves that mirror behind;
    deletions are engine-level for the same reason (a compaction
    renumbers row ids underneath a flat values list).
    """

    def __init__(
        self,
        columns: Mapping[str, Sequence[Any]],
        engine: QueryEngine | ClusterEngine | None = None,
        backend: str | Mapping[str, str] | None = None,
        dynamism: str = "static",
        cost_model=None,
    ) -> None:
        if not columns:
            raise InvalidParameterError("a table needs at least one column")
        if cost_model is not None and engine is not None:
            raise InvalidParameterError(
                "cost_model configures the default engine; pass it alone"
            )
        lengths = {len(v) for v in columns.values()}
        if len(lengths) != 1:
            raise InvalidParameterError("columns must have equal length")
        self.num_rows = lengths.pop()
        if engine is None:
            engine = QueryEngine(cost_model=cost_model)
        self.engine = engine
        self.dynamism = dynamism
        self.columns: dict[str, Column] = {}
        for name, values in columns.items():
            column = Column(name, values)
            pin = backend.get(name) if isinstance(backend, Mapping) else backend
            self.engine.add_column(
                name,
                column.alphabet.encode(column.values),
                column.alphabet.sigma,
                dynamism=dynamism,
                backend=pin,
            )
            self.columns[name] = column

    @classmethod
    def sharded(
        cls,
        columns: Mapping[str, Sequence[Any]],
        num_shards: int | None = None,
        target_shard_rows: int | None = None,
        backend: str | Mapping[str, str] | None = None,
        dynamism: str = "static",
        cost_model=None,
        **cluster_kwargs,
    ) -> "Table":
        """A table served scatter-gather by a new :class:`ClusterEngine`.

        Each column is split into RID-range shards with per-shard
        advisor verdicts (``cost_model`` re-weighs them), behind the
        cluster's shared result cache; ``cluster_kwargs`` (executor,
        tracer, ``drift_window``, ...) go to the cluster.  The alphabet
        stays global per column, so every shard agrees on code space
        and a query is translated once.
        """
        engine = ClusterEngine(
            num_shards=num_shards,
            target_shard_rows=target_shard_rows,
            cost_model=cost_model,
            **cluster_kwargs,
        )
        return cls(columns, engine=engine, backend=backend, dynamism=dynamism)

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

    def stats(self) -> TableStats:
        """Row count + the engine's typed, JSON-serializable snapshot.

        A single engine fills the ``engine`` slot with its
        :class:`~repro.obs.EngineStats` (per-column backends, cache
        tier, I/O, attached metrics); a cluster fills ``cluster`` with
        its :class:`~repro.cluster.engine.ClusterStats` (scatter I/O,
        gather accounting, executor op counts, per-shard rows, heat and
        backends, shared-cache counters).
        """
        if isinstance(self.engine, ClusterEngine):
            return TableStats(
                num_rows=self.num_rows, cluster=self.engine.stats()
            )
        return TableStats(num_rows=self.num_rows, engine=self.engine.stats())

    # ------------------------------------------------------------------
    # Updates (value space; the mirror follows the engine)
    # ------------------------------------------------------------------

    def append_row(self, row: Mapping[str, Any]) -> int:
        """Append one row (a value per column); returns its RID.

        Every column must be present so the RID spaces stay aligned,
        and every value must already occur in its column's alphabet
        (the dictionary is fixed at build time, §1.1).  Requires the
        table to have been built with an update-capable ``dynamism``:
        the engine refuses an update to a column declared static.
        """
        if set(row) != set(self.columns):
            raise InvalidParameterError(
                f"append_row needs a value for exactly the columns "
                f"{sorted(self.columns)}, got {sorted(row)}"
            )
        codes = {
            name: self.columns[name].alphabet.code(value)
            for name, value in row.items()
        }  # validates every value before any column mutates
        for name, code in codes.items():
            self.engine.append(name, code)
            self.columns[name].values.append(row[name])
        self.num_rows += 1
        return self.num_rows - 1

    def change(self, name: str, rid: int, value: Any) -> None:
        """Change one attribute of one row, in value space."""
        column = self.column(name)
        if rid < 0 or rid >= self.num_rows:
            raise QueryError(f"row id {rid} outside [0, {self.num_rows})")
        self.engine.change(name, rid, column.alphabet.code(value))
        column.values[rid] = value

    # ------------------------------------------------------------------
    # Exact predicate queries (RID set algebra over §1 range queries)
    # ------------------------------------------------------------------

    def _translate(self, pred: Pred) -> Pred:
        """A value-space predicate in code space (§1.1's dictionary).

        Translation happens once per query, through each column's
        global alphabet, so every shard agrees on the code intervals
        the plan reads.
        """
        return translate(pred, lambda name: self.column(name).alphabet)

    def select(self, conditions: Pred) -> list[int]:
        """Row ids matching a predicate over column *values*.

        Any ``Range``/``Eq``/``In``/``And``/``Or``/``Not`` tree from
        :mod:`repro.query`; bounds and members are values, translated
        through each column's alphabet before planning (a range
        covers every occurring value inside it, either bound may be
        open).
        """
        return self.engine.select(self._translate(conditions))

    def select_iter(self, conditions: Pred):
        """Streaming :meth:`select`: matching row ids, one at a time.

        Same answers in the same order.  A single engine streams its
        folded answer, never expanding a complemented one; a cluster
        streams one shard's answer at a time, so large answers are
        consumed in bounded memory.  Predicates are validated and
        translated eagerly, before the first row id is drawn.
        """
        return self.engine.select_iter(self._translate(conditions))

    def count(self, conditions: Pred) -> int:
        """How many rows match a value-space predicate.

        Folds in cardinality space: no row-id list is materialized,
        and a cluster's shards report one integer each.
        """
        return self.engine.count(self._translate(conditions))

    def exists(self, conditions: Pred) -> bool:
        """Does at least one row match?  Stops at the first evidence."""
        return self.engine.exists(self._translate(conditions))

    def count_by(
        self, group: str, conditions: Pred | None = None
    ) -> dict[Any, int]:
        """Matching-row counts keyed by the *values* of ``group``.

        The predicate folds once and the group's equality leaves are
        counted against that one answer; the engine's per-code counts
        decode through the group column's alphabet.  Zero-count
        groups are omitted; ``conditions=None`` counts every row by
        group.
        """
        alphabet = self.column(group).alphabet
        code_pred = None if conditions is None else self._translate(conditions)
        return {
            alphabet.value(code): n
            for code, n in self.engine.count_by(group, code_pred).items()
        }

    def topk(
        self, group: str, conditions: Pred | None = None, k: int = 10
    ) -> list[tuple[Any, int]]:
        """The ``k`` most frequent group *values* among matching rows.

        Count-descending; ties break by the group values' own order
        (their alphabet codes), deterministically.
        """
        alphabet = self.column(group).alphabet
        code_pred = None if conditions is None else self._translate(conditions)
        return [
            (alphabet.value(code), n)
            for code, n in self.engine.topk(group, code_pred, k)
        ]

    def plan(self, conditions: Pred) -> PlanReport:
        """The typed plan report for a value-space predicate."""
        return self.engine.plan(self._translate(conditions))

    def explain(self, target: str | Pred | None = None) -> str | PlanReport:
        """Engine report: everything, one column, or one query.

        * ``explain()``: the engine overview (string);
        * ``explain("col")``: one column's backend verdicts (string);
        * ``explain(pred)``: the typed, JSON-serializable
          :class:`~repro.query.PlanReport` of a value-space predicate:
          the operator tree with every unique leaf's backend verdict
          (per shard, under a cluster), predicted bits and cache
          state.
        """
        if target is None:
            return self.engine.explain()
        if isinstance(target, str):
            self.column(target)  # raise on unknown, like select does
            return self.engine.explain(target)
        return self.engine.explain(self._translate(target))

    # ------------------------------------------------------------------
    # Theorem 3 filters and §1's at-least-k search
    # ------------------------------------------------------------------

    def _compile(self, conditions: Pred) -> Plan:
        return compile_pred(
            self._translate(conditions),
            lambda name: self.column(name).alphabet.sigma,
        )

    def _filter_column(self, name: str):
        """The single-engine column of ``name``, if it has filters."""
        self.column(name)
        if isinstance(self.engine, QueryEngine):
            column = self.engine.column(name)
            if isinstance(column.index, ApproximatePaghRaoIndex):
                return column
        raise QueryError(
            f"column {name!r} carries no Theorem 3 filters; build a "
            "single-engine Table with backend='pagh-rao-approx'"
        )

    def _approximate(
        self,
        leaves: Sequence[tuple[str, int, int]],
        k: int,
        eps: float,
        verify: bool,
    ) -> list[int]:
        """Rows in at least ``k`` code intervals, through the filters.

        Each interval reads its column's hashed filter in
        ``O(z lg(1/eps))`` bits (or the exact answer, when hashing
        cannot save I/O); with ``verify`` the candidates are checked
        against the column codes, which leaves the exact answer.
        """
        answers = [
            self._filter_column(name).index.approx_range_query(lo, hi, eps)
            for name, lo, hi in leaves
        ]
        candidates = at_least_k_candidates(answers, k)
        if not verify:
            return candidates
        checks = [
            (self.engine.column(name).codes, lo, hi)
            for name, lo, hi in leaves
        ]
        return [
            rid
            for rid in candidates
            if sum(lo <= codes[rid] <= hi for codes, lo, hi in checks) >= k
        ]

    def select_approximate(
        self, conditions: Pred, eps: float, verify: bool = True
    ) -> list[int]:
        """Rows matching a conjunction, read through Theorem 3 filters.

        ``conditions`` is a conjunction of one-column ``Range``/``Eq``
        conditions (a predicate whose compiled plan is an ``And`` of
        leaves) over single-engine columns pinned to
        ``pagh-rao-approx``.  Every leaf answers with a hashed filter;
        candidates enumerate the filter with the smallest preimage and
        must pass every other.  With ``verify=True`` the survivors are
        checked against the column codes, which yields the exact
        answer.
        """
        plan = self._compile(conditions)
        for name in plan.columns:
            self._filter_column(name)
        root = plan.root
        if root == (EMPTY,):
            return []
        if root == (ALL,):
            return list(range(self.num_rows))
        parts = root[1] if root[0] == AND else (root,)
        if any(part[0] != LEAF for part in parts):
            raise QueryError(
                "select_approximate takes a conjunction of one-column "
                f"Range/Eq conditions, got {conditions!r}"
            )
        return self._approximate(plan.leaves, len(plan.leaves), eps, verify)

    def select_at_least(
        self,
        k: int,
        conditions: Sequence[Pred],
        eps: float | None = None,
        verify: bool = True,
    ) -> list[int]:
        """Rows matching at least ``k`` of the ``d`` conditions (§1).

        The paper's approximate range search: "find points that are in
        the range in at least ``d1`` out of ``d`` dimensions".  With
        ``eps=None`` each condition, any predicate, is answered exactly
        by ``engine.query`` under either engine, and so is the result.
        With ``eps`` each condition must be a one-column
        ``Range``/``Eq`` on a single-engine column pinned to
        ``pagh-rao-approx`` and is read as a Theorem 3 filter; the
        candidates may hold rows inside fewer than ``k`` ranges, and
        ``verify=True`` removes them by checking the column codes.
        """
        if isinstance(conditions, Pred):
            raise QueryError("select_at_least takes a sequence of conditions")
        conditions = list(conditions)
        if not 1 <= k <= len(conditions):
            raise QueryError(f"need 1 <= k <= {len(conditions)}, got k={k}")
        if eps is None:
            answers = [
                self.engine.query(self._translate(c)) for c in conditions
            ]
            return at_least_k_candidates(answers, k)
        leaves = []
        for condition in conditions:
            plan = self._compile(condition)
            if len(plan.columns) != 1 or plan.root[0] not in (LEAF, ALL, EMPTY):
                raise QueryError(
                    f"{condition!r} is not a one-column Range/Eq condition"
                )
            (name,) = plan.columns
            self._filter_column(name)
            if plan.root[0] == LEAF:
                leaves.append(plan.leaves[0])
            elif plan.root[0] == ALL:
                leaves.append((name, 0, self.column(name).alphabet.sigma - 1))
        # A condition that matches nothing never counts towards k.
        if k > len(leaves):
            return []
        return self._approximate(leaves, k, eps, verify)

    # ------------------------------------------------------------------
    # Durability (a cluster's checkpoint and WAL, with the table extras)
    # ------------------------------------------------------------------

    def _durable(self) -> ClusterEngine:
        if not isinstance(self.engine, ClusterEngine):
            raise PersistenceError(
                "persistence needs a sharded table (Table.sharded); a "
                "single-engine table has no checkpoint or write-ahead log"
            )
        return self.engine

    def persist_extra(self) -> dict:
        """The table-level manifest payload a checkpoint must carry.

        The cluster checkpoint stores codes; the value dictionaries
        (§1.1) live only here.  Storing each alphabet's occurring
        values — JSON-serializable by requirement — is complete for
        all time: the dictionary is fixed at build, so WAL records
        written after the checkpoint never extend it.  Suitable as a
        :class:`~repro.persist.Checkpointer` ``extra_fn`` directly.
        """
        return {
            "table": {
                "format": 1,
                "order": list(self.columns),
                "alphabets": {
                    name: column.alphabet.values()
                    for name, column in self.columns.items()
                },
            }
        }

    def init_persistence(self, directory: str, **kwargs):
        """Baseline checkpoint + attached WAL, with the table extras."""
        from ..persist import init_persistence

        cluster = self._durable()
        extra = dict(kwargs.pop("extra", None) or {})
        extra.update(self.persist_extra())
        return init_persistence(cluster, directory, extra=extra, **kwargs)

    def checkpoint(self, directory: str, **kwargs):
        """Checkpoint the cluster, embedding the value dictionaries."""
        cluster = self._durable()
        extra = dict(kwargs.pop("extra", None) or {})
        extra.update(self.persist_extra())
        return cluster.checkpoint(directory, extra=extra, **kwargs)

    @classmethod
    def restore(cls, directory: str, **kwargs) -> "Table":
        """Cold-start a sharded table: cluster restore + value mirror.

        The cluster side (:func:`repro.persist.restore_cluster`, whose
        knobs ``kwargs`` forwards) restores shards and replays the WAL
        tail; the value mirror is then *derived*, not stored — each
        column's live global codes are read back in RID order and
        decoded through the manifest's alphabet, so the mirror is
        exact even for rows that only exist in the log.  Restoring a
        table whose cluster saw engine-level deletions compacts the
        holes, the same fidelity caveat :meth:`row` already carries.
        """
        from ..persist import current_manifest

        cluster = ClusterEngine.restore(directory, **kwargs)
        try:
            manifest = current_manifest(directory)
            info = (manifest.get("extra") or {}).get("table")
            if info is None:
                raise PersistenceError(
                    f"checkpoint in {directory!r} was not written by a "
                    "Table (no table extras in its manifest)"
                )
            table = cls.__new__(cls)
            table.engine = cluster
            table.dynamism = cluster.columns[info["order"][0]].dynamism
            table.columns = {}
            table.num_rows = 0
            for name in info["order"]:
                codes: list[int] = []
                for shard_id in range(cluster.num_shards):
                    codes.extend(
                        cluster._live_global_codes(name, shard_id)
                    )
                alphabet = Alphabet(info["alphabets"][name])
                table.columns[name] = Column(
                    name, alphabet.decode(codes), alphabet
                )
                table.num_rows = len(codes)
            return table
        except BaseException:
            cluster.close()
            raise
