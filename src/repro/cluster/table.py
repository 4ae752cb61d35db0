"""Sharded multi-attribute tables: ``Table`` semantics, cluster serving.

:class:`ShardedTable` presents the same value-space interface as
:class:`repro.queries.table.Table` — named columns over arbitrary
ordered values, predicate ``select`` over column values,
``row()`` for the associated data — but builds and serves through a
:class:`~repro.cluster.engine.ClusterEngine`, so each column is split
into RID-range shards with per-shard advisor decisions, scatter-gather
execution, and the shared versioned result cache.

The alphabet stays *global* per column (one dictionary for the whole
table, as §1.1 prescribes), so every shard agrees on code space and
value-range translation happens exactly once per query.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

from ..errors import InvalidParameterError, QueryError, UpdateError
from ..model.alphabet import Alphabet
from ..query import PlanReport, Pred, translate
from .engine import ClusterEngine


class ShardedColumn:
    """One attribute: values, their global alphabet, sharded indexes."""

    def __init__(
        self,
        name: str,
        values: Sequence[Any],
        cluster: ClusterEngine,
        backend: str | None = None,
        dynamism: str = "static",
    ) -> None:
        if not values:
            raise InvalidParameterError(f"column {name!r} is empty")
        self.name = name
        self.values = list(values)
        self.alphabet = Alphabet(values)
        cluster.add_column(
            name,
            self.alphabet.encode(values),
            self.alphabet.sigma,
            dynamism=dynamism,
            backend=backend,
        )

    def code_range(self, lo: Any, hi: Any) -> tuple[int, int] | None:
        return self.alphabet.code_range(lo, hi)


class ShardedTable:
    """Columns of equal length served scatter-gather by a cluster.

    ``backend`` pins every column (a string) or individual columns (a
    mapping) to a registry backend, bypassing the per-shard advisor —
    the hook the differential conformance suite drives every registered
    backend through.  Row ids are global: shard-local answers come back
    offset-translated, so ``select`` results are directly comparable to
    a single-engine :class:`~repro.queries.table.Table` over the same
    data.

    Updates go through the table's own verbs (:meth:`append_row`,
    :meth:`change`), which keep the value mirror — ``values``,
    ``num_rows``, what :meth:`row` serves — in sync with the cluster.
    Auto shard lifecycle composes with those verbs: build with
    ``target_shard_rows`` and appends that outgrow a shard split it in
    place without disturbing global row ids (table-level flows leave
    no deletion holes, so lifecycle compaction never renumbers).
    Mutating ``self.cluster`` directly updates the indexes only and
    leaves that mirror behind; deletions are engine-level for the same
    reason (a shard compaction renumbers global RIDs underneath a flat
    values list), so drive them through :class:`ClusterEngine` when
    ``row()`` fidelity is not needed.
    """

    def __init__(
        self,
        columns: Mapping[str, Sequence[Any]],
        num_shards: int | None = None,
        target_shard_rows: int | None = None,
        cluster: ClusterEngine | None = None,
        backend: str | Mapping[str, str] | None = None,
        dynamism: str = "static",
        cost_model=None,
        **cluster_kwargs,
    ) -> None:
        if not columns:
            raise InvalidParameterError("a table needs at least one column")
        lengths = {len(v) for v in columns.values()}
        if len(lengths) != 1:
            raise InvalidParameterError("columns must have equal length")
        self.num_rows = lengths.pop()
        if cluster is None:
            # cost_model feeds the per-shard advisor — the calibration
            # feedback path (CostModel.load_calibrated) at cluster
            # scale.
            cluster = ClusterEngine(
                num_shards=num_shards,
                target_shard_rows=target_shard_rows,
                cost_model=cost_model,
                **cluster_kwargs,
            )
        elif num_shards is not None or target_shard_rows is not None:
            raise InvalidParameterError(
                "shard sizing belongs to the cluster; pass either a "
                "cluster or sizing knobs, not both"
            )
        elif cost_model is not None:
            raise InvalidParameterError(
                "the cost model belongs to the cluster; pass either a "
                "cluster or a cost_model, not both"
            )
        self.cluster = cluster
        self.columns: dict[str, ShardedColumn] = {}
        for name, values in columns.items():
            pin = backend.get(name) if isinstance(backend, Mapping) else backend
            self.columns[name] = ShardedColumn(
                name, values, cluster, backend=pin, dynamism=dynamism
            )

    def column(self, name: str) -> ShardedColumn:
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
        """Row count + the cluster's typed, JSON-serializable snapshot.

        The ``cluster`` slot is the full
        :class:`~repro.cluster.engine.ClusterStats` — scatter I/O,
        gather accounting, executor op counts, per-shard rows/heat/
        backends, shared-cache counters (see
        :meth:`ClusterEngine.stats`).
        """
        from ..obs import TableStats

        return TableStats(
            num_rows=self.num_rows, cluster=self.cluster.stats()
        )

    def append_row(self, row: Mapping[str, Any]) -> int:
        """Append one row (a value per column); returns its global RID.

        Every column must be present so the RID spaces stay aligned,
        and every value must already occur in its column's alphabet
        (the dictionary is fixed at build time, §1.1).  Requires the
        table to have been built with an update-capable ``dynamism``.
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
        frozen = [
            name
            for name in codes
            if self.cluster.columns[name].dynamism == "static"
        ]
        if frozen:
            raise UpdateError(
                f"columns {frozen} are static; build the table with an "
                "update-capable dynamism to append rows"
            )
        for name, code in codes.items():
            self.cluster.append(name, code)
            self.columns[name].values.append(row[name])
        self.num_rows += 1
        return self.num_rows - 1

    def change(self, name: str, rid: int, value: Any) -> None:
        """Change one attribute of one row, in value space."""
        column = self.column(name)
        if rid < 0 or rid >= self.num_rows:
            raise QueryError(f"row id {rid} outside [0, {self.num_rows})")
        self.cluster.change(name, rid, column.alphabet.code(value))
        column.values[rid] = value

    def _translate(self, pred: Pred) -> Pred:
        """A value-space predicate in code space (§1.1's dictionary).

        Translation happens exactly once per query, through each
        column's *global* alphabet, so every shard agrees on the code
        intervals the plan reads.
        """

        def alphabet_of(name: str) -> Alphabet:
            return self.column(name).alphabet

        return translate(pred, alphabet_of)

    def select(self, conditions: Pred) -> list[int]:
        """Global row ids matching a predicate over column *values*.

        Any ``Range``/``Eq``/``In``/``And``/``Or``/``Not`` tree from
        :mod:`repro.query` — bounds and members are values, either
        range bound may be open.
        """
        return self.cluster.select(self._translate(conditions))

    def select_iter(self, conditions: Pred):
        """Streaming :meth:`select`: matching row ids, one at a time.

        Same answers in the same order, but produced by the cluster's
        streaming gather pipeline — per-leaf, per-shard iterators
        merge-intersected / merge-unioned in lockstep — so arbitrarily
        large answers are consumed in bounded memory.  Predicates are
        validated and value-translated eagerly, before the first row
        id is drawn.
        """
        return self.cluster.select_iter(self._translate(conditions))

    # ------------------------------------------------------------------
    # Aggregates (value space, pushed down to the shards)
    # ------------------------------------------------------------------

    def count(self, conditions: Pred) -> int:
        """How many rows match — each shard reports one integer.

        The predicate is translated once through the global alphabets
        and pushed down whole: shards fold it in cardinality space
        (worker-resident under a process executor) and only counts
        come back; no global row-id list exists at any point.
        """
        return self.cluster.count(self._translate(conditions))

    def exists(self, conditions: Pred) -> bool:
        """Does any row match?  Shards are probed until first evidence."""
        return self.cluster.exists(self._translate(conditions))

    def count_by(
        self, group: str, conditions: "Pred | None" = None
    ) -> dict[Any, int]:
        """Matching-row counts keyed by the *values* of ``group``.

        Shards ship per-local-code counts; the cluster re-keys them
        into global codes, and the table decodes those through the
        group column's alphabet.  Zero-count groups are omitted;
        ``conditions=None`` counts every row by group.
        """
        alphabet = self.column(group).alphabet
        if conditions is None:
            code_counts = self.cluster.count_by(group)
        else:
            if not isinstance(conditions, Pred):
                raise QueryError("count_by takes a predicate or None")
            code_counts = self.cluster.count_by(
                group, self._translate(conditions)
            )
        return {
            alphabet.value(code): n for code, n in code_counts.items()
        }

    def topk(
        self, group: str, conditions: "Pred | None" = None, k: int = 10
    ) -> list[tuple[Any, int]]:
        """The ``k`` most frequent group *values* among matching rows.

        Count-descending; ties break by the group values' own order
        (their global alphabet codes), deterministically.
        """
        if k <= 0:
            raise InvalidParameterError("topk requires k >= 1")
        alphabet = self.column(group).alphabet
        counts = self.count_by(group, conditions)
        return sorted(
            counts.items(),
            key=lambda kv: (-kv[1], alphabet.code(kv[0])),
        )[:k]

    def plan(self, conditions: Pred) -> PlanReport:
        """The typed plan report for a value-space predicate."""
        if not isinstance(conditions, Pred):
            raise QueryError("plan takes a predicate; use repro.query")
        return self.cluster.plan(self._translate(conditions))

    def explain(
        self, target: "str | Pred | None" = None
    ) -> "str | PlanReport":
        """Cluster report: everything, one column, or one query.

        * ``explain()`` — the cluster overview (string);
        * ``explain("col")`` — one column's per-shard verdicts
          (string);
        * ``explain(pred)`` — the typed, JSON-serializable
          :class:`~repro.query.PlanReport` of a value-space predicate:
          the operator tree with every unique leaf's per-shard
          backend verdict, predicted bits, shared-cache state and
          pruning.
        """
        if target is None:
            return self.cluster.explain()
        if isinstance(target, str):
            self.column(target)  # raise on unknown, like select does
            return self.cluster.explain(target)
        return self.cluster.explain(self._translate(target))

    # ------------------------------------------------------------------
    # Durability (delegates to repro.persist with the table's extras)
    # ------------------------------------------------------------------

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

        extra = dict(kwargs.pop("extra", None) or {})
        extra.update(self.persist_extra())
        return init_persistence(
            self.cluster, directory, extra=extra, **kwargs
        )

    def checkpoint(self, directory: str, **kwargs):
        """Checkpoint the cluster, embedding the value dictionaries."""
        extra = dict(kwargs.pop("extra", None) or {})
        extra.update(self.persist_extra())
        return self.cluster.checkpoint(directory, extra=extra, **kwargs)

    @classmethod
    def restore(cls, directory: str, **kwargs) -> "ShardedTable":
        """Cold-start a table: cluster restore + value-mirror rebuild.

        The cluster side (:func:`repro.persist.restore_cluster`, whose
        knobs ``kwargs`` forwards) restores shards and replays the WAL
        tail; the value mirror is then *derived*, not stored — each
        column's live global codes are read back in RID order and
        decoded through the manifest's alphabet, so the mirror is
        exact even for rows that only exist in the log.  Restoring a
        table whose cluster saw engine-level deletions compacts the
        holes, the same fidelity caveat :meth:`row` already carries.
        """
        from ..errors import PersistenceError
        from ..persist import current_manifest

        cluster = ClusterEngine.restore(directory, **kwargs)
        try:
            manifest = current_manifest(directory)
            info = (manifest.get("extra") or {}).get("table")
            if info is None:
                raise PersistenceError(
                    f"checkpoint in {directory!r} was not written by a "
                    "ShardedTable (no table extras in its manifest)"
                )
            table = cls.__new__(cls)
            table.cluster = cluster
            table.columns = {}
            table.num_rows = 0
            for name in info["order"]:
                codes: list[int] = []
                for shard_id in range(cluster.num_shards):
                    codes.extend(
                        cluster._live_global_codes(name, shard_id)
                    )
                column = ShardedColumn.__new__(ShardedColumn)
                column.name = name
                column.alphabet = Alphabet(info["alphabets"][name])
                column.values = column.alphabet.decode(codes)
                table.columns[name] = column
                table.num_rows = len(codes)
            return table
        except BaseException:
            cluster.close()
            raise
