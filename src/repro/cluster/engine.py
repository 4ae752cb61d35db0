"""The sharded scatter-gather serving layer.

A :class:`ClusterEngine` partitions each column's codes into contiguous
RID-range shards and runs one :class:`~repro.engine.engine.QueryEngine`
per shard.  Because the advisor measures each shard's slice
independently, shards of the same column may land on *different*
backends when local entropy/cardinality differ — the per-partition
re-fitting that hierarchical/partitioned range indexes exploit.

Serving is scatter-gather: per-shard range queries execute through a
pluggable executor (:mod:`.executor`), each consulting the shared
result cache (:mod:`.cache`) before touching its shard's engine;
shard-local positions are offset-translated to global RIDs and merged
(shard order *is* global order, so the k-way merge of sorted disjoint
runs degenerates to concatenation).  Conjunctive ``select`` intersects
the per-dimension merged streams, exactly like the single-engine plan
of §1.

Updates route to one shard — appends to the last, changes/deletes by
live prefix sums — and bump only that shard's column version, so the
versioned shared-cache keys of every *other* shard stay valid.  Each
shard also counts its update traffic: past ``drift_window`` updates
the column's :class:`~repro.engine.advisor.WorkloadStats` are
re-measured (:meth:`~repro.engine.engine.EngineColumn.restat`) and, if
the advisor's verdict changed, the shard's index is rebuilt in place
behind the engine (online backend migration; also callable explicitly
via :meth:`ClusterEngine.migrate`).

Shards have a *lifecycle*: when ``target_shard_rows`` is set, a shard
that outgrows it is split in place (:meth:`ClusterEngine.split_shard`)
— both halves rebuilt through the per-shard advisor on fresh local
dictionaries — and a shard starved below the merge floor by deletions
is fused into its smaller neighbor (:meth:`ClusterEngine.merge_shards`)
when the union stays under the split threshold.  Shards carry *stable
uids* (not positions) in shared-cache keys, so a lifecycle operation
retires exactly the participating shards' entries while every sibling
shard's hot entries keep serving.  :meth:`ClusterEngine.rebalance`
applies the same policy until the whole cluster is within bounds.

Cross-shard ``select`` streams: per-dimension RID iterators walk the
shards in order (shard order *is* global order), materializing one
shard's answer at a time, and the k-way conjunctive merge emits global
RIDs one by one — peak intermediate memory is O(max shard answer)
rather than O(answer), accounted by :class:`GatherStats`.  Under an
executor that buys overlap (threads, worker processes) the walk
becomes a bounded *prefetching bridge*: while one shard's answer
drains, up to ``prefetch_depth`` later shards' fetches are already in
flight, so per-shard latency overlaps the drain without widening the
memory bound beyond ``(1 + prefetch_depth)`` shard answers per
dimension.

Execution is a deployment choice (see :mod:`.executor`): *local*
executors run scatter tasks against this process's shard engines,
while the *resident* :class:`~repro.cluster.executor.ProcessExecutor`
hosts a bit-identical replica of every shard engine in worker
processes — built once from a shipped snapshot, then kept in sync by
the same routed update/lifecycle deltas this class applies locally.
Either way a shard op runs the same body
(:func:`~repro.cluster.worker.fetch_range`,
:func:`~repro.cluster.worker.fold_shard`) and answers with a
``(value, io, span)`` triple whose
:class:`~repro.iomodel.stats.Snapshot` delta folds into
``scatter_io``, the cluster-total I/O of the query path, identical
across executors on the same workload and whether or not the query
is traced.

Concurrency contract: scatter tasks may run in parallel (they touch
disjoint shard engines and the lock-protected shared cache), but the
cluster is single-writer — updates and lifecycle operations must not
interleave with queries.  Top-level operations (queries, aggregates,
updates, lifecycle, ``stats``) enforce that contract themselves with a
reentrant per-cluster lock, so several threads — e.g. the asyncio
front-end's worker bridge (:mod:`repro.serve`) — may call one cluster
concurrently and are serialized per engine; cross-engine parallelism
comes from running several clusters.  The lock is reentrant because
operations nest (``topk`` runs ``count_by``; auto-split runs inside
an append).  Streaming iterators (``query_iter``/``select_iter``)
are the exception: they pull outside the lock, so an open stream must
still not interleave with writers — the materialized forms take the
lock for their whole run and are what the front-end serves.
"""

from __future__ import annotations

import bisect
import itertools
import threading
import time
import uuid
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple, Sequence

from ..core.interface import RangeResult
from ..engine.advisor import Advisor, CostModel
from ..engine.engine import (
    EngineColumn,
    QueryEngine,
    QueryPlan,
)
from ..engine.registry import DYNAMISM_LEVELS, IndexSpec, get_spec
from ..errors import InvalidParameterError, QueryError, UpdateError
from ..iomodel.stats import IOStats, Snapshot
from ..obs import CacheTierStats
from ..obs.tracer import NULL_TRACE, ObservedOps
from ..query import (
    TRUE,
    LeafPlan,
    Plan,
    PlanReport,
    Pred,
    Range,
    ShardLeafPlan,
    compile_pred,
    evaluate,
    evaluate_iter,
    resolve_universe,
    specialize,
)
from ..query.planner import ALL, EMPTY, LEAF
from .cache import (
    FOLDS,
    InMemorySharedCache,
    SharedResultCache,
    fold_entry,
    fold_key,
    fold_value,
    shared_key,
)
from .executor import CompletedFuture, MappedFuture, SerialExecutor
from .worker import fetch_range, fold_shard
from .sharding import (
    ShardPlan,
    locate,
    offsets_of,
    plan_from_lengths,
    plan_shards,
)

#: Shard uids are unique per *process*, not per cluster, so several
#: clusters can share one resident executor without their worker-side
#: runtimes colliding.
_UID_SOURCE = itertools.count()

#: Sentinel for "no entry" when re-keying sparse per-shard mappings.
_ABSENT = object()


class _Deferred(NamedTuple):
    """A resident cache miss held back for a grouped shipment.

    Returned by :meth:`ClusterEngine._submit_fetch` with ``defer``;
    the caller ships ``request`` — ``(uid, name, lo, hi)`` — with its
    siblings and maps the reply through ``absorb``.
    """

    request: tuple
    absorb: Callable


def _remap_shard_dict(
    d: dict[int, object], at: int, width: int, replacement: list
) -> dict[int, object]:
    """Re-key a per-shard mapping after a lifecycle splice.

    ``width`` shards starting at position ``at`` were replaced by
    ``len(replacement)`` new ones; entries left of the splice keep
    their keys, entries right of it shift, and the new shards receive
    the ``replacement`` values (``_ABSENT`` meaning "no entry" — used
    for sparse mappings like per-shard pins).
    """
    shift = len(replacement) - width
    out: dict[int, object] = {}
    for key, value in d.items():
        if key < at:
            out[key] = value
        elif key >= at + width:
            out[key + shift] = value
    for i, value in enumerate(replacement):
        if value is not _ABSENT:
            out[at + i] = value
    return out


@dataclass
class ColumnMeta:
    """Cluster-level bookkeeping for one sharded column."""

    name: str
    sigma: int
    dynamism: str
    expected_selectivity: float
    require_exact: bool
    require_delete: bool
    backend: str | None  # explicit column-wide pin; disables auto-migration
    #: Per-shard pins from ``migrate(shard_id=..., backend=...)``;
    #: a pinned shard is exempt from drift auto-migration and keeps
    #: its backend until the pin is replaced or cleared.
    shard_pins: dict[int, str] = field(default_factory=dict)
    #: Incarnation stamp (random token): cache keys carry it so a
    #: re-added column never matches its predecessor's entries — nor
    #: another engine's same-named column when several engines (or
    #: processes) share one external result cache.
    epoch: str = ""
    updates_since_stat: dict[int, int] = field(default_factory=dict)
    #: Per-shard local alphabets (static columns only): the sorted
    #: distinct global codes a shard holds.  ``None`` means the shard
    #: stores global codes verbatim (all dynamic shards do — an update
    #: may route any character anywhere).
    domains: dict[int, list[int] | None] = field(default_factory=dict)


@dataclass(frozen=True)
class Migration:
    """One shard's backend change, as reported by ``migrate()``."""

    column: str
    shard_id: int
    old_backend: str
    new_backend: str

    @property
    def changed(self) -> bool:
        return self.old_backend != self.new_backend


@dataclass(frozen=True)
class ShardSplit:
    """One shard split, as recorded by :meth:`ClusterEngine.split_shard`.

    ``shard_id`` is the shard's *position* at the moment of the split
    (positions shift as the shard set evolves); ``rows`` is the live
    row count (max across columns) that triggered it.
    """

    shard_id: int
    rows: int
    left_rows: int
    right_rows: int


@dataclass(frozen=True)
class ShardMerge:
    """One shard merge, as recorded by :meth:`ClusterEngine.merge_shards`."""

    left_id: int
    left_rows: int
    right_rows: int


@dataclass
class GatherStats:
    """Materialization accounting for the streaming gather.

    ``live_rids`` counts the RIDs currently buffered by active
    streaming gathers (one shard's answer per dimension at a time);
    ``peak_rids`` is the high-water mark since the last
    :meth:`reset` — the number the O(block) memory claim is asserted
    against.  A fully materialized gather would peak at the whole
    per-dimension answer instead.
    """

    live_rids: int = 0
    peak_rids: int = 0

    def acquire(self, count: int) -> None:
        self.live_rids += count
        if self.live_rids > self.peak_rids:
            self.peak_rids = self.live_rids

    def release(self, count: int) -> None:
        self.live_rids -= count

    def reset(self) -> None:
        self.live_rids = 0
        self.peak_rids = 0

    def to_json(self) -> dict:
        """A JSON-serializable dict; inverse of :meth:`from_json`."""
        return {"live_rids": self.live_rids, "peak_rids": self.peak_rids}

    @classmethod
    def from_json(cls, data: dict) -> "GatherStats":
        return cls(
            live_rids=data.get("live_rids", 0),
            peak_rids=data.get("peak_rids", 0),
        )


@dataclass(frozen=True)
class ShardStats:
    """One shard's row in a :class:`ClusterStats` snapshot.

    ``uid`` is the shard's stable identity (the shared-cache key
    slot); ``rows`` its live row count (max across columns, the same
    number the sizing policy goes by); ``heat`` its update traffic
    since the last restat; ``backends`` the serving backend per
    column, as ``(column, backend)`` pairs.
    """

    shard_id: int
    uid: int
    rows: int
    heat: int
    backends: tuple[tuple[str, str], ...]

    def to_dict(self) -> dict:
        return {
            "shard_id": self.shard_id,
            "uid": self.uid,
            "rows": self.rows,
            "heat": self.heat,
            "backends": dict(self.backends),
        }


@dataclass(frozen=True)
class ClusterStats:
    """One typed snapshot of the whole cluster, JSON-serializable.

    Returned by :meth:`ClusterEngine.stats`; embeds the existing
    accounting objects by value — the query path's ``scatter_io``
    :class:`~repro.iomodel.stats.Snapshot`, the streaming gather's
    :class:`GatherStats`, the resident executor's ``op_counts`` (an
    empty dict under local executors) — plus per-shard rows, heat and
    backend verdicts, the shared result cache's tier counters, the
    lifecycle history lengths, and, when attached, the
    :class:`~repro.obs.MetricsRegistry` dump and slow-query-log depth.
    ``to_dict()`` round-trips through ``json.dumps``.
    """

    num_shards: int
    columns: tuple[str, ...]
    scatter_io: Snapshot
    gather_rids: int
    gather: GatherStats
    shards: tuple[ShardStats, ...]
    op_counts: dict
    shared_cache: "CacheTierStats | None"
    migrations: int
    splits: int
    merges: int
    metrics: dict | None = None
    slow_queries: int = 0
    worker_deaths: int = 0
    replicas: dict | None = None

    def to_dict(self) -> dict:
        return {
            "num_shards": self.num_shards,
            "columns": list(self.columns),
            "scatter_io": self.scatter_io.to_json(),
            "gather_rids": self.gather_rids,
            "gather": self.gather.to_json(),
            "shards": [shard.to_dict() for shard in self.shards],
            "op_counts": dict(self.op_counts),
            "shared_cache": (
                self.shared_cache.to_dict()
                if self.shared_cache is not None
                else None
            ),
            "migrations": self.migrations,
            "splits": self.splits,
            "merges": self.merges,
            "metrics": self.metrics,
            "slow_queries": self.slow_queries,
            "worker_deaths": self.worker_deaths,
            "replicas": self.replicas,
        }


class ClusterEngine(ObservedOps):
    """Shards columns by RID range and serves them scatter-gather."""

    def __init__(
        self,
        num_shards: int | None = None,
        target_shard_rows: int | None = None,
        executor=None,
        shared_cache: SharedResultCache | None = None,
        advisor: Advisor | None = None,
        cost_model: CostModel | None = None,
        cache_size: int = 128,
        drift_window: int | None = 256,
        auto_split: bool | None = None,
        min_shard_rows: int | None = None,
        prefetch_depth: int | None = None,
        heat_tolerance: float = 0.25,
        io_latency_s: float = 0.0,
        tracer=None,
        metrics=None,
        slow_log=None,
    ) -> None:
        if advisor is not None and cost_model is not None:
            raise InvalidParameterError(
                "pass either an advisor or a cost_model, not both"
            )
        if prefetch_depth is not None and prefetch_depth < 0:
            raise InvalidParameterError("prefetch_depth must be >= 0 or None")
        if not 0.0 <= heat_tolerance < 1.0:
            raise InvalidParameterError("heat_tolerance must be in [0, 1)")
        if io_latency_s < 0:
            raise InvalidParameterError("io_latency_s must be >= 0")
        if drift_window is not None and drift_window <= 0:
            raise InvalidParameterError("drift_window must be >= 1 or None")
        if min_shard_rows is not None and min_shard_rows <= 0:
            raise InvalidParameterError("min_shard_rows must be >= 1 or None")
        if (
            min_shard_rows is not None
            and target_shard_rows is not None
            and min_shard_rows > target_shard_rows
        ):
            raise InvalidParameterError(
                "min_shard_rows cannot exceed target_shard_rows"
            )
        # Lifecycle policy: sizing against target_shard_rows turns
        # auto-split/auto-merge on unless explicitly disabled; a fixed
        # num_shards cluster stays static unless rebalance()d by hand.
        if auto_split is None:
            auto_split = target_shard_rows is not None
        elif auto_split and target_shard_rows is None:
            raise InvalidParameterError(
                "auto_split needs target_shard_rows to size shards against"
            )
        if min_shard_rows is None and target_shard_rows is not None:
            min_shard_rows = max(1, target_shard_rows // 4)
        self._num_shards = num_shards
        self._target_shard_rows = target_shard_rows
        self._auto_split = auto_split
        self._min_shard_rows = min_shard_rows
        self.executor = executor if executor is not None else SerialExecutor()
        if prefetch_depth is None:
            # Only executors that buy overlap justify fetching ahead;
            # an inline executor would just widen the memory bound.
            prefetch_depth = (
                1 if getattr(self.executor, "supports_prefetch", False) else 0
            )
        self.prefetch_depth = prefetch_depth
        self.heat_tolerance = heat_tolerance
        self.io_latency_s = io_latency_s
        self.shared_cache = (
            shared_cache if shared_cache is not None else InMemorySharedCache()
        )
        self.advisor = advisor if advisor is not None else Advisor(cost_model)
        self.cache_size = cache_size
        self.drift_window = drift_window
        self.plan_: ShardPlan | None = None
        self.shards: list[QueryEngine] = []
        #: Stable per-shard identities for shared-cache keys: positions
        #: shift when shards split or merge, uids never do — so a
        #: lifecycle operation retires exactly its own shards' entries
        #: while every sibling's stay reachable (and a fresh shard can
        #: never alias a retired one's keys).
        self.shard_uids: list[int] = []
        self.columns: dict[str, ColumnMeta] = {}
        self.migrations: list[Migration] = []
        self.splits: list[ShardSplit] = []
        self.merges: list[ShardMerge] = []
        self.gather_stats = GatherStats()
        #: Cluster-total I/O of the query path: the merged per-task
        #: snapshots every scatter fetch returns, wherever it ran.  A
        #: fixed workload must produce identical totals under every
        #: executor — the conformance suite asserts it.
        self.scatter_io = IOStats()
        #: Positions delivered to the coordinator by scatter replies
        #: (gather-side RID/position traffic).  Every path that
        #: consumes per-shard position lists counts them here; the
        #: aggregate pushdown path never increments it — the proof
        #: that counts, not RID lists, crossed the pipes.
        self.gather_rids = 0
        #: Observability hooks (:mod:`repro.obs`): all three default
        #: to ``None``; with no enabled tracer every operation emits
        #: into :data:`~repro.obs.tracer.NULL_TRACE`.  The tracer
        #: stitches coordinator and worker spans into per-query
        #: traces; the metrics registry receives counters/histograms
        #: from the cluster, its shared cache, its executor, and
        #: locally built shard disks; the slow-query log captures
        #: traces and plan reports past its threshold.
        self.tracer = tracer
        self.metrics = metrics
        self.slow_log = slow_log
        #: The module-docstring concurrency contract, enforced: every
        #: top-level operation holds this while it runs, serializing
        #: concurrent callers (the serve bridge's worker threads)
        #: per engine.  Reentrant — operations nest.
        self._serve_lock = threading.RLock()
        #: Monotone count of answer-changing operations (updates,
        #: column/lifecycle changes).  Single-flight coalescing keys
        #: include it so a request admitted *after* a mutation
        #: completed can never be served a scatter dispatched before
        #: it — the coalescing window closes at every write.
        self.mutations = 0
        #: Optional hot-shard read replicas
        #: (:class:`repro.serve.ReplicaSet`), attached via
        #: :meth:`attach_replicas`.  ``None`` costs one attribute
        #: check on the fetch path.
        self.replicas = None
        #: Optional write-ahead log (:class:`repro.persist.DeltaLog`),
        #: attached via :meth:`attach_wal`.  Every acknowledged
        #: answer-changing operation is journaled before the lock
        #: releases; derived work (drift auto-migrations, auto-splits)
        #: is suppressed because replay re-derives it.
        self.wal = None
        #: Called with each journaled record's seq (the background
        #: :class:`repro.persist.Checkpointer` installs itself here).
        self.wal_listener = None
        self._wal_suspended = False
        #: Shard uid -> snapshot path recorded at restore time, while
        #: the snapshot still equals the live shard.  The replica set
        #: rehydrates from these instead of rebuilding; any delta or
        #: retirement invalidates the entry (see :meth:`_ship_delta`).
        self._snap_sources: dict[int, str] = {}
        if metrics is not None:
            if getattr(self.shared_cache, "metrics", False) is None:
                self.shared_cache.metrics = metrics
            if getattr(self.executor, "metrics", False) is None:
                self.executor.metrics = metrics

    def _new_uid(self) -> int:
        return next(_UID_SOURCE)

    # ------------------------------------------------------------------
    # Resident-executor synchronization (delta shipping)
    # ------------------------------------------------------------------

    @property
    def _resident(self) -> bool:
        return getattr(self.executor, "kind", "local") == "resident"

    def _column_payload(self, column: EngineColumn) -> tuple:
        """One column's picklable build snapshot for a worker replica.

        The backend is pinned to the spec the local advisor already
        chose, so the replica is bit-identical by construction — the
        worker never re-runs (and so can never disagree with) the
        advisor.  The trailing epoch is the column's incarnation stamp
        (see :class:`ColumnMeta`): workers key any durable cache-store
        entries by it, so a re-added column never reads a
        predecessor's persisted results.
        """
        stats = column.stats
        meta = self.columns.get(column.name)
        return (
            column.name,
            list(column.codes),
            stats.sigma,
            stats.dynamism,
            stats.expected_selectivity,
            stats.require_exact,
            stats.require_delete,
            column.spec.name,
            meta.epoch if meta is not None else "",
        )

    def _shard_payload(self, shard_id: int) -> tuple:
        engine = self.shards[shard_id]
        return (
            self.cache_size,
            self.io_latency_s,
            [self._column_payload(col) for col in engine.columns.values()],
        )

    def _ship_build(self, shard_id: int) -> None:
        if self._resident:
            self.executor.build_shard(
                self.shard_uids[shard_id], self._shard_payload(shard_id)
            )

    def _ship_retire(self, uid: int) -> None:
        self._snap_sources.pop(uid, None)
        if self.replicas is not None:
            self.replicas.retire(uid)
        if self._resident:
            self.executor.retire_shard(uid)

    def _ship_delta(self, shard_id: int, delta: tuple) -> None:
        # The first delta makes any restore-time snapshot stale for
        # this shard: replicas must build from the live payload again.
        self._snap_sources.pop(self.shard_uids[shard_id], None)
        if self.replicas is not None:
            self.replicas.on_delta(self.shard_uids[shard_id], delta)
        if self._resident:
            self.executor.apply_delta(self.shard_uids[shard_id], delta)

    # ------------------------------------------------------------------
    # Write-ahead logging (repro.persist)
    # ------------------------------------------------------------------

    def attach_wal(self, wal) -> None:
        """Journal every acknowledged mutation into ``wal``.

        The caller owns the log's placement (usually
        :func:`repro.persist.init_persistence` or a restore).  Records
        are appended inside the serve lock, after the operation
        succeeded and before it is acknowledged, so the log never
        holds an operation that was refused, and never misses one that
        was acknowledged.
        """
        with self._serve_lock:
            if self.wal is not None:
                raise InvalidParameterError(
                    "a WAL is already attached; detach it first"
                )
            self.wal = wal

    def detach_wal(self):
        """Stop journaling; returns the log (not closed) or ``None``."""
        with self._serve_lock:
            wal, self.wal = self.wal, None
            return wal

    def _log(self, record: tuple) -> None:
        if self.wal is None or self._wal_suspended:
            return
        seq = self.wal.append(record)
        if self.metrics is not None:
            self.metrics.counter("persist.wal.records").inc()
        listener = self.wal_listener
        if listener is not None:
            listener(seq)

    @contextmanager
    def _suppress_wal(self):
        """Mask derived work out of the journal.

        Drift auto-migrations and lifecycle auto-splits/merges are
        deterministic consequences of the logical record that
        triggered them: WAL replay re-runs that record through the
        public API and re-derives them.  Logging both the trigger and
        the derivation would double-apply on replay.
        """
        previous = self._wal_suspended
        self._wal_suspended = True
        try:
            yield
        finally:
            self._wal_suspended = previous

    # ------------------------------------------------------------------
    # Hot-shard read replicas
    # ------------------------------------------------------------------

    def attach_replicas(self, replica_set) -> None:
        """Attach a :class:`repro.serve.ReplicaSet` to this cluster.

        The set rides the same routed-delta stream the resident
        executor does (:meth:`_ship_delta` / :meth:`_ship_retire`), so
        replicas stay in sync however updates arrive; scatter fetches
        consult it after a shared-cache miss and fall back to the
        primary whenever the replica is absent or stale.
        """
        with self._serve_lock:
            if self.replicas is not None:
                raise InvalidParameterError(
                    "a ReplicaSet is already attached; detach it first"
                )
            self.replicas = replica_set
            replica_set.bind(self)

    def detach_replicas(self) -> None:
        """Drop the attached replica set (a no-op when none is)."""
        with self._serve_lock:
            replicas, self.replicas = self.replicas, None
            if replicas is not None:
                replicas.unbind()

    def _replica_fetch(self, name: str, shard_id: int, lo: int, hi: int):
        """One shard range from a fresh replica, or ``None``.

        Returns ``(positions, io_snapshot)``, the answer and I/O a
        primary fetch would have returned; freshness is fenced by the
        shard-local column version, so a replica that missed a delta
        can only ever *miss*, never answer stale.
        """
        replicas = self.replicas
        if replicas is None:
            return None
        uid = self.shard_uids[shard_id]
        version = self.shards[shard_id].column(name).version
        return replicas.fetch(uid, name, lo, hi, version)

    # ------------------------------------------------------------------
    # Column management
    # ------------------------------------------------------------------

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    def add_column(
        self,
        name: str,
        codes: Sequence[int],
        sigma: int | None = None,
        dynamism: str = "static",
        expected_selectivity: float = 0.1,
        require_exact: bool = True,
        require_delete: bool = False,
        backend: str | None = None,
    ) -> ColumnMeta:
        """Shard a column and build one index per shard.

        The first column fixes the shard plan (``num_shards`` /
        ``target_shard_rows`` from the constructor); later columns must
        arrive at the same build-time length, since shards partition
        one shared RID space.  ``sigma`` is the *global* alphabet; a
        static shard re-applies §1.1's dictionary trick locally — its
        slice is re-encoded onto the dense alphabet of the codes it
        actually holds, and global query ranges are translated (with
        floor/ceiling semantics) at scatter time — so a shard holding
        four distinct values gets four-bitmap directories and
        low-cardinality stats no matter how sparse its codes are
        globally.  Dynamic shards keep the global alphabet, because an
        update can route any character anywhere.  Either way each
        shard's stats are measured from its own slice, which is how
        different shards of one column end up on different backends.
        """
        with self._serve_lock:
            meta = self._add_column_impl(
                name, codes, sigma, dynamism, expected_selectivity,
                require_exact, require_delete, backend,
            )
            self.mutations += 1
            self._log((
                "add_column", name, list(codes), meta.sigma, dynamism,
                expected_selectivity, require_exact, require_delete,
                backend,
            ))
            return meta

    def _add_column_impl(
        self,
        name: str,
        codes: Sequence[int],
        sigma: int | None,
        dynamism: str,
        expected_selectivity: float,
        require_exact: bool,
        require_delete: bool,
        backend: str | None,
    ) -> ColumnMeta:
        if name in self.columns:
            raise InvalidParameterError(f"column {name!r} already exists")
        if not len(codes):
            raise InvalidParameterError(f"column {name!r} is empty")
        # Validate the global alphabet up front: static shards are
        # re-dictionaried onto local alphabets, which would otherwise
        # silently swallow an out-of-range code forever.
        lo_code, hi_code = min(codes), max(codes)
        if sigma is None:
            sigma = hi_code + 1
        if lo_code < 0 or hi_code >= sigma:
            raise InvalidParameterError(
                f"column {name!r} holds codes outside the declared "
                f"alphabet [0, {sigma})"
            )
        created_plan = self.plan_ is None
        if created_plan:
            self.plan_ = plan_shards(
                len(codes), self._num_shards, self._target_shard_rows
            )
            self.shards = [
                QueryEngine(advisor=self.advisor, cache_size=self.cache_size)
                for _ in range(self.plan_.num_shards)
            ]
            self.shard_uids = [
                self._new_uid() for _ in range(self.plan_.num_shards)
            ]
        elif len(codes) != self.plan_.n:
            raise InvalidParameterError(
                f"column {name!r} has {len(codes)} rows; this cluster was "
                f"sharded for {self.plan_.n}"
            )
        meta = ColumnMeta(
            name=name,
            sigma=sigma,
            dynamism=dynamism,
            expected_selectivity=expected_selectivity,
            require_exact=require_exact,
            require_delete=require_delete,
            backend=backend,
            epoch=uuid.uuid4().hex,
            updates_since_stat={s: 0 for s in range(self.num_shards)},
        )
        # Register the metadata before building: the worker shipments
        # below read the column's epoch through it.  The unwind path
        # removes it again, so a failed add_column still leaves the
        # name unclaimed.
        self.columns[name] = meta
        built: list[int] = []
        shipped: list[int] = []
        try:
            for shard_id, (start, stop) in enumerate(self.plan_.slices()):
                # One canonical builder (shared with split/merge):
                # static slices re-dictionary onto their local
                # alphabet, dynamic slices keep the global one.
                meta.domains[shard_id] = self._build_shard_column(
                    self.shards[shard_id],
                    meta,
                    list(codes[start:stop]),
                    backend,
                )
                built.append(shard_id)
            if self._resident:
                for shard_id in range(self.num_shards):
                    if created_plan:
                        # The first column creates the shard set:
                        # ship each shard's full build snapshot.
                        self._ship_build(shard_id)
                    else:
                        self._ship_delta(
                            shard_id,
                            (
                                "add_column",
                                self._column_payload(
                                    self.shards[shard_id].column(name)
                                ),
                            ),
                        )
                    shipped.append(shard_id)
        except BaseException:
            # Unwind the shards that already built, so a failed
            # add_column neither bricks the name nor (for the very
            # first column) pins the cluster to the failed length.
            for shard_id in shipped:
                try:
                    if created_plan:
                        self._ship_retire(self.shard_uids[shard_id])
                    else:
                        self._ship_delta(shard_id, ("drop_column", name))
                except Exception:  # best-effort worker cleanup
                    pass
            for shard_id in built:
                self.shards[shard_id].drop_column(name)
            self.columns.pop(name, None)
            if created_plan:
                self.plan_ = None
                self.shards = []
                self.shard_uids = []
            raise
        return meta

    def _translate_range(
        self, meta: ColumnMeta, shard_id: int, char_lo: int, char_hi: int
    ) -> tuple[int, int] | None:
        """A global code range in one shard's local alphabet.

        ``None`` when the shard holds nothing in the range (the shard
        is pruned from the scatter entirely).  Dynamic shards store
        global codes, so translation is the identity.
        """
        domain = meta.domains.get(shard_id)
        if domain is None:
            return char_lo, char_hi
        lo = bisect.bisect_left(domain, char_lo)
        hi = bisect.bisect_right(domain, char_hi) - 1
        return (lo, hi) if lo <= hi else None

    def _meta(self, name: str) -> ColumnMeta:
        try:
            return self.columns[name]
        except KeyError:
            raise QueryError(f"unknown column {name!r}") from None

    def _check_shard(self, shard_id: int) -> None:
        if shard_id < 0 or shard_id >= self.num_shards:
            raise InvalidParameterError(
                f"shard {shard_id} outside [0, {self.num_shards})"
            )

    def shard_column(self, name: str, shard_id: int) -> EngineColumn:
        """One shard's :class:`EngineColumn` for a cluster column."""
        self._meta(name)
        self._check_shard(shard_id)
        return self.shards[shard_id].column(name)

    def drop_column(self, name: str) -> None:
        with self._serve_lock:
            self._meta(name)
            for shard_id, shard in enumerate(self.shards):
                shard.drop_column(name)
                self._ship_delta(shard_id, ("drop_column", name))
            # Fold keys span columns, so no prefix names this column's
            # folds alone: the whole fold namespace goes with it.
            self.shared_cache.invalidate(column=name)
            self.shared_cache.invalidate(column=FOLDS)
            del self.columns[name]
            self.mutations += 1
            self._log(("drop_column", name))

    # ------------------------------------------------------------------
    # RID bookkeeping
    # ------------------------------------------------------------------

    def shard_lengths(self, name: str) -> list[int]:
        """Each shard's current (possibly hole-y) position-space size."""
        self._meta(name)
        return [shard.column(name).n for shard in self.shards]

    def total_rows(self, name: str) -> int:
        return sum(self.shard_lengths(name))

    def backends(self, name: str) -> list[str]:
        """The backend serving each shard, in shard order."""
        self._meta(name)
        return [shard.column(name).spec.name for shard in self.shards]

    # ------------------------------------------------------------------
    # Queries (scatter-gather)
    # ------------------------------------------------------------------

    def _check_range(self, meta: ColumnMeta, char_lo: int, char_hi: int) -> None:
        if char_lo < 0 or char_hi >= meta.sigma or char_lo > char_hi:
            raise QueryError(
                f"invalid character range [{char_lo}, {char_hi}] for "
                f"alphabet of size {meta.sigma}"
            )

    def _submit_fetch(
        self,
        name: str,
        meta: ColumnMeta,
        shard_id: int,
        lo: int,
        hi: int,
        trace=NULL_TRACE,
        defer: bool = False,
    ):
        """Launch one shard fetch; resolves to ``(positions, io, span)``.

        The shared cache is consulted first, here at the coordinator,
        then a hot-shard replica; either hit records a synchronous
        event and resolves at once, span slot ``None``.  A miss runs
        :func:`~repro.cluster.worker.fetch_range` — as a local
        executor task against this process's shard engine, or in the
        shard's resident worker through the pipelined query API — and
        its answer enters the shared cache when the gather consumes
        the reply.  Keys carry the shard's stable *uid*, not its
        position, so entries survive lifecycle operations on other
        shards and a post-split shard can never alias a retired
        shard's entries.

        With ``defer`` a resident miss is not sent yet: a
        :class:`_Deferred` comes back instead, so the caller can ship
        the whole scatter grouped per worker
        (:meth:`~repro.cluster.executor.ProcessExecutor.\
submit_query_group`) instead of one message per shard.
        """
        uid = self.shard_uids[shard_id]
        column = self.shards[shard_id].column(name)
        key = shared_key(name, meta.epoch, uid, column.version, lo, hi)
        hit = self.shared_cache.get(key)
        if hit is not None:
            trace.event(
                "cache_lookup", tier="shared", hit=True,
                column=name, shard_uid=uid, bits_read=0,
            )
            return CompletedFuture((hit, Snapshot(), None))
        replica = self._replica_fetch(name, shard_id, lo, hi)
        if replica is not None:
            positions, io = replica
            self.shared_cache.put(key, positions)
            trace.event(
                "replica_fetch", column=name, shard_uid=uid,
                char_lo=lo, char_hi=hi, bits_read=io.bits_read,
            )
            return CompletedFuture((positions, io, None))

        def absorb(reply: tuple) -> tuple:
            self.shared_cache.put(key, reply[0])
            return reply

        if not self._resident:
            future = self.executor.submit(
                fetch_range, self.shards[shard_id], uid, name, lo, hi,
                trace.trace_id, self._clock(), "leaf_fetch",
            )
        elif defer:
            return _Deferred((uid, name, lo, hi), absorb)
        else:
            self._note_flush(trace, uid)
            future = self.executor.submit_query(
                uid, name, lo, hi, trace=trace.trace_id
            )
        return MappedFuture(future, absorb)

    def _collect(self, reply: tuple, trace):
        """Account one shard reply ``(value, io, span)``; its value.

        Every gather ends here, whatever the op or executor: the span
        (if the reply carries one) grafts under the open ``scatter``
        span, and the I/O folds into ``scatter_io`` and the
        ``query.bits_read`` metric — so summed span bits and both
        counters always agree.
        """
        value, io, span = reply
        trace.graft((span,))
        self.scatter_io.add(io)
        if self.metrics is not None and io.bits_read:
            self.metrics.inc("query.bits_read", io.bits_read)
        return value

    def _replies(self, futures: list):
        """Each future's reply, in order.

        On the first error the futures after it are drained before
        the error propagates (see :meth:`_drain`).
        """
        for i, future in enumerate(futures):
            try:
                reply = future.result()
            except BaseException:
                self._drain(futures[i + 1 :])
                raise
            yield reply

    @staticmethod
    def _drain(futures, late=NULL_TRACE) -> None:
        """Resolve leftover futures, discarding results and errors.

        Abandoning a pipelined request would leave its reply in a
        resident worker's FIFO pipe and poison the next query; both
        the materialized scatter's error path and the streaming
        gather's early-close path drain through here.  Each reply's
        span is offered to ``late`` — a finished trace drops and
        counts it.
        """
        for future in futures:
            try:
                late.graft((future.result()[2],))
            except Exception:
                pass

    # ------------------------------------------------------------------
    # Observability (repro.obs)
    # ------------------------------------------------------------------

    @contextmanager
    def _observed(self, op: str, report_fn=None):
        """:meth:`~repro.obs.tracer.ObservedOps._observed`, serialized.

        The serve lock is held for the whole operation, nested
        entries included (it is reentrant).
        """
        with self._serve_lock, super()._observed(op, report_fn) as trace:
            yield trace

    def _clock(self):
        """The span clock: the tracer's when attached, monotonic else."""
        tracer = self.tracer
        return tracer.clock if tracer is not None else time.monotonic

    def _note_flush(self, trace, uid: int) -> None:
        """Attribute an imminent delta-batch flush to its flushing query.

        Buffered coalescable deltas are shipped lazily, riding ahead
        of the next query on that shard's pipe — so the *query* is the
        call site that pays the flush.  A resident submit calls this
        first, recording a zero-duration ``delta_flush`` event with
        the batch size about to go out.
        """
        deltas = self.executor.pending_delta_count(uid)
        if deltas:
            trace.event("delta_flush", shard_uid=uid, deltas=deltas)

    # ------------------------------------------------------------------
    # Predicate serving (the shared repro.query path)
    # ------------------------------------------------------------------

    def _compile_pred(
        self, pred: Pred, trace=NULL_TRACE
    ) -> tuple[Plan, int]:
        """Compile a code-space predicate against the cluster's columns.

        Mirrors ``QueryEngine._compile_pred``: eager validation of
        every leaf's column, one shared row universe across the
        predicate's columns (drifted columns serve positive plans
        against the widest universe, ``Not``/``TRUE`` are rejected).
        """
        with trace.span("plan", predicate=pred):
            plan = compile_pred(pred, lambda name: self._meta(name).sigma)
            universe = resolve_universe(plan, self.total_rows)
        return plan, universe

    def _fetch_plan_leaves(
        self, plan: Plan, universe: int, trace=NULL_TRACE
    ) -> list[RangeResult]:
        """Scatter-fetch every unique leaf of a compiled plan.

        Every (leaf, shard) fetch is launched before the first is
        collected, so per-shard work overlaps under any executor that
        buys overlap.  Under a *resident* executor the fetches are
        additionally *batched*: every (leaf, shard) interval missing
        from the shared cache ships in one grouped request, one
        pipelined message per worker, so a wide IN-list over many
        shards costs one round-trip per worker.  Per-shard answers
        consult and populate the shared result cache, then
        offset-translate into one global :class:`RangeResult` per
        leaf.  The fetch order is canonical (leaf-table order within
        each shard), so a fixed workload reads identical bits under
        every executor.
        """
        per_leaf: list[list] = [[()] * self.num_shards for _ in plan.leaves]
        metas = {col: self._meta(col) for col in {l[0] for l in plan.leaves}}
        offsets = {
            col: offsets_of(self.shard_lengths(col)) for col in metas
        }
        slots: list[tuple[int, int]] = []  # (leaf_idx, shard_id)
        futures: list = []
        with trace.span("scatter", leaves=len(plan.leaves)):
            for shard_id in range(self.num_shards):
                for leaf_idx, (col, lo, hi) in enumerate(plan.leaves):
                    local = self._translate_range(metas[col], shard_id, lo, hi)
                    if local is not None:
                        slots.append((leaf_idx, shard_id))
                        futures.append(
                            self._submit_fetch(
                                col, metas[col], shard_id, *local, trace,
                                defer=True,
                            )
                        )
            deferred = [
                i for i, f in enumerate(futures) if isinstance(f, _Deferred)
            ]
            if deferred:
                requests = [futures[i].request for i in deferred]
                for uid in dict.fromkeys(request[0] for request in requests):
                    self._note_flush(trace, uid)
                group = self.executor.submit_query_group(
                    requests, trace=trace.trace_id
                )
                for i, future in zip(deferred, group):
                    futures[i] = MappedFuture(future, futures[i].absorb)
            for (leaf_idx, shard_id), reply in zip(
                slots, self._replies(futures)
            ):
                positions = self._collect(reply, trace)
                self.gather_rids += len(positions)
                per_leaf[leaf_idx][shard_id] = positions
        with trace.span("gather_merge"):
            results: list[RangeResult] = []
            for leaf_idx, (col, _, _) in enumerate(plan.leaves):
                off = offsets[col]
                merged: list[int] = []
                for shard_id in range(self.num_shards):
                    positions = per_leaf[leaf_idx][shard_id]
                    merged.extend(off[shard_id] + p for p in positions)
                results.append(RangeResult(merged, universe))
        return results

    def _query_pred(self, pred: Pred) -> RangeResult:
        with self._observed(
            "query", report_fn=lambda: self._plan_report(pred)
        ) as trace:
            plan, universe = self._compile_pred(pred, trace)
            leaf_results = self._fetch_plan_leaves(plan, universe, trace)
            return evaluate(plan, leaf_results, universe)

    # ------------------------------------------------------------------
    # Aggregates (plan pushdown: counts cross the pipes, never RIDs)
    # ------------------------------------------------------------------

    def _specialize_shard(
        self, plan: Plan, metas: dict, shard_id: int
    ) -> tuple[tuple, tuple]:
        """One shard's localized (leaves, root) via its alphabets."""
        return specialize(
            plan,
            lambda col, lo, hi: self._translate_range(
                metas[col], shard_id, lo, hi
            ),
        )

    def _submit_fold(self, shard_id: int, payload: tuple, trace):
        """Launch one shard's fold; resolves to ``(value, io, span)``.

        The shared cache is consulted first, here at the coordinator,
        then a fresh hot-shard replica; either hit records a
        synchronous event and resolves at once, span slot ``None`` —
        a cache hit sends no message and reads no bits.  A miss runs
        :func:`~repro.cluster.worker.fold_shard` — the resident
        worker's ``fold`` op, or a local executor task against this
        process's own shard engine, so value and measured I/O are
        executor-independent — and its value enters the shared cache,
        encoded as ints (:func:`~repro.cluster.cache.fold_entry`),
        when the gather consumes the reply.  The
        :func:`~repro.cluster.cache.fold_key` carries the shard uid,
        the specialized payload and every read column's epoch and
        version, so a write to any of those columns on this shard
        makes the entry unreachable.
        """
        uid = self.shard_uids[shard_id]
        mode = payload[0]
        engine = self.shards[shard_id]
        versions = {col: engine.column(col).version for col in payload[1]}
        key = fold_key(
            uid, payload,
            tuple(
                (col, self.columns[col].epoch, version)
                for col, version in versions.items()
            ),
        )
        hit = self.shared_cache.get(key)
        if hit is not None:
            trace.event(
                "cache_lookup", tier="shared", hit=True, mode=mode,
                shard_uid=uid, bits_read=0,
            )
            return CompletedFuture((fold_value(mode, hit), Snapshot(), None))
        if self.replicas is not None:
            replica = self.replicas.fold(uid, payload, versions)
            if replica is not None:
                value, io = replica
                self.shared_cache.put(key, fold_entry(mode, value))
                trace.event(
                    "replica_fold", mode=mode, shard_uid=uid,
                    bits_read=io.bits_read,
                )
                return CompletedFuture((value, io, None))

        def absorb(reply: tuple) -> tuple:
            self.shared_cache.put(key, fold_entry(mode, reply[0]))
            return reply

        if self._resident:
            self._note_flush(trace, uid)
            future = self.executor.submit_fold(
                uid, payload, trace=trace.trace_id
            )
        else:
            future = self.executor.submit(
                fold_shard, engine, uid, payload,
                trace.trace_id, self._clock(), "shard_fold",
            )
        return MappedFuture(future, absorb)

    def _fold_futures(
        self, mode: str, plan: Plan, group: "str | None", trace
    ):
        """One fold future per shard, submitted lazily in shard order.

        Shards partition the RID universe and every plan operator acts
        row-wise, so the global aggregate decomposes exactly into
        per-shard folds.  Each shard's plan is first *specialized*
        (leaves translated onto its local alphabets, pruned leaves
        constant-folded): an ``EMPTY`` root contributes its identity
        with no round trip at all, an ``ALL`` root under
        ``count``/``exists`` is answered from the coordinator's own
        row count — ``Not`` over a fully-pruned leaf means *every*
        shard row, no worker needed — and only genuinely mixed shards
        submit a fold (:meth:`_submit_fold`), which the shared result
        cache answers when the shard's columns have not moved.
        """
        names = set(plan.columns) if group is None else {*plan.columns, group}
        metas = {col: self._meta(col) for col in names}
        columns = tuple(sorted(metas))
        for shard_id in range(self.num_shards):
            leaves, root = self._specialize_shard(plan, metas, shard_id)
            if root[0] == EMPTY:
                value = {"count": 0, "exists": False, "count_by": {}}[mode]
            elif root[0] == ALL and mode != "count_by":
                rows = self.shards[shard_id].column(columns[0]).n
                value = rows if mode == "count" else rows > 0
            else:
                payload = (mode, columns, leaves, root, group)
                yield self._submit_fold(shard_id, payload, trace)
                continue
            yield CompletedFuture((value, Snapshot(), None))

    def _scatter_fold(
        self,
        mode: str,
        plan: Plan,
        group: "str | None" = None,
        trace=NULL_TRACE,
    ) -> list:
        """Scatter one aggregate plan; gather per-shard fold values.

        Every shard's fold is launched before the first is collected.
        Under a resident executor a fold is the ``fold`` pipe op: the
        whole shard-local plan evaluates in the worker and one number
        (plus its I/O snapshot) comes back; ``gather_rids`` is
        untouched because no positions cross.
        """
        with trace.span("scatter", mode=mode):
            futures = list(self._fold_futures(mode, plan, group, trace))
            return [
                self._collect(reply, trace)
                for reply in self._replies(futures)
            ]

    def count(self, pred: Pred) -> int:
        """How many rows match — the coordinator only sums.

        Each shard folds its localized plan in cardinality space
        (worker-resident under a process executor) and reports one
        integer; fully-pruned shards, shards a complement fully
        covers, and shards whose fold sits in the shared result cache
        at their current column versions are answered without any
        round trip.  No RID list is materialized anywhere — not per
        shard, not globally.
        """
        with self._observed(
            "count", report_fn=lambda: self._plan_report(pred)
        ) as trace:
            plan, _ = self._compile_pred(pred, trace)
            return sum(self._scatter_fold("count", plan, trace=trace))

    def exists(self, pred: Pred) -> bool:
        """Does any row match?  Walks shards and stops at first evidence.

        Shards are probed one at a time in shard order — each fold
        itself short-circuits inside the shard — and the walk ends at
        the first non-empty fold, so later shards are never queried.
        The walk order is deterministic, making the bits read
        identical under every executor.
        """
        with self._observed(
            "exists", report_fn=lambda: self._plan_report(pred)
        ) as trace:
            plan, _ = self._compile_pred(pred, trace)
            with trace.span("scatter", mode="exists"):
                return any(
                    self._collect(future.result(), trace)
                    for future in self._fold_futures(
                        "exists", plan, None, trace
                    )
                )

    def count_by(
        self, group: str, pred: "Pred | None" = None
    ) -> dict[int, int]:
        """Matching-row counts per *global* code of ``group``.

        Every shard folds the predicate once, hashes that answer once
        and counts all its local group-equality leaves against it in
        one pass (O(z + sum of group leaf sizes) per shard), shipping
        a ``{local code: count}`` dict; the coordinator translates local
        codes through each static shard's domain back into global
        codes and sums.  Codes, counts and snapshots cross the pipes —
        positions never do.  ``pred=None`` counts all rows by group.
        """
        meta = self._meta(group)
        report_fn = (
            (lambda: self._plan_report(pred)) if pred is not None else None
        )
        with self._observed("count_by", report_fn=report_fn) as trace:
            if pred is None:
                plan = Plan(
                    normalized=TRUE,
                    leaves=(),
                    root=(ALL,),
                    columns=(group,),
                )
            else:
                with trace.span("plan", predicate=pred):
                    plan = compile_pred(
                        pred, lambda name: self._meta(name).sigma
                    )
                    # The group column joins universe validation: its
                    # equality leaves execute in the same position
                    # space as the pred.
                    resolve_universe(
                        replace(
                            plan,
                            columns=tuple(
                                sorted(set(plan.columns) | {group})
                            ),
                        ),
                        self.total_rows,
                    )
            folds = self._scatter_fold("count_by", plan, group, trace=trace)
            with trace.span("gather_merge"):
                merged: dict[int, int] = {}
                for shard_id, shard_counts in enumerate(folds):
                    domain = meta.domains.get(shard_id)
                    for local_code, n in shard_counts.items():
                        code = (
                            local_code
                            if domain is None
                            else domain[local_code]
                        )
                        merged[code] = merged.get(code, 0) + n
            return merged

    def topk(
        self, group: str, pred: "Pred | None" = None, k: int = 10
    ) -> list[tuple[int, int]]:
        """The ``k`` most frequent group codes among matching rows.

        ``(code, count)`` pairs, count-descending, code ascending on
        ties — computed from one :meth:`count_by` pushdown.
        """
        if k <= 0:
            raise InvalidParameterError("topk requires k >= 1")
        counts = self.count_by(group, pred)
        return sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:k]

    def _plan_report(self, pred: Pred) -> PlanReport:
        plan, universe = self._compile_pred(pred)
        leaves = []
        for col, lo, hi in plan.leaves:
            shards = []
            predicted = 0.0
            live_cached: list[bool] = []
            for shard_id, shard_plan in enumerate(self.plan(col, lo, hi)):
                if shard_plan is None:
                    shards.append(
                        ShardLeafPlan(shard_id=shard_id, pruned=True)
                    )
                    continue
                shards.append(
                    ShardLeafPlan(
                        shard_id=shard_id,
                        pruned=False,
                        backend=shard_plan.spec.name,
                        family=shard_plan.spec.family,
                        estimated_cost_bits=shard_plan.estimated_cost_bits,
                        cached=shard_plan.cached,
                    )
                )
                live_cached.append(shard_plan.cached)
                if not shard_plan.cached:
                    predicted += shard_plan.estimated_cost_bits
            # A leaf every shard prunes reads no bits and sits in no
            # cache: live_cached stays empty, so cached must collapse
            # to False (not the vacuous all()) and predicted stays 0.
            leaves.append(
                LeafPlan(
                    column=col,
                    char_lo=lo,
                    char_hi=hi,
                    backend=None,
                    family=None,
                    estimated_cost_bits=predicted,
                    cached=bool(live_cached) and all(live_cached),
                    shards=tuple(shards),
                )
            )
        return PlanReport(
            kind="cluster",
            predicate=repr(plan.normalized),
            universe=universe,
            root=plan.root,
            leaves=tuple(leaves),
            num_shards=self.num_shards,
            estimated_total_bits=sum(
                leaf.estimated_cost_bits for leaf in leaves
            ),
        )

    def query(
        self,
        name: "str | Pred",
        char_lo: int | None = None,
        char_hi: int | None = None,
    ) -> RangeResult:
        """One query: a leaf scatter-gather, or a whole predicate.

        With a predicate, every unique leaf of the compiled plan is
        scatter-fetched (batched per worker under a resident executor)
        and the answers fold through the same
        :func:`repro.query.evaluate` path the single-process engine
        uses — the two serving layers execute the identical plan
        object.  A leaf range runs as a one-leaf plan through the same
        scatter.
        """
        if isinstance(name, Pred):
            if char_lo is not None or char_hi is not None:
                raise InvalidParameterError(
                    "a predicate query takes no range arguments"
                )
            return self._query_pred(name)
        if char_lo is None or char_hi is None:
            raise InvalidParameterError(
                "query(name, char_lo, char_hi) requires both bounds; "
                "pass a predicate for composed queries"
            )
        meta = self._meta(name)
        self._check_range(meta, char_lo, char_hi)
        # Built directly, not compiled: normalization folds a
        # full-alphabet range to TRUE, whose answer would count the
        # holes of pending deletes as rows.
        plan = Plan(
            normalized=Range(name, char_lo, char_hi),
            leaves=((name, char_lo, char_hi),),
            root=(LEAF, 0),
            columns=(name,),
        )
        with self._observed("query") as trace:
            (result,) = self._fetch_plan_leaves(
                plan, self.total_rows(name), trace
            )
            return result

    def query_iter(self, name: str, char_lo: int, char_hi: int):
        """One global range query as a lazily gathered RID stream.

        Shard order is global RID order, so the k-way merge of sorted
        disjoint per-shard runs degenerates to concatenation; the
        stream visits shards left to right, materializing one shard's
        (individually shared-cacheable) answer at a time and
        translating local positions by the live offset.

        The walk is a *bounded prefetching bridge*: up to
        ``prefetch_depth`` later shards' fetches are launched while
        the current shard's buffer drains, so per-shard fetch latency
        overlaps the drain instead of serializing behind it (the
        depth defaults to 0 under the inline executor, where fetching
        ahead buys nothing).  Peak intermediate memory is therefore
        bounded by ``1 + prefetch_depth`` shard answers — still O(max
        shard answer), never O(global answer); ``gather_stats``
        records the high-water mark, each buffer acquired when the
        stream takes delivery and released as soon as it moves past
        (or is closed early).

        Tracing: called at depth 0 with an enabled tracer, the stream
        *owns* a ``query_iter`` trace, finished when the stream ends —
        exhausted or closed early.  Replies still in flight at an
        early close are drained (FIFO hygiene) and their spans offered
        to the already-finished trace, which drops and counts them
        (``Tracer.dropped_spans``) — abandoned pipelined replies can
        never leak spans into a later query's trace.  Called inside an
        observed op (a materialized ``select``), the fetch spans graft
        into that op's active trace instead; abandoned replies' spans
        are dropped there too, as their bits never reach
        ``scatter_io``.
        """
        meta = self._meta(name)
        self._check_range(meta, char_lo, char_hi)
        tracer = self.tracer
        trace = self._active_trace
        owned = NULL_TRACE
        if self._op_depth == 0 and tracer is not None and tracer.enabled:
            trace = owned = tracer.begin(
                "query_iter", column=name, char_lo=char_lo, char_hi=char_hi
            )

        def gen():
            lengths = self.shard_lengths(name)
            offsets = offsets_of(lengths)
            tasks = []
            for shard_id in range(self.num_shards):
                local = self._translate_range(
                    meta, shard_id, char_lo, char_hi
                )
                if local is not None:
                    tasks.append((shard_id, local))
            in_flight: deque = deque()
            next_task = 0

            def top_up() -> None:
                nonlocal next_task
                while (
                    next_task < len(tasks)
                    and len(in_flight) < self.prefetch_depth + 1
                ):
                    shard_id, (lo, hi) = tasks[next_task]
                    next_task += 1
                    in_flight.append(
                        (
                            shard_id,
                            self._submit_fetch(
                                name, meta, shard_id, lo, hi, trace
                            ),
                        )
                    )

            # With a prefetch window, the drained buffer is released
            # only once the next one is delivered — the two coexist at
            # the handoff and the accounting must say so.  Without one
            # (depth 0, the inline executor — whose submit() runs the
            # fetch on the spot) the next fetch must not even *start*
            # until the current buffer is drained and released: that
            # preserves the exact one-buffer bound of the serial walk
            # and its lazy I/O (an early-exiting consumer never pays
            # for shards it did not reach).
            overlap = self.prefetch_depth > 0
            held = 0
            top_up()
            try:
                while in_flight:
                    shard_id, future = in_flight.popleft()
                    positions = self._collect(future.result(), trace)
                    self.gather_rids += len(positions)
                    self.gather_stats.acquire(len(positions))
                    if held:
                        self.gather_stats.release(held)
                    held = len(positions)
                    if overlap:
                        # Keep the pipeline full while this buffer
                        # drains — the prefetch window.
                        top_up()
                    offset = offsets[shard_id]
                    for p in positions:
                        yield offset + p
                    if not overlap:
                        self.gather_stats.release(held)
                        held = 0
                        top_up()  # serial walk: fetch only when needed
            finally:
                if held:
                    self.gather_stats.release(held)
                if owned is not NULL_TRACE:
                    # The stream is over (exhausted or closed early):
                    # finish the owned trace *first*, so the spans of
                    # abandoned replies drained below are dropped and
                    # counted, never leaked into a later trace.
                    tracer.finish(owned)
                self._drain((future for _, future in in_flight), owned)

        return gen()

    def select(self, conditions: Pred) -> list[int]:
        """Global RIDs matching a predicate.

        The materialized form of :meth:`select_iter` — only the final
        answer is built as a list; every intermediate stays inside the
        streaming plan pipeline's per-shard buffers, so peak memory
        keeps the O(max shard answer per leaf) bound however large
        the per-leaf answers are.  (:meth:`query` over a predicate is
        the batch-scatter alternative: all leaves fetched upfront
        with per-worker batching and a complement-aware
        :class:`RangeResult` out.)
        """
        with self._observed(
            "select", report_fn=lambda: self._plan_report(conditions)
        ) as trace:
            plan, universe = self._compile_pred(conditions, trace)
            return list(evaluate_iter(plan, self.query_iter, universe))

    def select_iter(self, conditions: Pred):
        """Streaming select over global RIDs.

        One lazy gather per plan leaf (each per-shard sub-answer
        individually shared-cacheable, prefetched up to
        ``prefetch_depth`` ahead), combined by the compiled plan's
        streaming pipeline: ``And`` merge-intersects in lockstep,
        ``Or`` merge-unions (the k-way merge-union alongside the
        existing merge-intersect), negated children subtract.  RIDs
        are emitted one at a time and peak intermediate memory stays
        bounded by ``(1 + prefetch_depth)`` shard answers per live
        leaf — O(block), not O(answer) — however huge the result.
        Predicates are validated and compiled eagerly, before the
        first RID is drawn.

        Observability: the stream counts one ``query.count`` at call
        time (a lazy stream's end-to-end latency belongs to its
        consumer, so no latency histogram or slow-log entry is
        recorded); under an enabled tracer each leaf's lazy gather
        owns its own ``query_iter`` trace — there is no single
        stitched trace for a streaming select.  Use :meth:`select`
        (same plan, materialized) for one trace per query.
        """
        plan, universe = self._compile_pred(conditions)
        if self.metrics is not None and self._op_depth == 0:
            self.metrics.inc("query.count")
        return evaluate_iter(plan, self.query_iter, universe)

    def plan(
        self,
        name: "str | Pred",
        char_lo: int | None = None,
        char_hi: int | None = None,
    ) -> "list[QueryPlan | None] | PlanReport":
        """Per-shard plans for one leaf query, or a predicate's report.

        With a predicate, the typed :class:`~repro.query.PlanReport`
        whose leaf entries carry the full shard fan-out (per-shard
        backend verdict, predicted bits, shared-cache state, pruning).
        With ``(name, char_lo, char_hi)``, the per-shard
        :class:`QueryPlan` list: ``None`` marks a shard the range
        cannot touch (its local alphabet has no code inside it) — the
        scatter phase skips it entirely.  The ``cached`` flag reports
        the *shared* result cache — the tier the scatter consults
        first under every executor — not any one engine's private
        LRU, which under a resident executor lives in a worker
        process.
        """
        if isinstance(name, Pred):
            if char_lo is not None or char_hi is not None:
                raise InvalidParameterError(
                    "a predicate plan takes no range arguments"
                )
            return self._plan_report(name)
        if char_lo is None or char_hi is None:
            raise InvalidParameterError(
                "plan(name, char_lo, char_hi) requires both bounds; "
                "pass a predicate for composed queries"
            )
        meta = self._meta(name)
        plans: list[QueryPlan | None] = []
        for shard_id, shard in enumerate(self.shards):
            local = self._translate_range(meta, shard_id, char_lo, char_hi)
            if local is None:
                plans.append(None)
                continue
            plan = shard.plan(name, *local)
            key = shared_key(
                name, meta.epoch, self.shard_uids[shard_id],
                shard.column(name).version, plan.char_lo, plan.char_hi,
            )
            plans.append(replace(plan, cached=key in self.shared_cache))
        return plans

    def explain(
        self,
        name: "str | Pred | None" = None,
        char_lo: int | None = None,
        char_hi: int | None = None,
    ) -> "str | PlanReport":
        """Cluster-level report: a predicate, one leaf query, one
        column, or everything.

        Predicates answer with the typed
        :class:`~repro.query.PlanReport` (shard fan-out per leaf); the
        legacy string forms are unchanged.
        """
        if isinstance(name, Pred):
            if char_lo is not None or char_hi is not None:
                raise InvalidParameterError(
                    "a predicate explain takes no range arguments"
                )
            return self._plan_report(name)
        cache = self.shared_cache
        if name is not None and char_lo is not None and char_hi is not None:
            meta = self._meta(name)
            lines = [
                f"scatter-gather over {self.num_shards} shard(s), "
                f"merged by RID offset:"
            ]
            for shard_id, plan in enumerate(self.plan(name, char_lo, char_hi)):
                if plan is None:
                    lines.append(
                        f"  shard {shard_id}: pruned (no local code "
                        "in the range)"
                    )
                    continue
                column = self.shards[shard_id].column(name)
                key = shared_key(
                    name, meta.epoch, self.shard_uids[shard_id],
                    column.version, plan.char_lo, plan.char_hi,
                )
                shared = "shared-cache" if key in cache else "miss"
                lines.append(
                    f"  shard {shard_id}: {plan.describe()} [{shared}]"
                )
            return "\n".join(lines)
        if name is not None:
            meta = self._meta(name)
            lines = [
                f"column {name!r}: {self.num_shards} shard(s), "
                f"{self.total_rows(name)} rows, dynamism={meta.dynamism}"
            ]
            for shard_id, shard in enumerate(self.shards):
                column = shard.column(name)
                lines.append(
                    f"  shard {shard_id}: n={column.n} "
                    f"H0={column.stats.h0:.3f} -> {column.spec.name} "
                    f"[{column.spec.family}] v{column.version}"
                )
            return "\n".join(lines)
        hit_rate = getattr(cache, "hit_rate", None)
        cache_note = (
            f", shared cache hit rate {hit_rate:.1%}"
            if hit_rate is not None
            else ""
        )
        lines = [
            f"cluster: {self.num_shards} shard(s), "
            f"{len(self.columns)} column(s), "
            f"{len(self.migrations)} migration(s), "
            f"{len(self.splits)} split(s), "
            f"{len(self.merges)} merge(s){cache_note}"
        ]
        for name_ in self.columns:
            lines.append(f"  {name_}: {' | '.join(self.backends(name_))}")
        return "\n".join(lines)

    def stats(self) -> ClusterStats:
        """One typed, JSON-serializable snapshot of the cluster.

        Embeds the live accounting objects by value — ``scatter_io``
        as a :class:`~repro.iomodel.stats.Snapshot`, the streaming
        gather's :class:`GatherStats`, the resident executor's
        ``op_counts`` (empty under local executors; see
        ``ProcessExecutor.reset_op_counts`` for windowing) — plus
        per-shard rows/heat/backends, the shared cache's tier
        counters, lifecycle history lengths, and, when attached, the
        metrics registry dump and slow-query-log depth.  Resident
        executors contribute their ``worker_deaths`` count; an
        attached :class:`~repro.serve.ReplicaSet` contributes its
        ``stats().to_dict()`` snapshot.  Call ``.to_dict()`` to feed
        ``json.dumps``.
        """
        with self._serve_lock:
            return self._stats_impl()

    def _stats_impl(self) -> ClusterStats:
        cache = self.shared_cache
        shared = None
        if hasattr(cache, "hits"):
            try:
                size = len(cache)
            except TypeError:
                size = 0
            shared = CacheTierStats(
                tier="shared",
                hits=cache.hits,
                misses=cache.misses,
                size=size,
                capacity=getattr(cache, "capacity", None) or 0,
                evictions=getattr(cache, "evictions", 0),
            )
        shards = tuple(
            ShardStats(
                shard_id=shard_id,
                uid=self.shard_uids[shard_id],
                rows=self._live_rows(shard_id),
                heat=self.shard_heat(shard_id),
                backends=tuple(
                    (name, shard.column(name).spec.name)
                    for name in self.columns
                ),
            )
            for shard_id, shard in enumerate(self.shards)
        )
        return ClusterStats(
            num_shards=self.num_shards,
            columns=tuple(self.columns),
            scatter_io=self.scatter_io.snapshot(),
            gather_rids=self.gather_rids,
            gather=GatherStats(
                live_rids=self.gather_stats.live_rids,
                peak_rids=self.gather_stats.peak_rids,
            ),
            shards=shards,
            op_counts=dict(getattr(self.executor, "op_counts", None) or {}),
            shared_cache=shared,
            migrations=len(self.migrations),
            splits=len(self.splits),
            merges=len(self.merges),
            metrics=(
                self.metrics.to_dict() if self.metrics is not None else None
            ),
            slow_queries=(
                len(self.slow_log) if self.slow_log is not None else 0
            ),
            worker_deaths=getattr(self.executor, "worker_deaths", 0),
            replicas=(
                self.replicas.stats().to_dict()
                if self.replicas is not None
                else None
            ),
        )

    # ------------------------------------------------------------------
    # Updates (routed to one shard; others' cache entries stay live)
    # ------------------------------------------------------------------

    def _check_updatable(self, name: str) -> None:
        # The cluster-level contract, not just the backends': after a
        # freeze (``migrate(dynamism="static")``) a shard may well keep
        # an update-capable backend the advisor re-picked — the column
        # is frozen all the same.
        if self.columns[name].dynamism == "static":
            raise UpdateError(
                f"column {name!r} is declared static; migrate it (or "
                "re-add it) with a dynamism level before updating"
            )

    def append(self, name: str, ch: int) -> None:
        """Append one row to a column (the last shard absorbs growth)."""
        with self._serve_lock:
            self._meta(name)
            self._check_updatable(name)
            shard_id = self.num_shards - 1
            self.shards[shard_id].append(name, ch)
            self._ship_delta(shard_id, ("append", name, ch))
            self._log(("append", name, ch))
            # Journal the logical update only: any auto-split or drift
            # migration below is re-derived by replaying it.
            with self._suppress_wal():
                self._after_update(name, shard_id)

    def change(self, name: str, global_pos: int, ch: int) -> None:
        with self._serve_lock:
            self._meta(name)
            self._check_updatable(name)
            shard_id, local = self._route(name, global_pos)
            self.shards[shard_id].change(name, local, ch)
            self._ship_delta(shard_id, ("change", name, local, ch))
            self._log(("change", name, global_pos, ch))
            with self._suppress_wal():
                self._after_update(name, shard_id)

    def delete(self, name: str, global_pos: int) -> None:
        with self._serve_lock:
            self._meta(name)
            self._check_updatable(name)
            shard_id, local = self._route(name, global_pos)
            self.shards[shard_id].delete(name, local)
            self._ship_delta(shard_id, ("delete", name, local))
            self._log(("delete", name, global_pos))
            with self._suppress_wal():
                self._after_update(name, shard_id, deleted=True)

    def _route(self, name: str, global_pos: int) -> tuple[int, int]:
        lengths = self.shard_lengths(name)
        return locate(offsets_of(lengths), sum(lengths), global_pos)

    def _after_update(
        self, name: str, shard_id: int, deleted: bool = False
    ) -> None:
        # The version bump already made this shard's keys unreachable,
        # leaf and fold alike, and the LRU reclaims their space; a scan
        # to evict them would cost O(entries) per write.  Other shards'
        # entries are untouched — that is the point of per-shard
        # versioning.
        self.mutations += 1
        meta = self.columns[name]
        meta.updates_since_stat[shard_id] = (
            meta.updates_since_stat.get(shard_id, 0) + 1
        )
        if (
            self.drift_window is not None
            and meta.backend is None
            and shard_id not in meta.shard_pins
            and meta.updates_since_stat[shard_id] >= self.drift_window
        ):
            self._maybe_migrate(name, shard_id)  # resets the counter
        # Lifecycle last: a split/merge rebuilds the shard wholesale,
        # so any migration verdict above is absorbed into it anyway.
        if self._auto_split:
            self._auto_lifecycle(shard_id, may_shrink=deleted)

    # ------------------------------------------------------------------
    # Online backend migration
    # ------------------------------------------------------------------

    def _maybe_migrate(
        self, name: str, shard_id: int, spec: IndexSpec | None = None
    ) -> Migration:
        """Re-measure one shard and rebuild it if the verdict changed."""
        # The stats are fresh as of now, explicit call or drift
        # trigger: either way the drift clock restarts.
        self.columns[name].updates_since_stat[shard_id] = 0
        column = self.shards[shard_id].column(name)
        old = column.spec.name
        stats = column.restat()
        if spec is None:
            spec = self.advisor.pick(stats)
        if spec.name == old:
            return Migration(name, shard_id, old, old)
        column.rebuild(spec)
        if self.io_latency_s:
            column.apply_latency(self.io_latency_s)
        self._ship_delta(shard_id, ("rebuild", name, spec.name))
        # rebuild() bumped the version, so the shard's shared-cache
        # entries are unreachable already, as after a write; the shard
        # engine's small LRU is swept as its own writes sweep it.
        self.shards[shard_id].cache.invalidate(lambda key: key[0] == name)
        migration = Migration(name, shard_id, old, spec.name)
        self.migrations.append(migration)
        return migration

    def migrate(
        self,
        name: str,
        shard_id: int | None = None,
        backend: str | None = None,
        dynamism: str | None = None,
    ) -> list[Migration]:
        """Explicitly re-fit a column's shards to their current data.

        Each target shard re-measures its :class:`WorkloadStats` and
        rebuilds when the advisor's verdict (or the pinned ``backend``)
        differs from what is serving.  A ``backend`` given for the
        whole column becomes its pin — recorded in the metadata
        exactly like an ``add_column`` pin, so drift auto-migration
        will not silently revert the operator's choice — and a later
        ``migrate()`` *without* a backend honors the standing pin
        rather than handing the column back to the advisor.  With
        ``shard_id`` the pin is recorded for that shard only: the
        other shards keep auto-migrating, the pinned shard is exempt
        until :meth:`unpin` (or a new pin) releases it.

        ``dynamism`` re-declares the column's update contract first —
        e.g. freezing an append-heavy column that went cold to
        ``"static"`` lets the advisor re-open the whole static pool.
        The contract is column-wide, so it cannot be combined with
        ``shard_id``.  A column built static cannot be *upgraded*: its
        shards were re-encoded onto local alphabets, which cannot
        absorb arbitrary routed characters — re-add the column
        instead.  Rebuilding compacts any pending deleted slots,
        exactly like a backend's own global rebuild.

        All arguments are validated before any state changes; a
        rejected call leaves the column exactly as it was.
        """
        meta = self._meta(name)
        # Validate everything, then mutate: a rejected call must leave
        # the column untouched.
        if shard_id is not None:
            self._check_shard(shard_id)
        spec = get_spec(backend) if backend is not None else None
        if dynamism is not None:
            if shard_id is not None:
                raise InvalidParameterError(
                    "dynamism is a column-wide contract; it cannot be "
                    "re-declared for a single shard"
                )
            if dynamism not in DYNAMISM_LEVELS:
                raise InvalidParameterError(
                    f"dynamism must be one of {DYNAMISM_LEVELS}, "
                    f"got {dynamism!r}"
                )
            if dynamism != "static" and any(
                domain is not None for domain in meta.domains.values()
            ):
                raise InvalidParameterError(
                    f"column {name!r} was built static (shards carry "
                    "local alphabets); it cannot be migrated to "
                    f"dynamism={dynamism!r} — re-add it instead"
                )
        # While frozen, the delete requirement is suspended with the
        # rest of the update contract — _check_updatable blocks deletes
        # anyway, and keeping it would confine the advisor to
        # delete-capable backends on a column that can never see
        # another delete.  The *declared* contract (meta.require_delete)
        # survives the freeze, so unfreezing restores it.
        effective = dynamism if dynamism is not None else meta.dynamism
        effective_delete = meta.require_delete and effective != "static"
        standing = {meta.backend, *meta.shard_pins.values()} - {None}
        for pinned in (
            {spec.name} if spec is not None else standing
        ):
            pinned_spec = get_spec(pinned)
            if not pinned_spec.serves(effective, effective_delete):
                raise InvalidParameterError(
                    f"backend {pinned!r} cannot serve dynamism="
                    f"{effective!r} require_delete={effective_delete}"
                )
            if meta.require_exact and not pinned_spec.exact:
                raise InvalidParameterError(
                    f"backend {pinned!r} is approximate; column "
                    f"{name!r} declares require_exact=True"
                )
        with self._serve_lock:
            if dynamism is not None:
                meta.dynamism = dynamism
            if backend is not None:
                if shard_id is None:
                    meta.backend = backend
                    meta.shard_pins.clear()
                else:
                    meta.shard_pins[shard_id] = backend
            targets = (
                range(self.num_shards) if shard_id is None else [shard_id]
            )
            out = []
            for target in targets:
                column = self.shards[target].column(name)
                if dynamism is not None:
                    column.stats = column.stats.with_(
                        dynamism=dynamism, require_delete=effective_delete
                    )
                    self._ship_delta(
                        target,
                        ("set_contract", name, dynamism, effective_delete),
                    )
                # Standing pins govern unless this call named a backend:
                # explicit argument > shard pin > column pin > advisor.
                pin = (
                    backend
                    or meta.shard_pins.get(target)
                    or meta.backend
                )
                target_spec = get_spec(pin) if pin is not None else None
                out.append(
                    self._maybe_migrate(name, target, spec=target_spec)
                )
            self.mutations += 1
            self._log(("migrate", name, shard_id, backend, dynamism))
            return out

    def unpin(self, name: str, shard_id: int | None = None) -> None:
        """Release a backend pin, returning control to the advisor.

        With ``shard_id`` only that shard's pin is cleared; without,
        both the column-wide pin and every per-shard pin go.  The next
        drift window (or explicit :meth:`migrate`) re-advises.
        """
        with self._serve_lock:
            meta = self._meta(name)
            if shard_id is None:
                meta.backend = None
                meta.shard_pins.clear()
            else:
                self._check_shard(shard_id)
                meta.shard_pins.pop(shard_id, None)
            # No mutations bump — answers are unchanged — but pins
            # steer future auto-migrations, so replay must see it.
            self._log(("unpin", name, shard_id))

    # ------------------------------------------------------------------
    # Shard lifecycle (split / merge / rebalance)
    # ------------------------------------------------------------------

    def _live_count(self, name: str, shard_id: int) -> int:
        codes = self.shards[shard_id].column(name).codes
        return sum(1 for c in codes if c is not None)

    def shard_heat(self, shard_id: int) -> int:
        """One shard's update traffic since its last restat, summed
        over columns — the drift detector's counters doing double duty
        as the lifecycle's heat signal."""
        self._check_shard(shard_id)
        return sum(
            meta.updates_since_stat.get(shard_id, 0)
            for meta in self.columns.values()
        )

    # ------------------------------------------------------------------
    # Cluster-wide I/O knobs (mirrored into resident replicas)
    # ------------------------------------------------------------------

    def set_io_latency(self, latency_s: float) -> None:
        """(Re)apply a per-transfer latency model to every shard disk.

        Applies to the local engines and — under a resident executor —
        to the worker replicas, and sticks: indexes built later
        (add_column, lifecycle rebuilds, migrations) inherit it.  Set
        it *after* the build when only query-path transfers should
        sleep (what the parallel benchmarks do).
        """
        if latency_s < 0:
            raise InvalidParameterError("latency_s must be >= 0")
        with self._serve_lock:
            self.io_latency_s = latency_s
            for shard_id, engine in enumerate(self.shards):
                for column in engine.columns.values():
                    column.apply_latency(latency_s)
                self._ship_delta(shard_id, ("set_latency", latency_s))
            self._log(("set_latency", latency_s))

    def drop_caches(self) -> None:
        """Run the next queries cold: flush every result and block cache.

        Clears the shared result cache, each shard engine's LRU, and
        each disk's internal-memory residency — locally and in any
        resident replicas.  A benchmarking/repro aid; answers are
        unaffected.
        """
        with self._serve_lock:
            self.shared_cache.invalidate()
            for engine in self.shards:
                engine.cache.invalidate()
                for column in engine.columns.values():
                    column.flush_disk_cache()
            if self.replicas is not None:
                self.replicas.drop_caches()
            if self._resident:
                # One broadcast per worker, not one delta per shard.
                self.executor.drop_caches_all()

    # ------------------------------------------------------------------
    # Durable persistence (repro.persist)
    # ------------------------------------------------------------------

    def checkpoint(self, directory: str, **kwargs):
        """Write a crash-safe checkpoint of this cluster into ``directory``.

        See :func:`repro.persist.checkpoint_cluster` — snapshots every
        shard under the serve lock, flips the ``CURRENT`` pointer
        atomically, then rotates the attached WAL (if any).
        """
        from ..persist.checkpoint import checkpoint_cluster

        return checkpoint_cluster(self, directory, **kwargs)

    @classmethod
    def restore(cls, directory: str, **kwargs) -> "ClusterEngine":
        """Cold-start a cluster from ``directory``'s checkpoint + WAL.

        See :func:`repro.persist.restore_cluster` for the knobs
        (executor, advisor, lazy mmap loading, WAL attachment).
        """
        from ..persist.checkpoint import restore_cluster

        return restore_cluster(directory, **kwargs)

    def close(self) -> None:
        """Retire this cluster's resident shard replicas, if any.

        Leaves the executor itself running — it may serve other
        clusters (shard uids are process-unique, so replicas never
        collide).  Harmless under a local executor.  An attached WAL
        is detached and closed — its last acknowledged record is
        already on disk, so this adds nothing but the file close.
        """
        with self._serve_lock:
            wal = self.detach_wal()
            if wal is not None:
                wal.close()
            if self.replicas is not None:
                self.replicas.close()
            if self._resident:
                for uid in self.shard_uids:
                    try:
                        self.executor.retire_shard(uid)
                    except Exception:  # best-effort: executor may be closed
                        pass

    def _live_rows(self, shard_id: int) -> int:
        """A shard's live row count: the max across its columns.

        Columns share one shard set but their RID spaces drift apart
        under single-column deletes, so sizing decisions go by the
        largest column — the one actually straining the shard.
        """
        counts = [self._live_count(name, shard_id) for name in self.columns]
        return max(counts) if counts else 0

    def _live_global_codes(self, name: str, shard_id: int) -> list[int]:
        """One shard's live codes, translated back to the global alphabet.

        Static shards store local codes; their domain maps them back.
        Pending deleted slots (``None`` holes) are dropped, exactly as
        any backend rebuild would compact them.
        """
        meta = self.columns[name]
        column = self.shards[shard_id].column(name)
        live = [c for c in column.codes if c is not None]
        domain = meta.domains.get(shard_id)
        if domain is not None:
            live = [domain[c] for c in live]
        return live

    def _build_shard_column(
        self,
        engine: QueryEngine,
        meta: ColumnMeta,
        global_codes: list[int],
        pin: str | None,
    ) -> list[int] | None:
        """Build one column slice into a fresh shard engine.

        Static slices re-apply §1.1's dictionary trick on their own
        codes (fresh local alphabet, fresh low-cardinality stats);
        dynamic slices keep the global alphabet.  Returns the new
        local domain (``None`` for dynamic slices).  Without a pin the
        per-shard advisor re-measures the slice and picks its backend.
        """
        if meta.dynamism == "static":
            domain = sorted(set(global_codes))
            local_of = {g: i for i, g in enumerate(domain)}
            codes = [local_of[c] for c in global_codes]
            sigma = len(domain)
        else:
            domain = None
            codes = list(global_codes)
            sigma = meta.sigma
        engine.add_column(
            meta.name,
            codes,
            sigma,
            dynamism=meta.dynamism,
            expected_selectivity=meta.expected_selectivity,
            require_exact=meta.require_exact,
            # A frozen column's delete requirement is suspended with
            # the rest of its update contract (mirrors migrate()).
            require_delete=meta.require_delete and meta.dynamism != "static",
            backend=pin,
            # Under a resident executor the worker replica serves every
            # query, so the coordinator keeps control-plane state only
            # (codes + stats + the advisor's verdict); the local index
            # builds lazily if something ever queries it directly.
            defer_index=self._resident,
        )
        column = engine.column(meta.name)
        if self.io_latency_s:
            column.apply_latency(self.io_latency_s)
        if self.metrics is not None:
            # Local shard disks report transfer counts into the
            # cluster's registry; resident replicas count worker-side
            # (their snapshots still fold into scatter_io here).
            column.apply_metrics(self.metrics)
        return domain

    def split_shard(self, shard_id: int) -> ShardSplit:
        """Split one shard into two halves, in place.

        Every column's slice is cut at its own live midpoint (pending
        deleted slots compact away, like any rebuild), and both halves
        are rebuilt through the per-shard advisor — static columns on
        fresh local dictionaries — unless a standing pin governs.  The
        halves receive fresh shard uids, so the split shard's
        shared-cache entries die with its retired uid while every
        sibling shard's hot entries keep serving; per-shard drift
        clocks restart and a per-shard pin carries to both halves.
        Everything is validated and built before the shard set
        mutates — a failed split leaves the cluster untouched.
        """
        with self._serve_lock:
            record = self._split_shard_impl(shard_id)
            self.mutations += 1
            self._log(("split", shard_id))
            return record

    def _split_shard_impl(self, shard_id: int) -> ShardSplit:
        self._check_shard(shard_id)
        if not self.columns:
            raise InvalidParameterError(
                "nothing to split: the cluster has no columns"
            )
        halves: dict[str, tuple[list[int], list[int]]] = {}
        for name in self.columns:
            live = self._live_global_codes(name, shard_id)
            if len(live) < 2:
                raise InvalidParameterError(
                    f"shard {shard_id} cannot split: column {name!r} "
                    f"holds {len(live)} live row(s)"
                )
            mid = len(live) // 2
            halves[name] = (live[:mid], live[mid:])
        record = ShardSplit(
            shard_id=shard_id,
            rows=self._live_rows(shard_id),
            left_rows=max(len(halves[n][0]) for n in halves),
            right_rows=max(len(halves[n][1]) for n in halves),
        )
        engines = [
            QueryEngine(advisor=self.advisor, cache_size=self.cache_size)
            for _ in range(2)
        ]
        new_domains: dict[str, list] = {}
        for name, meta in self.columns.items():
            pin = meta.shard_pins.get(shard_id) or meta.backend
            new_domains[name] = [
                self._build_shard_column(
                    engines[side], meta, halves[name][side], pin
                )
                for side in range(2)
            ]
        # Commit: splice the shard set, retire the old uid, remap the
        # positional per-shard metadata.
        old_uid = self.shard_uids[shard_id]
        self.shards[shard_id : shard_id + 1] = engines
        self.shard_uids[shard_id : shard_id + 1] = [
            self._new_uid(), self._new_uid(),
        ]
        for name, meta in self.columns.items():
            meta.domains = _remap_shard_dict(
                meta.domains, shard_id, 1, new_domains[name]
            )
            meta.updates_since_stat = _remap_shard_dict(
                meta.updates_since_stat, shard_id, 1, [0, 0]
            )
            pin = meta.shard_pins.get(shard_id)
            meta.shard_pins = _remap_shard_dict(
                meta.shard_pins, shard_id, 1,
                [_ABSENT, _ABSENT] if pin is None else [pin, pin],
            )
            self.shared_cache.invalidate(column=name, shard_id=old_uid)
        self.shared_cache.invalidate(column=FOLDS, shard_id=old_uid)
        self._ship_retire(old_uid)
        self._ship_build(shard_id)
        self._ship_build(shard_id + 1)
        self._refresh_plan()
        self.splits.append(record)
        return record

    def merge_shards(self, left_id: int) -> ShardMerge:
        """Fuse shards ``left_id`` and ``left_id + 1`` into one.

        The concatenation of the two live slices (holes compacted) is
        rebuilt through the advisor — or through a pin both halves
        agree on — under a fresh shard uid, so both retired shards'
        shared-cache entries die while every other shard's survive.
        """
        with self._serve_lock:
            record = self._merge_shards_impl(left_id)
            self.mutations += 1
            self._log(("merge", left_id))
            return record

    def _merge_shards_impl(self, left_id: int) -> ShardMerge:
        self._check_shard(left_id)
        if left_id + 1 >= self.num_shards:
            raise InvalidParameterError(
                f"shard {left_id} has no right neighbor to merge with"
            )
        if not self.columns:
            raise InvalidParameterError(
                "nothing to merge: the cluster has no columns"
            )
        combined: dict[str, list[int]] = {}
        for name in self.columns:
            merged = self._live_global_codes(
                name, left_id
            ) + self._live_global_codes(name, left_id + 1)
            if not merged:
                raise InvalidParameterError(
                    f"cannot merge shards {left_id} and {left_id + 1}: "
                    f"column {name!r} would be empty"
                )
            combined[name] = merged
        record = ShardMerge(
            left_id=left_id,
            left_rows=self._live_rows(left_id),
            right_rows=self._live_rows(left_id + 1),
        )
        engine = QueryEngine(advisor=self.advisor, cache_size=self.cache_size)
        new_domains: dict[str, list[int] | None] = {}
        for name, meta in self.columns.items():
            pin = meta.shard_pins.get(left_id)
            if pin != meta.shard_pins.get(left_id + 1):
                pin = None  # the halves disagree; the advisor decides
            pin = pin or meta.backend
            new_domains[name] = self._build_shard_column(
                engine, meta, combined[name], pin
            )
        old_uids = list(self.shard_uids[left_id : left_id + 2])
        self.shards[left_id : left_id + 2] = [engine]
        self.shard_uids[left_id : left_id + 2] = [self._new_uid()]
        for name, meta in self.columns.items():
            meta.domains = _remap_shard_dict(
                meta.domains, left_id, 2, [new_domains[name]]
            )
            meta.updates_since_stat = _remap_shard_dict(
                meta.updates_since_stat, left_id, 2, [0]
            )
            pin = meta.shard_pins.get(left_id)
            keep = (
                pin
                if pin is not None and pin == meta.shard_pins.get(left_id + 1)
                else _ABSENT
            )
            meta.shard_pins = _remap_shard_dict(
                meta.shard_pins, left_id, 2, [keep]
            )
            for uid in old_uids:
                self.shared_cache.invalidate(column=name, shard_id=uid)
        for uid in old_uids:
            self.shared_cache.invalidate(column=FOLDS, shard_id=uid)
            self._ship_retire(uid)
        self._ship_build(left_id)
        self._refresh_plan()
        self.merges.append(record)
        return record

    def _refresh_plan(self) -> None:
        # Keep the plan authoritative for slices()/bounds() consumers:
        # re-derive it from the reference column's live lengths (the
        # columns may drift apart under single-column deletes; routing
        # always goes through per-column prefix sums anyway).
        name = next(iter(self.columns))
        self.plan_ = plan_from_lengths(
            [shard.column(name).n for shard in self.shards]
        )

    def _splittable(self, shard_id: int) -> bool:
        return all(
            self._live_count(name, shard_id) >= 2 for name in self.columns
        )

    def _auto_lifecycle(self, shard_id: int, may_shrink: bool = False) -> None:
        """The per-update sizing policy: split past the target, merge
        below the floor.  One update moves one row, so at most one
        operation is ever needed here; :meth:`rebalance` handles
        arbitrary imbalance.

        Two cheap prechecks keep the per-update cost O(columns), not
        O(shard rows): live rows never exceed a column's position-space
        length ``n``, so the split scan only runs once some column's
        ``n`` crosses the target; and only a delete can drop live rows
        below the merge floor, so the merge scan runs on deletes only.
        (A shard left under the floor while its merges were blocked is
        an optimization gap, not a correctness one — the next delete
        routed to it, or an explicit :meth:`rebalance`, sweeps it up.)
        """
        target = self._target_shard_rows
        shard = self.shards[shard_id]
        if any(shard.column(name).n > target for name in self.columns):
            if self._live_rows(shard_id) > target:
                if self._splittable(shard_id):
                    self.split_shard(shard_id)
                return
        if (
            may_shrink
            and self._min_shard_rows is not None
            and self.num_shards > 1
            and self._live_rows(shard_id) < self._min_shard_rows
        ):
            self._try_merge(shard_id, target)

    def _try_merge(self, shard_id: int, target: int) -> bool:
        """Fuse an underfull shard into its smaller neighbor — but only
        when the union stays within the split threshold, so a merge can
        never trigger an immediate re-split (no oscillation)."""
        neighbors = sorted(
            (s for s in (shard_id - 1, shard_id + 1)
             if 0 <= s < self.num_shards),
            key=lambda s: (self._live_rows(s), s),
        )
        for neighbor in neighbors:
            if self._live_rows(shard_id) + self._live_rows(neighbor) > target:
                continue
            left = min(shard_id, neighbor)
            if any(
                not self._live_global_codes(name, left)
                and not self._live_global_codes(name, left + 1)
                for name in self.columns
            ):
                continue  # a column would come out empty; unbuildable
            self.merge_shards(left)
            return True
        return False

    def rebalance(self, target_shard_rows: int | None = None) -> int:
        """Split and merge until every shard sits within the policy.

        Uses the constructor's ``target_shard_rows`` unless one is
        passed explicitly — which also lets a fixed ``num_shards``
        cluster be rebalanced by hand.  Returns the number of
        lifecycle operations performed.
        """
        # Lock only; the nested split/merge calls bump ``mutations``
        # themselves (the RLock makes the reentry safe), so a no-op
        # rebalance leaves the coalescing fence untouched.  One
        # journal record covers the whole reshape: the nested
        # lifecycle ops are its deterministic expansion.
        with self._serve_lock:
            with self._suppress_wal():
                ops = self._rebalance_impl(target_shard_rows)
            if ops:
                self._log(("rebalance", target_shard_rows))
            return ops

    def _rebalance_impl(self, target_shard_rows: int | None = None) -> int:
        target = (
            target_shard_rows
            if target_shard_rows is not None
            else self._target_shard_rows
        )
        if target is None:
            raise InvalidParameterError(
                "rebalance needs a target_shard_rows (constructor or "
                "argument)"
            )
        if target <= 0:
            raise InvalidParameterError("target_shard_rows must be >= 1")
        # A configured merge floor keeps governing under an explicit
        # target (clamped to it); otherwise the default ratio applies.
        floor = (
            self._min_shard_rows
            if self._min_shard_rows is not None
            else max(1, target // 4)
        )
        floor = min(floor, target)
        ops = 0
        # The policy terminates on its own: splits strictly shrink
        # shards, merges only produce shards at or under the target
        # (which never re-split), and each pass performs at least one
        # operation or stops.  The cap is a backstop against a policy
        # bug, sized from the data so a legitimate reshape (however
        # large) can never hit it.
        total = (
            max(self.total_rows(name) for name in self.columns)
            if self.columns
            else 0
        )
        limit = 4 * (self.num_shards + total // max(1, target) + 8)
        changed = True
        while changed:
            if ops >= limit:
                raise AssertionError(
                    f"rebalance failed to converge after {ops} operations "
                    "— sizing-policy bug"
                )
            changed = False
            split_at = self._pick_split(target)
            if split_at is not None:
                self.split_shard(split_at)
                ops += 1
                changed = True
                continue
            for shard_id in range(self.num_shards):
                if (
                    floor is not None
                    and self.num_shards > 1
                    and self._live_rows(shard_id) < floor
                    and self._try_merge(shard_id, target)
                ):
                    ops += 1
                    changed = True
                    break
        return ops

    def _pick_split(self, target: int) -> int | None:
        """The next shard to split, heat-aware.

        Candidates are the splittable shards over ``target``.  The
        fattest goes first — unless other candidates sit within
        ``heat_tolerance`` (relative) of its size, in which case the
        *hottest* of that tied group is preferred: equally oversized
        shards are not equally urgent, and splitting where the update
        traffic lands halves the shard most likely to breach again
        (the auto-split path needs no such choice — its trigger *is*
        the shard that just took an update).  Ties on heat fall back
        to the lowest position, keeping the policy deterministic.
        """
        candidates = []
        for shard_id in range(self.num_shards):
            rows = self._live_rows(shard_id)  # O(rows x cols): scan once
            if rows > target and self._splittable(shard_id):
                candidates.append((shard_id, rows))
        if not candidates:
            return None
        fattest = max(rows for _, rows in candidates)
        tied = [
            shard_id
            for shard_id, rows in candidates
            if rows >= (1.0 - self.heat_tolerance) * fattest
        ]
        return max(tied, key=lambda s: (self.shard_heat(s), -s))
