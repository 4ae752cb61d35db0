"""The query engine: advisor-built columns behind one cached front door.

``QueryEngine`` owns a set of named columns.  Each column is built by
the :class:`~repro.engine.advisor.Advisor` (or pinned to a registry
backend by name), serves alphabet range queries through a shared
:class:`~repro.engine.cache.LRUCache`, and exposes the update verbs its
backend supports (``append``/``change``/``delete``), every one of which
bumps the column's version and so invalidates its cached results.

Composed queries speak the predicate algebra of :mod:`repro.query`.
:class:`ReadSurface` writes the reads once for both engines:
``count``, ``exists``, ``select``, ``count_by``, ``topk`` and
``query(pred)`` compile a ``Range``/``Eq``/``In``/``And``/``Or``/
``Not`` tree in code space once (:func:`repro.query.compile_pred`)
and evaluate the plan with the engine's ``_fold``.  Here that fold
fetches every *unique* leaf interval through the LRU cache —
disjuncts sharing a leaf share its cache entry — and combines the
answers with complement-aware set algebra (a ``Not`` reuses §2.1
complement-threshold representations instead of materializing); a
cluster shard runs the same ``_fold`` on its specialized plan.
:meth:`ReadSurface.plan` / :meth:`ReadSurface.explain` answer
predicates with the typed, JSON-serializable
:class:`~repro.query.PlanReport`; the single-leaf ``(name, lo, hi)``
forms keep returning :class:`QueryPlan` / strings.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

from ..core.deletions import compaction_due
from ..core.interface import RangeResult, SecondaryIndex
from ..errors import InvalidParameterError, QueryError, UpdateError
from ..iomodel.stats import Snapshot
from ..obs import (
    CacheTierStats,
    ColumnStats,
    EngineStats,
    MetricsRegistry,
    SlowQueryLog,
    Tracer,
)
from ..obs.tracer import NULL_TRACE, ObservedOps
from ..query import (
    TRUE,
    LeafPlan,
    Plan,
    PlanReport,
    Pred,
    compile_pred,
    evaluate_count,
    evaluate_count_by,
    evaluate_exists,
    evaluate_fetch,
    resolve_universe,
)
from .advisor import Advisor, CostModel, WorkloadStats
from .cache import LRUCache
from .registry import IndexSpec, get_spec


@dataclass(frozen=True)
class QueryPlan:
    """How one range query will be served (produced without running it)."""

    column: str
    char_lo: int
    char_hi: int
    spec: IndexSpec
    estimated_cost_bits: float
    cached: bool

    def describe(self) -> str:
        via = "cache" if self.cached else f"index {self.spec.name!r}"
        return (
            f"{self.column}[{self.char_lo}..{self.char_hi}] via {via} "
            f"[{self.spec.family}/{self.spec.dynamism}"
            f"{'' if self.spec.exact else '/approx'}]  "
            f"space: {self.spec.cost.space_bound};  "
            f"query: {self.spec.cost.query_bound};  "
            f"est {self.estimated_cost_bits:,.0f} bits"
        )


class EngineColumn:
    """One engine-managed column: codes, stats, backend, version.

    ``codes`` mirrors the backend's logical string through every
    update: deleted positions hold ``None`` until the backend compacts
    its position space, at which point the mirror compacts with it.

    A column may be *deferred* (``index=None``): the advisor's verdict
    and the codes are held, but no index structure exists until
    something touches :attr:`index` — the control-plane mode a cluster
    coordinator uses for worker-resident shards, where the replica
    that serves queries lives in another process and the coordinator
    needs only codes + stats for planning, routing, and rebuilds.  The
    first local query forces the build from the mirror (pending
    deleted slots are deleted again, so its RIDs equal its worker
    twin's); latency/metrics applied while deferred stick and take
    effect at force time.

    :meth:`apply_memo` turns the memo of decoded gap lists
    (``Disk.memoize_gaps``) on or off for every index the column holds,
    now and after a deferred build or a :meth:`rebuild`.  Engines turn
    it on when their result cache is on, so a ``cache_size=0`` engine
    decodes every read afresh.

    Updates never force a build.  ``append``/``change``/``delete``
    take their capability from :attr:`spec`, validate against the
    codes mirror, apply to the index only when one is built, and
    compact the mirror by the deletable backend's own rule
    (:func:`~repro.core.deletions.compaction_due`), so a deferred
    column and a built one leave the same codes, length and version
    behind every call, and refuse the same calls with the same error.
    """

    def __init__(
        self,
        name: str,
        codes: Sequence[int],
        spec: IndexSpec,
        index: "SecondaryIndex | None",
        stats: WorkloadStats,
    ) -> None:
        self.name = name
        self.codes = list(codes)
        self.spec = spec
        self._index = index
        self.stats = stats
        self.version = 0
        #: Deleted slots (``None`` holes) pending compaction.
        self._deleted = self.codes.count(None)
        self._pending_latency: float | None = None
        self._pending_metrics = None
        self._memo = False
        self._distinct: tuple[int, tuple[int, ...]] | None = None

    @property
    def deferred(self) -> bool:
        """True while no index structure has been built."""
        return self._index is None

    @property
    def index(self) -> SecondaryIndex:
        if self._index is None:
            self._force_build()
        return self._index

    @index.setter
    def index(self, value: SecondaryIndex) -> None:
        self._index = value

    def _force_build(self) -> None:
        # Pending deleted slots keep their positions: build them over a
        # placeholder code and delete them again, so the index's RIDs
        # equal the mirror's and a built twin's at the same version.
        self._index = self.spec.build(
            [0 if c is None else c for c in self.codes], self.stats.sigma
        )
        for pos, code in enumerate(self.codes):
            if code is None:
                self._index.delete(pos)
        disk = getattr(self._index, "disk", None)
        if disk is not None:
            disk.memoize_gaps(self._memo)
            if self._pending_latency is not None:
                disk.latency_s = self._pending_latency
            if self._pending_metrics is not None:
                disk.metrics = self._pending_metrics

    @property
    def sigma(self) -> int:
        if self._index is None:
            return self.stats.sigma
        return self._index.sigma

    @property
    def n(self) -> int:
        if self._index is None:
            return len(self.codes)
        return self._index.n

    def io_snapshot(self) -> "Snapshot":
        """This column's device counters; zero while deferred."""
        if self._index is None:
            return Snapshot()
        return self._index.stats.snapshot()

    def apply_memo(self, on: bool) -> None:
        """Keep decoded gap lists on the column's disk, or stop; sticks."""
        self._memo = on
        if self._index is None:
            return
        disk = getattr(self._index, "disk", None)
        if disk is not None:
            disk.memoize_gaps(on)

    def apply_latency(self, latency_s: float) -> None:
        """Set the disk latency model without forcing a deferred build."""
        if self._index is None:
            self._pending_latency = latency_s
            return
        disk = getattr(self._index, "disk", None)
        if disk is not None:
            disk.latency_s = latency_s

    def apply_metrics(self, metrics) -> None:
        """Attach a metrics registry without forcing a deferred build."""
        if self._index is None:
            self._pending_metrics = metrics
            return
        disk = getattr(self._index, "disk", None)
        if disk is not None:
            disk.metrics = metrics

    def flush_disk_cache(self) -> None:
        """Drop the device block cache; a no-op while deferred."""
        if self._index is None:
            return
        disk = getattr(self._index, "disk", None)
        if disk is not None:
            disk.flush_cache()

    def _bump(self) -> None:
        self.version += 1

    def distinct_codes(self) -> tuple[int, ...]:
        """The codes the column holds, ascending, each once.

        The group codes a ``count_by`` fold visits.  Every write that
        can change this set bumps :attr:`version`, so the scan is
        memoized on the version and repeats only after a write.
        """
        memo = self._distinct
        if memo is None or memo[0] != self.version:
            codes = tuple(sorted({c for c in self.codes if c is not None}))
            memo = self._distinct = (self.version, codes)
        return memo[1]

    def restat(self) -> WorkloadStats:
        """Re-measure :class:`WorkloadStats` from the current codes.

        ``add_column`` measures once; after heavy update traffic the
        recorded cardinality/entropy drift away from the live column.
        This refreshes the measured fields (``n``, ``h0``) while
        preserving the *declared* workload contract (``sigma``,
        dynamism, selectivity, exactness, deletions) — the advisor can
        then be re-consulted with honest numbers (the cluster's drift
        detector does exactly that before migrating a shard).
        """
        old = self.stats
        live = [c for c in self.codes if c is not None]
        if live:
            self.stats = WorkloadStats.measure(
                live,
                sigma=old.sigma,
                dynamism=old.dynamism,
                expected_selectivity=old.expected_selectivity,
                require_exact=old.require_exact,
                require_delete=old.require_delete,
            )
        else:
            self.stats = old.with_(n=0, h0=0.0)
        return self.stats

    def rebuild(self, spec: IndexSpec) -> None:
        """Swap this column onto a different backend, in place.

        The new index is built from the live codes; pending deleted
        slots (``None`` holes) are compacted away exactly as a backend
        compaction would, so positions after a rebuild are the same as
        after any other global rebuild.  The version bump makes every
        previously cached result for this column unreachable.
        """
        if not spec.serves(self.stats.dynamism, self.stats.require_delete):
            raise InvalidParameterError(
                f"backend {spec.name!r} cannot serve dynamism="
                f"{self.stats.dynamism!r} "
                f"require_delete={self.stats.require_delete}"
            )
        if self.stats.require_exact and not spec.exact:
            raise InvalidParameterError(
                f"backend {spec.name!r} is approximate; column "
                f"{self.name!r} declares require_exact=True"
            )
        live = [c for c in self.codes if c is not None]
        if self._index is None:
            # Deferred rebuild: record the new verdict and compact the
            # mirror exactly as the built path would; the column stays
            # deferred (the worker replica does the real rebuild).
            self.spec = spec
            self._compact_mirror(live)
            self._bump()
            return
        old_disk = getattr(self.index, "disk", None)
        self.index = spec.build(live, self.stats.sigma)
        new_disk = getattr(self.index, "disk", None)
        if new_disk is not None:
            new_disk.memoize_gaps(self._memo)
            if old_disk is not None:
                # Observability survives backend swaps: the replacement
                # device reports into whatever registry the old one did.
                new_disk.metrics = getattr(old_disk, "metrics", None)
        self.spec = spec
        self._compact_mirror(live)
        self._bump()

    def _compact_mirror(self, live: list[int]) -> None:
        self.codes = live
        self._deleted = 0

    def _check_code(self, ch: int) -> None:
        if ch < 0 or ch >= self.stats.sigma:
            raise InvalidParameterError(
                f"character {ch} outside alphabet [0, {self.stats.sigma})"
            )

    def _check_live(self, pos: int) -> None:
        if pos < 0 or pos >= len(self.codes):
            raise UpdateError(f"position {pos} outside the string")
        if self.codes[pos] is None:
            raise UpdateError(f"position {pos} is deleted")

    def append(self, ch: int) -> None:
        if self.spec.dynamism == "static":
            raise UpdateError(
                f"column {self.name!r} uses static backend "
                f"{self.spec.name!r}; declare dynamism='semidynamic' or "
                "stronger when adding the column"
            )
        self._check_code(ch)
        if self._index is not None:
            self._index.append(ch)
        self.codes.append(ch)
        self._bump()

    def change(self, pos: int, ch: int) -> None:
        if self.spec.dynamism != "fully_dynamic":
            raise UpdateError(
                f"column {self.name!r} uses backend {self.spec.name!r} "
                "without change support; declare dynamism='fully_dynamic'"
            )
        self._check_live(pos)
        self._check_code(ch)
        if self._index is not None:
            self._index.change(pos, ch)
        self.codes[pos] = ch
        self._bump()

    def delete(self, pos: int) -> None:
        if not self.spec.supports_delete:
            raise UpdateError(
                f"column {self.name!r} uses backend {self.spec.name!r} "
                "without delete support; declare require_delete=True"
            )
        self._check_live(pos)
        if self._index is not None:
            self._index.delete(pos)
        self.codes[pos] = None
        self._deleted += 1
        if compaction_due(self._deleted, len(self.codes)):
            # The backend rewrote its position space by the same rule;
            # drop the deleted slots so the mirror's positions match
            # the new RIDs.
            self._compact_mirror([c for c in self.codes if c is not None])
        self._bump()


def _predicate_form(verb: str, name, char_lo, char_hi) -> bool:
    """True for a predicate call, False for a full range; else raises."""
    if isinstance(name, Pred):
        if char_lo is not None or char_hi is not None:
            raise InvalidParameterError(
                f"a predicate {verb} takes no range arguments"
            )
        return True
    if char_lo is None or char_hi is None:
        raise InvalidParameterError(
            f"{verb}(name, char_lo, char_hi) requires both bounds; "
            "pass a predicate for composed queries"
        )
    return False


class ReadSurface(ObservedOps):
    """The reads both engines serve, each written once: one fold.

    Every predicate read compiles with the engine's ``_compile_pred(
    pred, trace, group)`` — the plan and its row universe; ``group``,
    ``count_by``'s group column, joins the universe, and ``pred=None``
    with a group means every row — and evaluates with its ``_fold(
    mode, plan, universe, group, trace)``, ``mode`` one of ``count``,
    ``exists``, ``select`` (a :class:`RangeResult`) and ``count_by``.
    :class:`QueryEngine` folds against its own columns, and so does
    every cluster shard; :class:`~repro.cluster.engine.ClusterEngine`
    folds by scatter/gather over its shards.  An engine also supplies
    ``_plan_report(pred)`` and the single-leaf forms the argument
    checks of :meth:`query`/:meth:`plan`/:meth:`explain` hand ranges
    to: ``_query_range``, ``_plan_range`` and ``_explain``.
    """

    def _read(self, op: str, mode: str, pred, group: "str | None" = None):
        report_fn = None if pred is None else lambda: self._plan_report(pred)
        with self._observed(op, report_fn=report_fn) as trace:
            plan, universe = self._compile_pred(pred, trace, group)
            return self._fold(mode, plan, universe, group, trace)

    def count(self, pred: Pred) -> int:
        """How many rows match, folded in cardinality space.

        The same compiled plan and cached leaf fetches as
        :meth:`select`, but the root combines with the counting twins
        of the set algebra: no RID list is built, a complemented
        majority answer counts as ``universe - len(stored)`` in O(1),
        and a wide ``Or`` stops fetching once its union saturates the
        universe.  A cluster sums one count per shard.
        """
        return self._read("count", "count", pred)

    def exists(self, pred: Pred) -> bool:
        """Does at least one row match?  Stops at the first evidence.

        ``Or`` disjuncts are probed cheapest-predicted-first; other
        shapes reduce to a short-circuiting count.  A cluster walks
        its shards in order and never submits the shards after the
        first non-empty fold, so every executor reads the same bits.
        """
        return self._read("exists", "exists", pred)

    def select(self, conditions: Pred) -> list[int]:
        """The sorted RIDs matching a predicate.

        Every unique leaf is read (or served from cache) once, ``And``
        legs cheapest-first, and the plan folds with complement-aware
        set algebra.  A cluster concatenates its shards' sorted
        answers, each shifted by its shard's offset.
        """
        return self._read("select", "select", conditions).positions()

    def count_by(
        self, group: str, pred: "Pred | None" = None
    ) -> dict[int, int]:
        """Matching-row counts per code of ``group`` (zeros omitted).

        The predicate folds once; the group column's equality leaves,
        one per code it holds, are then counted against that one
        answer in a single pass that hashes it once — O(z + sum of
        group leaf sizes), not one intersection per code.
        ``pred=None`` counts every row by group.  A cluster maps each
        static shard's local codes back to global codes and sums.
        """
        return self._read("count_by", "count_by", pred, group)

    def topk(
        self, group: str, pred: "Pred | None" = None, k: int = 10
    ) -> list[tuple[int, int]]:
        """The ``k`` most frequent group codes among matching rows.

        ``(code, count)`` pairs, count-descending with code ascending
        as the deterministic tie-break, from one :meth:`count_by`.
        """
        if k <= 0:
            raise InvalidParameterError("topk requires k >= 1")
        counts = self.count_by(group, pred)
        return sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:k]

    def query(
        self,
        name: "str | Pred",
        char_lo: int | None = None,
        char_hi: int | None = None,
    ) -> RangeResult:
        """One query: a predicate, or one column's code range.

        A predicate answers with its ``select`` fold as a
        :class:`RangeResult` over the plan's row universe — on an
        engine possibly complement-represented, never expanded.  A
        range is one leaf read: through the LRU cache on an engine, a
        one-leaf ``select`` fold per shard on a cluster.
        """
        if _predicate_form("query", name, char_lo, char_hi):
            return self._read("query", "select", name)
        return self._query_range(name, char_lo, char_hi)

    def plan(
        self,
        name: "str | Pred",
        char_lo: int | None = None,
        char_hi: int | None = None,
    ):
        """How a query would be served, without executing it.

        With a predicate, the typed :class:`~repro.query.PlanReport`
        (tree of leaf plans, per-leaf backend verdict, predicted bits,
        cache state, and on a cluster the shard fan-out); with
        ``(name, char_lo, char_hi)``, the single-leaf
        :class:`QueryPlan` — on a cluster one per shard.
        """
        if _predicate_form("plan", name, char_lo, char_hi):
            return self._plan_report(name)
        return self._plan_range(name, char_lo, char_hi)

    def explain(
        self,
        name: "str | Pred | None" = None,
        char_lo: int | None = None,
        char_hi: int | None = None,
    ) -> "str | PlanReport":
        """Report a plan: a predicate, one range, one column, or all.

        With a predicate, the typed :class:`~repro.query.PlanReport`
        (JSON-serializable via ``to_dict()``, printable via ``str``);
        every other form is a string.
        """
        if isinstance(name, Pred) and _predicate_form(
            "explain", name, char_lo, char_hi
        ):
            return self._plan_report(name)
        return self._explain(name, char_lo, char_hi)


class QueryEngine(ReadSurface):
    """Builds, serves, and caches every column's secondary index."""

    def __init__(
        self,
        advisor: Advisor | None = None,
        cost_model: CostModel | None = None,
        cache_size: int = 1024,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
        slow_log: SlowQueryLog | None = None,
    ) -> None:
        if advisor is not None and cost_model is not None:
            raise InvalidParameterError(
                "pass either an advisor or a cost_model, not both"
            )
        if advisor is None:
            advisor = Advisor(cost_model=cost_model)
        self.advisor = advisor
        self.cache = LRUCache(cache_size)
        self.columns: dict[str, EngineColumn] = {}
        # Observability hooks (repro.obs).  All three default off; the
        # leaf-query fast path guards on them with attribute checks
        # only, so an engine without observers runs the plain code.
        self.tracer = tracer
        self.metrics = metrics
        self.slow_log = slow_log

    # ------------------------------------------------------------------
    # Column management
    # ------------------------------------------------------------------

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
        defer_index: bool = False,
    ) -> EngineColumn:
        """Build a column, letting the advisor choose the backend.

        ``backend`` pins a registry entry by name, bypassing the
        advisor (the explicit override of the cost model's verdict).
        ``require_exact=False`` admits approximate (Theorem 3) backends
        to the ranking, where their false-positive verification cost is
        scored against exact structures' larger answer reads.

        ``defer_index=True`` records the verdict and the codes but
        builds no index structure until the first local query (updates
        keep only the codes) — the control-plane mode for coordinators
        whose resident worker replicas do the serving.
        """
        if name in self.columns:
            raise InvalidParameterError(f"column {name!r} already exists")
        if not len(codes):
            raise InvalidParameterError(f"column {name!r} is empty")
        stats = WorkloadStats.measure(
            codes,
            sigma=sigma,
            dynamism=dynamism,
            expected_selectivity=expected_selectivity,
            require_exact=require_exact,
            require_delete=require_delete,
        )
        if backend is not None:
            spec = get_spec(backend)
            if not spec.serves(dynamism, require_delete):
                raise InvalidParameterError(
                    f"backend {backend!r} cannot serve dynamism="
                    f"{dynamism!r} require_delete={require_delete}"
                )
        else:
            spec = self.advisor.pick(stats)
        index = None if defer_index else spec.build(list(codes), stats.sigma)
        column = EngineColumn(name, codes, spec, index, stats)
        column.apply_memo(self.cache.capacity > 0)
        if self.metrics is not None:
            column.apply_metrics(self.metrics)
        self.columns[name] = column
        return column

    def column(self, name: str) -> EngineColumn:
        try:
            return self.columns[name]
        except KeyError:
            raise QueryError(f"unknown column {name!r}") from None

    def drop_column(self, name: str) -> None:
        self.column(name)  # raise on unknown
        del self.columns[name]
        self.cache.invalidate(lambda key: key[0] == name)

    # ------------------------------------------------------------------
    # Updates (all invalidate the column's cached results)
    # ------------------------------------------------------------------

    def _updatable(self, name: str) -> EngineColumn:
        """The column, if its declared contract admits updates.

        The declared dynamism governs, not the backend's abilities: a
        column declared static refuses updates even on an
        update-capable backend (a pin, or a cluster freeze's re-pick).
        """
        col = self.column(name)
        if col.stats.dynamism == "static":
            raise UpdateError(
                f"column {name!r} is declared static; re-add it (or "
                "migrate a cluster column) with an update-capable "
                "dynamism before updating"
            )
        return col

    def append(self, name: str, ch: int) -> None:
        self._updatable(name).append(ch)
        self._invalidate(name)

    def change(self, name: str, pos: int, ch: int) -> None:
        self._updatable(name).change(pos, ch)
        self._invalidate(name)

    def delete(self, name: str, pos: int) -> None:
        self._updatable(name).delete(pos)
        self._invalidate(name)

    def _invalidate(self, name: str) -> None:
        # Version bumps already make stale keys unreachable; eager
        # eviction keeps them from squatting on cache capacity.
        self.cache.invalidate(lambda key: key[0] == name)

    # ------------------------------------------------------------------
    # Observability (repro.obs)
    # ------------------------------------------------------------------

    def _query_leaf_observed(
        self, name: str, col: EngineColumn, char_lo: int, char_hi: int
    ) -> RangeResult:
        """The leaf query with an observer attached.

        The fast path's cache/index behavior (one ``cache.get`` per
        call, so the LRU's own hit/miss counters match it exactly),
        plus a ``leaf_fetch`` span holding a ``cache_lookup`` event,
        the per-tier cache counters, and bits-read attribution.
        """
        with self._observed("query") as trace, trace.span(
            "leaf_fetch",
            column=name,
            char_lo=char_lo,
            char_hi=char_hi,
            backend=col.spec.name,
        ) as span:
            key = (name, col.version, char_lo, char_hi)
            cached = self.cache.get(key)
            hit = cached is not None
            trace.event("cache_lookup", tier="engine", hit=hit)
            metrics = self.metrics
            if metrics is not None:
                metrics.inc(
                    "cache.engine.hits" if hit else "cache.engine.misses"
                )
            if hit:
                span.tag(cache="hit", bits_read=0)
                return cached
            io_stats = col.index.stats
            before = io_stats.snapshot()
            result = col.index.range_query(char_lo, char_hi)
            io = io_stats.snapshot() - before
            span.tag(
                cache="miss",
                bits_read=io.bits_read,
                reads=io.reads,
                rids=result.cardinality,
            )
            if metrics is not None:
                metrics.inc("query.bits_read", io.bits_read)
            self.cache.put(key, result)
            return result

    def stats(self) -> EngineStats:
        """One typed, JSON-serializable snapshot of the whole engine.

        Embeds the per-column backend verdicts, the LRU tier's
        hit/miss accounting, the summed device
        :class:`~repro.iomodel.stats.Snapshot` across columns, the
        metrics registry (when attached), and the slow-query count —
        ``stats().to_dict()`` is directly ``json.dumps``-able.
        """
        io = Snapshot()
        for col in self.columns.values():
            io = io + col.io_snapshot()
        return EngineStats(
            columns=tuple(
                ColumnStats(
                    name=col.name,
                    backend=col.spec.name,
                    family=col.spec.family,
                    n=col.n,
                    sigma=col.sigma,
                    version=col.version,
                )
                for col in self.columns.values()
            ),
            cache=CacheTierStats(
                tier="engine",
                hits=self.cache.hits,
                misses=self.cache.misses,
                size=len(self.cache),
                capacity=self.cache.capacity,
                evictions=self.cache.evictions,
            ),
            io=io,
            metrics=(
                self.metrics.to_dict() if self.metrics is not None else None
            ),
            slow_queries=(
                len(self.slow_log) if self.slow_log is not None else 0
            ),
        )

    # ------------------------------------------------------------------
    # The fold (ReadSurface's evaluator; every cluster shard runs it)
    # ------------------------------------------------------------------

    def _compile_pred(
        self, pred: "Pred | None", trace=NULL_TRACE, group=None
    ) -> tuple[Plan, int]:
        """Compile a code-space predicate against this engine's columns.

        Raises eagerly for unknown columns (every leaf is resolved,
        even ones normalization discards).  A predicate mentioning no
        column has no universe to answer against and is rejected;
        columns whose position spaces drifted apart under
        single-column updates serve positive plans against the widest
        universe but reject ``Not``/``TRUE`` (see
        :func:`repro.query.planner.resolve_universe`).  ``group`` joins
        the plan's columns: its equality leaves execute in the same
        position space as the predicate.
        """
        with trace.span("plan", predicate=pred):
            plan = compile_pred(
                TRUE if pred is None and group else pred,
                lambda name: self.column(name).sigma,
            )
            if group is not None:
                plan = replace(
                    plan, columns=tuple(sorted({*plan.columns, group}))
                )
            universe = resolve_universe(
                plan, lambda name: self.column(name).n
            )
        return plan, universe

    def _fold(
        self, mode: str, plan: Plan, universe: int, group, trace=NULL_TRACE
    ):
        """Evaluate a compiled plan against this engine's columns.

        The one evaluator: every read of this engine, and every shard
        fold of a cluster (:func:`~repro.cluster.worker.fold_shard`,
        on the shard's specialized plan).  Leaves are fetched lazily
        through :meth:`query` — each unique leaf at most once, served
        by the LRU when cached — so an ``And`` that goes empty skips
        the rest of its legs, and with more than one leaf the legs run
        cheapest-predicted-first (:meth:`_leaf_costs`).  ``count_by``
        counts the group column's equality leaf for every code it
        holds against the folded predicate.  Leaf spans come from
        :meth:`query` itself, so ``trace`` is not read here.
        """
        costs = self._leaf_costs(plan) if len(plan.leaves) > 1 else None
        fetch = self.query
        if mode == "select":
            return evaluate_fetch(plan, fetch, universe, costs)
        if mode == "count":
            return evaluate_count(plan, fetch, universe, costs)
        if mode == "exists":
            return evaluate_exists(plan, fetch, universe, costs)
        if mode == "count_by":
            return evaluate_count_by(
                plan,
                fetch,
                universe,
                self.column(group).distinct_codes(),
                lambda code: fetch(group, code, code),
                costs,
            )
        raise InvalidParameterError(f"unknown fold mode {mode!r}")

    def _leaf_costs(self, plan: Plan) -> list[float]:
        """The advisor's predicted bits per unique leaf, zero if cached.

        The cost vector the folds order ``And`` legs with: cached
        leaves sort first (they cost nothing to probe), then cold
        leaves cheapest-first, so a selective leg can empty the
        conjunction before the expensive ones are fetched.
        """
        costs = []
        for col, lo, hi in plan.leaves:
            leaf = self._plan_range(col, lo, hi)
            costs.append(0.0 if leaf.cached else leaf.estimated_cost_bits)
        return costs

    def _plan_report(self, pred: Pred) -> PlanReport:
        plan, universe = self._compile_pred(pred)
        leaves = []
        for col, lo, hi in plan.leaves:
            leaf = self._plan_range(col, lo, hi)
            leaves.append(
                LeafPlan(
                    column=col,
                    char_lo=lo,
                    char_hi=hi,
                    backend=leaf.spec.name,
                    family=leaf.spec.family,
                    estimated_cost_bits=(
                        0.0 if leaf.cached else leaf.estimated_cost_bits
                    ),
                    cached=leaf.cached,
                )
            )
        return PlanReport(
            kind="engine",
            predicate=repr(plan.normalized),
            universe=universe,
            root=plan.root,
            leaves=tuple(leaves),
            estimated_total_bits=sum(
                leaf.estimated_cost_bits for leaf in leaves
            ),
        )

    # ------------------------------------------------------------------
    # Single-leaf forms (a range of one column)
    # ------------------------------------------------------------------

    def _plan_range(self, name: str, char_lo: int, char_hi: int) -> QueryPlan:
        col = self.column(name)
        stats = col.stats
        est = col.spec.cost.query_cost(
            col.n, col.sigma, stats.h0, stats.expected_z
        )
        key = (name, col.version, char_lo, char_hi)
        return QueryPlan(
            column=name,
            char_lo=char_lo,
            char_hi=char_hi,
            spec=col.spec,
            estimated_cost_bits=est,
            cached=key in self.cache,
        )

    def _query_range(
        self, name: str, char_lo: int, char_hi: int
    ) -> RangeResult:
        col = self.column(name)
        tracer = self.tracer
        if (
            self._active_trace is NULL_TRACE
            and (tracer is None or not tracer.enabled)
            and self.metrics is None
            and self.slow_log is None
        ):
            # The fast path: no observer attached (or the tracer is
            # disabled) costs exactly these attribute checks on top of
            # the uninstrumented engine — the < 3% contract E17a holds
            # us to.
            key = (name, col.version, char_lo, char_hi)
            cached = self.cache.get(key)
            if cached is not None:
                return cached
            result = col.index.range_query(char_lo, char_hi)
            self.cache.put(key, result)
            return result
        return self._query_leaf_observed(name, col, char_lo, char_hi)

    def query_measured(
        self, name: str, char_lo: int, char_hi: int
    ) -> tuple[RangeResult, Snapshot]:
        """:meth:`query` plus the I/O it cost, as a mergeable snapshot.

        The delta is taken on the serving column's shared
        :class:`~repro.iomodel.stats.IOStats` (stable across a
        backend's internal device swaps), so a result served from the
        LRU cache honestly reports zero transfers.
        """
        stats = self.column(name).index.stats
        before = stats.snapshot()
        result = self.query(name, char_lo, char_hi)
        return result, stats.snapshot() - before

    def query_iter(self, name: str, char_lo: int, char_hi: int):
        """One range query as a sorted position iterator.

        The answer still flows through the LRU cache (the cache stores
        the :class:`RangeResult`, not a materialized list), but the
        positions stream out via :meth:`RangeResult.iter_positions` —
        a complemented majority answer is never expanded into its O(z)
        list.
        """
        return self.query(name, char_lo, char_hi).iter_positions()

    def select_iter(self, conditions: Pred):
        """Streaming select: matching RIDs yielded one at a time.

        The iterator form of :meth:`select` — the same folded answer,
        streamed with :meth:`RangeResult.iter_positions`, so a
        complemented (majority) answer is walked as the gaps between
        its stored positions and never expanded into its O(z) list.
        The predicate is validated, compiled and folded eagerly, before
        the first RID is drawn.
        """
        answer = self._read("select_iter", "select", conditions)
        return answer.iter_positions()

    def _explain(self, name, char_lo, char_hi) -> str:
        # A range describes its QueryPlan; a column reprints the
        # advisor's ranked verdict; nothing summarizes every column.
        if name is not None and char_lo is not None and char_hi is not None:
            return self._plan_range(name, char_lo, char_hi).describe()
        if name is not None:
            col = self.column(name)
            header = (
                f"column {name!r}: backend {col.spec.name!r} "
                f"({col.spec.theorem or col.spec.family}), "
                f"version {col.version}"
            )
            return header + "\n" + self.advisor.explain(col.stats)
        lines = [
            f"engine: {len(self.columns)} column(s), cache "
            f"{len(self.cache)}/{self.cache.capacity} entries, "
            f"hit rate {self.cache.hit_rate:.1%}"
        ]
        for col in self.columns.values():
            lines.append(
                f"  {col.name}: n={col.n} sigma={col.sigma} -> "
                f"{col.spec.name} [{col.spec.family}/{col.spec.dynamism}]"
            )
        return "\n".join(lines)
