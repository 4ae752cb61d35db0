"""The query engine: advisor-built columns behind one cached front door.

``QueryEngine`` owns a set of named columns.  Each column is built by
the :class:`~repro.engine.advisor.Advisor` (or pinned to a registry
backend by name), serves alphabet range queries through a shared
:class:`~repro.engine.cache.LRUCache`, and exposes the update verbs its
backend supports (``append``/``change``/``delete``), every one of which
bumps the column's version and so invalidates its cached results.

Composed queries speak the predicate algebra of :mod:`repro.query`:
:meth:`QueryEngine.query`, :meth:`QueryEngine.select` and
:meth:`QueryEngine.select_iter` accept any ``Range``/``Eq``/``In``/
``And``/``Or``/``Not`` tree in code space, compile it once
(:func:`repro.query.compile_pred`), fetch every *unique* leaf interval
through the LRU cache — disjuncts sharing a leaf share its cache
entry — and fold the answers with complement-aware set algebra (a
``Not`` reuses §2.1 complement-threshold representations instead of
materializing).  :meth:`QueryEngine.plan` / :meth:`QueryEngine.explain`
answer predicates with the typed, JSON-serializable
:class:`~repro.query.PlanReport`; the single-leaf ``(name, lo, hi)``
forms keep returning :class:`QueryPlan` / strings.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

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
    LeafPlan,
    Plan,
    PlanReport,
    Pred,
    compile_pred,
    evaluate_count,
    evaluate_count_by,
    evaluate_exists,
    evaluate_fetch,
    evaluate_iter,
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
    first local query or update forces the build (from codes identical
    to the shipped snapshot, so a forced replica stays bit-identical
    to its worker twin); latency/metrics applied while deferred stick
    and take effect at force time.
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
        self._pending_latency: float | None = None
        self._pending_metrics = None
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
        live = [c for c in self.codes if c is not None]
        self._index = self.spec.build(live, self.stats.sigma)
        if len(live) != len(self.codes):
            self.codes = live
        disk = getattr(self._index, "disk", None)
        if disk is not None:
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
            self.codes = live
            self._bump()
            return
        old_disk = getattr(self.index, "disk", None)
        self.index = spec.build(live, self.stats.sigma)
        new_disk = getattr(self.index, "disk", None)
        if new_disk is not None and old_disk is not None:
            # Observability survives backend swaps: the replacement
            # device reports into whatever registry the old one did.
            new_disk.metrics = getattr(old_disk, "metrics", None)
        self.spec = spec
        self.codes = live
        self._bump()

    def append(self, ch: int) -> None:
        if not hasattr(self.index, "append"):
            raise UpdateError(
                f"column {self.name!r} uses static backend "
                f"{self.spec.name!r}; declare dynamism='semidynamic' or "
                "stronger when adding the column"
            )
        self.index.append(ch)
        self.codes.append(ch)
        self._bump()

    def change(self, pos: int, ch: int) -> None:
        if not hasattr(self.index, "change"):
            raise UpdateError(
                f"column {self.name!r} uses backend {self.spec.name!r} "
                "without change support; declare dynamism='fully_dynamic'"
            )
        self.index.change(pos, ch)
        self.codes[pos] = ch
        self._bump()

    def delete(self, pos: int) -> None:
        if not hasattr(self.index, "delete"):
            raise UpdateError(
                f"column {self.name!r} uses backend {self.spec.name!r} "
                "without delete support; declare require_delete=True"
            )
        compactions_before = getattr(self.index, "compactions", None)
        self.index.delete(pos)
        self.codes[pos] = None
        if (
            compactions_before is not None
            and self.index.compactions != compactions_before
        ):
            # The backend rewrote its position space; drop the deleted
            # slots so the mirror's positions match the new RIDs.
            self.codes = [c for c in self.codes if c is not None]
        self._bump()


class QueryEngine(ObservedOps):
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
        builds no index structure until first local use — the
        control-plane mode for coordinators whose resident worker
        replicas do the serving.
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

    def append(self, name: str, ch: int) -> None:
        col = self.column(name)
        col.append(ch)
        self._invalidate(name)

    def change(self, name: str, pos: int, ch: int) -> None:
        col = self.column(name)
        col.change(pos, ch)
        self._invalidate(name)

    def delete(self, name: str, pos: int) -> None:
        col = self.column(name)
        col.delete(pos)
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
    # Predicate compilation (the shared repro.query path)
    # ------------------------------------------------------------------

    def _compile_pred(
        self, pred: Pred, trace=NULL_TRACE
    ) -> tuple[Plan, int]:
        """Compile a code-space predicate against this engine's columns.

        Raises eagerly for unknown columns (every leaf is resolved,
        even ones normalization discards).  A predicate mentioning no
        column has no universe to answer against and is rejected;
        columns whose position spaces drifted apart under
        single-column updates serve positive plans against the widest
        universe but reject ``Not``/``TRUE`` (see
        :func:`repro.query.planner.resolve_universe`).
        """
        with trace.span("plan", predicate=pred):
            plan = compile_pred(pred, lambda name: self.column(name).sigma)
            universe = resolve_universe(
                plan, lambda name: self.column(name).n
            )
        return plan, universe

    def _leaf_costs(self, plan: Plan) -> list[float]:
        """The advisor's predicted bits per unique leaf, zero if cached.

        The cost vector ``evaluate_fetch`` and the counting folds
        order ``And`` legs with: cached leaves sort first (they cost
        nothing to probe), then cold leaves cheapest-first, so a
        selective leg can empty the conjunction before the expensive
        ones are fetched.
        """
        costs = []
        for col, lo, hi in plan.leaves:
            leaf = self.plan(col, lo, hi)
            costs.append(0.0 if leaf.cached else leaf.estimated_cost_bits)
        return costs

    def _query_pred(self, pred: Pred, op: str = "select") -> RangeResult:
        # Lazy fold: each unique leaf fetched (and cached) at most
        # once, on demand, And legs cost-ordered — an And that goes
        # empty skips the rest of its legs, the generalized
        # empty-dimension short-circuit, and the cheap legs go first.
        with self._observed(
            op, report_fn=lambda: self._plan_report(pred)
        ) as trace:
            plan, universe = self._compile_pred(pred, trace)
            return evaluate_fetch(
                plan, self.query, universe, self._leaf_costs(plan)
            )

    # ------------------------------------------------------------------
    # Aggregates (cardinality-space execution; no RID materialization)
    # ------------------------------------------------------------------

    def count(self, pred: Pred) -> int:
        """How many rows match, folded in cardinality space.

        Same compiled plan, same lazy cached leaf fetches as
        :meth:`select` — but the fold combines at the root with the
        counting twins of the set algebra, so the answer RID list is
        never built, a complement-represented majority answer is
        counted as ``universe - len(stored)`` in O(1), and a wide
        ``Or`` stops fetching the moment its union saturates the
        universe.
        """
        with self._observed(
            "count", report_fn=lambda: self._plan_report(pred)
        ) as trace:
            plan, universe = self._compile_pred(pred, trace)
            return evaluate_count(
                plan, self.query, universe, self._leaf_costs(plan)
            )

    def exists(self, pred: Pred) -> bool:
        """Does at least one row match?  Stops at the first evidence.

        ``Or`` disjuncts are probed cheapest-predicted-first and the
        scan ends at the first non-empty fold; other shapes reduce to
        a short-circuiting count.
        """
        with self._observed(
            "exists", report_fn=lambda: self._plan_report(pred)
        ) as trace:
            plan, universe = self._compile_pred(pred, trace)
            return evaluate_exists(
                plan, self.query, universe, self._leaf_costs(plan)
            )

    def count_by(
        self, group: str, pred: "Pred | None" = None
    ) -> dict[int, int]:
        """Matching-row counts per code of ``group`` (zeros omitted).

        The predicate folds once; the group column's equality leaves
        (LRU-cached like any leaf), one per code it holds, are then
        counted against that one answer in a single pass that hashes
        it once — O(z + sum of group leaf sizes), not one
        intersection per code.  ``pred=None`` counts every row by
        group.  Equivalent to ``{c: count(pred & Eq(group, c))}`` but
        with the predicate evaluated a single time.
        """
        group_col = self.column(group)
        group_codes = group_col.distinct_codes()
        group_fetch = lambda code: self.query(group, code, code)  # noqa: E731
        report_fn = (
            (lambda: self._plan_report(pred)) if pred is not None else None
        )
        with self._observed("count_by", report_fn=report_fn) as trace:
            if pred is None:
                return evaluate_count_by(
                    None, self.query, group_col.n, group_codes, group_fetch
                )
            with trace.span("plan", predicate=pred):
                plan = compile_pred(
                    pred, lambda name: self.column(name).sigma
                )
            # The group column joins the universe resolution: its
            # equality leaves execute in the same position space as the
            # predicate.
            widened = replace(
                plan, columns=tuple(sorted(set(plan.columns) | {group}))
            )
            universe = resolve_universe(
                widened, lambda name: self.column(name).n
            )
            return evaluate_count_by(
                plan,
                self.query,
                universe,
                group_codes,
                group_fetch,
                self._leaf_costs(plan),
            )

    def topk(
        self, group: str, pred: "Pred | None" = None, k: int = 10
    ) -> list[tuple[int, int]]:
        """The ``k`` most frequent group codes among matching rows.

        ``(code, count)`` pairs, count-descending with code ascending
        as the deterministic tie-break.
        """
        if k <= 0:
            raise InvalidParameterError("topk requires k >= 1")
        counts = self.count_by(group, pred)
        return sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:k]

    def _plan_report(self, pred: Pred) -> PlanReport:
        plan, universe = self._compile_pred(pred)
        leaves = []
        for col, lo, hi in plan.leaves:
            leaf = self.plan(col, lo, hi)
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

    def plan(
        self,
        name: str | Pred,
        char_lo: int | None = None,
        char_hi: int | None = None,
    ) -> "QueryPlan | PlanReport":
        """How a query would be served, without executing it.

        With a predicate, the typed :class:`~repro.query.PlanReport`
        (tree of leaf plans, per-leaf backend verdict, predicted bits,
        cache state); with ``(name, char_lo, char_hi)``, the
        single-leaf :class:`QueryPlan`.
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

    def query(
        self,
        name: str | Pred,
        char_lo: int | None = None,
        char_hi: int | None = None,
    ) -> RangeResult:
        """One query through the LRU cache: a leaf range or a predicate.

        With a predicate, every unique leaf interval of the compiled
        plan is fetched through this same method (so each is
        individually cached and disjuncts share legs) and the answers
        fold via complement-aware set algebra into one
        :class:`RangeResult` — possibly complement-represented, never
        expanded.
        """
        if isinstance(name, Pred):
            if char_lo is not None or char_hi is not None:
                raise InvalidParameterError(
                    "a predicate query takes no range arguments"
                )
            return self._query_pred(name, op="query")
        if char_lo is None or char_hi is None:
            raise InvalidParameterError(
                "query(name, char_lo, char_hi) requires both bounds; "
                "pass a predicate for composed queries"
            )
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
        LRU cache honestly reports zero transfers.  This is the
        per-task currency of the cluster's scatter phase: each shard
        task — wherever it runs, including a worker process — returns
        its answer together with one of these, and the coordinator
        folds them into cluster totals.
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

    def select(self, conditions: Pred) -> list[int]:
        """RIDs matching a predicate.

        The materialized form of :meth:`query` over a predicate:
        every unique leaf runs (or is served from cache) once, the
        plan folds with complement-aware set algebra, and the final
        answer materializes as a sorted RID list.
        """
        return self._query_pred(conditions).positions()

    def select_iter(self, conditions: Pred):
        """Streaming select: matching RIDs yielded one at a time.

        The iterator form of :meth:`select` — same answers, but the
        compiled plan becomes a pipeline of streaming combinators
        (``And`` merge-intersects, ``Or`` merge-unions, negated
        children subtract), so huge answers are emitted in bounded
        memory instead of being materialized per leaf.  Predicates are
        validated and compiled eagerly, before the first RID is drawn.
        """
        # Engine-level streaming fetches leaves eagerly (query_iter
        # serves from the LRU), so the observed window closes here and
        # the returned iterator only re-orders already-fetched bits.
        with self._observed(
            "select_iter",
            report_fn=lambda: self._plan_report(conditions),
        ) as trace:
            plan, universe = self._compile_pred(conditions, trace)
            return evaluate_iter(plan, self.query_iter, universe)

    def explain(
        self,
        name: "str | Pred | None" = None,
        char_lo: int | None = None,
        char_hi: int | None = None,
    ) -> "str | PlanReport":
        """Report a plan: a predicate, one column, or every column.

        With a predicate, the typed :class:`~repro.query.PlanReport`
        (JSON-serializable via ``to_dict()``, printable via ``str``).
        With a range, describes the concrete :class:`QueryPlan`; with a
        column only, reprints the advisor's ranked verdict; with no
        arguments, summarizes every column and the cache.
        """
        if isinstance(name, Pred):
            if char_lo is not None or char_hi is not None:
                raise InvalidParameterError(
                    "a predicate explain takes no range arguments"
                )
            return self._plan_report(name)
        if name is not None and char_lo is not None and char_hi is not None:
            return self.plan(name, char_lo, char_hi).describe()
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
