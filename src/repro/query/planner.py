"""Compiling predicates into executable plans, and executing them.

A :class:`Plan` is the compiled form of a normalized predicate: a
table of *unique* leaf intervals (the DAG's shared nodes — a leaf
appearing under several disjuncts is fetched once and its cache entry
shared) plus an operator tree over leaf indices.  The planner is
engine-agnostic: the single-process :class:`~repro.engine.engine.\
QueryEngine` and the sharded :class:`~repro.cluster.engine.\
ClusterEngine` compile through the same functions and execute the
same plan object, so the two serving layers can never diverge on
predicate semantics.

Execution is one fold in two forms.  :func:`evaluate_fetch` (and
its counting twins :func:`evaluate_count`, :func:`evaluate_exists`,
:func:`evaluate_count_by`) fetches each unique leaf on demand and
folds the tree bottom-up with the complement-aware set algebra of
:mod:`repro.bits.ops`: a ``Not`` is a flag flip on the child's §2.1
representation — the paper's complement-threshold answers are
*reused*, never materialized — and mixed operands rewrite into
differences of the stored (small) lists.  :func:`evaluate` folds
leaves fetched up front; it is the reference the lazy form is checked
against.  A cluster runs the same fold once per shard, on the plan
:func:`specialize` localizes onto that shard's alphabets; a streamed
answer is the folded one, walked.

:class:`PlanReport` is the typed, JSON-serializable answer of
``plan()``/``explain()``: the operator tree with one
:class:`LeafPlan` per unique leaf — backend verdict, predicted bits,
cache state, and (under a cluster) the per-shard fan-out.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, Sequence

from ..bits.ops import (
    count_aware,
    intersect_aware,
    intersect_aware_count,
    intersect_aware_count_many,
    union_aware,
    union_aware_count,
)
from ..core.interface import RangeResult
from ..errors import QueryError
from .predicates import (
    FALSE,
    TRUE,
    And,
    Not,
    Or,
    Pred,
    Range,
    columns_of,
    normalize,
)

#: Operator-tree node tags (the tree is plain nested tuples, so a
#: compiled plan is picklable and trivially JSON-convertible).
LEAF = "leaf"
NOT = "not"
AND = "and"
OR = "or"
ALL = "all"
EMPTY = "empty"


@dataclass(frozen=True)
class Plan:
    """One compiled predicate: unique leaves + an operator tree.

    ``leaves`` holds every distinct ``(column, char_lo, char_hi)``
    interval the plan reads, sorted — the backend ``range_query``
    calls of the DAG.  ``root`` is the operator tree: ``("leaf", i)``,
    ``("not", child)``, ``("and", (children...))``,
    ``("or", (children...))``, ``("all",)`` or ``("empty",)``.
    ``columns`` records every column the *original* predicate
    mentioned (simplification may have dropped some), which is what
    execution validates universes against.
    """

    normalized: Pred
    leaves: tuple[tuple[str, int, int], ...]
    root: tuple
    columns: tuple[str, ...]

    @property
    def needs_universe(self) -> bool:
        """True when execution must know the exact row universe.

        ``Not`` and ``TRUE`` answer with complements *of the universe*;
        plans without them are pure positive set algebra, which
        tolerates columns whose position spaces have drifted apart
        under engine-level single-column updates.
        """

        def walk(node: tuple) -> bool:
            tag = node[0]
            if tag in (NOT, ALL):
                return True
            if tag in (AND, OR):
                return any(walk(c) for c in node[1])
            return False

        return walk(self.root)

    def fingerprint(
        self, epoch_of: "Callable[[str], object] | None" = None
    ) -> str:
        """A stable content hash of the compiled plan.

        ``compile_pred`` canonicalizes (normalized tree, sorted leaf
        table, renumbered operator tree), so equivalent predicates
        compile to identical plans and collide here, while any
        difference in leaves, operator structure, or referenced
        columns changes the hash.  ``epoch_of(column)`` mixes each
        column's dictionary epoch into the key so it cannot survive a
        drop/re-add of a column it touches.  Pairs with
        :meth:`repro.query.Pred.fingerprint` as a coalescing or
        result-cache key.
        """
        if epoch_of is not None:
            scope: tuple = tuple((c, str(epoch_of(c))) for c in self.columns)
        else:
            scope = self.columns
        payload = repr(("plan", scope, self.leaves, self.root))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:32]


def resolve_universe(plan: Plan, n_of: Callable[[str], int]) -> int:
    """The row universe a plan executes against.

    All referenced columns agreeing is the normal case.  Columns that
    have drifted apart (engine-level single-column updates) still
    serve pure positive plans — the answer universe is the widest
    column — but complement semantics (``Not``, ``TRUE``) are
    undefined over misaligned position spaces and are rejected.
    """
    universes = {n_of(col) for col in plan.columns}
    if not universes:
        raise QueryError(
            "predicate references no column; there is no row universe "
            "to answer against"
        )
    if len(universes) == 1:
        return universes.pop()
    if plan.needs_universe:
        raise QueryError(
            f"columns {list(plan.columns)} disagree on row count "
            f"{sorted(universes)}; Not/TRUE need aligned columns"
        )
    return max(universes)


def compile_pred(pred: Pred, sigma_of: Callable[[str], int]) -> Plan:
    """Normalize and compile a code-space predicate into a :class:`Plan`."""
    if not isinstance(pred, Pred):
        raise QueryError(
            f"expected a predicate, got {type(pred).__name__}; build one "
            "from repro.query (Range/Eq/In/And/Or/Not)"
        )
    columns = tuple(sorted(columns_of(pred)))
    normalized = normalize(pred, sigma_of)
    leaf_index: dict[tuple[str, int, int], int] = {}

    def leaf_id(leaf: Range) -> int:
        key = (leaf.column, leaf.lo, leaf.hi)
        if key not in leaf_index:
            leaf_index[key] = len(leaf_index)
        return leaf_index[key]

    def compile_node(node: Pred) -> tuple:
        if node is TRUE:
            return (ALL,)
        if node is FALSE:
            return (EMPTY,)
        if isinstance(node, Range):
            return (LEAF, leaf_id(node))
        if isinstance(node, Not):
            return (NOT, compile_node(node.part))
        if isinstance(node, And):
            return (AND, tuple(compile_node(p) for p in node.parts))
        if isinstance(node, Or):
            return (OR, tuple(compile_node(p) for p in node.parts))
        raise QueryError(
            f"unexpected normalized node {type(node).__name__}"
        )

    root = compile_node(normalized)
    # Renumber leaves into sorted order so execution's fetch sequence
    # (and therefore its I/O) is canonical for equivalent predicates.
    ordered = sorted(leaf_index)
    remap = {leaf_index[key]: i for i, key in enumerate(ordered)}

    def renumber(node: tuple) -> tuple:
        if node[0] == LEAF:
            return (LEAF, remap[node[1]])
        if node[0] == NOT:
            return (NOT, renumber(node[1]))
        if node[0] in (AND, OR):
            return (node[0], tuple(renumber(c) for c in node[1]))
        return node

    return Plan(
        normalized=normalized,
        leaves=tuple(ordered),
        root=renumber(root),
        columns=columns,
    )


# ----------------------------------------------------------------------
# Materialized execution (complement-aware set algebra)
# ----------------------------------------------------------------------


def align_leaf(
    result: RangeResult, universe: int, needs_universe: bool
) -> tuple[list[int], bool]:
    """Validate one leaf answer against the plan universe, symmetrically.

    A leaf universe *larger* than the plan's is always corruption.  A
    *smaller* one is legitimate only for pure positive plans (drifted
    columns, ``resolve_universe`` picked the max): the positions are
    re-anchored by expanding a complement representation — a §2.1
    complement is relative to its own column's universe — and plain
    positions pass through unchanged because they are already global.
    Under ``needs_universe`` (``Not``/``TRUE`` in the tree) any
    mismatch is rejected; complements of a smaller universe must never
    silently flow into algebra over the plan universe.
    """
    if result.universe > universe:
        raise QueryError(
            f"leaf universe {result.universe} exceeds the plan "
            f"universe {universe}; columns are out of alignment"
        )
    if result.universe != universe:
        if needs_universe:
            raise QueryError(
                f"leaf universe {result.universe} != plan universe "
                f"{universe}; Not/TRUE need aligned columns"
            )
        if result.complemented:
            return result.positions(), False
    return result.stored_positions(), result.complemented


def _subtree_leaves(node: tuple, out: set[int]) -> None:
    tag = node[0]
    if tag == LEAF:
        out.add(node[1])
    elif tag == NOT:
        _subtree_leaves(node[1], out)
    elif tag in (AND, OR):
        for child in node[1]:
            _subtree_leaves(child, out)


def order_children(
    children: tuple, leaf_costs: Sequence[float] | None
) -> tuple:
    """Order sibling subtrees by predicted fetch cost, cheapest first.

    ``leaf_costs[i]`` is the advisor's predicted bits for
    ``plan.leaves[i]`` (zero when cached); a subtree costs the sum
    over its distinct leaves.  The sort is stable, so equal-cost
    siblings keep the canonical leaf-table order and the demanded-leaf
    sequence stays deterministic.  With no cost vector the canonical
    order is returned untouched.
    """
    if leaf_costs is None or len(children) < 2:
        return children

    def cost(node: tuple) -> float:
        seen: set[int] = set()
        _subtree_leaves(node, seen)
        return sum(leaf_costs[i] for i in seen)

    return tuple(sorted(children, key=cost))


def evaluate(
    plan: Plan,
    leaf_results: Sequence[RangeResult],
    universe: int,
) -> RangeResult:
    """Fold one fetched plan into its answer.

    ``leaf_results[i]`` is the :class:`RangeResult` of
    ``plan.leaves[i]`` — fetched by whatever serves the plan (engine
    LRU, cluster scatter, bare indexes).  The fold works on
    ``(stored, complemented)`` pairs, so a complement-represented
    majority answer flows through ``Not``/``And``/``Or`` without ever
    being expanded; only the final :class:`RangeResult` (itself
    possibly complemented) is produced.
    """
    if len(leaf_results) != len(plan.leaves):
        raise QueryError(
            f"plan has {len(plan.leaves)} leaves, got "
            f"{len(leaf_results)} results"
        )
    folder = _CardinalityFold(plan, None, universe, None)
    folder.memo = {
        i: align_leaf(result, universe, folder.needs_universe)
        for i, result in enumerate(leaf_results)
    }
    stored, comp = folder.fold(plan.root)
    return RangeResult(stored, universe, complemented=comp)


def evaluate_fetch(
    plan: Plan,
    fetch: Callable[[str, int, int], RangeResult],
    universe: int,
    leaf_costs: Sequence[float] | None = None,
) -> RangeResult:
    """:func:`evaluate` with lazy, memoized, short-circuiting fetches.

    Leaves are fetched on demand as the fold reaches them (each unique
    leaf at most once — the DAG's sharing): an ``And`` that goes empty
    skips its remaining children's fetches entirely (the §1
    empty-dimension short-circuit, generalized), and an ``Or`` whose
    union saturates the universe stops likewise (:func:`_is_full`).
    With ``leaf_costs`` (the advisor's predicted bits per leaf, zero
    when cached), ``And`` legs run cheapest-first so a cheap selective
    leg can empty the conjunction before the expensive legs are ever
    fetched.  The demanded-leaf sequence is a deterministic function
    of the canonical plan, the cost vector, and the data.
    Every serving read uses this: the single engine on its plan, a
    cluster shard on its specialized one.
    """
    stored, comp = _CardinalityFold(plan, fetch, universe, leaf_costs).fold(
        plan.root
    )
    return RangeResult(stored, universe, complemented=comp)


# ----------------------------------------------------------------------
# Cardinality-space execution (aggregates)
# ----------------------------------------------------------------------


def _is_full(stored: list[int], comp: bool, universe: int) -> bool:
    """Does this aware pair denote all of ``[0, universe)``?

    Two shapes mean "full": a complemented empty list, and a *plain*
    list that has reached ``universe`` elements (positions are strictly
    increasing in ``[0, universe)``, so length is membership-complete).
    Checking both is what lets a wide positive disjunction stop
    fetching the moment its union saturates.
    """
    return (not stored and comp) or (not comp and len(stored) == universe)


class _CardinalityFold:
    """The one fold over ``(stored, complemented)`` pairs.

    :meth:`fold` materializes a subtree with the aware *set* algebra:
    a lazy memoized fetch per unique leaf, ``And`` legs cost-ordered
    and cut short once empty, ``Or`` cut short once :func:`_is_full`.
    It is the whole of :func:`evaluate` and :func:`evaluate_fetch`.
    The counting executors fold interior subtrees the same way but
    combine at counting boundaries with the cardinality twins of
    :mod:`repro.bits.ops`, so the root-level result list is never
    built; ``Not`` stays a flag flip (count = ``universe - child``).
    """

    def __init__(
        self,
        plan: Plan,
        fetch: Callable[[str, int, int], RangeResult] | None,
        universe: int,
        leaf_costs: Sequence[float] | None,
    ) -> None:
        self.plan = plan
        self.fetch = fetch
        self.universe = universe
        self.leaf_costs = leaf_costs
        self.needs_universe = plan.needs_universe
        self.memo: dict[int, tuple[list[int], bool]] = {}

    def leaf(self, index: int) -> tuple[list[int], bool]:
        if index not in self.memo:
            self.memo[index] = align_leaf(
                self.fetch(*self.plan.leaves[index]),
                self.universe,
                self.needs_universe,
            )
        return self.memo[index]

    def fold(self, node: tuple) -> tuple[list[int], bool]:
        """Materialize one subtree as an aware pair (with saturation)."""
        tag = node[0]
        if tag == ALL:
            return [], True
        if tag == EMPTY:
            return [], False
        if tag == LEAF:
            return self.leaf(node[1])
        if tag == NOT:
            stored, comp = self.fold(node[1])
            return stored, not comp
        if tag == AND:
            children = order_children(node[1], self.leaf_costs)
            stored, comp = self.fold(children[0])
            for child in children[1:]:
                if not stored and not comp:
                    break
                c_stored, c_comp = self.fold(child)
                stored, comp = intersect_aware(
                    stored, comp, c_stored, c_comp
                )
            return stored, comp
        if tag == OR:
            stored, comp = self.fold(node[1][0])
            for child in node[1][1:]:
                if _is_full(stored, comp, self.universe):
                    break
                c_stored, c_comp = self.fold(child)
                stored, comp = union_aware(stored, comp, c_stored, c_comp)
            return stored, comp
        raise QueryError(f"unknown plan node {tag!r}")

    def count(self, node: tuple) -> int:
        """Cardinality of one subtree without building its answer list."""
        universe = self.universe
        tag = node[0]
        if tag == ALL:
            return universe
        if tag == EMPTY:
            return 0
        if tag == LEAF:
            stored, comp = self.leaf(node[1])
            return count_aware(stored, comp, universe)
        if tag == NOT:
            return universe - self.count(node[1])
        if tag == AND:
            children = order_children(node[1], self.leaf_costs)
            stored, comp = self.fold(children[0])
            for child in children[1:-1]:
                if not stored and not comp:
                    return 0
                c_stored, c_comp = self.fold(child)
                stored, comp = intersect_aware(
                    stored, comp, c_stored, c_comp
                )
            if not stored and not comp:
                return 0
            c_stored, c_comp = self.fold(children[-1])
            return intersect_aware_count(
                stored, comp, c_stored, c_comp, universe
            )
        if tag == OR:
            children = node[1]
            stored, comp = self.fold(children[0])
            for child in children[1:-1]:
                if _is_full(stored, comp, universe):
                    return universe
                c_stored, c_comp = self.fold(child)
                stored, comp = union_aware(stored, comp, c_stored, c_comp)
            if _is_full(stored, comp, universe):
                return universe
            c_stored, c_comp = self.fold(children[-1])
            return union_aware_count(
                stored, comp, c_stored, c_comp, universe
            )
        raise QueryError(f"unknown plan node {tag!r}")

    def exists(self, node: tuple) -> bool:
        """Is the subtree non-empty, probing as few leaves as possible?

        ``Or`` recurses child-by-child — cheapest predicted subtree
        first — and stops at the first non-empty fold; everything else
        asks the counting fold (which carries its own short-circuits).
        """
        tag = node[0]
        if tag == ALL:
            return self.universe > 0
        if tag == EMPTY:
            return False
        if tag == OR:
            for child in order_children(node[1], self.leaf_costs):
                if self.exists(child):
                    return True
            return False
        return self.count(node) > 0


def evaluate_count(
    plan: Plan,
    fetch: Callable[[str, int, int], RangeResult],
    universe: int,
    leaf_costs: Sequence[float] | None = None,
) -> int:
    """Cardinality of a plan's answer, folded in counting space.

    Same fetch contract and short-circuits as :func:`evaluate_fetch`,
    but the root-level combination uses the counting twins of the
    aware algebra, so the global answer list is never materialized.
    """
    return _CardinalityFold(plan, fetch, universe, leaf_costs).count(
        plan.root
    )


def evaluate_exists(
    plan: Plan,
    fetch: Callable[[str, int, int], RangeResult],
    universe: int,
    leaf_costs: Sequence[float] | None = None,
) -> bool:
    """Does the plan match at least one row?

    A top-level (or nested) ``Or`` stops at the first non-empty child
    fold — cost-ordered, so the cheapest disjunct is probed first —
    and other shapes reduce to ``count > 0`` with counting-fold
    short-circuits.
    """
    return _CardinalityFold(plan, fetch, universe, leaf_costs).exists(
        plan.root
    )


def evaluate_count_by(
    plan: Plan,
    fetch: Callable[[str, int, int], RangeResult],
    universe: int,
    group_codes: Sequence[int],
    group_fetch: Callable[[int], RangeResult],
    leaf_costs: Sequence[float] | None = None,
) -> dict[int, int]:
    """Per-group-code cardinalities of ``pred AND group == code``.

    The predicate folds *once* into an aware pair.  Each group code
    then costs one ``group_fetch(code)`` (the group column's equality
    leaf), fetched in ``group_codes`` order while
    :func:`~repro.bits.ops.intersect_aware_count_many` counts it
    against the folded answer, which it hashes once: O(z + sum of
    group leaf sizes) work, one leaf held at a time, no per-group
    result lists, no re-evaluation of the predicate.  Counting every
    row by group is the plan of ``TRUE`` (an ``ALL`` root), which the
    engines compile for ``count_by(group)``.  Codes whose intersection
    is empty are omitted; an unsatisfiable predicate returns ``{}``
    without touching the group column at all.
    """
    folder = _CardinalityFold(plan, fetch, universe, leaf_costs)
    stored, comp = folder.fold(plan.root)
    if not stored and not comp:
        return {}
    groups = (
        align_leaf(group_fetch(code), universe, needs_universe=False)
        for code in group_codes
    )
    counts = intersect_aware_count_many(stored, comp, groups, universe)
    return {code: n for code, n in zip(group_codes, counts) if n}


def specialize(
    plan: Plan,
    translate: Callable[[str, int, int], tuple[int, int] | None],
) -> tuple[tuple[tuple[str, int, int], ...], tuple]:
    """Rewrite a compiled plan's leaves through a shard translator.

    ``translate(column, lo, hi)`` maps a global code interval onto one
    shard's local alphabet, or returns ``None`` when the shard holds
    nothing in the interval (pruned).  Pruned leaves become ``EMPTY``
    and the tree constant-folds — ``Not(EMPTY)`` is ``ALL``, an
    ``And`` with an ``EMPTY`` child collapses, an ``Or`` with an
    ``ALL`` child saturates — so a shard the predicate cannot touch
    reduces to an ``EMPTY`` root (skippable with no round trip) and a
    shard a complement fully covers reduces to ``ALL`` (answerable
    from the shard's row count alone).  Surviving leaves are compacted
    and renumbered; returns ``(leaves, root)`` as the plain picklable
    tuples a worker rebuilds a shard-local :class:`Plan` from.
    """
    local: list[tuple[str, int, int] | None] = []
    for col, lo, hi in plan.leaves:
        translated = translate(col, lo, hi)
        local.append(
            None if translated is None else (col, *translated)
        )

    def rewrite(node: tuple) -> tuple:
        tag = node[0]
        if tag == LEAF:
            return (EMPTY,) if local[node[1]] is None else node
        if tag == NOT:
            child = rewrite(node[1])
            if child[0] == EMPTY:
                return (ALL,)
            if child[0] == ALL:
                return (EMPTY,)
            return (NOT, child)
        if tag in (AND, OR):
            absorb, identity = (EMPTY, ALL) if tag == AND else (ALL, EMPTY)
            children = []
            for part in node[1]:
                folded = rewrite(part)
                if folded[0] == absorb:
                    return (absorb,)
                if folded[0] == identity:
                    continue
                children.append(folded)
            if not children:
                return (identity,)
            if len(children) == 1:
                return children[0]
            return (tag, tuple(children))
        return node

    root = rewrite(plan.root)
    used: set[int] = set()
    _subtree_leaves(root, used)
    remap = {old: new for new, old in enumerate(sorted(used))}

    def renumber(node: tuple) -> tuple:
        if node[0] == LEAF:
            return (LEAF, remap[node[1]])
        if node[0] == NOT:
            return (NOT, renumber(node[1]))
        if node[0] in (AND, OR):
            return (node[0], tuple(renumber(c) for c in node[1]))
        return node

    leaves = tuple(local[old] for old in sorted(used))
    return leaves, renumber(root)


# ----------------------------------------------------------------------
# The typed plan report
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ShardLeafPlan:
    """One shard's share of a leaf fetch (cluster fan-out entry)."""

    shard_id: int
    pruned: bool
    backend: str | None = None
    family: str | None = None
    estimated_cost_bits: float = 0.0
    cached: bool = False

    def to_dict(self) -> dict:
        return {
            "shard_id": self.shard_id,
            "pruned": self.pruned,
            "backend": self.backend,
            "family": self.family,
            "estimated_cost_bits": self.estimated_cost_bits,
            "cached": self.cached,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ShardLeafPlan":
        return cls(
            shard_id=data["shard_id"],
            pruned=data["pruned"],
            backend=data.get("backend"),
            family=data.get("family"),
            estimated_cost_bits=data.get("estimated_cost_bits", 0.0),
            cached=data.get("cached", False),
        )


@dataclass(frozen=True)
class LeafPlan:
    """How one unique leaf interval will be served.

    Single-engine plans fill the backend verdict directly; cluster
    plans additionally carry the per-shard fan-out in ``shards`` (the
    top-level fields then aggregate: summed predicted bits, ``cached``
    iff every non-pruned shard is cached in the shared tier).
    """

    column: str
    char_lo: int
    char_hi: int
    backend: str | None
    family: str | None
    estimated_cost_bits: float
    cached: bool
    shards: tuple[ShardLeafPlan, ...] | None = None

    def to_dict(self) -> dict:
        out = {
            "column": self.column,
            "char_lo": self.char_lo,
            "char_hi": self.char_hi,
            "backend": self.backend,
            "family": self.family,
            "estimated_cost_bits": self.estimated_cost_bits,
            "cached": self.cached,
        }
        if self.shards is not None:
            out["shards"] = [s.to_dict() for s in self.shards]
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "LeafPlan":
        shards = data.get("shards")
        return cls(
            column=data["column"],
            char_lo=data["char_lo"],
            char_hi=data["char_hi"],
            backend=data.get("backend"),
            family=data.get("family"),
            estimated_cost_bits=data.get("estimated_cost_bits", 0.0),
            cached=data.get("cached", False),
            shards=(
                None
                if shards is None
                else tuple(ShardLeafPlan.from_dict(s) for s in shards)
            ),
        )

    def describe(self) -> str:
        if self.backend is not None:
            where = f"{self.backend}"
        elif self.shards is not None:
            live = sum(1 for s in self.shards if not s.pruned)
            where = "all shards pruned" if not live else f"{live} shard(s)"
        else:
            where = "?"
        state = "cached" if self.cached else "cold"
        return (
            f"{self.column}[{self.char_lo}..{self.char_hi}] via {where} "
            f"({state}, est {self.estimated_cost_bits:,.0f} bits)"
        )


@dataclass(frozen=True)
class PlanReport:
    """The typed answer of ``plan(pred)`` / ``explain(pred)``.

    One object for both serving layers: ``kind`` says which produced
    it, ``root`` is the operator tree over ``leaves`` (leaf nodes
    reference leaf indices), and every field round-trips through
    :meth:`to_dict` into plain JSON types.  ``str(report)`` renders
    the human-readable tree.
    """

    kind: str  # "engine" | "cluster"
    predicate: str
    universe: int
    root: tuple
    leaves: tuple[LeafPlan, ...]
    num_shards: int | None = None
    estimated_total_bits: float = field(default=0.0)

    def to_dict(self) -> dict:
        def node_to_dict(node: tuple):
            tag = node[0]
            if tag == LEAF:
                return {"op": LEAF, "leaf": node[1]}
            if tag == NOT:
                return {"op": NOT, "child": node_to_dict(node[1])}
            if tag in (AND, OR):
                return {
                    "op": tag,
                    "children": [node_to_dict(c) for c in node[1]],
                }
            return {"op": tag}

        return {
            "kind": self.kind,
            "predicate": self.predicate,
            "universe": self.universe,
            "num_shards": self.num_shards,
            "estimated_total_bits": self.estimated_total_bits,
            "root": node_to_dict(self.root),
            "leaves": [leaf.to_dict() for leaf in self.leaves],
        }

    def to_json(self) -> dict:
        """Alias of :meth:`to_dict`, matching ``Snapshot``/``GatherStats``."""
        return self.to_dict()

    @classmethod
    def from_json(cls, data: dict) -> "PlanReport":
        """Rebuild a report (operator tuples included) from its dict."""

        def node_from_dict(node: dict) -> tuple:
            op = node["op"]
            if op == LEAF:
                return (LEAF, node["leaf"])
            if op == NOT:
                return (NOT, node_from_dict(node["child"]))
            if op in (AND, OR):
                return (
                    op,
                    tuple(node_from_dict(c) for c in node["children"]),
                )
            return (op,)

        return cls(
            kind=data["kind"],
            predicate=data["predicate"],
            universe=data["universe"],
            root=node_from_dict(data["root"]),
            leaves=tuple(
                LeafPlan.from_dict(leaf) for leaf in data["leaves"]
            ),
            num_shards=data.get("num_shards"),
            estimated_total_bits=data.get("estimated_total_bits", 0.0),
        )

    def describe(self) -> str:
        lines = [
            f"{self.kind} plan over universe {self.universe}"
            + (
                f" ({self.num_shards} shard(s))"
                if self.num_shards is not None
                else ""
            )
            + f": {self.predicate}"
        ]

        def render(node: tuple, depth: int) -> None:
            pad = "  " * (depth + 1)
            tag = node[0]
            if tag == LEAF:
                lines.append(pad + self.leaves[node[1]].describe())
            elif tag == NOT:
                lines.append(pad + "not")
                render(node[1], depth + 1)
            elif tag in (AND, OR):
                lines.append(pad + tag)
                for child in node[1]:
                    render(child, depth + 1)
            elif tag == ALL:
                lines.append(pad + "all rows (no index bits)")
            else:
                lines.append(pad + "empty (no index bits)")

        render(self.root, 0)
        lines.append(
            f"  total: {len(self.leaves)} unique leaf fetch(es), "
            f"est {self.estimated_total_bits:,.0f} bits"
        )
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.describe()
