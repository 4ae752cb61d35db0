"""One composable query AST, planned and served identically everywhere.

The predicate algebra (:mod:`.predicates`) is the public query
surface of the whole stack: ``Range`` (either bound open), ``Eq``,
``In``, ``And``, ``Or``, ``Not``, composable with ``& | ~``.  The
planner (:mod:`.planner`) normalizes any predicate (NNF push-down,
per-column interval merging, IN → sorted code-interval runs) and
compiles it into a :class:`~.planner.Plan` — a DAG of backend
``range_query`` leaves combined by complement-aware set algebra —
that :class:`~repro.engine.engine.QueryEngine` and
:class:`~repro.cluster.engine.ClusterEngine` execute through one
shared fold — the cluster once per shard, on the plan specialized to
that shard.  ``plan()``/``explain()``
answer with the typed, JSON-serializable :class:`~.planner.PlanReport`.

Value space vs code space: ``Table`` (over either engine) accepts
these same classes over column *values* and translates them through
each column's dictionary (:func:`~.predicates.translate`); the
engines speak dense codes directly.
"""

from .planner import (
    LeafPlan,
    Plan,
    PlanReport,
    ShardLeafPlan,
    align_leaf,
    compile_pred,
    evaluate,
    evaluate_count,
    evaluate_count_by,
    evaluate_exists,
    evaluate_fetch,
    order_children,
    resolve_universe,
    specialize,
)
from .predicates import (
    FALSE,
    TRUE,
    And,
    Eq,
    In,
    Not,
    Or,
    Pred,
    Range,
    columns_of,
    fingerprint_pred,
    normalize,
    translate,
)

__all__ = [
    "And",
    "Eq",
    "FALSE",
    "In",
    "LeafPlan",
    "Not",
    "Or",
    "Plan",
    "PlanReport",
    "Pred",
    "Range",
    "ShardLeafPlan",
    "TRUE",
    "align_leaf",
    "columns_of",
    "compile_pred",
    "evaluate",
    "evaluate_count",
    "evaluate_count_by",
    "evaluate_exists",
    "evaluate_fetch",
    "fingerprint_pred",
    "normalize",
    "order_children",
    "resolve_universe",
    "specialize",
    "translate",
]
