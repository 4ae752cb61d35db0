"""The predicate algebra: one composable query AST.

The paper's indexes answer one-dimensional alphabet range queries;
real workloads compose them — warehouse-style star queries are built
from IN-lists, disjunctions, and negations over secondary columns.
This module defines the composable surface every serving layer speaks:

* :class:`Range` — ``column ∈ [lo, hi]`` with either bound open
  (``None``);
* :class:`Eq` — ``column == value`` (sugar for a one-point range);
* :class:`In` — ``column ∈ {v1, v2, ...}`` (membership);
* :class:`And` / :class:`Or` / :class:`Not` — boolean combination;
* :data:`TRUE` / :data:`FALSE` — the constants normalization folds
  degenerate predicates into.

The same classes carry *value-space* predicates (what ``Table``
accepts over either engine — bounds and members are arbitrary ordered
values) and *code-space* predicates (what the engines serve — bounds
are dense integer codes).  :func:`translate` maps the former to the
latter through each column's :class:`~repro.model.alphabet.Alphabet`
(§1.1's dictionary), and :func:`normalize` rewrites any code-space
predicate into the canonical form the planner compiles:

* negation-normal form: ``Not`` pushed through ``And``/``Or`` by
  De Morgan until it wraps only ``Range`` leaves;
* ``Eq`` → a one-point ``Range``; ``In`` → its sorted distinct codes
  grouped into maximal consecutive *interval runs* (one range query
  per run, not per member);
* open/over-wide bounds clipped to the column's alphabet; a leaf that
  can match nothing folds to :data:`FALSE`, one that matches the whole
  column to :data:`TRUE`;
* per-column interval merging: inside an ``And``, positive ranges on
  one column intersect to a single interval and negated ranges merge
  into disjoint runs (a positive interval minus same-column negated
  runs is resolved *statically* into residual runs — no index bits
  are ever read for it); inside an ``Or``, positive ranges on one
  column merge into maximal runs (adjacent code intervals fuse:
  ``[0,2] ∨ [3,5] = [0,5]``) and negated ranges intersect;
* flattening, deduplication, and a deterministic child order, so
  equivalent predicates compile to identical plans and their leaves
  share cache entries ("disjuncts share cached legs").

Semantics are defined over the column's *position space*: ``Not`` and
:data:`TRUE` complement against every position the backends index.
Engine-level deletions that are pending compaction (``None`` holes)
match no positive leaf and therefore count as matches of ``Not`` —
table-level flows never create holes, so there value semantics and
position semantics coincide.
"""

from __future__ import annotations

import hashlib
from typing import Any, Callable, Iterable

from ..errors import InvalidParameterError, QueryError


class Pred:
    """Base class of every predicate node.

    Nodes compose with ``&``, ``|`` and ``~`` as well as the explicit
    :class:`And`/:class:`Or`/:class:`Not` constructors.
    """

    __slots__ = ()

    def __and__(self, other: "Pred") -> "Pred":
        return And(self, other)

    def __or__(self, other: "Pred") -> "Pred":
        return Or(self, other)

    def __invert__(self) -> "Pred":
        return Not(self)

    def fingerprint(
        self,
        sigma_of: Callable[[str], int],
        *,
        epoch_of: "Callable[[str], Any] | None" = None,
    ) -> str:
        """A stable content hash of the normalized predicate.

        Equivalent predicates — ``a & b`` vs ``b & a``, adjacent
        intervals vs their fusion — normalize to the same canonical
        tree and therefore collide; non-equivalent ones don't.  The
        hash also covers the set of columns the *original* predicate
        mentions (simplified-away leaves still pin their column's row
        universe) and, when ``epoch_of`` is given, each column's
        dictionary epoch — so a key minted before a column was dropped
        and re-added can never alias the new incarnation.  Suitable as
        a single-flight coalescing or result-cache key.
        """
        return fingerprint_pred(self, sigma_of, epoch_of=epoch_of)


class _Bool(Pred):
    """The constant predicates (normalization results, not user input)."""

    __slots__ = ("_value",)

    def __init__(self, value: bool) -> None:
        self._value = value

    def __repr__(self) -> str:
        return "TRUE" if self._value else "FALSE"

    def __bool__(self) -> bool:
        return self._value


#: Matches every position.  Normalization folds e.g. a fully open
#: range over a whole column into this; it costs no index bits.
TRUE = _Bool(True)
#: Matches no position (e.g. an ``In`` over values that never occur).
FALSE = _Bool(False)


class Range(Pred):
    """``column ∈ [lo, hi]`` (inclusive); either bound may be open."""

    __slots__ = ("column", "lo", "hi")

    def __init__(self, column: str, lo: Any = None, hi: Any = None) -> None:
        if not isinstance(column, str):
            raise InvalidParameterError("Range column must be a string")
        self.column = column
        self.lo = lo
        self.hi = hi

    def __repr__(self) -> str:
        return f"Range({self.column!r}, {self.lo!r}, {self.hi!r})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Range)
            and (self.column, self.lo, self.hi)
            == (other.column, other.lo, other.hi)
        )

    def __hash__(self) -> int:
        return hash(("Range", self.column, self.lo, self.hi))


class Eq(Pred):
    """``column == value`` — sugar for the one-point range."""

    __slots__ = ("column", "value")

    def __init__(self, column: str, value: Any) -> None:
        if not isinstance(column, str):
            raise InvalidParameterError("Eq column must be a string")
        self.column = column
        self.value = value

    def __repr__(self) -> str:
        return f"Eq({self.column!r}, {self.value!r})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Eq) and (self.column, self.value) == (
            other.column,
            other.value,
        )

    def __hash__(self) -> int:
        return hash(("Eq", self.column, self.value))


class In(Pred):
    """``column ∈ values`` — membership in an explicit set."""

    __slots__ = ("column", "values")

    def __init__(self, column: str, values: Iterable[Any]) -> None:
        if not isinstance(column, str):
            raise InvalidParameterError("In column must be a string")
        self.column = column
        self.values = tuple(values)

    def __repr__(self) -> str:
        return f"In({self.column!r}, {list(self.values)!r})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, In) and (self.column, self.values) == (
            other.column,
            other.values,
        )

    def __hash__(self) -> int:
        return hash(("In", self.column, self.values))


def _check_parts(kind: str, parts: tuple) -> tuple:
    if not parts:
        raise InvalidParameterError(f"{kind} needs at least one part")
    for part in parts:
        if not isinstance(part, Pred):
            raise InvalidParameterError(
                f"{kind} parts must be predicates, got {type(part).__name__}"
            )
    return parts


class And(Pred):
    """Conjunction of one or more predicates."""

    __slots__ = ("parts",)

    def __init__(self, *parts: Pred) -> None:
        self.parts = _check_parts("And", parts)

    def __repr__(self) -> str:
        return f"And({', '.join(map(repr, self.parts))})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, And) and self.parts == other.parts

    def __hash__(self) -> int:
        return hash(("And", self.parts))


class Or(Pred):
    """Disjunction of one or more predicates."""

    __slots__ = ("parts",)

    def __init__(self, *parts: Pred) -> None:
        self.parts = _check_parts("Or", parts)

    def __repr__(self) -> str:
        return f"Or({', '.join(map(repr, self.parts))})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Or) and self.parts == other.parts

    def __hash__(self) -> int:
        return hash(("Or", self.parts))


class Not(Pred):
    """Negation of a predicate."""

    __slots__ = ("part",)

    def __init__(self, part: Pred) -> None:
        if not isinstance(part, Pred):
            raise InvalidParameterError(
                f"Not takes a predicate, got {type(part).__name__}"
            )
        self.part = part

    def __repr__(self) -> str:
        return f"Not({self.part!r})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Not) and self.part == other.part

    def __hash__(self) -> int:
        return hash(("Not", self.part))


def columns_of(pred: Pred) -> set[str]:
    """Every column name a predicate mentions (before simplification)."""
    if isinstance(pred, (Range, Eq, In)):
        return {pred.column}
    if isinstance(pred, Not):
        return columns_of(pred.part)
    if isinstance(pred, (And, Or)):
        out: set[str] = set()
        for part in pred.parts:
            out |= columns_of(part)
        return out
    if isinstance(pred, _Bool):
        return set()
    raise QueryError(f"unknown predicate node {type(pred).__name__}")


# ----------------------------------------------------------------------
# Value space -> code space (§1.1's dictionary, applied to predicates)
# ----------------------------------------------------------------------


def translate(pred: Pred, alphabet_of: Callable[[str], Any]) -> Pred:
    """Map a value-space predicate onto dense code space.

    ``alphabet_of(column)`` returns the column's
    :class:`~repro.model.alphabet.Alphabet` (and raises
    :class:`~repro.errors.QueryError` for unknown columns).  Leaves
    translate with the floor/ceiling semantics of ``code_range``: a
    value range covers every *occurring* value inside it, a range or
    membership that covers none folds to :data:`FALSE` (under a
    ``Not``, normalization later flips it to :data:`TRUE`).
    """
    if isinstance(pred, _Bool):
        return pred
    if isinstance(pred, Eq):
        alphabet = alphabet_of(pred.column)
        if pred.value not in alphabet:
            return In(pred.column, ())  # empty, but still names its column
        code = alphabet.code(pred.value)
        return Range(pred.column, code, code)
    if isinstance(pred, In):
        alphabet = alphabet_of(pred.column)
        codes = sorted(
            {alphabet.code(v) for v in pred.values if v in alphabet}
        )
        # An empty membership stays an (empty) leaf rather than FALSE
        # so the compiled plan still knows which column's row universe
        # it answers against.
        return In(pred.column, codes)
    if isinstance(pred, Range):
        alphabet = alphabet_of(pred.column)
        interval = alphabet.code_interval(pred.lo, pred.hi)
        if interval is None:
            return In(pred.column, ())
        return Range(pred.column, *interval)
    if isinstance(pred, Not):
        return Not(translate(pred.part, alphabet_of))
    if isinstance(pred, And):
        return And(*(translate(p, alphabet_of) for p in pred.parts))
    if isinstance(pred, Or):
        return Or(*(translate(p, alphabet_of) for p in pred.parts))
    raise QueryError(f"unknown predicate node {type(pred).__name__}")


# ----------------------------------------------------------------------
# Normalization (code space)
# ----------------------------------------------------------------------


def _codes_to_runs(codes: list[int]) -> list[tuple[int, int]]:
    """Sorted distinct codes -> maximal consecutive interval runs."""
    runs: list[tuple[int, int]] = []
    for c in codes:
        if runs and c == runs[-1][1] + 1:
            runs[-1] = (runs[-1][0], c)
        else:
            runs.append((c, c))
    return runs


def _merge_runs(
    intervals: Iterable[tuple[int, int]]
) -> list[tuple[int, int]]:
    """Overlapping/adjacent code intervals -> disjoint maximal runs."""
    out: list[tuple[int, int]] = []
    for lo, hi in sorted(intervals):
        if out and lo <= out[-1][1] + 1:
            out[-1] = (out[-1][0], max(out[-1][1], hi))
        else:
            out.append((lo, hi))
    return out


def _subtract_runs(
    interval: tuple[int, int], holes: list[tuple[int, int]]
) -> list[tuple[int, int]]:
    """One interval minus disjoint sorted hole runs -> residual runs."""
    lo, hi = interval
    out: list[tuple[int, int]] = []
    cursor = lo
    for h_lo, h_hi in holes:
        if h_hi < cursor:
            continue
        if h_lo > hi:
            break
        if h_lo > cursor:
            out.append((cursor, h_lo - 1))
        cursor = max(cursor, h_hi + 1)
        if cursor > hi:
            break
    if cursor <= hi:
        out.append((cursor, hi))
    return out


def _leaf_interval(
    pred: "Range | Eq | In", sigma: int
) -> list[tuple[int, int]]:
    """A leaf's matching code intervals, clipped to ``[0, sigma)``."""
    if isinstance(pred, Eq):
        v = pred.value
        _require_code(pred, v)
        return [(v, v)] if 0 <= v < sigma else []
    if isinstance(pred, In):
        codes = set()
        for v in pred.values:
            _require_code(pred, v)
            if 0 <= v < sigma:
                codes.add(v)
        return _codes_to_runs(sorted(codes))
    lo = 0 if pred.lo is None else pred.lo
    hi = sigma - 1 if pred.hi is None else pred.hi
    _require_code(pred, lo)
    _require_code(pred, hi)
    lo, hi = max(lo, 0), min(hi, sigma - 1)
    return [(lo, hi)] if lo <= hi else []


def _require_code(pred: Pred, value: Any) -> None:
    if not isinstance(value, int) or isinstance(value, bool):
        raise QueryError(
            f"code-space predicate {pred!r} carries non-integer bound "
            f"{value!r}; translate value-space predicates through the "
            "table layer"
        )


def _sort_key(pred: Pred) -> tuple:
    """Deterministic child ordering: leaves first, then composites."""
    if isinstance(pred, Range):
        return (0, pred.column, pred.lo, pred.hi)
    if isinstance(pred, Not):  # normalized: always Not(Range)
        inner = pred.part
        return (1, inner.column, inner.lo, inner.hi)
    if isinstance(pred, And):
        return (2, repr(pred))
    if isinstance(pred, Or):
        return (3, repr(pred))
    return (4, repr(pred))


def normalize(pred: Pred, sigma_of: Callable[[str], int]) -> Pred:
    """Rewrite a code-space predicate into canonical normal form.

    ``sigma_of(column)`` returns the column's alphabet size (raising
    :class:`~repro.errors.QueryError` for unknown columns — every leaf
    is resolved eagerly, even ones simplification would discard).  The
    result is :data:`TRUE`, :data:`FALSE`, or a tree of ``And`` / ``Or``
    over ``Range`` and ``Not(Range)`` leaves with closed integer
    bounds inside ``[0, sigma)``, flattened, deduplicated,
    same-column-merged and deterministically ordered.
    """
    return _norm(pred, False, sigma_of)


def _norm(
    pred: Pred, negated: bool, sigma_of: Callable[[str], int]
) -> Pred:
    if isinstance(pred, _Bool):
        value = bool(pred) != negated
        return TRUE if value else FALSE
    if isinstance(pred, Not):
        return _norm(pred.part, not negated, sigma_of)
    if isinstance(pred, (Range, Eq, In)):
        sigma = sigma_of(pred.column)
        runs = _leaf_interval(pred, sigma)
        if not runs:
            return TRUE if negated else FALSE
        if runs == [(0, sigma - 1)]:
            return FALSE if negated else TRUE
        leaves = [Range(pred.column, lo, hi) for lo, hi in runs]
        if negated:
            # ~(r1 | r2 | ...) = ~r1 & ~r2 & ...
            parts = [Not(leaf) for leaf in leaves]
            return (
                parts[0] if len(parts) == 1
                else _combine_and(parts, sigma_of)
            )
        return (
            leaves[0] if len(leaves) == 1
            else _combine_or(leaves, sigma_of)
        )
    if isinstance(pred, (And, Or)):
        children = [_norm(p, negated, sigma_of) for p in pred.parts]
        conjunctive = isinstance(pred, And) != negated  # De Morgan
        if conjunctive:
            return _combine_and(children, sigma_of)
        return _combine_or(children, sigma_of)
    raise QueryError(f"unknown predicate node {type(pred).__name__}")


def _flatten(children: list[Pred], kind: type) -> list[Pred]:
    flat: list[Pred] = []
    for child in children:
        if isinstance(child, kind):
            flat.extend(child.parts)
        else:
            flat.append(child)
    return flat


def _finish(children: list[Pred], kind: type) -> Pred:
    """Dedupe, order, and collapse a combined node's children."""
    seen: set = set()
    out: list[Pred] = []
    for child in sorted(children, key=_sort_key):
        if child not in seen:
            seen.add(child)
            out.append(child)
    if not out:
        return TRUE if kind is And else FALSE
    if len(out) == 1:
        return out[0]
    return kind(*out)


def _combine_and(
    children: list[Pred], sigma_of: Callable[[str], int]
) -> Pred:
    children = _flatten(children, And)
    if any(c is FALSE for c in children):
        return FALSE
    children = [c for c in children if c is not TRUE]
    # Per-column merging: positive intervals intersect, negated
    # intervals merge into disjoint runs, and a positive interval
    # minus same-column negated runs resolves statically.
    pos: dict[str, tuple[int, int]] = {}
    neg: dict[str, list[tuple[int, int]]] = {}
    rest: list[Pred] = []
    for child in children:
        if isinstance(child, Range):
            col = child.column
            if col in pos:
                lo = max(pos[col][0], child.lo)
                hi = min(pos[col][1], child.hi)
                if lo > hi:
                    return FALSE
                pos[col] = (lo, hi)
            else:
                pos[col] = (child.lo, child.hi)
        elif isinstance(child, Not) and isinstance(child.part, Range):
            inner = child.part
            neg.setdefault(inner.column, []).append((inner.lo, inner.hi))
        else:
            rest.append(child)
    merged: list[Pred] = []
    for col, interval in pos.items():
        holes = _merge_runs(neg.pop(col, []))
        runs = _subtract_runs(interval, holes) if holes else [interval]
        if not runs:
            return FALSE
        leaves = [Range(col, lo, hi) for lo, hi in runs]
        merged.append(
            leaves[0] if len(leaves) == 1 else _finish(leaves, Or)
        )
    for col, intervals in neg.items():
        for lo, hi in _merge_runs(intervals):
            if (lo, hi) == (0, sigma_of(col) - 1):
                # The merged negations cover the whole alphabet:
                # ~(full column) matches nothing (the same fold a
                # single full-range leaf gets, so equivalent
                # predicates stay equivalent).
                return FALSE
            merged.append(Not(Range(col, lo, hi)))
    return _finish(merged + rest, And)


def _combine_or(
    children: list[Pred], sigma_of: Callable[[str], int]
) -> Pred:
    children = _flatten(children, Or)
    if any(c is TRUE for c in children):
        return TRUE
    children = [c for c in children if c is not FALSE]
    # Per-column merging: positive intervals fuse into maximal runs
    # (adjacent code intervals too), negated intervals intersect
    # (~A | ~B = ~(A & B)).
    pos: dict[str, list[tuple[int, int]]] = {}
    neg: dict[str, tuple[int, int]] = {}
    rest: list[Pred] = []
    for child in children:
        if isinstance(child, Range):
            pos.setdefault(child.column, []).append((child.lo, child.hi))
        elif isinstance(child, Not) and isinstance(child.part, Range):
            inner = child.part
            col = inner.column
            if col in neg:
                lo = max(neg[col][0], inner.lo)
                hi = min(neg[col][1], inner.hi)
                if lo > hi:
                    return TRUE  # ~∅ — the disjunction is everything
                neg[col] = (lo, hi)
            else:
                neg[col] = (inner.lo, inner.hi)
        else:
            rest.append(child)
    merged: list[Pred] = []
    for col, intervals in pos.items():
        for lo, hi in _merge_runs(intervals):
            if (lo, hi) == (0, sigma_of(col) - 1):
                # The merged runs cover the whole alphabet — the same
                # TRUE fold a single full-range leaf gets, so
                # equivalent predicates stay equivalent (position-
                # space semantics, including pending-delete holes).
                return TRUE
            merged.append(Range(col, lo, hi))
    for col, (lo, hi) in neg.items():
        merged.append(Not(Range(col, lo, hi)))
    return _finish(merged + rest, Or)


# ----------------------------------------------------------------------
# Fingerprints (coalescing / cache keys)
# ----------------------------------------------------------------------


def _fp_token(pred: Pred) -> tuple:
    """Canonical nested-tuple serialization of a *normalized* tree.

    Only the node types normalization can emit appear here; the tuple
    contains nothing but strings and ints, so its ``repr`` is stable
    across processes (no ``PYTHONHASHSEED`` dependence).
    """
    if isinstance(pred, _Bool):
        return ("T",) if pred else ("F",)
    if isinstance(pred, Range):
        return ("R", pred.column, pred.lo, pred.hi)
    if isinstance(pred, Not):
        return ("N", _fp_token(pred.part))
    if isinstance(pred, And):
        return ("A",) + tuple(_fp_token(p) for p in pred.parts)
    if isinstance(pred, Or):
        return ("O",) + tuple(_fp_token(p) for p in pred.parts)
    raise QueryError(f"unknown predicate node {type(pred).__name__}")


def fingerprint_pred(
    pred: Pred,
    sigma_of: Callable[[str], int],
    *,
    epoch_of: "Callable[[str], Any] | None" = None,
) -> str:
    """Hash a code-space predicate's canonical form (see
    :meth:`Pred.fingerprint`)."""
    normalized = normalize(pred, sigma_of)
    columns = sorted(columns_of(pred))
    if epoch_of is not None:
        scope: tuple = tuple((c, str(epoch_of(c))) for c in columns)
    else:
        scope = tuple(columns)
    payload = repr((scope, _fp_token(normalized)))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:32]
