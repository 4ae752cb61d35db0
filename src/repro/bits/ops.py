"""Algebra on sorted position lists.

The query algorithms of §2 compute unions of the (pairwise disjoint)
position sets of canonical subtrees; the RID-intersection application of
§1 intersects per-dimension answers; the complement trick of §2.1 turns
a large answer into the complement of two small ones.  These helpers
implement that algebra on plain sorted ``list[int]`` values, which is
the decoded form every bitmap class can produce.

Each base operation dispatches on :data:`repro.bits.kernels.USE_FAST`:
the loops written out below are the pure-Python *reference* kernels
(``REPRO_KERNEL=python``), and :mod:`.kernels` holds their
block-oriented twins built on C-backed ``set``/``sorted`` primitives
(``REPRO_KERNEL=fast``, the default).  The complement-aware and
counting combinators further down compose these base operations, so
they accelerate through the same switch without dispatching
themselves.
"""

from __future__ import annotations

import heapq
from typing import Iterable, Sequence

from . import kernels


def is_strictly_increasing(seq: Sequence[int]) -> bool:
    """True when ``seq`` is strictly increasing."""
    return all(a < b for a, b in zip(seq, seq[1:]))


def union_disjoint_sorted(lists: Iterable[Sequence[int]]) -> list[int]:
    """Merge sorted lists with pairwise-disjoint elements.

    This is the k-way merge the paper performs in ``O(1)`` passes given
    ``M = B(sigma lg n)^Omega(1)`` internal memory (§2.2); no
    deduplication is needed because canonical subtrees partition the
    answer.
    """
    if kernels.USE_FAST:
        return kernels.union_disjoint_sorted(lists)
    lists = [lst for lst in lists if lst]
    if not lists:
        return []
    if len(lists) == 1:
        return list(lists[0])
    return list(heapq.merge(*lists))


def union_sorted(lists: Iterable[Sequence[int]]) -> list[int]:
    """Union of sorted lists, deduplicating equal elements."""
    if kernels.USE_FAST:
        return kernels.union_sorted(lists)
    merged = union_disjoint_sorted(lists)
    if not merged:
        return []
    out = [merged[0]]
    append = out.append
    last = merged[0]
    for v in merged:
        if v != last:
            append(v)
            last = v
    return out


def union_many(lists: Sequence[Sequence[int]]) -> list[int]:
    """Deduplicating k-way union of sorted duplicate-free lists.

    The disjunctive counterpart of :func:`intersect_many` — what an
    ``Or`` plan node folds its per-leaf answers with.  Zero input
    lists union to the empty list; the result is always a fresh list,
    never an alias of an input.
    """
    return union_sorted(lists)

def intersect_sorted(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Intersection of two sorted duplicate-free lists (two pointers)."""
    if kernels.USE_FAST:
        return kernels.intersect_sorted(a, b)
    out: list[int] = []
    append = out.append
    i = j = 0
    la, lb = len(a), len(b)
    while i < la and j < lb:
        x, y = a[i], b[j]
        if x == y:
            append(x)
            i += 1
            j += 1
        elif x < y:
            i += 1
        else:
            j += 1
    return out


def intersect_many(lists: Sequence[Sequence[int]]) -> list[int]:
    """Intersection of several sorted duplicate-free lists.

    Inputs carry the same precondition as :func:`intersect_sorted`
    (sorted, duplicate-free) at every arity.  Zero input lists
    intersect to the empty list: callers hold no universe here, so the
    empty conjunction cannot materialize "all positions" and the query
    layers are responsible for rejecting condition-free selects.  The
    result is always a fresh list, never an alias of an input.
    """
    if kernels.USE_FAST:
        return kernels.intersect_many(lists)
    if not lists:
        return []
    ordered = sorted(lists, key=len)
    result = list(ordered[0])
    for other in ordered[1:]:
        if not result:
            break
        result = intersect_sorted(result, other)
    return result


def difference_sorted(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Elements of sorted ``a`` not present in sorted ``b``."""
    if kernels.USE_FAST:
        return kernels.difference_sorted(a, b)
    out: list[int] = []
    append = out.append
    i = j = 0
    la, lb = len(a), len(b)
    while i < la:
        x = a[i]
        while j < lb and b[j] < x:
            j += 1
        if j >= lb or b[j] != x:
            append(x)
        i += 1
    return out


# ----------------------------------------------------------------------
# Complement-aware set algebra
# ----------------------------------------------------------------------
#
# A set is represented as ``(stored, complemented)``: the sorted list
# physically held plus a flag saying whether the set is that list or
# its complement against the (implicit) universe — exactly the §2.1
# representation ``RangeResult`` uses for majority answers.  The
# combinators below apply De Morgan identities so no operation ever
# materializes a complement: a ``Not`` stays a flag flip, and an
# ``And``/``Or`` over complemented operands rewrites into
# intersection/union/difference of the *stored* (small) lists.  Only a
# final materialization against a concrete universe pays O(n - z).


def union_aware(
    a: Sequence[int], a_comp: bool, b: Sequence[int], b_comp: bool
) -> tuple[list[int], bool]:
    """Union of two complement-aware sets, complement-aware result.

    ``A | B`` plain; ``~A | ~B = ~(A & B)``; ``A | ~B = ~(B - A)``.
    """
    if not a_comp and not b_comp:
        return union_many([a, b]), False
    if a_comp and b_comp:
        return intersect_sorted(a, b), True
    if a_comp:  # ~A | B = ~(A - B)
        return difference_sorted(a, b), True
    return difference_sorted(b, a), True


def intersect_aware(
    a: Sequence[int], a_comp: bool, b: Sequence[int], b_comp: bool
) -> tuple[list[int], bool]:
    """Intersection of two complement-aware sets.

    ``A & B`` plain; ``~A & ~B = ~(A | B)``; ``A & ~B = A - B``.
    """
    if not a_comp and not b_comp:
        return intersect_sorted(a, b), False
    if a_comp and b_comp:
        return union_many([a, b]), True
    if a_comp:  # ~A & B = B - A
        return difference_sorted(b, a), False
    return difference_sorted(a, b), False


def difference_aware(
    a: Sequence[int], a_comp: bool, b: Sequence[int], b_comp: bool
) -> tuple[list[int], bool]:
    """Difference ``A - B`` of two complement-aware sets.

    Rewritten as ``A & ~B`` so every case reduces to
    :func:`intersect_aware` without materializing a complement.
    """
    return intersect_aware(a, a_comp, b, not b_comp)


# ----------------------------------------------------------------------
# Counting twins (cardinality space)
# ----------------------------------------------------------------------
#
# Aggregates only need |result|, and the §2.1 representation makes
# every case answerable without building the result list: a plain
# intersection is counted with two pointers and no output, and every
# complemented case reduces through De Morgan to ``universe`` minus a
# plain count.  These are the counting twins of the aware combinators
# above — same case analysis, an ``int`` out instead of a list.


def intersect_count(a: Sequence[int], b: Sequence[int]) -> int:
    """``|A & B|`` of two sorted duplicate-free lists, no output list."""
    if kernels.USE_FAST:
        return kernels.intersect_count(a, b)
    count = 0
    i = j = 0
    la, lb = len(a), len(b)
    while i < la and j < lb:
        x, y = a[i], b[j]
        if x == y:
            count += 1
            i += 1
            j += 1
        elif x < y:
            i += 1
        else:
            j += 1
    return count


def union_count(a: Sequence[int], b: Sequence[int]) -> int:
    """``|A | B|`` by inclusion-exclusion, no output list."""
    return len(a) + len(b) - intersect_count(a, b)


def difference_count(a: Sequence[int], b: Sequence[int]) -> int:
    """``|A - B|`` — the elements of ``a`` minus the shared ones."""
    return len(a) - intersect_count(a, b)


def count_aware(stored: Sequence[int], comp: bool, universe: int) -> int:
    """Cardinality of one complement-aware set, O(1) given lengths."""
    return universe - len(stored) if comp else len(stored)


def intersect_aware_count(
    a: Sequence[int],
    a_comp: bool,
    b: Sequence[int],
    b_comp: bool,
    universe: int,
) -> int:
    """``|A & B|`` of two complement-aware sets over ``universe``.

    ``A & B`` plain; ``~A & ~B = ~(A | B)`` costs ``universe`` minus a
    union count; mixed operands count a difference of stored lists.
    """
    if not a_comp and not b_comp:
        return intersect_count(a, b)
    if a_comp and b_comp:
        return universe - union_count(a, b)
    if a_comp:  # ~A & B = B - A
        return difference_count(b, a)
    return difference_count(a, b)


def intersect_aware_count_many(
    a: Sequence[int],
    a_comp: bool,
    groups: Iterable[tuple[Sequence[int], bool]],
    universe: int,
) -> list[int]:
    """``|A & G|`` for each complement-aware ``(g, g_comp)`` in ``groups``.

    The many-against-one counting twin a ``count_by`` fold needs: one
    folded predicate answer ``A`` counted against every group leaf,
    answers in ``groups`` order.  The reference is the per-leaf
    :func:`intersect_aware_count` loop; the fast kernel hashes ``a``
    once for the whole batch.
    """
    if kernels.USE_FAST:
        return kernels.intersect_aware_count_many(a, a_comp, groups, universe)
    return [
        intersect_aware_count(a, a_comp, g, g_comp, universe)
        for g, g_comp in groups
    ]


def union_aware_count(
    a: Sequence[int],
    a_comp: bool,
    b: Sequence[int],
    b_comp: bool,
    universe: int,
) -> int:
    """``|A | B|`` of two complement-aware sets over ``universe``."""
    if not a_comp and not b_comp:
        return union_count(a, b)
    if a_comp and b_comp:  # ~A | ~B = ~(A & B)
        return universe - intersect_count(a, b)
    if a_comp:  # ~A | B = ~(A - B)
        return universe - difference_count(a, b)
    return universe - difference_count(b, a)


def difference_aware_count(
    a: Sequence[int],
    a_comp: bool,
    b: Sequence[int],
    b_comp: bool,
    universe: int,
) -> int:
    """``|A - B|`` via ``A & ~B``, mirroring :func:`difference_aware`."""
    return intersect_aware_count(a, a_comp, b, not b_comp, universe)


def complement_sorted(positions: Sequence[int], universe: int) -> list[int]:
    """All elements of ``[0, universe)`` not in sorted ``positions``.

    Realizes the complement trick of §2.1: when a range query matches
    more than half the string, the structure answers the two flanking
    queries and returns their complement.
    """
    if kernels.USE_FAST:
        return kernels.complement_sorted(positions, universe)
    out: list[int] = []
    append = out.append
    prev = -1
    for p in positions:
        for q in range(prev + 1, p):
            append(q)
        prev = p
    for q in range(prev + 1, universe):
        append(q)
    return out
