"""Deletion support for the dynamic index (§4, introduction).

The paper reduces deletions to ``change``: "extend the alphabet with a
new character ∞ that is never matched by a range query; deleting a
character can be done by simply changing it to ∞."  Positions then stay
stable (the semantics relational systems want when row ids are
physical).  For the alternative semantics — positions relative to the
current, compacted string — the paper maintains "a B-tree over the
deleted positions with subtree sizes maintained in all nodes", allowing
position translation in ``O(lg_b n)`` I/Os, and performs a global
rebuild when a constant fraction of characters are deleted.

:class:`DeletableIndex` implements both:

* physical positions: :meth:`delete` + :meth:`range_query` (results
  never contain deleted positions, because ∞ is outside every query
  range);
* logical positions: :meth:`logical_to_physical` /
  :meth:`physical_to_logical` through the counted B-tree.

When the global rebuild happens is :func:`compaction_due`, a pure
function of the counts: a column that mirrors the string without
building the index (an engine coordinator's codes) applies the same
rule and so compacts at the same delete as the index does.
"""

from __future__ import annotations

from typing import Sequence

from ..errors import InvalidParameterError, UpdateError
from ..iomodel.disk import Disk
from ..trees.btree import BTree
from .fully_dynamic import DynamicSecondaryIndex
from .interface import RangeResult, SecondaryIndex, SpaceBreakdown

#: Fraction of deleted positions that triggers a compaction.
REBUILD_FRACTION = 0.5


def compaction_due(
    deleted: int, n: int, fraction: float = REBUILD_FRACTION
) -> bool:
    """True once ``deleted`` of ``n`` physical positions call for a rebuild."""
    return deleted >= fraction * max(1, n)


class DeletionTracker:
    """The counted B-tree over deleted positions (§4)."""

    def __init__(self, disk: Disk, key_bits: int = 48) -> None:
        self._tree = BTree(disk, key_bits=key_bits)

    def __len__(self) -> int:
        return len(self._tree)

    def mark_deleted(self, pos: int) -> None:
        if self.is_deleted(pos):
            raise UpdateError(f"position {pos} already deleted")
        self._tree.insert(pos)

    def is_deleted(self, pos: int) -> bool:
        return self._tree.contains(pos)

    def deleted_at_or_before(self, pos: int) -> int:
        """Rank: number of deleted positions ``<= pos`` (O(lg_b n) I/Os)."""
        return self._tree.rank(pos)

    def physical_to_logical(self, pos: int) -> int:
        """Logical index of a live physical position."""
        if self.is_deleted(pos):
            raise UpdateError(f"position {pos} is deleted")
        return pos - self.deleted_at_or_before(pos)

    def logical_to_physical(self, logical: int, n: int) -> int:
        """Physical position of the ``logical``-th live element.

        Binary search on ``f(p) = p + 1 - rank(p)`` (the number of live
        positions at or before ``p``), which is non-decreasing; each
        probe is one B-tree rank of O(lg_b n) I/Os.
        """
        if logical < 0:
            raise InvalidParameterError("logical index must be >= 0")
        lo, hi = 0, n - 1
        while lo < hi:
            mid = (lo + hi) // 2
            live = mid + 1 - self.deleted_at_or_before(mid)
            if live >= logical + 1:
                hi = mid
            else:
                lo = mid + 1
        if (
            lo >= n
            or self.is_deleted(lo)
            or lo + 1 - self.deleted_at_or_before(lo) != logical + 1
        ):
            raise InvalidParameterError(f"no live element with logical index {logical}")
        return lo

    @property
    def size_bits(self) -> int:
        return self._tree.size_bits


class DeletableIndex(SecondaryIndex):
    """A fully dynamic secondary index with deletions via the ∞ character.

    The wrapped :class:`DynamicSecondaryIndex` runs over the alphabet
    extended by one: code ``sigma`` is ∞.  A global rebuild compacts the
    string once ``rebuild_fraction`` of it is deleted
    (:func:`compaction_due`).
    """

    def __init__(
        self,
        x: Sequence[int],
        sigma: int,
        disk: Disk | None = None,
        branching: int = 8,
        rebuild_fraction: float = REBUILD_FRACTION,
        block_bits: int = 1024,
        mem_blocks: int = 64,
    ) -> None:
        if not 0.0 < rebuild_fraction <= 1.0:
            raise InvalidParameterError("rebuild_fraction must be in (0, 1]")
        self._user_sigma = sigma
        self._rebuild_fraction = rebuild_fraction
        self._inner = DynamicSecondaryIndex(
            x,
            sigma + 1,  # reserve code sigma for ∞
            disk=disk,
            branching=branching,
            block_bits=block_bits,
            mem_blocks=mem_blocks,
        )
        self._tracker = DeletionTracker(self._inner.disk)
        self.compactions = 0

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------

    @property
    def infinity(self) -> int:
        """The ∞ character code (never matched by queries)."""
        return self._user_sigma

    def append(self, ch: int) -> None:
        if ch < 0 or ch >= self._user_sigma:
            raise InvalidParameterError(
                f"character {ch} outside alphabet [0, {self._user_sigma})"
            )
        self._inner.append(ch)

    def change(self, pos: int, ch: int) -> None:
        if ch < 0 or ch >= self._user_sigma:
            raise InvalidParameterError(
                f"character {ch} outside alphabet [0, {self._user_sigma})"
            )
        if self._tracker.is_deleted(pos):
            raise UpdateError(f"position {pos} is deleted")
        self._inner.change(pos, ch)

    def delete(self, pos: int) -> None:
        """Delete the character at physical position ``pos`` (→ ∞).

        A rejected delete changes nothing: the range is checked before
        the tracker records the position.
        """
        if pos < 0 or pos >= self._inner.n:
            raise UpdateError(f"position {pos} outside the string")
        self._tracker.mark_deleted(pos)  # raises if already deleted
        self._inner.change(pos, self.infinity)
        if compaction_due(
            len(self._tracker), self._inner.n, self._rebuild_fraction
        ):
            self._compact()

    def _compact(self) -> None:
        """Global rebuild dropping deleted positions (§4: "global
        rebuilding is performed to reduce the space")."""
        live = [ch for ch in self._inner._x if ch != self.infinity]
        disk = Disk(
            self._inner._block_bits,
            self._inner._mem_blocks,
            stats=self._inner.stats,
            latency_s=self._inner.disk.latency_s,
        )
        disk.metrics = self._inner.disk.metrics
        self._inner = DynamicSecondaryIndex(
            live,
            self._user_sigma + 1,
            disk=disk,
            branching=self._inner._branching,
            block_bits=self._inner._block_bits,
            mem_blocks=self._inner._mem_blocks,
        )
        self._tracker = DeletionTracker(self._inner.disk)
        self.compactions += 1

    # ------------------------------------------------------------------
    # Position translation
    # ------------------------------------------------------------------

    def is_deleted(self, pos: int) -> bool:
        return self._tracker.is_deleted(pos)

    def live_count(self) -> int:
        """Number of live (undeleted) positions."""
        return self._inner.n - len(self._tracker)

    def physical_to_logical(self, pos: int) -> int:
        """Rank of a live physical position among live positions."""
        return self._tracker.physical_to_logical(pos)

    def logical_to_physical(self, logical: int) -> int:
        """Physical position of the ``logical``-th live element."""
        return self._tracker.logical_to_physical(logical, self._inner.n)

    # ------------------------------------------------------------------
    # Protocol
    # ------------------------------------------------------------------

    @property
    def n(self) -> int:
        """Physical string length (deleted positions included)."""
        return self._inner.n

    @property
    def sigma(self) -> int:
        return self._user_sigma

    @property
    def disk(self) -> Disk:
        return self._inner.disk

    def range_query(self, char_lo: int, char_hi: int) -> RangeResult:
        """Matching *physical* positions; never reports deleted ones.

        Deleted positions hold ∞ (= code sigma), which no user query
        range covers; even the complement trick stays correct because
        the flanking queries over ``[hi+1, sigma]`` include ∞.
        """
        self._check_range(char_lo, char_hi)
        return self._inner.range_query(char_lo, char_hi)

    def count_range(self, char_lo: int, char_hi: int) -> int:
        return self._inner.count_range(char_lo, char_hi)

    def space(self) -> SpaceBreakdown:
        inner = self._inner.space()
        return SpaceBreakdown(
            payload_bits=inner.payload_bits,
            directory_bits=inner.directory_bits + self._tracker.size_bits,
        )
