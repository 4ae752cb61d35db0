"""The fully dynamic secondary index of §4.3 (Theorem 7).

The observation of §4.3: all the bitmaps stored at one materialized
level of the Theorem-2 structure form a bitmap index over an alphabet
with "one character per node of that level".  Representing each
materialized level as a buffered bitmap index (Theorem 6) therefore
yields a fully dynamic secondary index:

* ``change(x, i, alpha)`` updates each of the ``O(lg lg n)``
  materialized levels with one delete (the node that used to contain
  position ``i``) and one insert (the node that now does) — amortized
  ``O(lg n lg lg n / b)`` I/Os;
* ``append(x, alpha)`` inserts into each level;
* an alphabet range query decomposes into O(1) point queries per
  materialized level — ``O(z lg(n/z)/B + lg n lg lg n)`` I/Os.

Realization notes (DESIGN.md):

* the skeleton tree is built with ``split_heavy=False`` so every
  character owns exactly one leaf, making "the node containing position
  i at level l" a pure function of the character — no per-position
  lookup is needed to route a change;
* the current string is kept on disk as a fixed-width array; ``change``
  reads the old character from it (O(1) I/Os) exactly as a database
  would consult the row;
* weight balance is restored by a global rebuild after ``Theta(n)``
  updates (the doubling policy used by every dynamic variant here).
"""

from __future__ import annotations

from typing import Sequence

from ..bits.ops import union_sorted
from ..errors import InvalidParameterError, UpdateError
from ..iomodel.disk import Disk
from ..iomodel.stats import IOStats
from ..trees.blocked_layout import TreeLayout
from ..trees.weighted import WeightedTree, WNode
from .buffered_bitmap import BufferedBitmapIndex
from .interface import RangeResult, SecondaryIndex, SpaceBreakdown

LEAF_CLASS = 0  # class id for the leaf level; materialized levels are >= 1


class DynamicSecondaryIndex(SecondaryIndex):
    """Theorem 7: range queries with fully dynamic ``change``/``append``."""

    def __init__(
        self,
        x: Sequence[int],
        sigma: int,
        disk: Disk | None = None,
        branching: int = 8,
        rebuild_factor: float = 2.0,
        block_bits: int = 1024,
        mem_blocks: int = 64,
    ) -> None:
        if sigma <= 0:
            raise InvalidParameterError("sigma must be >= 1")
        if rebuild_factor <= 1.0:
            raise InvalidParameterError("rebuild_factor must exceed 1")
        self._sigma = sigma
        self._branching = branching
        self._rebuild_factor = rebuild_factor
        self._block_bits = block_bits
        self._mem_blocks = mem_blocks
        self._stats = disk.stats if disk is not None else IOStats()
        if disk is not None:
            # The first build's device inherits the given one's runtime.
            self._disk = disk
        self._x = list(x)
        for ch in self._x:
            if ch < 0 or ch >= sigma:
                raise InvalidParameterError(
                    f"character {ch} outside alphabet [0, {sigma})"
                )
        self.rebuilds = 0
        self._build_structure()

    # ------------------------------------------------------------------
    # (Re)construction
    # ------------------------------------------------------------------

    def _build_structure(self) -> None:
        # Rebuilds inherit the previous device's latency model and
        # metrics hook: a global rebuild swaps the bits, not the timing
        # characteristics or where transfers are reported.
        old = getattr(self, "_disk", None)
        self._disk = Disk(self._block_bits, self._mem_blocks, stats=self._stats)
        if old is not None:
            self._disk.latency_s = old.latency_s
            self._disk.metrics = old.metrics
        self._updates_since_build = 0
        self._built_n = len(self._x)
        self._char_bits = max(1, (self._sigma - 1).bit_length())
        # The indexed string, on disk, fixed width (read by `change`).
        # Headroom for appends: a global rebuild fires before the string
        # doubles, so 2n + 64 slots always suffice.
        self._x_offset = self._disk.alloc(
            (2 * max(1, len(self._x)) + 64) * self._char_bits
        )
        for i, ch in enumerate(self._x):
            self._disk.write_bits(
                self._x_offset + i * self._char_bits, ch, self._char_bits
            )
        if not self._x:
            self._tree = None
            self._layout = None
            self._level_indexes: dict[int, BufferedBitmapIndex] = {}
            self._added: dict[int, int] = {}
            self._char_class_key: dict[int, dict[int, int]] = {}
            return
        self._tree = WeightedTree.build(
            self._x, self._sigma, self._branching, split_heavy=False
        )
        self._mat_levels = self._tree.materialized_levels
        self._layout = TreeLayout(self._tree, self._disk)
        self._added = {}
        # One Theorem-6 index per materialized class.  Class l >= 1
        # covers the *internal* nodes of materialized level l; class
        # LEAF_CLASS covers the leaves in left-to-right order.
        self._class_nodes: dict[int, list[WNode]] = {}
        self._node_key: dict[int, tuple[int, int]] = {}  # node_id -> (class, key)
        for level in sorted(self._mat_levels):
            if level > self._tree.height:
                continue
            internal = [v for v in self._tree.levels[level] if not v.is_leaf]
            if internal:
                self._class_nodes[level] = internal
        self._class_nodes[LEAF_CLASS] = list(self._tree.leaves)
        self._level_indexes = {}
        for cls_id, nodes in self._class_nodes.items():
            for key, node in enumerate(nodes):
                self._node_key[node.node_id] = (cls_id, key)
            self._level_indexes[cls_id] = BufferedBitmapIndex(
                self._disk,
                len(nodes),
                [self._tree.node_positions(v) for v in nodes],
                branching=self._branching,
                rebuild_factor=self._rebuild_factor,
            )
        # Per character: the (class, key) pairs its positions live in —
        # one per materialized ancestor level plus its leaf.
        self._char_class_key = {}
        for ch in range(self._sigma):
            if self._tree.char_count(ch) == 0:
                continue
            leaf = self._tree.leaf_for_char_last(ch)
            targets: dict[int, int] = {}
            for node in self._tree.path_to(leaf):
                pair = self._node_key.get(node.node_id)
                if pair is not None:
                    targets[pair[0]] = pair[1]
            self._char_class_key[ch] = targets

    def _maybe_rebuild(self) -> None:
        if self._updates_since_build >= max(1, self._built_n):
            self.rebuilds += 1
            self._build_structure()

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------

    def append(self, ch: int) -> None:
        """Append ``ch`` at the end of the string."""
        if ch < 0 or ch >= self._sigma:
            raise InvalidParameterError(
                f"character {ch} outside alphabet [0, {self._sigma})"
            )
        pos = len(self._x)
        self._x.append(ch)
        if self._tree is None or ch not in self._char_class_key:
            self.rebuilds += 1
            self._build_structure()
            return
        self._write_char(pos, ch)
        for cls_id, key in self._char_class_key[ch].items():
            self._level_indexes[cls_id].insert(key, pos)
        for node in self._path_nodes(ch):
            self._added[node.node_id] = self._added.get(node.node_id, 0) + 1
        self._updates_since_build += 1
        self._maybe_rebuild()

    def change(self, i: int, ch: int) -> None:
        """Change ``x[i]`` to ``ch`` (§4's ``change(x, i, alpha)``)."""
        if i < 0 or i >= len(self._x):
            raise UpdateError(f"position {i} outside the string")
        if ch < 0 or ch >= self._sigma:
            raise InvalidParameterError(
                f"character {ch} outside alphabet [0, {self._sigma})"
            )
        old = self._read_char(i)
        if old == ch:
            return
        self._x[i] = ch
        if self._tree is None or ch not in self._char_class_key:
            self.rebuilds += 1
            self._build_structure()
            return
        self._write_char(i, ch)
        for cls_id, key in self._char_class_key[old].items():
            self._level_indexes[cls_id].delete(key, i)
        for cls_id, key in self._char_class_key[ch].items():
            self._level_indexes[cls_id].insert(key, i)
        for node in self._path_nodes(old):
            self._added[node.node_id] = self._added.get(node.node_id, 0) - 1
        for node in self._path_nodes(ch):
            self._added[node.node_id] = self._added.get(node.node_id, 0) + 1
        self._updates_since_build += 1
        self._maybe_rebuild()

    def _path_nodes(self, ch: int) -> list[WNode]:
        leaf = self._tree.leaf_for_char_last(ch)
        return self._tree.path_to(leaf)

    def _read_char(self, i: int) -> int:
        """Read ``x[i]`` from the on-disk string (O(1) I/Os)."""
        return self._disk.read_bits(
            self._x_offset + i * self._char_bits, self._char_bits
        )

    def _write_char(self, i: int, ch: int) -> None:
        self._disk.write_bits(
            self._x_offset + i * self._char_bits, ch, self._char_bits
        )

    # ------------------------------------------------------------------
    # Protocol
    # ------------------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self._x)

    @property
    def sigma(self) -> int:
        return self._sigma

    @property
    def disk(self) -> Disk:
        return self._disk

    @property
    def stats(self) -> IOStats:
        return self._stats

    @property
    def tree(self) -> WeightedTree | None:
        return self._tree

    def space(self) -> SpaceBreakdown:
        payload = sum(ix.size_bits for ix in self._level_indexes.values())
        layout_bits = self._layout.size_bits if self._layout is not None else 0
        string_bits = len(self._x) * self._char_bits
        return SpaceBreakdown(
            payload_bits=payload,
            directory_bits=layout_bits + string_bits,
        )

    def _node_weight(self, node: WNode) -> int:
        return node.weight + self._added.get(node.node_id, 0)

    def count_range(self, char_lo: int, char_hi: int) -> int:
        self._check_range(char_lo, char_hi)
        if self._tree is None:
            return 0
        canonical, visited = self._tree.canonical_cover(char_lo, char_hi)
        self._layout.touch_nodes(list(visited) + list(canonical))
        return sum(self._node_weight(v) for v in canonical)

    def range_query(self, char_lo: int, char_hi: int) -> RangeResult:
        self._check_range(char_lo, char_hi)
        n = len(self._x)
        if self._tree is None:
            return RangeResult.empty(n)
        z = self.count_range(char_lo, char_hi)
        if z == 0:
            return RangeResult.empty(n)
        if z > n // 2:
            parts: list[list[int]] = []
            if char_lo > 0:
                parts.append(self._query_positions(0, char_lo - 1))
            if char_hi < self._sigma - 1:
                parts.append(self._query_positions(char_hi + 1, self._sigma - 1))
            return RangeResult(union_sorted(parts), n, complemented=True)
        return RangeResult(self._query_positions(char_lo, char_hi), n)

    # ------------------------------------------------------------------
    # Query internals
    # ------------------------------------------------------------------

    def _is_materialized(self, node: WNode) -> bool:
        return node.node_id in self._node_key

    def _query_positions(self, char_lo: int, char_hi: int) -> list[int]:
        canonical, visited = self._tree.canonical_cover(char_lo, char_hi)
        directory_nodes: list[WNode] = list(visited) + list(canonical)
        point_queries: list[tuple[int, int]] = []
        for v in canonical:
            if self._is_materialized(v):
                point_queries.append(self._node_key[v.node_id])
            else:
                frontier, skipped = self._tree.materialized_frontier(
                    v, self._is_materialized
                )
                directory_nodes.extend(skipped)
                directory_nodes.extend(frontier)
                point_queries.extend(
                    self._node_key[d.node_id] for d in frontier
                )
        self._layout.touch_nodes(directory_nodes)
        lists = [
            self._level_indexes[cls_id].point_query(key)
            for cls_id, key in point_queries
        ]
        return union_sorted(lists)

    def flush_all(self) -> None:
        """Force-apply all buffered updates (tests and benchmarks)."""
        for ix in self._level_indexes.values():
            ix.flush_all()
