"""The semi-dynamic (append-only) index of §4.1 (Theorem 4).

OLAP and scientific workloads are "typically read and append only"
(§4.1), so the first dynamization supports just ``append(x, alpha)``.
The straightforward scheme: perform the append on every bitmap it
affects — one per materialized level, found through a per-character
array of pointers to the block holding that character's most recent
occurrence ("the ith entry ... stores a pointer to the disk block
containing the last occurrence of a among all bitmaps at the ith
materialized level").  That is ``O(lg lg n)`` block writes per append.

Realization notes (see DESIGN.md substitutions):

* materialized bitmaps become :class:`~repro.core.chains.BlockChain`
  block chains (append = write the last block; §4.2's absolute-first-
  code layout), which is what makes the in-place append O(1) I/Os;
* weight balance is restored by a global rebuild once the string has
  grown by a constant factor since the last build, the classic
  global-rebuilding realization of the paper's subtree-rebuild
  amortization: the rebuild cost O(n H0 / B + sigma lg n) spread over
  Omega(n) appends is o(1) I/Os per append, below the O(lg lg n)
  in-place cost, and node weights stay within a factor two of their
  built values so every query bound is preserved;
* appending a character that did not occur at the last rebuild has no
  leaf to extend, so it starts a *provisional leaf*: a block chain of
  that character's positions beside the tree, appended in O(1) block
  writes like any leaf.  Queries add the provisional leaves in range
  (counts from the chain headers, positions read through the same
  device), and the next global rebuild folds them into the tree.
  Besides growth, a rebuild fires once there are more than ``lg n``
  provisional leaves (``n`` at the last build): a query then reads at
  most ``lg n`` extra chains, the order of its directory descent, and
  every chain it reads holds an answer position.  Rebuilding on every
  new character instead would cost O(n) per append whenever sigma is
  not o(n), as on a sharded high-cardinality column.
"""

from __future__ import annotations

from typing import Sequence

from ..bits.ops import union_disjoint_sorted
from ..errors import InvalidParameterError
from ..iomodel.disk import Disk
from ..iomodel.stats import IOStats
from ..trees.blocked_layout import TreeLayout
from ..trees.weighted import WeightedTree, WNode
from .chains import BlockChain
from .interface import RangeResult, SecondaryIndex, SpaceBreakdown


class AppendableIndex(SecondaryIndex):
    """Theorem 4: Theorem-2 queries plus O(lg lg n)-I/O appends.

    Parameters
    ----------
    x:
        Initial string (may be empty; the alphabet must still be given).
    sigma:
        Alphabet size; appended characters must lie in ``[0, sigma)``.
    rebuild_factor:
        Rebuild when ``n`` exceeds this multiple of the size at the
        last build (2.0 = classic doubling).
    """

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
        if rebuild_factor <= 1.0:
            raise InvalidParameterError("rebuild_factor must exceed 1")
        if sigma <= 0:
            raise InvalidParameterError("sigma must be >= 1")
        self._sigma = sigma
        self._branching = branching
        self._rebuild_factor = rebuild_factor
        self._block_bits = block_bits
        self._mem_blocks = mem_blocks
        self._stats = disk.stats if disk is not None else IOStats()
        self._disk = disk if disk is not None else Disk(
            block_bits, mem_blocks, stats=self._stats
        )
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

    def _fresh_disk(self) -> Disk:
        """A new device for a rebuild, sharing the I/O counters.

        The latency model and the metrics hook (if any) carry over: a
        rebuild swaps the bits, not the device's timing characteristics
        or where it reports transfers.
        """
        disk = Disk(
            self._block_bits,
            self._mem_blocks,
            stats=self._stats,
            latency_s=self._disk.latency_s,
        )
        disk.metrics = self._disk.metrics
        return disk

    def _build_structure(self) -> None:
        # Character -> provisional leaf: positions of a character the
        # last build did not see (see module docs).
        self._provisional: dict[int, BlockChain] = {}
        if not self._x:
            # Defer until the first append provides content.
            self._tree = None
            self._layout = None
            self._chains: dict[int, BlockChain] = {}
            self._char_path: dict[int, list[WNode]] = {}
            self._added: dict[int, int] = {}
            self._built_n = 0
            return
        self._disk = self._fresh_disk()
        self._tree = WeightedTree.build(self._x, self._sigma, self._branching)
        self._mat_levels = self._tree.materialized_levels
        self._layout = TreeLayout(self._tree, self._disk)
        self._chains = {}
        for node in self._tree.iter_nodes():
            if self._is_materialized(node):
                self._chains[node.node_id] = BlockChain.build(
                    self._disk, self._tree.node_positions(node)
                )
        # Per-character pointer array (§4.1): the full root-to-leaf path
        # of the character's last occurrence chunk; its materialized
        # members are the bitmaps an append touches.
        self._char_path = {}
        for ch in range(self._sigma):
            if self._tree.char_count(ch) > 0:
                leaf = self._tree.leaf_for_char_last(ch)
                self._char_path[ch] = self._tree.path_to(leaf)
        self._added = {}
        self._built_n = len(self._x)
        self._post_build()

    def _post_build(self) -> None:
        """Hook for subclasses (Theorem 5 attaches buffers here)."""

    def _is_materialized(self, node: WNode) -> bool:
        return node.is_leaf or node.level in self._mat_levels

    def _needs_rebuild(self) -> bool:
        return (
            len(self._x) >= self._rebuild_factor * max(1, self._built_n)
            or len(self._provisional) > self._built_n.bit_length()
        )

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------

    def append(self, ch: int) -> None:
        """Append ``ch`` at the end of the string (§4.1's append)."""
        if ch < 0 or ch >= self._sigma:
            raise InvalidParameterError(
                f"character {ch} outside alphabet [0, {self._sigma})"
            )
        pos = len(self._x)
        self._x.append(ch)
        if self._tree is None:
            self.rebuilds += 1
            self._build_structure()
            return
        if ch in self._char_path:
            self._apply_append(ch, pos)
        else:
            # No leaf to extend: grow the provisional leaf (module docs).
            chain = self._provisional.get(ch)
            if chain is None:
                chain = self._provisional[ch] = BlockChain(self._disk)
            chain.append(pos)
        if self._needs_rebuild():
            self.rebuilds += 1
            self._build_structure()

    def _apply_append(self, ch: int, pos: int) -> None:
        """Write the new position into each materialized ancestor bitmap."""
        for node in self._char_path[ch]:
            self._added[node.node_id] = self._added.get(node.node_id, 0) + 1
            if self._is_materialized(node):
                self._chains[node.node_id].append(pos)

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

    @property
    def provisional_leaves(self) -> int:
        """Characters waiting for a leaf until the next rebuild."""
        return len(self._provisional)

    def space(self) -> SpaceBreakdown:
        chains = [*self._chains.values(), *self._provisional.values()]
        payload = sum(c.size_bits for c in chains)
        chain_dir = sum(c.directory_bits for c in chains)
        layout_bits = self._layout.size_bits if self._layout is not None else 0
        return SpaceBreakdown(
            payload_bits=payload,
            directory_bits=layout_bits + chain_dir,
        )

    def _node_weight(self, node: WNode) -> int:
        return node.weight + self._added.get(node.node_id, 0)

    def count_range(self, char_lo: int, char_hi: int) -> int:
        """``z`` from canonical-node weights (directory reads only)."""
        self._check_range(char_lo, char_hi)
        if self._tree is None:
            return 0
        canonical, visited = self._tree.canonical_cover(char_lo, char_hi)
        self._layout.touch_nodes(list(visited) + list(canonical))
        return sum(self._node_weight(v) for v in canonical) + sum(
            c.count for c in self._provisional_in(char_lo, char_hi)
        )

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
            return RangeResult(
                union_disjoint_sorted(parts), n, complemented=True
            )
        return RangeResult(self._query_positions(char_lo, char_hi), n)

    # ------------------------------------------------------------------
    # Query internals (shared with Theorem 5's subclass)
    # ------------------------------------------------------------------

    def _collect_read_set(
        self, char_lo: int, char_hi: int
    ) -> tuple[list[WNode], list[WNode], list[WNode]]:
        canonical, visited = self._tree.canonical_cover(char_lo, char_hi)
        read_nodes: list[WNode] = []
        directory_nodes: list[WNode] = list(visited) + list(canonical)
        slab_nodes: list[WNode] = []
        for v in canonical:
            if self._is_materialized(v):
                read_nodes.append(v)
            else:
                frontier, skipped = self._tree.materialized_frontier(
                    v, self._is_materialized
                )
                read_nodes.extend(frontier)
                directory_nodes.extend(skipped)
                directory_nodes.extend(frontier)
                slab_nodes.extend(skipped)
        return read_nodes, directory_nodes, slab_nodes

    def _provisional_in(self, char_lo: int, char_hi: int) -> list[BlockChain]:
        """Provisional leaves of the characters in ``[char_lo, char_hi]``."""
        return [
            chain
            for ch, chain in self._provisional.items()
            if char_lo <= ch <= char_hi
        ]

    def _query_positions(self, char_lo: int, char_hi: int) -> list[int]:
        read_nodes, directory_nodes, _ = self._collect_read_set(char_lo, char_hi)
        self._layout.touch_nodes(directory_nodes)
        lists = [
            self._chains[v.node_id].read_positions() for v in read_nodes
        ]
        lists.extend(
            c.read_positions() for c in self._provisional_in(char_lo, char_hi)
        )
        return union_disjoint_sorted(lists)
