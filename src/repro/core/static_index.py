"""The optimal static secondary index of §2.2 (Theorem 2).

The headline contribution of the paper: a structure that is
simultaneously

* space-optimal — ``O(n H0 + n + sigma lg^2 n)`` bits, within a
  constant factor of the entropy of the string itself, and
* query-optimal — ``O(z lg(n/z)/B + lg_b n + lg lg n)`` I/Os, within a
  constant factor of just *reading* a precomputed compressed answer.

Construction (§2.2): build the pruned weight-balanced tree over the
character multiset (:mod:`repro.trees.weighted`); associate with each
node the compressed bitmap of the positions below it; *materialize*
(store) only the bitmaps on levels ``1, 2, 4, 8, ...`` and at the
leaves, concatenated left-to-right per level.  A query covers the range
with O(lg n) canonical subtrees; a canonical node whose level is not
materialized is reconstructed by merging its nearest materialized
descendants, whose compressed sizes are within a factor two of the
missing bitmap — so the bits read stay ``O(z lg(n/z))``.

The prefix-count array (§2.1) supplies ``z`` up front for the
complement trick; the blocked tree layout (§2.2) bounds the descent to
``O(lg_b n)`` I/Os.
"""

from __future__ import annotations

from typing import Iterable, Literal, Sequence

from ..bits.bitio import BitWriter
from ..bits.ebitmap import encode_gaps
from ..bits.ops import union_disjoint_sorted
from ..errors import InvalidParameterError
from ..iomodel.disk import Disk
from ..trees.blocked_layout import TreeLayout
from ..trees.weighted import WeightedTree, WNode
from .interface import RangeResult, SecondaryIndex, SpaceBreakdown
from .prefix import PrefixCounts

Materialization = Literal["exponential", "all"]


class PaghRaoIndex(SecondaryIndex):
    """Theorem 2: the space- and query-optimal static secondary index.

    Parameters
    ----------
    x:
        The string as dense character codes in ``[0, sigma)``.
    sigma:
        Alphabet size.
    disk:
        Block device; a private one is created if omitted.
    branching:
        The weight-balanced tree's branching parameter ``c > 4``.
    materialization:
        ``"exponential"`` is the paper's scheme (levels 1, 2, 4, ... and
        the leaves); ``"all"`` stores every level — the "naive upper
        bound" of §2.2, kept for the E10 ablation.
    """

    def __init__(
        self,
        x: Sequence[int],
        sigma: int,
        disk: Disk | None = None,
        branching: int = 8,
        materialization: Materialization = "exponential",
        block_bits: int = 1024,
        mem_blocks: int = 64,
    ) -> None:
        if materialization not in ("exponential", "all"):
            raise InvalidParameterError(
                "materialization must be 'exponential' or 'all'"
            )
        self._disk = disk if disk is not None else Disk(block_bits, mem_blocks)
        self._n = len(x)
        self._sigma = sigma
        self._tree = WeightedTree.build(x, sigma, branching)
        if materialization == "all":
            self._mat_levels = frozenset(range(1, self._tree.height + 1))
        else:
            self._mat_levels = self._tree.materialized_levels
        self._layout = TreeLayout(self._tree, self._disk)
        self._prefix = PrefixCounts(self._disk, self._tree.char_offsets)
        # node_id -> (absolute bit offset, bit length, cardinality)
        self._node_extent: dict[int, tuple[int, int, int]] = {}
        self._payload_bits = 0
        self._store_bitmaps()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def _is_materialized(self, node: WNode) -> bool:
        return node.is_leaf or node.level in self._mat_levels

    def _store_level(self, nodes: list[WNode]) -> None:
        """Concatenate and store the bitmaps of ``nodes`` left-to-right."""
        writer = BitWriter()
        starts: list[tuple[WNode, int, int]] = []
        for node in nodes:
            start = writer.bit_length
            encode_gaps(writer, self._tree.node_positions(node))
            starts.append((node, start, writer.bit_length - start))
        extent = self._disk.store(writer.getvalue(), writer.bit_length)
        for node, start, nbits in starts:
            self._node_extent[node.node_id] = (
                extent.offset + start,
                nbits,
                node.weight,
            )
        self._payload_bits += writer.bit_length

    def _store_bitmaps(self) -> None:
        for level in sorted(self._mat_levels):
            if level > self._tree.height:
                continue
            internal = [v for v in self._tree.levels[level] if not v.is_leaf]
            if internal:
                self._store_level(internal)
        # All leaves, in left-to-right (character, position) order.
        self._store_level(self._tree.leaves)

    # ------------------------------------------------------------------
    # Protocol
    # ------------------------------------------------------------------

    @property
    def n(self) -> int:
        return self._n

    @property
    def sigma(self) -> int:
        return self._sigma

    @property
    def disk(self) -> Disk:
        return self._disk

    @property
    def tree(self) -> WeightedTree:
        """The underlying weight-balanced tree (read-only access)."""
        return self._tree

    def space(self) -> SpaceBreakdown:
        return SpaceBreakdown(
            payload_bits=self._payload_bits,
            directory_bits=self._layout.size_bits + self._prefix.size_bits,
        )

    def count_range(self, char_lo: int, char_hi: int) -> int:
        """``z`` from the prefix array — two O(1) probes (§2.1)."""
        return self._prefix.range_count(char_lo, char_hi)

    def range_query(self, char_lo: int, char_hi: int) -> RangeResult:
        self._check_range(char_lo, char_hi)
        z = self._prefix.range_count(char_lo, char_hi)
        if z == 0:
            return RangeResult.empty(self._n)
        if z > self._n // 2:
            parts: list[list[int]] = []
            if char_lo > 0:
                parts.append(self._query_positions(0, char_lo - 1))
            if char_hi < self._sigma - 1:
                parts.append(self._query_positions(char_hi + 1, self._sigma - 1))
            return RangeResult(
                union_disjoint_sorted(parts), self._n, complemented=True
            )
        return RangeResult(self._query_positions(char_lo, char_hi), self._n)

    # ------------------------------------------------------------------
    # Query internals
    # ------------------------------------------------------------------

    def _collect_read_set(
        self, char_lo: int, char_hi: int
    ) -> tuple[list[WNode], list[WNode], list[WNode]]:
        """Canonical cover and the bitmap/directory node sets.

        Returns ``(read_nodes, directory_nodes, slab_nodes)``:
        materialized nodes whose bitmaps are read, all tree nodes whose
        records the query visits, and the non-materialized nodes
        between canonical nodes and their frontiers (needed by the
        buffered variants).
        """
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

    def _query_positions(self, char_lo: int, char_hi: int) -> list[int]:
        read_nodes, directory_nodes, _ = self._collect_read_set(char_lo, char_hi)
        self._layout.touch_nodes(directory_nodes)
        return union_disjoint_sorted(self._read_bitmaps(read_nodes))

    def _read_bitmaps(self, read_nodes: list[WNode]) -> list[Sequence[int]]:
        """Read and decode the bitmaps of ``read_nodes``."""
        return self._read_extents(
            self._node_extent[v.node_id] for v in read_nodes
        )

    def _read_extents(
        self, extents: Iterable[tuple[int, int, int]]
    ) -> list[Sequence[int]]:
        """Decode ``(offset, nbits, count)`` gap lists, coalescing reads.

        Frontier nodes of one canonical subtree are consecutive within
        their level's concatenated extent, so their payloads form one
        contiguous range — the "two consecutive chunks" read of §2.2.
        """
        entries = sorted(extents, key=lambda e: e[0])
        lists: list[Sequence[int]] = []
        i = 0
        while i < len(entries):
            run_start = entries[i][0]
            run_end = entries[i][0] + entries[i][1]
            j = i + 1
            while j < len(entries) and entries[j][0] == run_end:
                run_end += entries[j][1]
                j += 1
            lists.extend(
                self._disk.read_gaps(
                    run_start,
                    run_end - run_start,
                    [(at, count) for at, _, count in entries[i:j] if count],
                )
            )
            i = j
        return lists
