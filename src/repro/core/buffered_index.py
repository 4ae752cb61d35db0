"""Buffered appends — trading space for faster updates (§4.1.1, Theorem 5).

Instead of writing every append into ``O(lg lg n)`` bitmaps right away,
each tree node carries a ``B``-bit buffer (the buffer-tree idea of
reference [3]).  An append enters the root buffer — "always kept in the
internal memory" — and batches of ``Theta(b)`` operations trickle down
to the child that has accumulated the most, costing amortized
``O(lg(n)/b)`` I/Os per append.  Queries additionally read the buffers
that may hold operations belonging to the answer.

Flush semantics (DESIGN.md substitution 4): when a node ``u`` with an
explicitly stored bitmap flushes, *all* operations currently in its
buffer are appended to ``u``'s bitmap — they arrived in increasing
position order, so the chain append stays valid — and each operation
records the deepest materialized level it has been applied at
(``applied_upto``).  The invariant: an operation sitting in ``w``'s
buffer has been applied to exactly the materialized ancestors of ``w``
of level ``<= applied_upto``.  A query therefore includes a pending
operation iff the bitmap it read for that operation's character sits
*deeper* than ``applied_upto``.
"""

from __future__ import annotations

from typing import Sequence

from ..bits.ops import union_sorted
from ..iomodel.disk import Disk
from ..trees.buffers import NodeBuffer
from ..trees.weighted import WNode
from .semidynamic import AppendableIndex


class _PendingOp:
    """One buffered append: character, position, deepest applied level."""

    __slots__ = ("char", "pos", "applied_upto")

    def __init__(self, char: int, pos: int) -> None:
        self.char = char
        self.pos = pos
        self.applied_upto = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"_PendingOp({self.char}, {self.pos}, upto={self.applied_upto})"


class BufferedAppendableIndex(AppendableIndex):
    """Theorem 5: appends in amortized O(lg n / b) I/Os via node buffers.

    Space grows by one ``B``-bit buffer per tree node —
    ``O(sigma lg n (B + lg n))`` extra bits, the theorem's space term.
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
        super().__init__(
            x,
            sigma,
            disk=disk,
            branching=branching,
            rebuild_factor=rebuild_factor,
            block_bits=block_bits,
            mem_blocks=mem_blocks,
        )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def _post_build(self) -> None:
        # One B-bit buffer per internal node; ops are (char, pos) records
        # of O(lg n) bits each.
        op_bits = max(1, (self._sigma - 1).bit_length()) + 48
        self._op_bits = op_bits
        self._buffers: dict[int, NodeBuffer] = {}
        for node in self._tree.iter_nodes():
            if not node.is_leaf:
                self._buffers[node.node_id] = NodeBuffer(self._disk, op_bits)

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------

    def _apply_append(self, ch: int, pos: int) -> None:
        """Enter the append at the root buffer (§4.1.1)."""
        # Weights must reflect the append immediately (queries compute z
        # from them), independently of where the op is buffered.
        for node in self._char_path[ch]:
            self._added[node.node_id] = self._added.get(node.node_id, 0) + 1
        op = _PendingOp(ch, pos)
        root = self._tree.root
        if root.is_leaf:
            # Degenerate single-character tree: apply directly.
            self._chains[root.node_id].append(pos)
        else:
            buf = self._buffers[root.node_id]
            buf.append(op, charge=False)  # root buffer is pinned (§4.1.1)
            if buf.is_full:
                self._flush(root)

    def _child_on_path(self, node: WNode, char: int) -> WNode:
        """The child of ``node`` on the path to ``char``'s target leaf."""
        path = self._char_path[char]
        # path[k] is the node at level k+1; node is path[node.level - 1].
        return path[node.level]

    def _flush(self, node: WNode) -> None:
        """Flush ``node``'s buffer one step down (§4.1.1)."""
        buf = self._buffers[node.node_id]
        if self._is_materialized(node):
            chain = self._chains[node.node_id]
            for op in buf.ops:
                if op.applied_upto < node.level:
                    chain.append(op.pos)
                    op.applied_upto = node.level
        child, batch = buf.take_for_child(
            lambda op: self._child_on_path(node, op.char)
        )
        if child.is_leaf:
            chain = self._chains[child.node_id]
            for op in batch:
                chain.append(op.pos)
        else:
            cbuf = self._buffers[child.node_id]
            while len(cbuf) + len(batch) > cbuf.capacity:
                self._flush(child)
            cbuf.extend(batch)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def _query_positions(self, char_lo: int, char_hi: int) -> list[int]:
        read_nodes, directory_nodes, slab_nodes = self._collect_read_set(
            char_lo, char_hi
        )
        self._layout.touch_nodes(directory_nodes)
        lists = [self._chains[v.node_id].read_positions() for v in read_nodes]
        # Provisional leaves take no buffered ops: appends of a
        # character without a leaf bypass the buffers.
        lists.extend(
            c.read_positions() for c in self._provisional_in(char_lo, char_hi)
        )
        pending = self._pending_positions(
            char_lo, char_hi, read_nodes, directory_nodes, slab_nodes
        )
        if pending:
            lists.append(pending)
        # Pending ops are disjoint from chain contents by the
        # applied_upto rule, but union_sorted dedupes defensively.
        return union_sorted(lists)

    def _pending_positions(
        self,
        char_lo: int,
        char_hi: int,
        read_nodes: list[WNode],
        directory_nodes: list[WNode],
        slab_nodes: list[WNode],
    ) -> list[int]:
        """Positions sitting in buffers that the read bitmaps miss."""
        # Buffers that can hold relevant, unapplied ops: ancestors of
        # canonical nodes (the boundary paths), the canonical/read nodes
        # themselves, and the slab between a canonical node and its
        # materialized frontier (§4.1.1: O(lg n) buffers).
        candidates: dict[int, WNode] = {}
        for v in list(directory_nodes) + list(slab_nodes) + list(read_nodes):
            if not v.is_leaf:
                candidates[v.node_id] = v
        root_id = self._tree.root.node_id
        out: list[int] = []
        for node_id, v in candidates.items():
            buf = self._buffers.get(node_id)
            if buf is None or not buf.ops:
                continue
            ops = buf.read(charge=(node_id != root_id))
            for op in ops:
                if op.char < char_lo or op.char > char_hi:
                    continue
                covering = self._covering_read_node(op, read_nodes)
                if covering is not None and op.applied_upto < covering.level:
                    out.append(op.pos)
        out.sort()
        return out

    def _covering_read_node(
        self, op: _PendingOp, read_nodes: list[WNode]
    ) -> WNode | None:
        """The read node whose bitmap would contain ``op`` once applied.

        Appends of a character extend its last occurrence chunk, so the
        covering node is the read node that is an ancestor-of-or-equal
        to that chunk's leaf.
        """
        leaf = self._char_path[op.char][-1]
        for v in read_nodes:
            if v.occ_lo <= leaf.occ_lo and leaf.occ_hi <= v.occ_hi:
                return v
        return None

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------

    def space(self):
        base = super().space()
        from .interface import SpaceBreakdown

        buffer_bits = sum(b.size_bits for b in self._buffers.values())
        return SpaceBreakdown(
            payload_bits=base.payload_bits,
            directory_bits=base.directory_bits + buffer_bits,
        )

    @property
    def pending_ops(self) -> int:
        """Operations currently buffered (for tests and diagnostics)."""
        return sum(len(b) for b in self._buffers.values())
