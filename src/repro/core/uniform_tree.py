"""The warm-up structure of §2.1 (Theorem 1).

A complete binary tree ``U`` over the (power-of-two padded) alphabet:
leaf ``ai`` carries the bitmap of ``I{ai}``, an internal node the
bitmap of its character range, *every* level stored.  Space is
``O(n lg^2 sigma)`` bits; a range query is covered by O(lg sigma)
maximal subtrees (at most two per level), and because subtree
cardinalities shrink geometrically down the tree, the bitmaps read sum
to O(T) bits, giving ``O(T/B + lg sigma)`` I/Os.

Compressed bitmaps of each level are concatenated left-to-right on
disk; the per-node ``(offset, length, cardinality)`` directory costs
``O(sigma lg n)`` bits, exactly as the paper accounts.
"""

from __future__ import annotations

from typing import Sequence

from ..bits.bitio import BitWriter
from ..bits.ebitmap import encode_gaps
from ..bits.ops import union_disjoint_sorted
from ..errors import InvalidParameterError
from ..iomodel.disk import Disk, Extent
from .interface import RangeResult, SecondaryIndex, SpaceBreakdown
from .prefix import PrefixCounts


class UniformTreeIndex(SecondaryIndex):
    """Theorem 1: multi-resolution index over the complete binary tree.

    Parameters
    ----------
    x:
        The string, as dense character codes in ``[0, sigma)``.
    sigma:
        Alphabet size (padded internally to a power of two).
    disk:
        Block device to build on; a private one is created if omitted.
    """

    def __init__(
        self,
        x: Sequence[int],
        sigma: int,
        disk: Disk | None = None,
        block_bits: int = 1024,
        mem_blocks: int = 64,
    ) -> None:
        if sigma <= 0:
            raise InvalidParameterError("sigma must be >= 1")
        for ch in x:
            if ch < 0 or ch >= sigma:
                raise InvalidParameterError(
                    f"character {ch} outside alphabet [0, {sigma})"
                )
        self._disk = disk if disk is not None else Disk(block_bits, mem_blocks)
        self._n = len(x)
        self._sigma = sigma
        self._padded = 1
        while self._padded < sigma:
            self._padded *= 2
        self._build(x)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def _build(self, x: Sequence[int]) -> None:
        padded = self._padded
        # Per-character position lists (the leaf bitmaps).
        per_char: list[list[int]] = [[] for _ in range(padded)]
        for pos, ch in enumerate(x):
            per_char[ch].append(pos)

        counts = [len(per_char[c]) if c < self._sigma else 0 for c in range(self._sigma)]
        offsets = [0] * (self._sigma + 1)
        for c in range(self._sigma):
            offsets[c + 1] = offsets[c] + counts[c]
        self._prefix = PrefixCounts(self._disk, offsets)

        # Levels: 1 (root) .. lg(padded)+1 (leaves).  levels_nodes[j] is
        # the list of position lists of the 2^(j-1) nodes at level j.
        self._num_levels = padded.bit_length()  # lg(padded) + 1
        level_lists: list[list[list[int]]] = [per_char]
        while len(level_lists[-1]) > 1:
            below = level_lists[-1]
            above = [
                _merge_two(below[2 * i], below[2 * i + 1])
                for i in range(len(below) // 2)
            ]
            level_lists.append(above)
        level_lists.reverse()  # index 0 = root level

        # Store each level as one concatenated extent.
        self._directory: list[list[tuple[int, int, int]]] = []
        self._level_extents: list[Extent] = []
        payload = 0
        for nodes in level_lists:
            writer = BitWriter()
            entries: list[tuple[int, int, int]] = []
            for positions in nodes:
                start = writer.bit_length
                encode_gaps(writer, positions)
                entries.append((start, writer.bit_length - start, len(positions)))
            extent = self._disk.store(writer.getvalue(), writer.bit_length)
            self._level_extents.append(extent)
            self._directory.append(entries)
            payload += writer.bit_length
        self._payload_bits = payload
        # Directory: (offset, length) pair per node, O(lg n) bits each.
        entry_bits = 2 * max(1, (max(payload, 2) - 1).bit_length()) + max(
            1, self._n.bit_length()
        )
        self._directory_bits = sum(len(lvl) for lvl in self._directory) * entry_bits
        # The directory is consulted per canonical node; model it as a
        # disk extent so probes are charged.
        self._dir_offset = self._disk.alloc(self._directory_bits)
        self._dir_entry_bits = entry_bits

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

    def space(self) -> SpaceBreakdown:
        return SpaceBreakdown(
            payload_bits=self._payload_bits,
            directory_bits=self._directory_bits + self._prefix.size_bits,
        )

    def count_range(self, char_lo: int, char_hi: int) -> int:
        """``z`` via the prefix array (2 probes, §2.1)."""
        return self._prefix.range_count(char_lo, char_hi)

    def range_query(self, char_lo: int, char_hi: int) -> RangeResult:
        self._check_range(char_lo, char_hi)
        z = self._prefix.range_count(char_lo, char_hi)
        if z == 0:
            return RangeResult.empty(self._n)
        if z > self._n // 2:
            # Complement trick (§2.1): answer the two flanking queries.
            parts: list[list[int]] = []
            if char_lo > 0:
                parts.append(self._query_positions(0, char_lo - 1))
            if char_hi < self._sigma - 1:
                parts.append(self._query_positions(char_hi + 1, self._sigma - 1))
            stored = union_disjoint_sorted(parts)
            return RangeResult(stored, self._n, complemented=True)
        return RangeResult(self._query_positions(char_lo, char_hi), self._n)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _canonical_nodes(self, char_lo: int, char_hi: int) -> list[tuple[int, int]]:
        """Maximal-subtree cover as ``(level_index, node_index)`` pairs.

        Standard segment-tree decomposition: at most two nodes per
        level, O(lg sigma) in total.
        """
        out: list[tuple[int, int]] = []
        stack = [(0, 0, 0, self._padded - 1)]
        while stack:
            level, idx, lo, hi = stack.pop()
            if lo > char_hi or hi < char_lo:
                continue
            if char_lo <= lo and hi <= char_hi:
                out.append((level, idx))
                continue
            mid = (lo + hi) // 2
            stack.append((level + 1, 2 * idx, lo, mid))
            stack.append((level + 1, 2 * idx + 1, mid + 1, hi))
        return out

    def _query_positions(self, char_lo: int, char_hi: int) -> list[int]:
        nodes = self._canonical_nodes(char_lo, char_hi)
        lists: list[Sequence[int]] = []
        for level, idx in nodes:
            # Directory probe (cache-friendly O(1) I/O per node).
            flat_index = ((1 << level) - 1) + idx
            self._disk.touch_range(
                self._dir_offset + flat_index * self._dir_entry_bits,
                self._dir_entry_bits,
            )
            start, nbits, count = self._directory[level][idx]
            if count == 0:
                continue
            at = self._level_extents[level].offset + start
            lists.extend(self._disk.read_gaps(at, nbits, [(at, count)]))
        return union_disjoint_sorted(lists)


def _merge_two(a: list[int], b: list[int]) -> list[int]:
    """Linear merge of two disjoint sorted lists."""
    out: list[int] = []
    i = j = 0
    la, lb = len(a), len(b)
    while i < la and j < lb:
        if a[i] < b[j]:
            out.append(a[i])
            i += 1
        else:
            out.append(b[j])
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return out
