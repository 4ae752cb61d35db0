"""Multi-resolution bitmap indexes (§1.2, reference [16]).

Binning applied recursively: level 0 stores per-character bitmaps,
level k a bitmap per bin of ``w^k`` characters.  A range is covered
greedily by maximal aligned bins, so fewer than ``l/w + 2w`` bitmaps
are combined and no candidate checks are needed.  The paper derives
the worst-case space ``Theta(n lg^2(sigma) / lg w)`` bits and notes the
inherent time-space trade-off ("one can never simultaneously achieve
optimal space ... and optimal query time") that Theorem 2 eliminates;
experiment E8 measures exactly that trade-off.
"""

from __future__ import annotations

from typing import Sequence

from ..bits.bitio import BitWriter
from ..bits.ebitmap import encode_gaps
from ..bits.ops import union_disjoint_sorted
from ..core.interface import RangeResult, SecondaryIndex, SpaceBreakdown
from ..errors import InvalidParameterError
from ..iomodel.disk import Disk, Extent


class MultiResolutionBitmapIndex(SecondaryIndex):
    """Bitmaps for bins of w^0, w^1, w^2, ... characters."""

    def __init__(
        self,
        x: Sequence[int],
        sigma: int,
        bin_width: int = 4,
        disk: Disk | None = None,
        block_bits: int = 1024,
        mem_blocks: int = 64,
    ) -> None:
        if sigma <= 0:
            raise InvalidParameterError("sigma must be >= 1")
        if bin_width < 2:
            raise InvalidParameterError("bin_width must be >= 2")
        self._disk = disk if disk is not None else Disk(block_bits, mem_blocks)
        self._n = len(x)
        self._sigma = sigma
        self._w = bin_width
        per_char: list[list[int]] = [[] for _ in range(sigma)]
        for pos, ch in enumerate(x):
            if ch < 0 or ch >= sigma:
                raise InvalidParameterError(
                    f"character {ch} outside alphabet [0, {sigma})"
                )
            per_char[ch].append(pos)
        # Resolution levels: level 0 = characters; level k bins w^k chars.
        self._levels: list[list[tuple[int, int, int]]] = []
        self._extents: list[Extent] = []
        self._payload_bits = 0
        current = per_char
        while True:
            writer = BitWriter()
            entries = []
            for positions in current:
                start = writer.bit_length
                encode_gaps(writer, positions)
                entries.append((start, writer.bit_length - start, len(positions)))
            self._extents.append(
                self._disk.store(writer.getvalue(), writer.bit_length)
            )
            self._levels.append(entries)
            self._payload_bits += writer.bit_length
            if len(current) == 1:
                break
            nxt: list[list[int]] = []
            for i in range(0, len(current), bin_width):
                group = current[i : i + bin_width]
                merged: list[int] = []
                for g in group:
                    merged.extend(g)
                merged.sort()
                nxt.append(merged)
            current = nxt

    @property
    def n(self) -> int:
        return self._n

    @property
    def sigma(self) -> int:
        return self._sigma

    @property
    def num_levels(self) -> int:
        return len(self._levels)

    @property
    def disk(self) -> Disk:
        return self._disk

    def space(self) -> SpaceBreakdown:
        entry_bits = 3 * max(1, max(self._n, 2).bit_length())
        num_entries = sum(len(lvl) for lvl in self._levels)
        return SpaceBreakdown(
            payload_bits=self._payload_bits,
            directory_bits=num_entries * entry_bits,
        )

    def _read_bin(self, level: int, idx: int) -> Sequence[int]:
        start, nbits, count = self._levels[level][idx]
        if count == 0:
            return []
        at = self._extents[level].offset + start
        return self._disk.read_gaps(at, nbits, [(at, count)])[0]

    def _cover(self, char_lo: int, char_hi: int) -> list[tuple[int, int]]:
        """Greedy cover of [char_lo, char_hi] by maximal aligned bins."""
        out: list[tuple[int, int]] = []
        w = self._w
        at = char_lo
        while at <= char_hi:
            level = 0
            span = 1
            # Grow while aligned and still inside the range.
            while (
                level + 1 < len(self._levels)
                and at % (span * w) == 0
                and at + span * w - 1 <= char_hi
            ):
                level += 1
                span *= w
            out.append((level, at // span))
            at += span
        return out

    def range_query(self, char_lo: int, char_hi: int) -> RangeResult:
        self._check_range(char_lo, char_hi)
        lists = [
            positions
            for level, idx in self._cover(char_lo, char_hi)
            if (positions := self._read_bin(level, idx))
        ]
        return RangeResult(union_disjoint_sorted(lists), self._n)
