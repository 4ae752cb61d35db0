"""Binning (§1.2, reference [16]) with candidate checks.

"In its simplest form the idea is to divide Σ into bins of w characters
and represent a compressed bitmap for each bin."  A range query unions
the bitmaps of fully covered bins; the two *edge* bins only bound the
answer, so their members are candidate-checked against the base data —
the classic candidate-check cost that makes plain binning unattractive
at low selectivity, and the reason multi-resolution indexes exist.

The base string is stored on disk as a fixed-width array; each
candidate check reads one character (one block I/O when unlucky).
"""

from __future__ import annotations

from typing import Sequence

from ..bits.bitio import BitWriter
from ..bits.ebitmap import encode_gaps
from ..bits.ops import union_disjoint_sorted
from ..core.interface import RangeResult, SecondaryIndex, SpaceBreakdown
from ..errors import InvalidParameterError
from ..iomodel.disk import Disk, Extent


class BinnedBitmapIndex(SecondaryIndex):
    """One compressed bitmap per bin of ``bin_width`` characters."""

    def __init__(
        self,
        x: Sequence[int],
        sigma: int,
        bin_width: int = 8,
        disk: Disk | None = None,
        block_bits: int = 1024,
        mem_blocks: int = 64,
    ) -> None:
        if sigma <= 0:
            raise InvalidParameterError("sigma must be >= 1")
        if bin_width <= 0:
            raise InvalidParameterError("bin_width must be >= 1")
        self._disk = disk if disk is not None else Disk(block_bits, mem_blocks)
        self._n = len(x)
        self._sigma = sigma
        self._w = bin_width
        self._num_bins = -(-sigma // bin_width)
        per_bin: list[list[int]] = [[] for _ in range(self._num_bins)]
        for pos, ch in enumerate(x):
            if ch < 0 or ch >= sigma:
                raise InvalidParameterError(
                    f"character {ch} outside alphabet [0, {sigma})"
                )
            per_bin[ch // bin_width].append(pos)
        writer = BitWriter()
        self._entries: list[tuple[int, int, int]] = []
        for positions in per_bin:
            start = writer.bit_length
            encode_gaps(writer, positions)
            self._entries.append((start, writer.bit_length - start, len(positions)))
        self._extent: Extent = self._disk.store(writer.getvalue(), writer.bit_length)
        self._payload_bits = writer.bit_length
        # Base data for candidate checks: fixed-width character array.
        self._char_bits = max(1, (sigma - 1).bit_length())
        self._base_offset = self._disk.alloc(max(1, self._n) * self._char_bits)
        for pos, ch in enumerate(x):
            self._disk.write_bits(
                self._base_offset + pos * self._char_bits, ch, self._char_bits
            )
        self.candidate_checks = 0  # diagnostics for E8

    @property
    def n(self) -> int:
        return self._n

    @property
    def sigma(self) -> int:
        return self._sigma

    @property
    def bin_width(self) -> int:
        return self._w

    @property
    def disk(self) -> Disk:
        return self._disk

    def space(self) -> SpaceBreakdown:
        # The base array is the data, not the index; report the index.
        entry_bits = 3 * max(1, max(self._n, 2).bit_length())
        return SpaceBreakdown(
            payload_bits=self._payload_bits,
            directory_bits=self._num_bins * entry_bits,
        )

    def _read_bin(self, b: int) -> Sequence[int]:
        start, nbits, count = self._entries[b]
        if count == 0:
            return []
        at = self._extent.offset + start
        return self._disk.read_gaps(at, nbits, [(at, count)])[0]

    def _check_candidate(self, pos: int, char_lo: int, char_hi: int) -> bool:
        """Read x[pos] from the base data (the candidate check I/O)."""
        self.candidate_checks += 1
        ch = self._disk.read_bits(
            self._base_offset + pos * self._char_bits, self._char_bits
        )
        return char_lo <= ch <= char_hi

    def range_query(self, char_lo: int, char_hi: int) -> RangeResult:
        self._check_range(char_lo, char_hi)
        w = self._w
        first_bin, last_bin = char_lo // w, char_hi // w
        inner: list[list[int]] = []
        candidates: list[int] = []
        for b in range(first_bin, last_bin + 1):
            bin_lo, bin_hi = b * w, min(self._sigma, (b + 1) * w) - 1
            positions = self._read_bin(b)
            if char_lo <= bin_lo and bin_hi <= char_hi:
                inner.append(positions)  # fully covered bin
            else:
                candidates.extend(positions)  # edge bin: verify
        verified = [
            p for p in candidates if self._check_candidate(p, char_lo, char_hi)
        ]
        verified.sort()
        lists = inner + ([verified] if verified else [])
        return RangeResult(union_disjoint_sorted(lists), self._n)
