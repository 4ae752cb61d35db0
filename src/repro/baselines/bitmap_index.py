"""Per-character bitmap indexes — the other extreme of §1.3.

Two variants:

* :class:`UncompressedBitmapIndex` — the "obvious" bitmap index of
  §1.2: an explicit ``n``-bit vector per character, ``n * sigma`` bits
  total, optimal only for constant-size alphabets;
* :class:`CompressedBitmapIndex` — each bitmap gap/gamma-compressed,
  ``O(n lg sigma)`` bits total (compressing the bitmaps independently
  is within a constant of the string itself, §1.2), but a range query
  still reads the bitmap of *every* character in the range — the
  ``Omega(lg sigma / lg(sigma/l))``-factor overhead the paper's
  example exhibits, which Theorems 1-2 remove.
"""

from __future__ import annotations

from typing import Sequence

from ..bits.bitio import BitWriter
from ..bits.ebitmap import encode_gaps
from ..bits.ops import union_disjoint_sorted
from ..bits.plain import PlainBitmap
from ..core.interface import RangeResult, SecondaryIndex, SpaceBreakdown
from ..errors import InvalidParameterError
from ..iomodel.disk import Disk, Extent


def _per_char_positions(x: Sequence[int], sigma: int) -> list[list[int]]:
    per_char: list[list[int]] = [[] for _ in range(sigma)]
    for pos, ch in enumerate(x):
        if ch < 0 or ch >= sigma:
            raise InvalidParameterError(
                f"character {ch} outside alphabet [0, {sigma})"
            )
        per_char[ch].append(pos)
    return per_char


class CompressedBitmapIndex(SecondaryIndex):
    """Gamma-RLE bitmap per character; queries scan the range's bitmaps."""

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
        self._disk = disk if disk is not None else Disk(block_bits, mem_blocks)
        self._n = len(x)
        self._sigma = sigma
        per_char = _per_char_positions(x, sigma)
        # All bitmaps concatenated into one extent, character order.
        writer = BitWriter()
        self._entries: list[tuple[int, int, int]] = []
        for positions in per_char:
            start = writer.bit_length
            encode_gaps(writer, positions)
            self._entries.append(
                (start, writer.bit_length - start, len(positions))
            )
        self._extent: Extent = self._disk.store(writer.getvalue(), writer.bit_length)
        self._payload_bits = writer.bit_length

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
        # Directory: (offset, length, count) per character.
        entry_bits = 3 * max(1, max(self._n, 2).bit_length())
        return SpaceBreakdown(
            payload_bits=self._payload_bits,
            directory_bits=self._sigma * entry_bits,
        )

    def range_query(self, char_lo: int, char_hi: int) -> RangeResult:
        self._check_range(char_lo, char_hi)
        # One contiguous read: bitmaps of the range are adjacent.
        first_entry = self._entries[char_lo]
        last_entry = self._entries[char_hi]
        base = self._extent.offset
        start = first_entry[0]
        end = last_entry[0] + last_entry[1]
        lists = self._disk.read_gaps(
            base + start,
            end - start,
            [
                (base + at, count)
                for at, _, count in self._entries[char_lo : char_hi + 1]
                if count
            ],
        )
        return RangeResult(union_disjoint_sorted(lists), self._n)


class UncompressedBitmapIndex(SecondaryIndex):
    """Plain n-bit vector per character (n * sigma bits)."""

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
        self._disk = disk if disk is not None else Disk(block_bits, mem_blocks)
        self._n = len(x)
        self._sigma = sigma
        per_char = _per_char_positions(x, sigma)
        self._extents: list[Extent] = []
        for positions in per_char:
            bm = PlainBitmap.from_positions(positions, self._n)
            self._extents.append(self._disk.store(bm.to_bytes(), self._n))
        self._counts = [len(p) for p in per_char]

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
            payload_bits=self._n * self._sigma,
            directory_bits=self._sigma * max(1, max(self._n, 2).bit_length()),
        )

    def _read_plain(self, ch: int) -> PlainBitmap:
        reader = self._disk.read_extent(self._extents[ch])
        nbytes = (self._n + 7) // 8
        raw = bytearray(nbytes)
        for bi in range(nbytes):
            take = min(8, self._n - bi * 8)
            raw[bi] = reader.read_bits(take) << (8 - take)
        return PlainBitmap(self._n, bytes(raw))

    def range_query(self, char_lo: int, char_hi: int) -> RangeResult:
        self._check_range(char_lo, char_hi)
        combined: PlainBitmap | None = None
        for ch in range(char_lo, char_hi + 1):
            bm = self._read_plain(ch)  # every bitmap in the range is scanned
            combined = bm if combined is None else (combined | bm)
        if combined is None:  # pragma: no cover - range is never empty
            return RangeResult.empty(self._n)
        return RangeResult(combined.positions(), self._n)
