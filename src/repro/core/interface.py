"""The public secondary-index protocol and query results.

The problem (§1.1): store ``x = x1..xn`` over an ordered alphabet
``Sigma`` and answer *alphabet range queries* — given ``[al, ar]``
return ``I[al;ar] = {i | xi in [al, ar]}`` — with the answer produced
in compressed form (``O(lg C(n, z))`` bits).

:class:`RangeResult` is that compressed-form answer: a sorted position
list plus a complement flag (§2.1's trick answers queries with
``z > n/2`` by computing the two flanking queries and returning the
complement), and the ability to report the information-theoretic size
of what was produced.

Every index in :mod:`repro.core` and :mod:`repro.baselines` implements
:class:`SecondaryIndex`, so benchmarks and applications can swap
structures freely.
"""

from __future__ import annotations

import bisect
from abc import ABC, abstractmethod
from dataclasses import dataclass

from ..bits.ebitmap import encoded_length
from ..bits.ops import complement_sorted
from ..errors import QueryError
from ..iomodel.disk import Disk
from ..iomodel.stats import IOStats
from ..model.entropy import lg_binomial


class RangeResult:
    """An exact query answer, possibly represented by its complement."""

    __slots__ = ("_stored", "universe", "complemented")

    def __init__(
        self,
        stored: list[int],
        universe: int,
        complemented: bool = False,
    ) -> None:
        # `stored` is contractually sorted, so bounds-checking its ends
        # is O(1).  Without this, a complemented result over a small or
        # empty universe silently produced positions outside [0,
        # universe) and negative cardinalities.
        if universe < 0:
            raise QueryError(f"universe must be >= 0, got {universe}")
        if stored and (stored[0] < 0 or stored[-1] >= universe):
            raise QueryError(
                f"stored positions [{stored[0]}, {stored[-1]}] fall "
                f"outside universe [0, {universe})"
            )
        self._stored = stored
        self.universe = universe
        self.complemented = complemented

    @property
    def cardinality(self) -> int:
        """``z`` — the number of matching positions."""
        if self.complemented:
            return self.universe - len(self._stored)
        return len(self._stored)

    def positions(self) -> list[int]:
        """Materialize the sorted matching positions."""
        if self.complemented:
            return complement_sorted(self._stored, self.universe)
        return list(self._stored)

    def iter_positions(self):
        """Stream the sorted matching positions without materializing.

        The streaming counterpart of :meth:`positions`: a complemented
        answer (§2.1, ``z > n/2``) is walked as the gaps between its
        stored positions in O(1) extra memory, so a consumer that
        processes positions one at a time never pays the O(z) list the
        materialized form costs.  Either way it is a generator, so a
        consumer that stops early can ``close()`` it.
        """
        if not self.complemented:
            yield from self._stored
            return
        prev = -1
        for p in self._stored:
            yield from range(prev + 1, p)
            prev = p
        yield from range(prev + 1, self.universe)

    def stored_positions(self) -> list[int]:
        """The list physically held (the complement when flagged)."""
        return list(self._stored)

    def __contains__(self, position: int) -> bool:
        if position < 0 or position >= self.universe:
            return False
        idx = bisect.bisect_left(self._stored, position)
        hit = idx < len(self._stored) and self._stored[idx] == position
        return hit != self.complemented

    def __len__(self) -> int:
        return self.cardinality

    @property
    def is_exact(self) -> bool:
        """Exact results contain no false positives (cf. §3)."""
        return True

    @property
    def compressed_size_bits(self) -> int:
        """Size of the answer in the output format of §1.1.

        Gap/gamma encoding of the stored list — ``O(lg C(n, z))`` bits
        thanks to the complement representation.
        """
        if not self._stored:
            return 0
        return encoded_length(self._stored)

    @property
    def information_bound_bits(self) -> float:
        """``lg C(n, min(z, n-z))`` — the lower bound for any encoding."""
        return lg_binomial(self.universe, len(self._stored))

    @staticmethod
    def empty(universe: int) -> "RangeResult":
        return RangeResult([], universe)


@dataclass(frozen=True)
class SpaceBreakdown:
    """Where an index's bits live; every structure reports one.

    ``payload_bits`` are compressed bitmaps / key lists — the quantity
    the paper's space theorems bound.  ``directory_bits`` are node
    records, extent pointers and counters (the additive
    ``O(sigma lg^2 n)``-style terms).
    """

    payload_bits: int
    directory_bits: int

    @property
    def total_bits(self) -> int:
        return self.payload_bits + self.directory_bits

    def __add__(self, other: "SpaceBreakdown") -> "SpaceBreakdown":
        return SpaceBreakdown(
            self.payload_bits + other.payload_bits,
            self.directory_bits + other.directory_bits,
        )


class SecondaryIndex(ABC):
    """Common protocol of every secondary index in this package."""

    @property
    @abstractmethod
    def n(self) -> int:
        """Length of the indexed string."""

    @property
    @abstractmethod
    def sigma(self) -> int:
        """Alphabet size."""

    @property
    @abstractmethod
    def disk(self) -> Disk:
        """The block device holding the structure."""

    @property
    def stats(self) -> IOStats:
        """The I/O counters (shared with the disk)."""
        return self.disk.stats

    @abstractmethod
    def range_query(self, char_lo: int, char_hi: int) -> RangeResult:
        """Answer ``I[char_lo; char_hi]`` (inclusive code range)."""

    @abstractmethod
    def space(self) -> SpaceBreakdown:
        """The structure's footprint."""

    def size_bits(self) -> int:
        """Total bits used (payload + directory)."""
        return self.space().total_bits

    def _check_range(self, char_lo: int, char_hi: int) -> None:
        if char_lo < 0 or char_hi >= self.sigma or char_lo > char_hi:
            raise QueryError(
                f"invalid character range [{char_lo}, {char_hi}] for "
                f"alphabet of size {self.sigma}"
            )
