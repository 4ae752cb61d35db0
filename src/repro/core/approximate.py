"""Approximate range queries in the spirit of Bloom filters (§3, Theorem 3).

On top of the Theorem-2 structure, every materialized node that stores a
position set ``S`` additionally stores ``k = floor(lg lg n)`` *hashed
sets* ``h_1(S), ..., h_k(S)``, where ``h_j`` maps positions into
``[2^(2^j)]`` through the XOR-fold family (the same ``k`` functions are
shared by every node).  A query first obtains ``z`` from the prefix
array, picks the smallest ``j`` with ``2^(2^j) > z / eps``, and unions
the ``j``-th hashed sets of the canonical nodes instead of the position
sets — reading only ``O(z lg(1/eps))`` bits.  The (large) approximate
answer is never materialized: it is the *preimage* of the hashed union,
which the XOR-fold family can enumerate, membership-test, and intersect
without further I/O; :func:`at_least_k_candidates` is that intersection
across the per-dimension answers of a table (§1).

When ``j`` would exceed ``k`` (i.e. ``z/eps`` approaches ``n``) the
query falls back to the exact algorithm, exactly as the paper
prescribes ("If j > k we cannot save anything").
"""

from __future__ import annotations

import heapq
import math
import random
from itertools import groupby
from typing import Iterator, Sequence

from ..bits.bitio import BitWriter
from ..bits.ebitmap import encode_gaps
from ..bits.ops import union_sorted
from ..errors import QueryError
from ..hashing.xorfold import XorFoldHash
from ..iomodel.disk import Disk
from ..trees.weighted import WNode
from .interface import RangeResult
from .static_index import Materialization, PaghRaoIndex


class ApproximateResult:
    """The answer to an approximate range query.

    Holds the hashed union; supports O(1) membership filtering and
    lazy candidate enumeration via the hash preimage (§3: "we do not
    want to output the preimage ... but only to generate it").
    """

    __slots__ = ("hash_fn", "hashed", "universe", "exact_cardinality", "level_j")

    def __init__(
        self,
        hash_fn: XorFoldHash,
        hashed: frozenset[int],
        universe: int,
        exact_cardinality: int,
        level_j: int,
    ) -> None:
        self.hash_fn = hash_fn
        self.hashed = hashed
        self.universe = universe
        self.exact_cardinality = exact_cardinality
        self.level_j = level_j

    @property
    def is_exact(self) -> bool:
        return False

    def might_contain(self, position: int) -> bool:
        """True for every true match; false positives with prob <= eps."""
        if position < 0 or position >= self.universe:
            return False
        return self.hash_fn(position) in self.hashed

    def __contains__(self, position: int) -> bool:
        return self.might_contain(position)

    def positions(self) -> list[int]:
        """Materialize the full candidate set (preimage of the union)."""
        return list(self.hash_fn.preimage(set(self.hashed), self.universe))

    def iter_candidates(self) -> Iterator[int]:
        """Candidates in increasing order, generated without I/O."""
        return self.hash_fn.preimage(set(self.hashed), self.universe)

    @property
    def candidate_bound(self) -> int:
        """Upper bound on the candidate count."""
        return self.hash_fn.preimage_size(len(self.hashed), self.universe)

    @property
    def compressed_size_bits(self) -> int:
        """Bits of the hashed-set representation (what was read)."""
        hashed = sorted(self.hashed)
        if not hashed:
            return 0
        from ..bits.ebitmap import encoded_length

        return encoded_length(hashed)


class ApproximatePaghRaoIndex(PaghRaoIndex):
    """Theorem 3: the Theorem-2 index plus per-node hashed sets."""

    def __init__(
        self,
        x: Sequence[int],
        sigma: int,
        disk: Disk | None = None,
        branching: int = 8,
        materialization: Materialization = "exponential",
        block_bits: int = 1024,
        mem_blocks: int = 64,
        seed: int = 0,
    ) -> None:
        self._seed = seed
        super().__init__(
            x,
            sigma,
            disk=disk,
            branching=branching,
            materialization=materialization,
            block_bits=block_bits,
            mem_blocks=mem_blocks,
        )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def _store_bitmaps(self) -> None:
        # k = floor(lg lg n) hash levels, at least 1 (§3).
        n = max(self._n, 4)
        self._k = max(1, int(math.floor(math.log2(max(1.0, math.log2(n))))))
        rng = random.Random(self._seed)
        # hash level j in 1..k maps into [2^(2^j)].
        self._hashes: dict[int, XorFoldHash] = {
            j: XorFoldHash.sample(rng, 1 << j) for j in range(1, self._k + 1)
        }
        # node_id -> per-j (absolute offset, bit length, hashed count)
        self._hashed_extent: dict[int, dict[int, tuple[int, int, int]]] = {}
        self._hashed_payload_bits = 0
        super()._store_bitmaps()

    def _store_level(self, nodes: list[WNode]) -> None:
        super()._store_level(nodes)
        # Group the hashed sets by hash function, concatenated per level
        # (§3: "we group the sets according to what hash function was
        # used"), so a query's per-level reads stay contiguous.
        for j, h in self._hashes.items():
            writer = BitWriter()
            starts: list[tuple[WNode, int, int, int]] = []
            for node in nodes:
                start = writer.bit_length
                hashed = sorted({h(p) for p in self._tree.node_positions(node)})
                encode_gaps(writer, hashed)
                starts.append(
                    (node, start, writer.bit_length - start, len(hashed))
                )
            extent = self._disk.store(writer.getvalue(), writer.bit_length)
            for node, start, nbits, cnt in starts:
                self._hashed_extent.setdefault(node.node_id, {})[j] = (
                    extent.offset + start,
                    nbits,
                    cnt,
                )
            self._hashed_payload_bits += writer.bit_length

    def space(self):
        base = super().space()
        from .interface import SpaceBreakdown

        return SpaceBreakdown(
            payload_bits=base.payload_bits + self._hashed_payload_bits,
            directory_bits=base.directory_bits,
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def k(self) -> int:
        """Number of hash levels, ``floor(lg lg n)``."""
        return self._k

    def choose_level(self, z: int, eps: float) -> int | None:
        """Smallest ``j`` with ``2^(2^j) > z / eps``; None -> exact."""
        if z == 0:
            return None
        threshold = z / eps
        for j in range(1, self._k + 1):
            if (1 << (1 << j)) > threshold:
                # No savings if the hash range already covers [n].
                if (1 << (1 << j)) >= self._n:
                    return None
                return j
        return None

    def approx_range_query(
        self, char_lo: int, char_hi: int, eps: float
    ) -> ApproximateResult | RangeResult:
        """Answer with false-positive probability at most ``eps``.

        Falls back to the exact query (returning a
        :class:`RangeResult`) when hashing cannot save I/O.
        """
        if not 0.0 < eps < 1.0:
            raise QueryError("eps must be in (0, 1)")
        self._check_range(char_lo, char_hi)
        z = self._prefix.range_count(char_lo, char_hi)
        if z == 0:
            return RangeResult.empty(self._n)
        j = self.choose_level(z, eps)
        if j is None:
            return self.range_query(char_lo, char_hi)
        read_nodes, directory_nodes, _ = self._collect_read_set(char_lo, char_hi)
        self._layout.touch_nodes(directory_nodes)
        hashed_lists = self._read_hashed(read_nodes, j)
        hashed = frozenset(union_sorted(hashed_lists))
        return ApproximateResult(
            hash_fn=self._hashes[j],
            hashed=hashed,
            universe=self._n,
            exact_cardinality=z,
            level_j=j,
        )

    def _read_hashed(
        self, read_nodes: list[WNode], j: int
    ) -> list[Sequence[int]]:
        """Read hashed sets (coalescing adjacent extents, as for bitmaps)."""
        return self._read_extents(
            self._hashed_extent[v.node_id][j] for v in read_nodes
        )


def at_least_k_candidates(
    answers: Sequence[ApproximateResult | RangeResult], k: int
) -> list[int]:
    """Positions at least ``k`` of the ``d`` answers might contain.

    The cross-check of §3, for conjunctions (``k = d``) and for §1's
    "in range in at least ``k`` of ``d`` dimensions" alike.  A position
    in ``k`` answers lies in at least one of any ``d - k + 1`` of them,
    so candidates are drawn only from the ``d - k + 1`` answers with
    the smallest candidate bounds (the one seed filter when ``k = d``)
    and each is tested in O(1) per answer.  Exact answers take part
    with their positions.  When the filters hash independently, a
    position in only ``j < k`` ranges survives with probability at most
    ``C(d-j, k-j) eps^(k-j)``.  Ascending, without repeats.
    """
    d = len(answers)
    if not 1 <= k <= d:
        raise QueryError(f"need 1 <= k <= {d}, got k={k}")

    def bound(answer) -> int:
        if isinstance(answer, ApproximateResult):
            return answer.candidate_bound
        return answer.cardinality

    seeds = sorted(answers, key=bound)[: d - k + 1]
    pool = heapq.merge(
        *(
            a.iter_candidates()
            if isinstance(a, ApproximateResult)
            else a.iter_positions()
            for a in seeds
        )
    )
    slack = d - k  # answers a kept position may miss
    out: list[int] = []
    for p, _ in groupby(pool):
        misses = 0
        for answer in answers:
            if p not in answer:
                misses += 1
                if misses > slack:
                    break
        else:
            out.append(p)
    return out
