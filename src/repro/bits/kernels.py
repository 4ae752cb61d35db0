"""Block-oriented fast kernels for the hot bit/set operations.

Every decode and set-algebra hot path in this package has two
implementations:

* a **reference** kernel — the pure-Python loops that live where the
  paper's algorithms are explained (:mod:`.ops`, :mod:`.wah`,
  :mod:`.ebitmap`).  They stay readable, stay close to the paper's
  pseudocode, and stay the oracle the property tests compare against.
* a **fast** kernel in this module — the same function computed on
  C-backed bulk primitives: frozen ``set`` algebra for
  intersect/union/difference and the intersection count, a
  many-against-one count (:func:`intersect_aware_count_many`: one
  hashed operand probed by a batch of complement-aware leaves, what
  a ``count_by`` fold runs per shard), ``range`` splicing for fills
  and complements, ``int.bit_length``/table lookups for word
  decoding, and a chunked big-integer accumulator (built with
  ``int.from_bytes``) for gamma streams.  No third-party
  dependencies; everything here is CPython builtins operating on
  whole blocks instead of per-element Python bytecode.

Selection
---------
The active kernel is chosen once at import from the ``REPRO_KERNEL``
environment variable (``fast`` — the default — or ``python``) and can
be flipped at runtime with :func:`set_kernel` (what the property suite
and the E18 microbench do).  Dispatch sites read the module-level
:data:`USE_FAST` flag per call, so flipping the switch affects every
subsequent operation immediately and costs one attribute read on the
hot path.

Adding a kernel
---------------
1. Keep (or write) the pure-Python version where the algorithm is
   documented; it is the reference.
2. Add the block-oriented twin here, same signature, same results —
   including error behavior on malformed input.
3. Dispatch at the call site on ``kernels.USE_FAST``.
4. Extend ``tests/test_kernels.py``: the randomized property suite
   runs every fast kernel against its reference on adversarial inputs
   under both switch values.
"""

from __future__ import annotations

import os
from itertools import chain
from typing import Iterable, Sequence

from ..errors import CodecError, InvalidParameterError

#: The two recognized kernel names.
KERNELS = ("python", "fast")

#: True when the fast kernels serve; False routes every dispatch site
#: to its pure-Python reference implementation.
USE_FAST = True


def _init_from_env() -> None:
    global USE_FAST
    name = os.environ.get("REPRO_KERNEL", "fast").strip().lower()
    if name not in KERNELS:
        raise InvalidParameterError(
            f"REPRO_KERNEL must be one of {KERNELS}, got {name!r}"
        )
    USE_FAST = name == "fast"


_init_from_env()


def kernel_name() -> str:
    """The active kernel: ``"fast"`` or ``"python"``."""
    return "fast" if USE_FAST else "python"


def set_kernel(name: str) -> None:
    """Select the active kernel at runtime (tests, benchmarks)."""
    global USE_FAST
    if name not in KERNELS:
        raise InvalidParameterError(
            f"kernel must be one of {KERNELS}, got {name!r}"
        )
    USE_FAST = name == "fast"


# ----------------------------------------------------------------------
# Set algebra on sorted duplicate-free position lists
# ----------------------------------------------------------------------
#
# The reference kernels walk two pointers element by element; these
# twins hand the whole problem to the C implementations of ``set`` and
# ``sorted`` (Timsort detects and merges the pre-sorted runs).  The
# contract is identical: inputs are sorted and duplicate-free, outputs
# are fresh sorted duplicate-free lists.


def intersect_sorted(a: Sequence[int], b: Sequence[int]) -> list[int]:
    if not a or not b:
        return []
    return sorted(set(a).intersection(b))


def intersect_many(lists: Sequence[Sequence[int]]) -> list[int]:
    if not lists:
        return []
    ordered = sorted(lists, key=len)
    if not ordered[0]:
        return []
    acc = set(ordered[0])
    for other in ordered[1:]:
        acc.intersection_update(other)
        if not acc:
            return []
    return sorted(acc)


def union_disjoint_sorted(lists: Iterable[Sequence[int]]) -> list[int]:
    lists = [lst for lst in lists if lst]
    if not lists:
        return []
    if len(lists) == 1:
        return list(lists[0])
    # Timsort on the concatenation of k sorted runs is a C-speed k-way
    # merge: galloping mode recognizes the pre-sorted runs.
    return sorted(chain.from_iterable(lists))


def union_sorted(lists: Iterable[Sequence[int]]) -> list[int]:
    lists = [lst for lst in lists if lst]
    if not lists:
        return []
    if len(lists) == 1:
        return list(lists[0])
    return sorted(set().union(*lists))


def difference_sorted(a: Sequence[int], b: Sequence[int]) -> list[int]:
    if not a:
        return []
    if not b:
        return list(a)
    return sorted(set(a).difference(b))


def intersect_count(a: Sequence[int], b: Sequence[int]) -> int:
    if not a or not b:
        return 0
    return len(set(a).intersection(b))


def intersect_aware_count_many(
    a: Sequence[int],
    a_comp: bool,
    groups: Iterable[tuple[Sequence[int], bool]],
    universe: int,
) -> list[int]:
    # ``a`` is hashed once for every group leaf, so the whole batch
    # costs O(|a| + sum |g|) instead of a fresh set per leaf.  The
    # plain intersection size is the only set work; each complemented
    # case follows from it and the lengths by De Morgan.
    probe = set(a)
    la = len(a)
    out: list[int] = []
    append = out.append
    for g, g_comp in groups:
        shared = len(probe.intersection(g)) if probe and g else 0
        if a_comp:
            if g_comp:  # ~A & ~G = ~(A | G)
                append(universe - la - len(g) + shared)
            else:  # ~A & G = G - A
                append(len(g) - shared)
        elif g_comp:  # A & ~G = A - G
            append(la - shared)
        else:
            append(shared)
    return out


def complement_sorted(positions: Sequence[int], universe: int) -> list[int]:
    out: list[int] = []
    extend = out.extend
    prev = -1
    for p in positions:
        if p - prev > 1:
            extend(range(prev + 1, p))
        prev = p
    extend(range(prev + 1, universe))
    return out


# ----------------------------------------------------------------------
# WAH decode
# ----------------------------------------------------------------------
#
# Word layout (see :mod:`.wah`): 32-bit words; a literal word has MSB 0
# and carries one 31-bit group MSB-first (bit 30 of the word is the
# group's first position); a fill word has MSB 1, the fill bit at bit
# 30, and a 30-bit group run count.  The fast decoder turns 1-fills
# into ``range`` splices and literals into two 16-bit table lookups —
# the whole word resolves to its position tuple in two dict-free list
# indexings instead of 31 shift-and-test iterations.

_TAB16: list[tuple[int, ...]] | None = None


def _build_tab16() -> list[tuple[int, ...]]:
    # _TAB16[v] lists the positions p in [0, 16) whose MSB-first bit
    # (bit 15 - p) is set in the 16-bit value v.  Built on first WAH
    # decode, then cached for the process lifetime.
    table = []
    for v in range(1 << 16):
        if v:
            positions = tuple(
                p for p in range(16) if v & (1 << (15 - p))
            )
        else:
            positions = ()
        table.append(positions)
    return table


def wah_decode(words: Sequence[int], universe: int) -> list[int]:
    """Decode WAH words to the sorted 1-position list, block-wise.

    Bit-compatible with ``WahBitmap.iter_positions``: 1-fills clip at
    the universe silently (the encoder may round the last group up),
    but a *literal* bit outside the universe is malformed data and
    raises :class:`CodecError`.
    """
    global _TAB16
    if _TAB16 is None:
        _TAB16 = _build_tab16()
    tab = _TAB16
    # Late import: the run mask must track wah._MAX_RUN even when a
    # test narrows it to force fill splitting at a tiny boundary.
    from . import wah as _wah

    run_mask = _wah._MAX_RUN
    group_bits = _wah.GROUP_BITS
    out: list[int] = []
    extend = out.extend
    append = out.append
    base = 0
    for word in words:
        if word >> 31:
            span = (word & run_mask) * group_bits
            if (word >> 30) & 1:
                hi = base + span
                if hi > universe:
                    hi = universe
                extend(range(base, hi))
            base += span
        else:
            if word:
                top = tab[word >> 15]
                low = tab[(word & 0x7FFF) << 1]
                if base + group_bits > universe:
                    last = (low[-1] + 16) if low else top[-1]
                    if base + last >= universe:
                        raise CodecError(
                            "WAH literal outside the universe"
                        )
                # Population-adaptive: a comprehension amortizes its
                # frame setup only on dense words; sparse words are
                # cheaper through a plain append loop.
                if word.bit_count() > 12:
                    if top:
                        out += [p + base for p in top]
                    if low:
                        mid = base + 16
                        out += [p + mid for p in low]
                else:
                    for p in top:
                        append(p + base)
                    mid = base + 16
                    for p in low:
                        append(p + mid)
            base += group_bits
    return out


# ----------------------------------------------------------------------
# Gamma gap-stream decode
# ----------------------------------------------------------------------
#
# The reference decodes one gamma code at a time through
# ``BitReader.read_unary`` / ``read_bits``, each of which slices and
# converts bytes per call.  The fast kernel keeps a big-integer bit
# accumulator refilled in 256-bit gulps with one ``int.from_bytes``
# per refill; unary runs resolve with ``int.bit_length`` and payload
# bits with one shift-and-mask.  It operates directly on the reader's
# window and leaves the reader positioned exactly after the consumed
# codes, preserving the sequential-decode contract of ``decode_gaps``.

_REFILL_BITS = 256


def decode_gaps_fast(reader, count: int) -> list[int]:
    """Decode ``count`` gamma gap codes from a ``BitReader``, batched.

    Same output, same final reader position, and same
    :class:`CodecError` behavior on truncated streams as the reference
    ``decode_gaps`` loop.
    """
    buf = reader._buf
    cursor = reader._pos
    end = reader._end
    positions: list[int] = []
    append = positions.append
    prev = -1
    acc = 0
    nacc = 0
    for _ in range(count):
        # Unary phase: leading zeros then the marker 1.
        zeros = 0
        while True:
            if nacc:
                top = acc.bit_length()
                if top:
                    zeros += nacc - top
                    nacc = top - 1
                    acc ^= 1 << nacc
                    break
                zeros += nacc
                nacc = 0
            if cursor >= end:
                raise CodecError(
                    "unary code ran past the end of the stream"
                )
            take = end - cursor
            if take > _REFILL_BITS:
                take = _REFILL_BITS
            first = cursor >> 3
            last = (cursor + take - 1) >> 3
            chunk = int.from_bytes(buf[first : last + 1], "big")
            right = ((last + 1) << 3) - (cursor + take)
            acc = (chunk >> right) & ((1 << take) - 1)
            nacc = take
            cursor += take
        if zeros == 0:
            value = 1
        else:
            while nacc < zeros:
                if cursor >= end:
                    raise CodecError(
                        "bit read past the end of the stream"
                    )
                take = end - cursor
                if take > _REFILL_BITS:
                    take = _REFILL_BITS
                first = cursor >> 3
                last = (cursor + take - 1) >> 3
                chunk = int.from_bytes(buf[first : last + 1], "big")
                right = ((last + 1) << 3) - (cursor + take)
                acc = (acc << take) | (
                    (chunk >> right) & ((1 << take) - 1)
                )
                nacc += take
                cursor += take
            nacc -= zeros
            value = (1 << zeros) | (acc >> nacc)
            acc &= (1 << nacc) - 1
        prev += value
        append(prev)
    reader._pos = cursor - nacc
    return positions
