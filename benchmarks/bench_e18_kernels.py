"""E18 — kernel layer and worker transport: the raw-speed ledger.

Three claims.  (a) The fast kernels decode WAH at >= 3x the
pure-Python reference on *index-realistic* bitmaps — per-value
bitmaps at density ~1/sigma, which is literally what every range
query decodes — measured as bits-decoded-per-second with identical
output asserted first.  (b) The shared-memory transport moves bulk
request payloads off the pipe: for a resident build and a coalesced
delta batch the pipe carries only a control message a few hundred
bytes long, with the payload riding a flat shared-memory segment.
Query replies deliberately stay pickled lists — pickle encodes small
ints in ~3 bytes where an ``int64`` blob spends 8, so the list *is*
the compact wire form, and that is asserted here too.  Both halves
of the ledger are what the latency-off E14a fix is made of.  (c) A
``count_by`` fold counts every group leaf against one hashed
predicate answer: on one shard of the E21 dashboard's shape, the
many-count twin runs >= 3x faster than one ``intersect_aware_count``
per group leaf on the same fast kernel, with identical counts.
"""

import pickle
from array import array

import pytest

from repro.bench import best_of, standard_string
from repro.bits import kernels, ops
from repro.bits.wah import WahBitmap
from repro.cluster.executor import _pack_codes_flat, _pack_delta_batch

N = 1 << 15
SIGMA = 32
REQUIRED_DECODE_SPEEDUP = 3.0


@pytest.fixture(scope="module")
def value_bitmaps():
    """One WAH bitmap per value of a zipf column: density ~1/sigma."""
    data = standard_string("zipf", N, SIGMA, seed=181, theta=1.1)
    by_value = {v: [] for v in range(SIGMA)}
    for pos, v in enumerate(data):
        by_value[v].append(pos)
    return [
        WahBitmap.from_positions(positions, N)
        for positions in by_value.values()
        if positions
    ]


def test_e18a_wah_decode_rate(value_bitmaps, report, benchmark):
    words = [bm.words for bm in value_bitmaps]

    def decode_fast():
        return [kernels.wah_decode(w, N) for w in words]

    def decode_reference():
        return [list(bm.iter_positions()) for bm in value_bitmaps]

    assert decode_fast() == decode_reference()  # exact-output first
    fast_s, _ = best_of(decode_fast, repeats=5)
    ref_s, _ = best_of(decode_reference, repeats=5)
    total_bits = N * len(words)
    fast_rate = total_bits / max(fast_s, 1e-9)
    ref_rate = total_bits / max(ref_s, 1e-9)
    speedup = ref_s / max(fast_s, 1e-9)
    assert speedup >= REQUIRED_DECODE_SPEEDUP, (
        f"fast WAH decode {speedup:.2f}x the reference "
        f"(need >= {REQUIRED_DECODE_SPEEDUP}x on per-value bitmaps)"
    )
    report.table(
        f"E18a  WAH decode rate: {len(words)} per-value bitmaps, "
        f"universe {N} bits each (zipf column, sigma={SIGMA})",
        ["kernel", "seconds", "bits decoded / s", "speedup"],
        [
            ["python (reference)", f"{ref_s:.4f}", f"{ref_rate:,.0f}", "1.00x"],
            ["fast", f"{fast_s:.4f}", f"{fast_rate:,.0f}", f"{speedup:.2f}x"],
        ],
        note=f"identical decoded positions asserted before timing; "
        f">= {REQUIRED_DECODE_SPEEDUP}x asserted.  Per-value bitmaps "
        "(density ~1/sigma) are what the index actually decodes on "
        "every range query.",
    )
    benchmark(decode_fast)


def test_e18b_transport_bytes_per_op(report, benchmark):
    """Pipe bytes vs shared-memory bytes for each bulk wire form."""
    codes = [(7 * i) % SIGMA for i in range(4096)]
    build_payload = (
        16, 0.0,
        [("c", codes, SIGMA, "fully_dynamic", 0.1, True, False,
          "fully-dynamic")],
    )
    deltas = [("append", "c", i % SIGMA) for i in range(64)]
    positions = list(range(0, N, 7))

    rows = []
    # Build: the old wire form pickles every code onto the pipe; the
    # new one ships a name-and-counts control message plus one flat
    # int64 segment.
    old_build = len(pickle.dumps(("build", 1, build_payload)))
    packed_codes, _metas = _pack_codes_flat(build_payload[2])
    meta_message = (
        "build_shm", 1, "psm_x" * 3, 16, 0.0,
        [("c", len(codes), SIGMA, "fully_dynamic", 0.1, True, False,
          "fully-dynamic")],
    )
    rows.append([
        "build (4096 codes)", f"{old_build:,}",
        f"{len(pickle.dumps(meta_message)):,}",
        f"{len(packed_codes) * packed_codes.itemsize:,}",
    ])
    # Delta batch: 64 coalesced appends.
    old_batch = len(pickle.dumps(("delta_batch", 1, deltas)))
    names, packed = _pack_delta_batch(deltas)
    batch_message = ("delta_batch_shm", 1, "psm_x" * 3, len(deltas), names)
    rows.append([
        "delta batch (64)", f"{old_batch:,}",
        f"{len(pickle.dumps(batch_message)):,}",
        f"{len(packed) * packed.itemsize:,}",
    ])
    # Query reply: the list-of-int pickle is *kept* — pickle packs
    # ints below 2**16 in ~3 bytes, so an int64 blob of the same
    # positions is larger on the wire, not smaller.
    list_reply = len(pickle.dumps(positions))
    blob_reply = len(pickle.dumps(array("q", positions)))
    rows.append([
        f"query reply ({len(positions)} RIDs)", f"{list_reply:,}",
        f"{list_reply:,} (int64 blob would be {blob_reply:,})", "0",
    ])
    assert len(pickle.dumps(meta_message)) < old_build // 50
    assert len(pickle.dumps(batch_message)) < old_batch // 2
    assert list_reply < blob_reply  # the kept form is the compact one
    report.table(
        "E18b  wire bytes per bulk operation: pickled-pipe (old) vs "
        "control message + shared-memory segment (new)",
        ["operation", "old pipe bytes", "new pipe bytes", "shm bytes"],
        rows,
        note="asserted: the build control message is > 50x smaller "
        "than the pickled build, the batch control message is > 2x "
        "smaller than the pickled batch, and the pickled-list reply "
        "beats an int64 blob of the same positions (why replies stay "
        "on the pipe).  Segment bytes move as flat int64 buffer "
        "copies, never through pickle.",
    )
    benchmark(lambda: _pack_delta_batch(deltas))


#: E18c's shard: E21 dashboard's 60k rows over 8 shards, its 64 region
#: codes, and a predicate holding its ``status=0`` share of the rows.
SHARD_ROWS = 7_500
GROUP_LEAVES = 64
PRED_SHARE = 0.41
REQUIRED_MANY_COUNT_SPEEDUP = 3.0


def test_e18c_count_by_many_count(report):
    import random

    rng = random.Random(1823)
    region = [rng.randrange(GROUP_LEAVES) for _ in range(SHARD_ROWS)]
    stored = [p for p in range(SHARD_ROWS) if rng.random() < PRED_SHARE]
    leaves = {code: [] for code in range(GROUP_LEAVES)}
    for pos, code in enumerate(region):
        leaves[code].append(pos)
    groups = [(leaves[code], False) for code in range(GROUP_LEAVES)]

    def many_count():
        return kernels.intersect_aware_count_many(
            stored, False, groups, SHARD_ROWS
        )

    def per_leaf():
        return [
            ops.intersect_aware_count(stored, False, g, g_comp, SHARD_ROWS)
            for g, g_comp in groups
        ]

    before = kernels.kernel_name()
    try:
        kernels.set_kernel("python")
        reference = per_leaf()
        kernels.set_kernel("fast")
        assert many_count() == reference  # exact-output first
        assert per_leaf() == reference
        fast_s, _ = best_of(many_count, repeats=7)
        loop_s, _ = best_of(per_leaf, repeats=7)
    finally:
        kernels.set_kernel(before)
    speedup = loop_s / max(fast_s, 1e-9)
    assert speedup >= REQUIRED_MANY_COUNT_SPEEDUP, (
        f"many-count {speedup:.2f}x the per-leaf loop "
        f"(need >= {REQUIRED_MANY_COUNT_SPEEDUP}x)"
    )
    report.table(
        f"E18c  count_by fold on one shard: {SHARD_ROWS} rows, "
        f"{GROUP_LEAVES} group leaves, predicate holding "
        f"{len(stored)} rows ({len(stored) / SHARD_ROWS:.0%})",
        ["counting (fast kernel)", "seconds", "speedup"],
        [
            ["one intersect_aware_count per leaf", f"{loop_s:.5f}", "1.00x"],
            ["intersect_aware_count_many", f"{fast_s:.5f}",
             f"{speedup:.2f}x"],
        ],
        note="counts asserted equal to the pure-Python per-leaf loop "
        f"before timing; >= {REQUIRED_MANY_COUNT_SPEEDUP}x asserted.  "
        "The per-leaf loop hashes one operand per call; the many-count "
        "hashes the predicate answer once: O(z + sum |leaf|).",
    )
