"""Universal differential conformance: every registry backend vs the oracle.

One parametrized harness runs *every* index listed in
``repro.engine.registry`` against the brute-force oracle on randomized
workloads — uniform, Zipf, runs-heavy, degenerate alphabets (sigma=1,
sigma=2) — and on the structural edge queries: empty ranges, the
full-universe range, and complement-threshold answers with ``z > n/2``
(§2.1's trick).  A backend registered tomorrow gets this coverage for
free; a backend that diverges from the oracle anywhere fails here
before any engine test can be misled by it.

The same corpus is additionally driven *through* the sharded serving
layer: every backend, pinned under a :class:`repro.cluster.\
ShardedTable` at 1, 2, and 7 shards, must produce RID sets identical
to the single-engine :class:`repro.queries.Table` and the oracle —
the scatter/offset-translate/merge path buys no slack on exactness.

Finally the *shard lifecycle* gets the same treatment: every backend
runs under a ShardedTable sized by a small ``target_shard_rows`` so
that shards split mid-suite — auto-splits under appends for backends
that serve them, explicit splits of the fattest shard for static
ones — and the post-split answers must again match the oracle and a
single-engine table over the identical final data.
"""

import random
import zlib

import pytest

from repro.cluster import ShardedTable
from repro.engine import QueryEngine, all_specs
from repro.model.alphabet import Alphabet
from repro.model.distributions import markov_runs, uniform, zipf
from repro.queries import Table
from repro.query import Range, translate

from tests.conftest import (
    brute_range,
    pred_oracle,
    random_pred,
    random_ranges,
)

N = 400

WORKLOADS = [
    ("uniform", lambda: uniform(N, 32, seed=11), 32),
    ("zipf", lambda: zipf(N, 32, theta=1.2, seed=12), 32),
    ("runs_heavy", lambda: markov_runs(N, 16, stay=0.95, seed=13), 16),
    ("sigma_1", lambda: [0] * N, 1),
    ("sigma_2", lambda: uniform(N, 2, seed=14), 2),
]

SPECS = all_specs()


def spec_id(spec):
    return spec.name


@pytest.fixture(scope="module")
def built_indexes():
    """Every (spec, workload) pair built once for the whole module."""
    cache = {}
    for wname, gen, sigma in WORKLOADS:
        x = gen()
        for spec in SPECS:
            cache[(spec.name, wname)] = (x, sigma, spec.build(x, sigma))
    return cache


@pytest.mark.parametrize("spec", SPECS, ids=spec_id)
@pytest.mark.parametrize("wname", [w[0] for w in WORKLOADS])
class TestConformance:
    def test_random_ranges_match_oracle(self, built_indexes, spec, wname):
        x, sigma, idx = built_indexes[(spec.name, wname)]
        rng = random.Random(zlib.crc32(f"{spec.name}:{wname}".encode()))
        for lo, hi in random_ranges(rng, sigma, 12):
            expected = brute_range(x, lo, hi)
            result = idx.range_query(lo, hi)
            assert result.positions() == expected, (
                f"{spec.name} on {wname}: [{lo},{hi}]"
            )
            assert result.cardinality == len(expected)

    def test_full_universe_range(self, built_indexes, spec, wname):
        x, sigma, idx = built_indexes[(spec.name, wname)]
        result = idx.range_query(0, sigma - 1)
        assert result.positions() == list(range(len(x)))
        assert result.cardinality == len(x)

    def test_empty_answer_ranges(self, built_indexes, spec, wname):
        x, sigma, idx = built_indexes[(spec.name, wname)]
        # A character that never occurs yields an empty exact answer.
        missing = [c for c in range(sigma) if c not in set(x)]
        if not missing:
            pytest.skip("every character occurs in this workload")
        c = missing[0]
        result = idx.range_query(c, c)
        assert result.positions() == []
        assert result.cardinality == 0

    def test_complement_threshold_answers(self, built_indexes, spec, wname):
        # Ranges whose z exceeds n/2: structures using §2.1's complement
        # trick must still report exactly the oracle's positions.
        x, sigma, idx = built_indexes[(spec.name, wname)]
        n = len(x)
        hits = []
        for lo in range(sigma):
            for hi in range(lo, sigma):
                z = len(brute_range(x, lo, hi))
                if z > n // 2 and z < n:
                    hits.append((lo, hi))
        if not hits:
            pytest.skip("no strict majority range in this workload")
        for lo, hi in hits[:8]:
            expected = brute_range(x, lo, hi)
            result = idx.range_query(lo, hi)
            assert result.positions() == expected
            assert result.cardinality == len(expected) > n // 2
            # The membership view must agree with the materialized one.
            probe = random.Random(lo * 31 + hi).sample(range(n), min(20, n))
            member = set(expected)
            for p in probe:
                assert (p in result) == (p in member)


SHARD_COUNTS = [1, 2, 7]


@pytest.fixture(scope="module")
def sharded_tables():
    """Every (spec, workload) pair as one single-engine table plus a
    pinned ShardedTable per shard count (and one pinned QueryEngine
    for the code-space differential), built once for the module."""
    cache = {}
    for wname, gen, sigma in WORKLOADS:
        x = gen()
        for spec in SPECS:
            single = Table({"c": x}, factory=spec.build)
            sharded = {
                k: ShardedTable({"c": x}, num_shards=k, backend=spec.name)
                for k in SHARD_COUNTS
            }
            # The pinned engine indexes dictionary codes (like Table
            # does) so value-space predicates translate onto it.
            alphabet = Alphabet(x)
            engine = QueryEngine()
            engine.add_column(
                "c", alphabet.encode(x), alphabet.sigma, backend=spec.name
            )
            cache[(spec.name, wname)] = (x, sigma, single, sharded, engine)
    return cache


@pytest.mark.parametrize("num_shards", SHARD_COUNTS)
@pytest.mark.parametrize("spec", SPECS, ids=spec_id)
@pytest.mark.parametrize("wname", [w[0] for w in WORKLOADS])
class TestShardedConformance:
    """The registry contract holds through scatter-gather serving."""

    def test_sharded_select_matches_table_and_oracle(
        self, sharded_tables, spec, wname, num_shards
    ):
        x, sigma, single, sharded, _ = sharded_tables[(spec.name, wname)]
        table = sharded[num_shards]
        rng = random.Random(
            zlib.crc32(f"shard:{spec.name}:{wname}:{num_shards}".encode())
        )
        for lo, hi in random_ranges(rng, sigma, 6):
            expected = brute_range(x, lo, hi)
            got = table.select(Range("c", lo, hi))
            assert got == expected, (
                f"{spec.name} on {wname} at {num_shards} shards: [{lo},{hi}]"
            )
            assert got == single.select(Range("c", lo, hi))

    def test_sharded_majority_answers(
        self, sharded_tables, spec, wname, num_shards
    ):
        # Complement-represented per-shard answers (z > n/2 locally)
        # must offset-translate and merge exactly like any other.
        x, sigma, single, sharded, _ = sharded_tables[(spec.name, wname)]
        table = sharded[num_shards]
        n = len(x)
        hits = [
            (lo, hi)
            for lo in range(sigma)
            for hi in range(lo, sigma)
            if n > len(brute_range(x, lo, hi)) > n // 2
        ]
        if not hits:
            pytest.skip("no strict majority range in this workload")
        for lo, hi in hits[:8]:
            assert table.select(Range("c", lo, hi)) == brute_range(x, lo, hi)

    def test_random_predicate_asts_match_oracle(
        self, sharded_tables, spec, wname, num_shards
    ):
        """The acceptance workload: random Range/Eq/In/And/Or/Not ASTs
        (depth <= 4) bit-identical across the brute oracle, a pinned
        QueryEngine, the factory-built Table, and the ShardedTable —
        materialized and streamed."""
        x, sigma, single, sharded, engine = sharded_tables[
            (spec.name, wname)
        ]
        table = sharded[num_shards]
        alphabet = Alphabet(x)
        columns = {"c": alphabet.values()}
        rng = random.Random(
            zlib.crc32(f"ast:{spec.name}:{wname}:{num_shards}".encode())
        )
        for i in range(6):
            pred = random_pred(rng, columns, depth=4)
            expected = pred_oracle(pred, {"c": x})
            got = table.select(pred)
            assert got == expected, (
                f"{spec.name} on {wname} at {num_shards} shard(s), "
                f"AST #{i}: {pred!r}"
            )
            assert list(table.select_iter(pred)) == expected
            assert single.select(pred) == expected
            code_pred = translate(pred, lambda _name: alphabet)
            assert engine.select(code_pred) == expected
            assert list(engine.select_iter(code_pred)) == expected

    def test_aggregates_match_oracle(
        self, sharded_tables, spec, wname, num_shards
    ):
        """count/exists/count_by agree with the brute oracle through
        every backend and shard count — the cardinality-space folds
        buy no slack over materialize-then-count."""
        from collections import Counter

        x, sigma, single, sharded, _ = sharded_tables[(spec.name, wname)]
        table = sharded[num_shards]
        alphabet = Alphabet(x)
        columns = {"c": alphabet.values()}
        rng = random.Random(
            zlib.crc32(f"agg:{spec.name}:{wname}:{num_shards}".encode())
        )
        for i in range(4):
            pred = random_pred(rng, columns, depth=3)
            expected = pred_oracle(pred, {"c": x})
            want_by = dict(Counter(x[rid] for rid in expected))
            assert table.count(pred) == len(expected), (
                f"{spec.name} on {wname} at {num_shards} shard(s), "
                f"AST #{i}: {pred!r}"
            )
            assert table.exists(pred) == bool(expected)
            assert table.count_by("c", pred) == want_by
            assert single.count(pred) == len(expected)
            assert single.count_by("c", pred) == want_by


LIFECYCLE_TARGET = 48
LIFECYCLE_WORKLOADS = ["uniform", "runs_heavy", "sigma_2"]


@pytest.fixture(scope="module")
def lifecycle_tables():
    """Every backend under a ShardedTable with the auto lifecycle on.

    Backends that serve appends grow 80 rows past the target (several
    auto-splits fire mid-build); static-only backends get the fattest
    shard split explicitly, twice.  Either way every backend's shards
    pass through the split rebuild path before any query runs.
    """
    by_name = {w[0]: w for w in WORKLOADS}
    cache = {}
    for wname in LIFECYCLE_WORKLOADS:
        _, gen, sigma = by_name[wname]
        x = gen()
        for spec in SPECS:
            appendable = spec.serves("semidynamic")
            table = ShardedTable(
                {"c": list(x)},
                target_shard_rows=LIFECYCLE_TARGET,
                backend=spec.name,
                dynamism="semidynamic" if appendable else "static",
                drift_window=None,
            )
            model = list(x)
            if appendable:
                for i in range(80):
                    value = x[(7 * i) % len(x)]
                    table.append_row({"c": value})
                    model.append(value)
            else:
                for _ in range(2):
                    lengths = table.cluster.shard_lengths("c")
                    fattest = max(
                        range(len(lengths)), key=lengths.__getitem__
                    )
                    table.cluster.split_shard(fattest)
            cache[(spec.name, wname)] = (model, sigma, appendable, table)
    return cache


@pytest.mark.parametrize("spec", SPECS, ids=spec_id)
@pytest.mark.parametrize("wname", LIFECYCLE_WORKLOADS)
class TestLifecycleConformance:
    """The registry contract survives shard splits and regrowth."""

    def test_splits_fired_and_answers_match_oracle(
        self, lifecycle_tables, spec, wname
    ):
        model, sigma, appendable, table = lifecycle_tables[
            (spec.name, wname)
        ]
        cluster = table.cluster
        if appendable:
            assert cluster.splits, (
                f"{spec.name} on {wname}: appends past "
                f"{LIFECYCLE_TARGET} rows must have split"
            )
            assert max(cluster.shard_lengths("c")) <= LIFECYCLE_TARGET
        else:
            assert len(cluster.splits) == 2
        assert sum(cluster.shard_lengths("c")) == len(model)
        single = Table({"c": model}, factory=spec.build)
        rng = random.Random(
            zlib.crc32(f"lifecycle:{spec.name}:{wname}".encode())
        )
        for lo, hi in random_ranges(rng, sigma, 6):
            expected = brute_range(model, lo, hi)
            got = table.select(Range("c", lo, hi))
            assert got == expected, (
                f"{spec.name} on {wname} post-lifecycle: [{lo},{hi}]"
            )
            assert got == single.select(Range("c", lo, hi))
            assert list(table.select_iter(Range("c", lo, hi))) == expected


@pytest.mark.parametrize("spec", SPECS, ids=spec_id)
def test_space_reported(spec):
    """Registry contract: every backend reports a space breakdown."""
    x = uniform(128, 8, seed=5)
    idx = spec.build(x, 8)
    space = idx.space()
    assert space.total_bits > 0
    assert space.payload_bits >= 0 and space.directory_bits >= 0


@pytest.mark.parametrize("spec", SPECS, ids=spec_id)
def test_invalid_ranges_rejected(spec):
    from repro.errors import QueryError

    x = uniform(64, 8, seed=6)
    idx = spec.build(x, 8)
    for lo, hi in [(-1, 3), (2, 8), (5, 4)]:
        with pytest.raises(QueryError):
            idx.range_query(lo, hi)


@pytest.fixture(scope="module")
def process_pool():
    """One worker pool shared by every process-conformance table."""
    from repro.cluster import ProcessExecutor

    with ProcessExecutor(max_workers=2) as pool:
        yield pool


PROCESS_WORKLOADS = ["zipf", "sigma_2"]


@pytest.fixture(scope="module")
def process_tables(process_pool):
    """Every backend served serial and process-resident, built once.

    Each pinned backend runs through a ShardedTable twice — serial
    executor and worker-resident ProcessExecutor — over the same
    data, so the pair can be compared result for result and transfer
    for transfer.
    """
    by_name = {w[0]: w for w in WORKLOADS}
    cache = {}
    for wname in PROCESS_WORKLOADS:
        _, gen, sigma = by_name[wname]
        x = gen()
        for spec in SPECS:
            serial = ShardedTable({"c": x}, num_shards=2, backend=spec.name)
            resident = ShardedTable(
                {"c": x}, num_shards=2, backend=spec.name,
                executor=process_pool,
            )
            cache[(spec.name, wname)] = (x, sigma, serial, resident)
    return cache


@pytest.mark.parametrize("spec", SPECS, ids=spec_id)
@pytest.mark.parametrize("wname", PROCESS_WORKLOADS)
class TestProcessConformance:
    """The registry contract holds through worker-resident serving.

    The differential claim is total: bit-identical select/query/
    explain output *and* bit-identical aggregated I/O totals — the
    resident replica must be indistinguishable from the serial path
    on every backend.
    """

    def test_process_select_and_io_match_serial(
        self, process_tables, spec, wname
    ):
        x, sigma, serial, resident = process_tables[(spec.name, wname)]
        rng = random.Random(
            zlib.crc32(f"process:{spec.name}:{wname}".encode())
        )
        for lo, hi in random_ranges(rng, sigma, 6):
            expected = brute_range(x, lo, hi)
            got = resident.select(Range("c", lo, hi))
            assert got == expected, (
                f"{spec.name} on {wname} resident: [{lo},{hi}]"
            )
            assert got == serial.select(Range("c", lo, hi))
            # Code-space comparison goes through the shared alphabet
            # (cluster queries speak dense codes, not raw values).
            code_range = serial.column("c").code_range(lo, hi)
            if code_range is None:
                continue
            assert (
                resident.cluster.query("c", *code_range).positions()
                == serial.cluster.query("c", *code_range).positions()
            )
            assert resident.cluster.explain(
                "c", *code_range
            ) == serial.cluster.explain("c", *code_range)
        assert (
            resident.cluster.scatter_io.snapshot()
            == serial.cluster.scatter_io.snapshot()
        )

    def test_process_streamed_gather_matches(
        self, process_tables, spec, wname
    ):
        x, sigma, serial, resident = process_tables[(spec.name, wname)]
        lo, hi = 0, sigma - 1
        assert list(resident.select_iter(Range("c", lo, hi))) == list(
            serial.select_iter(Range("c", lo, hi))
        ) == list(range(len(x)))

    def test_random_predicate_asts_match_serial(
        self, process_tables, spec, wname
    ):
        """Random ASTs served by worker-resident replicas are
        bit-identical to the serial cluster and the brute oracle —
        results *and* aggregated I/O (the batched compiled-leaf fetch
        op buys no slack on accounting)."""
        x, sigma, serial, resident = process_tables[(spec.name, wname)]
        columns = {"c": sorted(set(x))}
        rng = random.Random(
            zlib.crc32(f"ast-proc:{spec.name}:{wname}".encode())
        )
        for i in range(5):
            pred = random_pred(rng, columns, depth=4)
            expected = pred_oracle(pred, {"c": x})
            got = resident.select(pred)
            assert got == expected, (
                f"{spec.name} on {wname} resident, AST #{i}: {pred!r}"
            )
            assert serial.select(pred) == expected
            assert list(resident.select_iter(pred)) == expected
            # The batch-scatter path (worker 'leaves' op) must agree
            # with the streamed one and with the serial cluster.
            code_pred = translate(
                pred, lambda _n, a=serial.column("c").alphabet: a
            )
            assert (
                resident.cluster.query(code_pred).positions()
                == serial.cluster.query(code_pred).positions()
                == expected
            )
        assert (
            resident.cluster.scatter_io.snapshot()
            == serial.cluster.scatter_io.snapshot()
        )

    def test_resident_aggregates_match_serial_without_rid_gather(
        self, process_tables, spec, wname
    ):
        """Aggregates pushed down to worker residents return oracle
        answers while the coordinator gathers zero positions — the
        fold replies carry counts, never row-id lists."""
        from collections import Counter

        x, sigma, serial, resident = process_tables[(spec.name, wname)]
        columns = {"c": sorted(set(x))}
        rng = random.Random(
            zlib.crc32(f"agg-proc:{spec.name}:{wname}".encode())
        )
        rids_before = resident.cluster.gather_rids
        for i in range(4):
            pred = random_pred(rng, columns, depth=3)
            expected = pred_oracle(pred, {"c": x})
            assert resident.count(pred) == len(expected), (
                f"{spec.name} on {wname} resident agg, AST #{i}: {pred!r}"
            )
            assert resident.exists(pred) == bool(expected)
            want_by = dict(Counter(x[rid] for rid in expected))
            assert resident.count_by("c", pred) == want_by
            assert serial.count(pred) == len(expected)
            assert serial.count_by("c", pred) == want_by
        # No gather-side position decode happened on the aggregate
        # path: every scatter reply was an integer or a code->count
        # mapping.
        assert resident.cluster.gather_rids == rids_before


# ----------------------------------------------------------------------
# Snapshot persistence: every backend round-trips through the durable
# *.snap format (repro.persist.snapshot) byte-exactly.
# ----------------------------------------------------------------------


@pytest.mark.parametrize("spec", SPECS, ids=spec_id)
@pytest.mark.parametrize("wname", [w[0] for w in WORKLOADS])
class TestSnapshotConformance:
    """Differential: engine answers survive a disk round-trip.

    Two layers per (backend, workload) pair: the raw
    :class:`~repro.iomodel.disk.DiskState` wire form must round-trip
    ``pack``/``unpack`` byte-exactly, and a pinned engine written with
    :func:`repro.persist.write_shard_snapshot` and mmap'd back with
    :func:`repro.persist.load_shard_engine` must answer every probe
    range exactly like the original (and the oracle).
    """

    def _engine(self, spec, wname):
        x, sigma = next(
            (gen(), s) for name, gen, s in WORKLOADS if name == wname
        )
        engine = QueryEngine()
        engine.add_column("c", x, sigma, backend=spec.name)
        return x, sigma, engine

    @staticmethod
    def _disks(engine):
        """The column's disks, discovered exactly as the snapshot
        writer discovers them (identity-lifting pickler walk)."""
        import io

        from repro.persist.snapshot import _SkeletonPickler

        pickler = _SkeletonPickler(io.BytesIO())
        pickler.dump(engine.column("c")._index)
        return pickler.disks

    def test_disk_state_pack_unpack_round_trip(self, spec, wname):
        from repro.iomodel.disk import DiskState

        x, sigma, engine = self._engine(spec, wname)
        disks = self._disks(engine)
        assert disks, "every built index owns >= 1 disk"
        for disk in disks:
            state = disk.snapshot_state()
            back = DiskState.unpack(state.pack())
            assert back.block_bits == state.block_bits
            assert back.mem_blocks == state.mem_blocks
            assert back.alloc_bits == state.alloc_bits
            assert back.latency_s == state.latency_s
            assert bytes(back.data) == bytes(state.data)

    def test_snapshot_answers_match_original(self, tmp_path, spec, wname):
        from repro.persist import load_shard_engine, write_shard_snapshot

        x, sigma, engine = self._engine(spec, wname)
        path = str(tmp_path / "shard.snap")
        manifest = write_shard_snapshot(path, engine)
        (entry,) = manifest["columns"]
        assert entry["backend"] == spec.name
        restored = load_shard_engine(path)
        rng = random.Random(
            zlib.crc32(f"snap:{spec.name}:{wname}".encode())
        )
        for lo, hi in random_ranges(rng, sigma, 8):
            expected = brute_range(x, lo, hi)
            assert engine.query("c", lo, hi).positions() == expected
            assert restored.query("c", lo, hi).positions() == expected

    def test_snapshot_disk_pages_byte_exact(self, tmp_path, spec, wname):
        """The section bytes ARE the device pages: loading must not
        re-derive or re-encode anything."""
        from repro.persist import SnapshotFile, write_shard_snapshot

        x, sigma, engine = self._engine(spec, wname)
        path = str(tmp_path / "shard.snap")
        write_shard_snapshot(path, engine)
        states = [disk.snapshot_state() for disk in self._disks(engine)]
        snap = SnapshotFile(path)
        try:
            (entry,) = snap.manifest["columns"]
            assert len(entry["disks"]) == len(states)
            for meta, state in zip(entry["disks"], states):
                assert meta["block_bits"] == state.block_bits
                assert meta["alloc_bits"] == state.alloc_bits
                stored = bytes(snap.section(meta["data"]))
                assert stored == bytes(state.data)
        finally:
            snap.close()


# ----------------------------------------------------------------------
# Never-seen codes: appends of codes the last build did not see
# ----------------------------------------------------------------------

APPEND_SPECS = [s for s in SPECS if s.serves("semidynamic")]
NEVER_SEEN_N0 = 128
NEVER_SEEN_SIGMA = 64


def never_seen_stream(seed):
    """A string over the even codes, then appends that bring odd codes.

    Three phases of appends, returned separately:

    1. every 8th append is a new odd code and every 8th (offset 4) a
       repeat of one, until ``lg n + 3`` new codes have come: past the
       appendable backends' cap on provisional leaves, with the last
       codes still provisional at the end;
    2. even codes and odd repeats until the string has more than
       doubled since phase 1 ended, which forces a growth rebuild;
    3. three more new odd codes with repeats, left pending.
    """
    rng = random.Random(seed)

    def even():
        return 2 * rng.randrange(NEVER_SEEN_SIGMA // 2)

    x0 = [even() for _ in range(NEVER_SEEN_N0)]
    odd = list(range(1, NEVER_SEEN_SIGMA, 2))
    rng.shuffle(odd)
    fresh = iter(odd)
    seen: list[int] = []

    def new_code():
        seen.append(next(fresh))
        return seen[-1]

    phase1 = []
    for i in range(8 * (NEVER_SEEN_N0.bit_length() + 3)):
        if i % 8 == 0:
            phase1.append(new_code())
        elif i % 8 == 4:
            phase1.append(rng.choice(seen))
        else:
            phase1.append(even())
    n1 = NEVER_SEEN_N0 + len(phase1)
    phase2 = [
        rng.choice(seen) if rng.random() < 0.25 else even()
        for _ in range(n1 + 1)
    ]
    phase3 = []
    for i in range(24):
        phase3.append(new_code() if i % 8 == 0 else rng.choice(seen))
    return x0, phase1, phase2, phase3


@pytest.mark.parametrize("spec", APPEND_SPECS, ids=spec_id)
class TestNeverSeenCodeConformance:
    """Every append-capable backend vs the oracle on never-seen codes.

    The appendable backends hold such codes in provisional leaves
    until a rebuild folds them into the tree; the fully dynamic ones
    rebuild at once.  Either way every answer, count and complement
    answer must be the oracle's, also after a snapshot round trip
    taken while provisional leaves are pending.
    """

    @staticmethod
    def _check(engine, x, rng):
        idx = engine.column("c")._index
        sigma = NEVER_SEEN_SIGMA
        n = len(x)
        assert idx.n == n
        # Complement-threshold ranges (z > n/2), each leaving out some
        # odd codes and keeping others.
        majority = [(0, sigma - 2), (1, sigma - 1), (3, sigma - 4)]
        assert all(len(brute_range(x, lo, hi)) > n // 2 for lo, hi in majority)
        for lo, hi in random_ranges(rng, sigma, 10) + majority:
            expected = brute_range(x, lo, hi)
            result = idx.range_query(lo, hi)
            assert result.positions() == expected, (lo, hi)
            assert result.cardinality == len(expected)
            assert idx.count_range(lo, hi) == len(expected), (lo, hi)
            assert engine.query("c", lo, hi).positions() == expected

    def test_never_seen_codes_match_oracle(self, tmp_path, spec):
        from repro.persist import load_shard_engine, write_shard_snapshot

        seed = zlib.crc32(f"never-seen:{spec.name}".encode())
        x0, phase1, phase2, phase3 = never_seen_stream(seed)
        rng = random.Random(seed)
        engine = QueryEngine()
        engine.add_column(
            "c", x0, NEVER_SEEN_SIGMA, dynamism="semidynamic",
            backend=spec.name,
        )
        x = list(x0)
        provisional = hasattr(engine.column("c")._index, "provisional_leaves")
        for i, ch in enumerate(phase1):
            engine.append("c", ch)
            x.append(ch)
            if i % 16 == 15:
                self._check(engine, x, rng)
        idx = engine.column("c")._index
        if provisional:
            # The cap folded once; the codes after the fold are pending.
            assert idx.rebuilds == 1
            assert idx.provisional_leaves > 0
        self._check(engine, x, rng)

        path = str(tmp_path / "shard.snap")
        write_shard_snapshot(path, engine)
        engine = load_shard_engine(path)
        if provisional:
            assert engine.column("c")._index.provisional_leaves > 0
        self._check(engine, x, rng)

        for phase in (phase2, phase3):
            for ch in phase:
                engine.append("c", ch)
                x.append(ch)
            self._check(engine, x, rng)
        if provisional:
            idx = engine.column("c")._index
            # Phase 2 doubled the string: one growth rebuild folded the
            # pending leaves; phase 3's codes stay under the cap.
            assert idx.rebuilds == 2
            assert idx.provisional_leaves == 3
