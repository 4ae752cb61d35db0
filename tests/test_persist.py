"""The durable persistence tier: snapshots, WAL, crash-safe restart.

Three layers of guarantees, each tested differentially against a live
twin of the same cluster:

* **formats** — the ``*.snap`` snapshot and the CRC-framed WAL round
  trip byte-exactly, and *every* injected corruption is either healed
  (a torn tail, the one legal crash artifact) or loudly typed
  (:class:`~repro.errors.CorruptSnapshot` /
  :class:`~repro.errors.CorruptWAL`) — never a silently wrong answer;
* **recovery** — checkpoint + WAL replay reproduces the exact answers,
  shard plan, backend verdicts and epochs of the cluster that died,
  under both the serial and the process executor;
* **policy** — the background :class:`~repro.persist.Checkpointer`
  fires on its mutation/byte thresholds and rotation keeps the log
  bounded.

The crash-injection helpers (:func:`flip_byte`,
:func:`truncate_file`) are deliberately dumb — they model what disks
and crashes actually do to files, a byte at a time.
"""

import json
import os
import random
import struct
import time
import zlib

import pytest

from repro.cluster import ClusterEngine, ProcessExecutor
from repro.engine import QueryEngine
from repro.errors import (
    CorruptSnapshot,
    CorruptWAL,
    InvalidParameterError,
    PersistenceError,
)
from repro.persist import (
    CheckpointPolicy,
    Checkpointer,
    DeltaLog,
    SnapshotFile,
    checkpoint_cluster,
    current_manifest,
    flatten_codes,
    init_persistence,
    load_shard_engine,
    read_current,
    read_manifest,
    restore_cluster,
    unflatten_codes,
    wal_segments,
    write_manifest,
    write_shard_snapshot,
)
from repro.persist.checkpoint import WAL_DIRNAME
from repro.queries import Table
from repro.query import Range


# ----------------------------------------------------------------------
# Crash injection helpers
# ----------------------------------------------------------------------


def flip_byte(path, offset):
    """Corrupt one byte in place — the classic bit-rot injection."""
    with open(path, "r+b") as fh:
        fh.seek(offset)
        byte = fh.read(1)
        fh.seek(offset)
        fh.write(bytes([byte[0] ^ 0xFF]))


def truncate_file(path, keep):
    """Chop a file mid-write — what a crash during append leaves."""
    with open(path, "r+b") as fh:
        fh.truncate(keep)


def _wal_files(directory):
    wal_dir = os.path.join(directory, WAL_DIRNAME)
    return [os.path.join(wal_dir, name) for name in wal_segments(wal_dir)]


# ----------------------------------------------------------------------
# Codes flattening
# ----------------------------------------------------------------------


class TestCodesRoundTrip:
    def test_flatten_unflatten_with_holes(self):
        codes = [3, None, 0, 7, None, 2]
        assert unflatten_codes(flatten_codes(codes)) == codes

    def test_flatten_empty(self):
        assert unflatten_codes(flatten_codes([])) == []


# ----------------------------------------------------------------------
# Snapshot format
# ----------------------------------------------------------------------


def _build_engine(seed=5, n=600, sigma=32, backend=None):
    rng = random.Random(seed)
    x = [rng.randrange(sigma) for _ in range(n)]
    engine = QueryEngine()
    engine.add_column("c", x, sigma, backend=backend)
    return x, engine


class TestSnapshot:
    def test_round_trip_answers(self, tmp_path):
        x, engine = _build_engine(backend="pagh-rao")
        path = str(tmp_path / "a.snap")
        manifest = write_shard_snapshot(path, engine)
        assert manifest["kind"] == "shard-engine"
        restored = load_shard_engine(path)
        for lo, hi in [(0, 3), (5, 20), (0, 31)]:
            assert (
                restored.query("c", lo, hi).positions()
                == engine.query("c", lo, hi).positions()
            )

    def test_write_is_atomic_no_tmp_left(self, tmp_path):
        _, engine = _build_engine()
        path = str(tmp_path / "a.snap")
        write_shard_snapshot(path, engine)
        assert os.listdir(tmp_path) == ["a.snap"]

    def test_every_byte_flip_is_detected(self, tmp_path):
        """Fuzz: any single corrupted byte raises CorruptSnapshot, on
        open or on the full-file verify — never a silent pass."""
        _, engine = _build_engine(n=120, sigma=8, backend="bitmap-plain")
        path = str(tmp_path / "a.snap")
        write_shard_snapshot(path, engine)
        size = os.path.getsize(path)
        rng = random.Random(99)
        offsets = {0, 4, size - 1, size // 2} | {
            rng.randrange(size) for _ in range(24)
        }
        for offset in offsets:
            flip_byte(path, offset)
            try:
                with pytest.raises(CorruptSnapshot):
                    snap = SnapshotFile(path)
                    snap.verify()
                    snap.close()
            finally:
                flip_byte(path, offset)  # restore for the next probe
        # And the restored original still verifies.
        snap = SnapshotFile(path)
        snap.verify()
        snap.close()

    def test_truncated_snapshot_raises(self, tmp_path):
        _, engine = _build_engine(n=100, sigma=8)
        path = str(tmp_path / "a.snap")
        write_shard_snapshot(path, engine)
        truncate_file(path, os.path.getsize(path) // 2)
        with pytest.raises(CorruptSnapshot):
            SnapshotFile(path)

    def test_deferred_column_persists_codes_only(self, tmp_path):
        x, engine = _build_engine()
        path = str(tmp_path / "a.snap")
        write_shard_snapshot(path, engine)
        snap = SnapshotFile(path)
        (entry,) = snap.manifest["columns"]
        assert entry["skeleton"] is not None
        snap.close()
        restored = load_shard_engine(path, defer=True)
        column = restored.column("c")
        assert column.deferred
        assert column.codes == x


# ----------------------------------------------------------------------
# Write-ahead log
# ----------------------------------------------------------------------


class TestDeltaLog:
    def test_append_reopen_round_trip(self, tmp_path):
        d = str(tmp_path)
        log, records = DeltaLog.open(d)
        assert records == []
        wrote = [("append", "c", i) for i in range(25)]
        for record in wrote:
            log.append(record)
        assert log.last_seq == 25
        log.close()
        log2, records2 = DeltaLog.open(d)
        assert [r for _seq, r in records2] == wrote
        assert [seq for seq, _r in records2] == list(range(1, 26))
        assert log2.last_seq == 25
        log2.append(("change", "c", 0, 1))
        assert log2.last_seq == 26
        log2.close()

    def test_rotation_deletes_old_segments(self, tmp_path):
        d = str(tmp_path)
        log, _ = DeltaLog.open(d)
        for i in range(10):
            log.append(("append", "c", i))
        log.rotate()
        assert len(wal_segments(d)) == 1
        for i in range(3):
            log.append(("append", "c", i))
        log.close()
        _log, records = DeltaLog.open(d)
        _log.close()
        # Only the post-rotation tail survives; sequence numbers
        # continue from before the rotation.
        assert [seq for seq, _r in records] == [11, 12, 13]

    def test_torn_tail_is_truncated_cleanly(self, tmp_path):
        d = str(tmp_path)
        log, _ = DeltaLog.open(d)
        for i in range(8):
            log.append(("append", "c", i))
        log.close()
        (path,) = [os.path.join(d, s) for s in wal_segments(d)]
        size = os.path.getsize(path)
        truncate_file(path, size - 3)  # crash mid final record
        log2, records = DeltaLog.open(d)
        assert len(records) == 7  # the torn record is gone, clean tail
        # The tail is REALLY gone: appends land where it was.
        seq = log2.append(("append", "c", 99))
        assert seq == 8
        log2.close()
        _log, records2 = DeltaLog.open(d)
        _log.close()
        assert [r for _s, r in records2][-1] == ("append", "c", 99)

    def test_torn_final_frame_crc_is_truncated(self, tmp_path):
        """A crash can also leave a full-length frame with garbage
        bytes: corrupting the LAST record is healed as a torn tail."""
        d = str(tmp_path)
        log, _ = DeltaLog.open(d)
        for i in range(5):
            log.append(("append", "c", i))
        log.close()
        path = os.path.join(d, wal_segments(d)[0])
        flip_byte(path, os.path.getsize(path) - 1)
        _log, records = DeltaLog.open(d)
        _log.close()
        assert len(records) == 4

    def test_mid_file_corruption_raises(self, tmp_path):
        d = str(tmp_path)
        log, _ = DeltaLog.open(d)
        offsets = []
        for i in range(6):
            offsets.append(log.segment_bytes)
            log.append(("append", "c", i))
        log.close()
        path = os.path.join(d, wal_segments(d)[0])
        header = struct.calcsize("<4sHHQ")
        # Flip a byte inside record 2's payload — not the final frame,
        # so this is bit rot, not a torn tail: refuse to recover.
        flip_byte(path, header + offsets[2] - offsets[0] + 9)
        with pytest.raises(CorruptWAL):
            DeltaLog.open(d)

    def test_bad_magic_raises(self, tmp_path):
        d = str(tmp_path)
        log, _ = DeltaLog.open(d)
        log.append(("append", "c", 1))
        log.close()
        path = os.path.join(d, wal_segments(d)[0])
        flip_byte(path, 0)
        with pytest.raises(CorruptWAL):
            DeltaLog.open(d)

    def test_sync_modes_validate(self, tmp_path):
        with pytest.raises(InvalidParameterError):
            DeltaLog.open(str(tmp_path), sync="yolo")
        for mode in ("none", "flush", "fsync"):
            log, _ = DeltaLog.open(str(tmp_path / mode), sync=mode)
            log.append(("append", "c", 0))
            log.close()


# ----------------------------------------------------------------------
# Cluster checkpoint / restore
# ----------------------------------------------------------------------


def _drive(cluster, rng, rounds=120):
    """A mixed mutation workload: appends, changes, deletes, DDL."""
    deleted = set()
    for i in range(rounds):
        op = rng.randrange(10)
        if op < 6:
            cluster.append("a", rng.randrange(16))
        elif op < 8:
            cluster.append("b", rng.randrange(40))
        elif op == 8:
            pos = rng.randrange(cluster.total_rows("b"))
            if pos not in deleted:
                cluster.change("b", pos, rng.randrange(40))
        else:
            pos = rng.randrange(cluster.total_rows("b"))
            if pos not in deleted:
                cluster.delete("b", pos)
                deleted.add(pos)


def _answers(cluster):
    return (
        sorted(cluster.query("a", 2, 9).positions()),
        sorted(cluster.query("b", 0, 25).positions()),
        cluster.count(Range("a", 0, 7)),
    )


def _fingerprint(cluster):
    """Control-plane equality: shards, verdicts, pins, epochs."""
    return (
        cluster.num_shards,
        [sorted(e.columns) for e in cluster.shards],
        {
            name: (meta.sigma, meta.dynamism, meta.backend,
                   dict(meta.shard_pins), meta.epoch)
            for name, meta in cluster.columns.items()
        },
    )


@pytest.fixture
def durable_cluster(tmp_path):
    """A live cluster with a baseline checkpoint + attached WAL, plus
    a mirror cluster receiving the identical workload in RAM only."""
    rng = random.Random(17)
    base_a = [rng.randrange(16) for _ in range(900)]
    base_b = [rng.randrange(40) for _ in range(900)]

    def build():
        c = ClusterEngine(target_shard_rows=256)
        c.add_column("a", base_a, dynamism="semidynamic")
        c.add_column("b", base_b, dynamism="fully_dynamic",
                     backend="deletable")
        return c

    cluster = build()
    mirror = build()
    directory = str(tmp_path / "dur")
    init_persistence(cluster, directory)
    yield cluster, mirror, directory, rng.random
    cluster.close()
    mirror.close()


class TestCheckpointRestore:
    def test_restore_replays_wal_to_identical_answers(self, tmp_path):
        rng = random.Random(31)
        cluster = ClusterEngine(target_shard_rows=200)
        cluster.add_column(
            "a", [rng.randrange(16) for _ in range(800)],
            dynamism="semidynamic",
        )
        cluster.add_column(
            "b", [rng.randrange(40) for _ in range(800)],
            dynamism="fully_dynamic", backend="deletable",
        )
        d = str(tmp_path / "dur")
        init_persistence(cluster, d)
        _drive(cluster, rng)
        cluster.migrate("a", backend="buffered-appendable")
        cluster.rebalance()
        expected = _answers(cluster)
        fingerprint = _fingerprint(cluster)
        wal_len = cluster.wal.last_seq
        cluster.close()  # acknowledged writes are on disk; die now

        restored = restore_cluster(d)
        try:
            assert _answers(restored) == expected
            assert _fingerprint(restored) == fingerprint
            assert restored.wal is not None
            assert restored.wal.last_seq == wal_len
        finally:
            restored.close()

    def test_checkpoint_then_restore_skips_replayed_prefix(self, tmp_path):
        rng = random.Random(32)
        cluster = ClusterEngine(target_shard_rows=300)
        cluster.add_column(
            "a", [rng.randrange(16) for _ in range(600)],
            dynamism="semidynamic",
        )
        d = str(tmp_path / "dur")
        init_persistence(cluster, d)
        for _ in range(60):
            cluster.append("a", rng.randrange(16))
        info = checkpoint_cluster(cluster, d)
        assert info.applied_seq == 60
        for _ in range(15):
            cluster.append("a", rng.randrange(16))
        expected = _answers_one(cluster)
        cluster.close()

        restored = restore_cluster(d)
        try:
            # Only the 15 post-checkpoint records replay.
            assert _answers_one(restored) == expected
            assert restored.total_rows("a") == 675
        finally:
            restored.close()

    def test_restore_without_wal_attachment_is_read_only_cold_start(
        self, tmp_path
    ):
        rng = random.Random(33)
        cluster = ClusterEngine(num_shards=3)
        cluster.add_column(
            "a", [rng.randrange(16) for _ in range(300)],
            dynamism="semidynamic",
        )
        d = str(tmp_path / "dur")
        init_persistence(cluster, d)
        cluster.append("a", 3)
        expected = _answers_one(cluster)
        cluster.close()
        restored = restore_cluster(d, attach_wal=False)
        try:
            assert restored.wal is None
            assert _answers_one(restored) == expected
        finally:
            restored.close()

    def test_lifecycle_records_replay(self, tmp_path):
        """split / merge / unpin / set_latency journal and replay."""
        rng = random.Random(34)
        cluster = ClusterEngine(num_shards=2)
        cluster.add_column(
            "a", [rng.randrange(16) for _ in range(400)],
            dynamism="semidynamic", backend="appendable",
        )
        d = str(tmp_path / "dur")
        init_persistence(cluster, d)
        cluster.split_shard(0)
        cluster.merge_shards(1)
        cluster.unpin("a")
        cluster.set_io_latency(0.0001)
        expected = _answers_one(cluster)
        fingerprint = _fingerprint(cluster)
        cluster.close()
        restored = restore_cluster(d)
        try:
            assert _answers_one(restored) == expected
            assert _fingerprint(restored) == fingerprint
            assert restored.io_latency_s == 0.0001
        finally:
            restored.close()

    def test_epochs_survive_restart(self, durable_cluster):
        """Fold keys digest the column epochs, so a shared cache handed
        to a restored cluster can serve it only if they are identical
        after a cold restore."""
        cluster, _mirror, directory, _rand = durable_cluster
        epochs = {n: m.epoch for n, m in cluster.columns.items()}
        cluster.append("a", 3)
        cluster.close()
        restored = restore_cluster(directory)
        try:
            assert {n: m.epoch for n, m in restored.columns.items()} == epochs
        finally:
            restored.close()

    def test_no_checkpoint_raises(self, tmp_path):
        with pytest.raises(PersistenceError):
            restore_cluster(str(tmp_path))

    def test_double_init_raises(self, durable_cluster):
        cluster, _mirror, directory, _rand = durable_cluster
        with pytest.raises(PersistenceError):
            init_persistence(cluster, directory)

    def test_manifest_tamper_detected(self, durable_cluster):
        cluster, _mirror, directory, _rand = durable_cluster
        cluster.close()
        current = read_current(directory)
        manifest_path = os.path.join(directory, current, "MANIFEST.json")
        flip_byte(manifest_path, os.path.getsize(manifest_path) // 2)
        with pytest.raises(PersistenceError):
            restore_cluster(directory)

    def test_manifest_checksum_has_one_form(self, tmp_path):
        path = str(tmp_path / "MANIFEST.json")
        manifest = {"kind": "cluster", "epoch": "e0"}
        write_manifest(path, manifest, fsync=False)
        assert read_manifest(path) == manifest
        with open(path, encoding="utf-8") as fh:
            declared = json.load(fh)["crc32"]
        body = json.dumps(manifest, sort_keys=True).encode("utf-8")
        assert declared == f"{zlib.crc32(body):08x}"
        # A tampered checksum, and the right one in the old integer
        # form: both are refused.
        for forged in (f"{zlib.crc32(body) ^ 1:08x}", zlib.crc32(body)):
            with open(path, "w", encoding="utf-8") as fh:
                json.dump({"crc32": forged, "manifest": manifest}, fh)
            with pytest.raises(CorruptSnapshot):
                read_manifest(path)

    def test_manifest_size_does_not_follow_the_epochs(self, tmp_path):
        # Epochs are random tokens, and the envelope's checksum follows
        # them: the same rows must checkpoint to the same bytes whatever
        # the checksum's value.
        cluster = ClusterEngine(num_shards=2)
        cluster.add_column("c", [i % 8 for i in range(64)], 8)
        sizes = set()
        for i in range(16):
            cluster.columns["c"].epoch = f"{i:032x}"
            info = checkpoint_cluster(
                cluster, str(tmp_path / f"d{i}"), fsync=False
            )
            sizes.add(
                os.path.getsize(os.path.join(info.path, "MANIFEST.json"))
            )
        assert len(sizes) == 1

    def test_snapshot_tamper_detected_at_restore(self, durable_cluster):
        cluster, _mirror, directory, _rand = durable_cluster
        cluster.close()
        current = read_current(directory)
        manifest = current_manifest(directory)
        snap_path = os.path.join(directory, current, manifest["shards"][0])
        flip_byte(snap_path, os.path.getsize(snap_path) - 2)
        with pytest.raises(CorruptSnapshot):
            restore_cluster(directory)

    def test_torn_wal_tail_recovers(self, durable_cluster):
        cluster, mirror, directory, _rand = durable_cluster
        rng = random.Random(35)
        for _ in range(30):
            code = rng.randrange(16)
            cluster.append("a", code)
            mirror.append("a", code)
        cluster.close()
        (path,) = _wal_files(directory)
        truncate_file(path, os.path.getsize(path) - 2)
        restored = restore_cluster(directory)
        try:
            # One acknowledged record was torn (the sync mode's
            # documented exposure); everything before it replays.
            assert restored.total_rows("a") in (929, 930)
            lo, hi = 2, 9
            got = set(restored.query("a", lo, hi).positions())
            want = set(mirror.query("a", lo, hi).positions())
            assert got <= want
            assert len(want) - len(got) <= 1
        finally:
            restored.close()


def _answers_one(cluster):
    return sorted(cluster.query("a", 2, 9).positions())


def _all_deferred(cluster):
    return all(
        column.deferred
        for engine in cluster.shards
        for column in engine.columns.values()
    )


class TestProcessExecutorRestore:
    def test_restore_under_resident_executor(self, tmp_path):
        rng = random.Random(41)
        d = str(tmp_path / "dur")
        with ProcessExecutor(max_workers=2) as pool:
            cluster = ClusterEngine(target_shard_rows=200, executor=pool)
            cluster.add_column(
                "a", [rng.randrange(16) for _ in range(900)],
                dynamism="semidynamic",
            )
            init_persistence(cluster, d)
            for _ in range(50):
                cluster.append("a", rng.randrange(16))
            expected = _answers_one(cluster)
            fingerprint = _fingerprint(cluster)
            assert _all_deferred(cluster)
            cluster.close()

            restored = restore_cluster(d, executor=pool)
            try:
                assert _answers_one(restored) == expected
                assert _fingerprint(restored) == fingerprint
                # Workers hold every built index; the coordinator,
                # whose WAL replay and splits touched only its codes
                # mirror, holds none.
                assert _all_deferred(restored)
            finally:
                restored.close()

    def test_serial_checkpoint_restores_under_process_and_back(
        self, tmp_path
    ):
        """Executor mobility: a checkpoint written serially restores
        resident, and a resident checkpoint restores serially."""
        rng = random.Random(42)
        d1 = str(tmp_path / "s2p")
        d2 = str(tmp_path / "p2s")
        serial = ClusterEngine(num_shards=4)
        serial.add_column(
            "a", [rng.randrange(16) for _ in range(700)],
            dynamism="semidynamic",
        )
        init_persistence(serial, d1)
        expected = _answers_one(serial)
        serial.close()
        with ProcessExecutor(max_workers=2) as pool:
            resident = restore_cluster(d1, executor=pool)
            assert _answers_one(resident) == expected
            checkpoint_cluster(resident, d2)
            resident.close()
        back = restore_cluster(d2, attach_wal=False)
        try:
            assert _answers_one(back) == expected
        finally:
            back.close()


class TestWritesAfterRestore:
    @pytest.mark.parametrize("kind", ["serial", "process"])
    def test_a_write_refolds_only_its_shard(self, tmp_path, kind):
        """A restored cluster starts with a cold fold cache: its first
        read folds every shard and the repeat is served at the
        coordinator.  A write after the restore, applied to the
        rehydrated shard under a resident executor, refolds only its
        own shard, and every answer stays exact."""
        rng = random.Random(71)
        codes = [rng.randrange(16) for _ in range(900)]
        cluster = ClusterEngine(num_shards=3)
        cluster.add_column("a", codes, 16, dynamism="fully_dynamic")
        d = str(tmp_path / "dur")
        init_persistence(cluster, d)
        cluster.close()

        pool = ProcessExecutor(max_workers=1) if kind == "process" else None
        restored = restore_cluster(d, executor=pool)
        cache = restored.shared_cache
        pred = Range("a", 2, 9)

        def count():
            hits, misses = cache.hits, cache.misses
            n = restored.count(pred)
            return n, cache.hits - hits, cache.misses - misses

        try:
            want = sum(2 <= c <= 9 for c in codes)
            assert count() == (want, 0, 3)
            assert count() == (want, 3, 0)
            row, _ = restored.plan_.slices()[1]
            codes[row] = 12 if 2 <= codes[row] <= 9 else 5
            restored.change("a", row, codes[row])
            want = sum(2 <= c <= 9 for c in codes)
            assert count() == (want, 2, 1)
            assert _answers_one(restored) == [
                i for i, c in enumerate(codes) if 2 <= c <= 9
            ]
        finally:
            restored.close()
            if pool is not None:
                pool.close()


# ----------------------------------------------------------------------
# Checkpoint policy
# ----------------------------------------------------------------------


class TestCheckpointer:
    def test_policy_validation(self):
        CheckpointPolicy()  # both-None is legal: manual-only mode
        with pytest.raises(InvalidParameterError):
            CheckpointPolicy(every_mutations=0)
        with pytest.raises(InvalidParameterError):
            CheckpointPolicy(every_wal_bytes=-5)

    def test_background_checkpoint_fires_on_mutations(self, tmp_path):
        rng = random.Random(51)
        cluster = ClusterEngine(num_shards=2)
        cluster.add_column(
            "a", [rng.randrange(16) for _ in range(300)],
            dynamism="semidynamic",
        )
        d = str(tmp_path / "dur")
        init_persistence(cluster, d)
        checkpointer = Checkpointer(
            cluster, d, CheckpointPolicy(every_mutations=10)
        )
        try:
            for _ in range(40):
                cluster.append("a", rng.randrange(16))
            deadline = time.monotonic() + 10.0
            while (
                checkpointer.checkpoints == 0
                and time.monotonic() < deadline
            ):
                time.sleep(0.02)
            assert checkpointer.checkpoints >= 1
            assert read_current(d) != "ckpt-00000001"
            assert checkpointer.last_info.applied_seq > 0
        finally:
            checkpointer.close()
            cluster.close()
        restored = restore_cluster(d, attach_wal=False)
        restored.close()

    def test_checkpoint_now_rotates_wal(self, tmp_path):
        rng = random.Random(52)
        cluster = ClusterEngine(num_shards=2)
        cluster.add_column(
            "a", [rng.randrange(16) for _ in range(200)],
            dynamism="semidynamic",
        )
        d = str(tmp_path / "dur")
        init_persistence(cluster, d)
        for _ in range(20):
            cluster.append("a", 1)
        bytes_before = cluster.wal.segment_bytes
        checkpointer = Checkpointer(
            cluster, d, CheckpointPolicy(every_mutations=10_000)
        )
        try:
            info = checkpointer.checkpoint_now()
            assert info.applied_seq == 20
            assert cluster.wal.segment_bytes < bytes_before
        finally:
            checkpointer.close()
            cluster.close()


# ----------------------------------------------------------------------
# Tables, front ends
# ----------------------------------------------------------------------


class TestTablePersistence:
    def test_table_round_trip_with_value_mirror(self, tmp_path):
        rng = random.Random(81)
        values = [rng.choice("pqrstuvw") for _ in range(500)]
        nums = [rng.randrange(50) for _ in range(500)]
        table = Table.sharded(
            {"s": values, "n": nums},
            target_shard_rows=200,
            dynamism="fully_dynamic",
        )
        d = str(tmp_path / "dur")
        table.init_persistence(d)
        for _ in range(30):
            table.append_row(
                {"s": rng.choice("pqrstuvw"), "n": rng.randrange(50)}
            )
        table.change("n", 3, 42)
        expected = table.select(Range("s", "q", "t"))
        row = table.row(510)
        table.engine.close()

        restored = Table.restore(d)
        try:
            assert restored.num_rows == 530
            assert restored.select(Range("s", "q", "t")) == expected
            assert restored.row(510) == row
            assert restored.row(3)["n"] == 42
            # The mirror keeps working: value-space writes post-restore.
            rid = restored.append_row({"s": "p", "n": 1})
            assert restored.row(rid) == {"s": "p", "n": 1}
        finally:
            restored.engine.close()

    def test_restore_requires_table_extras(self, tmp_path):
        rng = random.Random(82)
        cluster = ClusterEngine(num_shards=2)
        cluster.add_column(
            "a", [rng.randrange(8) for _ in range(100)],
            dynamism="semidynamic",
        )
        d = str(tmp_path / "dur")
        init_persistence(cluster, d)
        cluster.close()
        with pytest.raises(PersistenceError):
            Table.restore(d)


class TestFrontEndPersistence:
    def test_front_end_round_trip_single_and_fleet(self, tmp_path):
        import asyncio

        from repro.serve import FrontEnd

        rng = random.Random(91)
        nums = [rng.randrange(50) for _ in range(400)]

        async def run():
            single_dir = str(tmp_path / "single")
            fleet_dir = str(tmp_path / "fleet")

            def engine():
                c = ClusterEngine(num_shards=3)
                c.add_column("x", nums, dynamism="semidynamic")
                return c

            fe = FrontEnd(engine())
            expected = sorted(
                (await fe.query(Range("x", 10, 30))).positions()
            )
            infos = await fe.checkpoint(single_dir)
            assert len(infos) == 1
            await fe.close()
            fe.engines[0].close()

            fe2 = FrontEnd.restore(single_dir)
            got = await fe2.query(Range("x", 10, 30))
            assert sorted(got.positions()) == expected
            await fe2.close()
            for e in fe2.engines:
                e.close()

            fleet = FrontEnd([engine(), engine()])
            infos = await fleet.checkpoint(fleet_dir)
            assert len(infos) == 2
            await fleet.close()
            for e in fleet.engines:
                e.close()
            assert sorted(os.listdir(fleet_dir)) == [
                "engine-00", "engine-01",
            ]
            fleet2 = FrontEnd.restore(
                fleet_dir, restore_kwargs={"attach_wal": False}
            )
            got = await fleet2.query(Range("x", 10, 30))
            assert sorted(got.positions()) == expected
            await fleet2.close()
            for e in fleet2.engines:
                e.close()

        asyncio.run(run())

    def test_restore_empty_directory_raises(self, tmp_path):
        from repro.serve import FrontEnd

        with pytest.raises(InvalidParameterError):
            FrontEnd.restore(str(tmp_path))


# ----------------------------------------------------------------------
# The inspect CLI
# ----------------------------------------------------------------------


class TestInspectCLI:
    def _durable(self, tmp_path):
        rng = random.Random(101)
        cluster = ClusterEngine(num_shards=2)
        cluster.add_column(
            "a", [rng.randrange(8) for _ in range(200)],
            dynamism="semidynamic",
        )
        d = str(tmp_path / "dur")
        init_persistence(cluster, d)
        for _ in range(10):
            cluster.append("a", rng.randrange(8))
        cluster.close()
        return d

    def test_clean_directory_exits_zero(self, tmp_path, capsys):
        from repro.persist.__main__ import main

        d = self._durable(tmp_path)
        assert main(["inspect", d]) == 0
        out = capsys.readouterr().out
        assert "all checksums OK" in out
        assert "column 'a'" in out

    def test_torn_tail_reported_not_healed_exit_zero(self, tmp_path, capsys):
        """A torn tail is the legal crash artifact: reported, exit 0,
        and — inspection being read-only — NOT truncated."""
        from repro.persist.__main__ import main

        d = self._durable(tmp_path)
        (path,) = _wal_files(d)
        size = os.path.getsize(path)
        truncate_file(path, size - 2)
        assert main(["inspect", d]) == 0
        assert "torn" in capsys.readouterr().out
        assert os.path.getsize(path) == size - 2

    def test_mid_file_corruption_exits_one(self, tmp_path, capsys):
        from repro.persist.__main__ import main

        d = self._durable(tmp_path)
        (path,) = _wal_files(d)
        size = os.path.getsize(path)
        # Inside the first record's payload — bit rot, not a tail.
        flip_byte(path, struct.calcsize("<4sHHQ") + 10)
        assert main(["inspect", d]) == 1
        assert "CRC MISMATCH" in capsys.readouterr().out
        assert os.path.getsize(path) == size  # still read-only

    def test_usage_exits_two(self, capsys):
        from repro.persist.__main__ import main

        assert main([]) == 2
        assert main(["inspect", "/nonexistent-dir-xyz"]) == 2
