"""Cluster checkpoint, cold restore, and the background checkpoint policy.

A durable cluster directory looks like::

    <dir>/
      CURRENT             -> "ckpt-00000003"   (atomic pointer file)
      ckpt-00000003/
        MANIFEST.json     (checksummed cluster manifest)
        shard-0000.snap   (one snapshot per shard; see snapshot.py)
        shard-0001.snap
      wal/
        wal-...log        (delta log segments; see wal.py)

Checkpoints are **versioned, never in-place**: a new ``ckpt-<id>/`` is
fully written and fsynced before ``CURRENT`` flips to it (tmp + rename
+ directory fsync), so a crash at any byte leaves either the old
checkpoint or the new one — never a half-written hybrid.  Only after
``CURRENT`` is durable does the WAL rotate and the previous checkpoint
directory get reclaimed.

The manifest records ``applied_seq`` — the WAL sequence the snapshot
state already contains.  Recovery replays only records *after* it, so
a crash between the ``CURRENT`` flip and the WAL rotation (old records
still on disk) double-applies nothing.

Restore rebuilds the control plane from the manifest (shard plan,
per-column metadata, pins, epochs, drift counters), mmap-loads each
shard snapshot (zero-copy: index pages fault in on demand through the
simulated-disk accounting), replays the WAL tail through the normal
public operations — re-deriving any advisor-driven auto-splits and
auto-migrations exactly as the live cluster did, which is why derived
work is never logged — and only then attaches the log for new writes.
"""

from __future__ import annotations

import json
import os
import shutil
import threading
import time
import zlib
from dataclasses import dataclass

from ..errors import (
    CorruptSnapshot,
    CorruptWAL,
    InvalidParameterError,
    PersistenceError,
)
from .snapshot import fsync_dir, load_shard_engine, write_shard_snapshot
from .wal import DeltaLog, wal_segments

MANIFEST_NAME = "MANIFEST.json"
CURRENT_NAME = "CURRENT"
WAL_DIRNAME = "wal"
_CKPT_PREFIX = "ckpt-"

CLUSTER_FORMAT = 1


@dataclass(frozen=True)
class CheckpointInfo:
    """What one checkpoint wrote, as returned by ``checkpoint_cluster``."""

    checkpoint_id: int
    path: str
    applied_seq: int
    num_shards: int
    seconds: float


def _checkpoint_dirs(directory: str) -> list[str]:
    try:
        names = os.listdir(directory)
    except FileNotFoundError:
        return []
    return sorted(n for n in names if n.startswith(_CKPT_PREFIX))


def _write_current(directory: str, ckpt_name: str, fsync: bool) -> None:
    tmp = os.path.join(directory, CURRENT_NAME + ".tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(ckpt_name + "\n")
        fh.flush()
        if fsync:
            os.fsync(fh.fileno())
    os.replace(tmp, os.path.join(directory, CURRENT_NAME))
    if fsync:
        fsync_dir(directory)


def read_current(directory: str) -> "str | None":
    """The active checkpoint directory name, or ``None`` when fresh."""
    try:
        with open(
            os.path.join(directory, CURRENT_NAME), encoding="utf-8"
        ) as fh:
            name = fh.read().strip()
    except FileNotFoundError:
        return None
    if not name or os.sep in name or not name.startswith(_CKPT_PREFIX):
        raise PersistenceError(
            f"CURRENT names an implausible checkpoint {name!r}"
        )
    return name


def write_manifest(path: str, manifest: dict, fsync: bool = True) -> None:
    """Write a checksummed JSON manifest atomically."""
    body = json.dumps(manifest, sort_keys=True)
    document = json.dumps(
        {"crc32": zlib.crc32(body.encode("utf-8")), "manifest": manifest},
        sort_keys=True,
        indent=1,
    )
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(document)
        fh.flush()
        if fsync:
            os.fsync(fh.fileno())
    os.replace(tmp, path)


def read_manifest(path: str) -> dict:
    """Read and checksum-verify a manifest written by ``write_manifest``."""
    try:
        with open(path, encoding="utf-8") as fh:
            document = json.load(fh)
    except FileNotFoundError:
        raise PersistenceError(f"no manifest at {path!r}") from None
    except (OSError, ValueError) as exc:
        raise CorruptSnapshot(f"unreadable manifest {path!r}: {exc}") from None
    try:
        declared = document["crc32"]
        manifest = document["manifest"]
    except (KeyError, TypeError):
        raise CorruptSnapshot(f"manifest {path!r} missing crc32 envelope")
    body = json.dumps(manifest, sort_keys=True)
    if zlib.crc32(body.encode("utf-8")) != declared:
        raise CorruptSnapshot(f"manifest {path!r} failed its checksum")
    return manifest


def current_manifest(directory: str) -> "dict | None":
    """The active checkpoint's verified manifest (``None`` when fresh)."""
    name = read_current(directory)
    if name is None:
        return None
    return read_manifest(os.path.join(directory, name, MANIFEST_NAME))


# ----------------------------------------------------------------------
# Checkpoint
# ----------------------------------------------------------------------


def _shard_snap_name(shard_id: int) -> str:
    return f"shard-{shard_id:04d}.snap"


def checkpoint_cluster(
    cluster,
    directory: str,
    *,
    fsync: bool = True,
    extra: "dict | None" = None,
) -> CheckpointInfo:
    """Write one complete, crash-safe checkpoint of a cluster.

    Runs under the cluster's ``_serve_lock`` — the same mutation fence
    the serving path takes — so the snapshot set is a consistent cut:
    no update lands between shard 0's snapshot and shard N's.  Under a
    resident executor the *workers* write their shards' snapshots
    (they hold the built indexes; the coordinator's are deferred),
    after pending delta batches are flushed.

    ``extra`` is an opaque JSON-serializable dict stored in the
    manifest for higher tiers (``ShardedTable`` keeps its value
    dictionaries there).
    """
    started = time.perf_counter()
    os.makedirs(directory, exist_ok=True)
    with cluster._serve_lock:
        previous = read_current(directory)
        previous_id = (
            int(previous[len(_CKPT_PREFIX):]) if previous is not None else 0
        )
        ckpt_id = previous_id + 1
        ckpt_name = f"{_CKPT_PREFIX}{ckpt_id:08d}"
        ckpt_dir = os.path.join(directory, ckpt_name)
        shutil.rmtree(ckpt_dir, ignore_errors=True)  # a torn predecessor
        os.makedirs(ckpt_dir)
        resident = cluster._resident
        if resident:
            cluster.executor.flush_deltas()
        for shard_id in range(cluster.num_shards):
            path = os.path.join(ckpt_dir, _shard_snap_name(shard_id))
            if resident:
                cluster.executor.snap_shard(
                    cluster.shard_uids[shard_id], path
                )
            else:
                write_shard_snapshot(
                    path, cluster.shards[shard_id], fsync=fsync
                )
        manifest = {
            "kind": "cluster",
            "format": CLUSTER_FORMAT,
            "applied_seq": cluster.wal.last_seq if cluster.wal else 0,
            "num_shards": cluster.num_shards,
            "cache_size": cluster.cache_size,
            "io_latency_s": cluster.io_latency_s,
            "target_shard_rows": cluster._target_shard_rows,
            "auto_split": cluster._auto_split,
            "min_shard_rows": cluster._min_shard_rows,
            "drift_window": cluster.drift_window,
            "heat_tolerance": cluster.heat_tolerance,
            "shards": [
                _shard_snap_name(s) for s in range(cluster.num_shards)
            ],
            "columns": {
                name: _meta_entry(meta)
                for name, meta in cluster.columns.items()
            },
            "extra": extra if extra is not None else {},
        }
        write_manifest(
            os.path.join(ckpt_dir, MANIFEST_NAME), manifest, fsync=fsync
        )
        if fsync:
            fsync_dir(ckpt_dir)
        # The commit point: after this rename+fsync the new checkpoint
        # is the one recovery will load, whatever happens next.
        _write_current(directory, ckpt_name, fsync)
        if cluster.wal is not None:
            cluster.wal.rotate()
        for stale in _checkpoint_dirs(directory):
            if stale != ckpt_name:
                shutil.rmtree(
                    os.path.join(directory, stale), ignore_errors=True
                )
        elapsed = time.perf_counter() - started
        if cluster.metrics is not None:
            cluster.metrics.counter("persist.checkpoint.count").inc()
            cluster.metrics.histogram("persist.checkpoint.seconds").observe(
                elapsed
            )
        return CheckpointInfo(
            checkpoint_id=ckpt_id,
            path=ckpt_dir,
            applied_seq=manifest["applied_seq"],
            num_shards=cluster.num_shards,
            seconds=elapsed,
        )


def _meta_entry(meta) -> dict:
    return {
        "sigma": meta.sigma,
        "dynamism": meta.dynamism,
        "expected_selectivity": meta.expected_selectivity,
        "require_exact": meta.require_exact,
        "require_delete": meta.require_delete,
        "backend": meta.backend,
        "shard_pins": {str(k): v for k, v in meta.shard_pins.items()},
        "epoch": meta.epoch,
        "updates_since_stat": {
            str(k): v for k, v in meta.updates_since_stat.items()
        },
        "domains": {str(k): v for k, v in meta.domains.items()},
    }


# ----------------------------------------------------------------------
# Restore
# ----------------------------------------------------------------------


def restore_cluster(
    directory: str,
    *,
    executor=None,
    advisor=None,
    cost_model=None,
    shared_cache=None,
    tracer=None,
    metrics=None,
    slow_log=None,
    prefetch_depth=None,
    wal_sync: str = "flush",
    attach_wal: bool = True,
    lazy: bool = True,
    verify: bool = True,
):
    """Cold-start a :class:`~repro.cluster.ClusterEngine` from disk.

    Loads the ``CURRENT`` checkpoint (shard snapshots are mmap'd, not
    materialized, when ``lazy``), rebuilds the cluster control plane
    from the manifest, replays the WAL tail past ``applied_seq``
    through the normal public operations, and — unless ``attach_wal``
    is disabled — leaves the log attached so new mutations keep being
    journaled.

    The advisor must match the one the WAL was written under: replay
    re-derives drift auto-migrations and auto-splits rather than
    reading them from the log, and a different cost model could reach
    different verdicts.  (The default advisor is deterministic, so the
    default configuration always round-trips.)
    """
    from ..cluster.engine import ClusterEngine

    name = read_current(directory)
    if name is None:
        raise PersistenceError(
            f"{directory!r} has no CURRENT checkpoint to restore from"
        )
    ckpt_dir = os.path.join(directory, name)
    manifest = read_manifest(os.path.join(ckpt_dir, MANIFEST_NAME))
    if manifest.get("kind") != "cluster":
        raise CorruptSnapshot(
            f"manifest kind {manifest.get('kind')!r} is not a cluster"
        )
    if manifest.get("format", 0) > CLUSTER_FORMAT:
        raise CorruptSnapshot(
            f"checkpoint format {manifest.get('format')} is newer than "
            f"this build ({CLUSTER_FORMAT})"
        )
    cluster = ClusterEngine(
        target_shard_rows=manifest["target_shard_rows"],
        executor=executor,
        shared_cache=shared_cache,
        advisor=advisor,
        cost_model=cost_model,
        cache_size=manifest["cache_size"],
        drift_window=manifest["drift_window"],
        auto_split=manifest["auto_split"],
        min_shard_rows=manifest["min_shard_rows"],
        prefetch_depth=prefetch_depth,
        heat_tolerance=manifest["heat_tolerance"],
        io_latency_s=manifest["io_latency_s"],
        tracer=tracer,
        metrics=metrics,
        slow_log=slow_log,
    )
    resident = cluster._resident
    snap_paths: list[str] = []
    for shard_id, snap_name in enumerate(manifest["shards"]):
        path = os.path.join(ckpt_dir, snap_name)
        snap_paths.append(path)
        engine = load_shard_engine(
            path,
            advisor=cluster.advisor,
            cache_size=cluster.cache_size,
            # Under a resident executor the worker replica serves every
            # query; the coordinator keeps control-plane state only.
            defer=resident,
            lazy=lazy,
            verify=verify,
        )
        if cluster.metrics is not None:
            for column in engine.columns.values():
                column.apply_metrics(cluster.metrics)
        cluster.shards.append(engine)
        cluster.shard_uids.append(cluster._new_uid())
    cluster.columns = {
        col_name: _meta_from_entry(col_name, entry)
        for col_name, entry in manifest["columns"].items()
    }
    if cluster.columns:
        cluster._refresh_plan()
    for shard_id, path in enumerate(snap_paths):
        uid = cluster.shard_uids[shard_id]
        if resident:
            epochs = {
                col_name: meta.epoch
                for col_name, meta in cluster.columns.items()
            }
            cluster.executor.rehydrate_shard(
                uid, path, cluster.cache_size, cluster.io_latency_s, epochs
            )
        # Replicas can rehydrate from the same snapshot — until the
        # first delta or retirement touches the shard, at which point
        # the source goes stale and is dropped (see _ship_delta).
        cluster._snap_sources[uid] = path
    applied_seq = manifest["applied_seq"]
    log, records = DeltaLog.open(
        os.path.join(directory, WAL_DIRNAME), sync=wal_sync
    )
    replayed = 0
    for seq, record in records:
        if seq <= applied_seq:
            continue  # fenced: already baked into the snapshot state
        _apply_record(cluster, record)
        replayed += 1
    if metrics is not None:
        metrics.counter("persist.restore.count").inc()
        metrics.counter("persist.restore.replayed_records").inc(replayed)
    if attach_wal:
        cluster.attach_wal(log)
    else:
        log.close()
    return cluster


def _meta_from_entry(name: str, entry: dict):
    from ..cluster.engine import ColumnMeta

    return ColumnMeta(
        name=name,
        sigma=entry["sigma"],
        dynamism=entry["dynamism"],
        expected_selectivity=entry["expected_selectivity"],
        require_exact=entry["require_exact"],
        require_delete=entry["require_delete"],
        backend=entry["backend"],
        shard_pins={int(k): v for k, v in entry["shard_pins"].items()},
        epoch=entry["epoch"],
        updates_since_stat={
            int(k): v for k, v in entry["updates_since_stat"].items()
        },
        domains={int(k): v for k, v in entry["domains"].items()},
    )


def _apply_record(cluster, record: tuple) -> None:
    """Replay one logical WAL record through the public operations.

    Going through the public API (not some private fast path) is the
    point: replay re-ships deltas to workers, re-invalidates caches,
    and re-derives auto-splits/auto-migrations exactly as the live
    cluster did when the record was first acknowledged.
    """
    try:
        op = record[0]
        if op == "append":
            cluster.append(record[1], record[2])
        elif op == "change":
            cluster.change(record[1], record[2], record[3])
        elif op == "delete":
            cluster.delete(record[1], record[2])
        elif op == "add_column":
            (_, name, codes, sigma, dynamism, selectivity, exact,
             delete, backend) = record
            cluster.add_column(
                name, codes, sigma, dynamism, selectivity, exact,
                delete, backend,
            )
        elif op == "drop_column":
            cluster.drop_column(record[1])
        elif op == "migrate":
            cluster.migrate(record[1], record[2], record[3], record[4])
        elif op == "unpin":
            cluster.unpin(record[1], record[2])
        elif op == "split":
            cluster.split_shard(record[1])
        elif op == "merge":
            cluster.merge_shards(record[1])
        elif op == "rebalance":
            cluster.rebalance(record[1])
        elif op == "set_latency":
            cluster.set_io_latency(record[1])
        else:
            raise CorruptWAL(f"unknown WAL record kind {op!r}")
    except CorruptWAL:
        raise
    except Exception as exc:
        raise CorruptWAL(
            f"WAL record {record[:2]!r} failed to replay: {exc}"
        ) from exc


# ----------------------------------------------------------------------
# Persistence bootstrap + background checkpoint policy
# ----------------------------------------------------------------------


def init_persistence(
    cluster,
    directory: str,
    *,
    sync: str = "flush",
    fsync: bool = True,
    extra: "dict | None" = None,
) -> CheckpointInfo:
    """Make a live cluster durable: baseline checkpoint + attached WAL.

    After this returns, every acknowledged mutation is journaled; a
    process that dies restores via :func:`restore_cluster` with no
    acknowledged write lost (up to the chosen ``sync`` mode's
    guarantee).
    """
    with cluster._serve_lock:
        if cluster.wal is not None:
            raise PersistenceError(
                "a WAL is already attached; checkpoint instead"
            )
        info = checkpoint_cluster(
            cluster, directory, fsync=fsync, extra=extra
        )
        log, _records = DeltaLog.open(
            os.path.join(directory, WAL_DIRNAME), sync=sync
        )
        cluster.attach_wal(log)
        return info


@dataclass(frozen=True)
class CheckpointPolicy:
    """When the background checkpointer should write a new snapshot.

    ``every_mutations`` counts acknowledged answer-changing operations
    since the last checkpoint; ``every_wal_bytes`` bounds the current
    WAL segment (and so the replay work a crash could cost).  Either
    may be ``None``; a policy with both ``None`` never fires on its
    own (manual :meth:`Checkpointer.checkpoint_now` still works).
    """

    every_mutations: "int | None" = None
    every_wal_bytes: "int | None" = None

    def __post_init__(self) -> None:
        for field in ("every_mutations", "every_wal_bytes"):
            value = getattr(self, field)
            if value is not None and value < 1:
                raise InvalidParameterError(f"{field} must be >= 1")


class Checkpointer:
    """Background checkpoint driver riding the cluster's WAL stream.

    Installs itself as ``cluster.wal_listener``; every acknowledged
    record checks the policy and, when due, wakes a daemon thread that
    checkpoints under the cluster's ``_serve_lock`` — the serving path
    observes a pause (measured by E20), never a torn cut.  Triggers
    are single-flight: records arriving while a checkpoint is running
    coalesce into at most one follow-up.
    """

    def __init__(
        self,
        cluster,
        directory: str,
        policy: CheckpointPolicy,
        *,
        fsync: bool = True,
        extra_fn=None,
    ) -> None:
        self.cluster = cluster
        self.directory = directory
        self.policy = policy
        self.fsync = fsync
        self._extra_fn = extra_fn
        self.checkpoints = 0
        self.last_info: "CheckpointInfo | None" = None
        self._mutations_at_last = cluster.mutations
        self._wake = threading.Event()
        self._stopped = False
        self._thread = threading.Thread(
            target=self._run, name="repro-checkpointer", daemon=True
        )
        cluster.wal_listener = self._on_record
        self._thread.start()

    # The listener runs inside ``_log`` (under the serve lock): it
    # must only *decide*, never checkpoint inline.
    def _on_record(self, seq: int) -> None:
        if self.due():
            self._wake.set()

    def due(self) -> bool:
        policy, cluster = self.policy, self.cluster
        if (
            policy.every_mutations is not None
            and cluster.mutations - self._mutations_at_last
            >= policy.every_mutations
        ):
            return True
        if (
            policy.every_wal_bytes is not None
            and cluster.wal is not None
            and cluster.wal.segment_bytes >= policy.every_wal_bytes
        ):
            return True
        return False

    def _run(self) -> None:
        while True:
            self._wake.wait()
            if self._stopped:
                return
            self._wake.clear()
            try:
                self.checkpoint_now()
            except Exception:
                if self.cluster.metrics is not None:
                    self.cluster.metrics.counter(
                        "persist.checkpoint.errors"
                    ).inc()

    def checkpoint_now(self) -> CheckpointInfo:
        extra = self._extra_fn() if self._extra_fn is not None else None
        info = checkpoint_cluster(
            self.cluster, self.directory, fsync=self.fsync, extra=extra
        )
        self._mutations_at_last = self.cluster.mutations
        self.checkpoints += 1
        self.last_info = info
        return info

    def close(self) -> None:
        """Detach from the cluster and stop the background thread."""
        self._stopped = True
        self._wake.set()
        self._thread.join(timeout=10)
        if self.cluster.wal_listener == self._on_record:
            self.cluster.wal_listener = None
