"""Durable persistence: snapshots, write-ahead log, crash-safe restart.

The paper's structures are persistence-friendly by construction — the
§1.1 dictionary + code sequence and the §2.1 bitmap/index pages are
flat, offset-addressable byte ranges — so this tier stores them as
exactly that: checksummed sections in a versioned ``*.snap`` file,
mmap'd back in on restore so index pages fault in on demand through
the simulated-:class:`~repro.iomodel.disk.Disk` accounting.

Three cooperating pieces:

* :mod:`~repro.persist.snapshot` — the per-shard snapshot format
  (atomic writes, CRC'd sections, zero-copy loads);
* :mod:`~repro.persist.wal` — the logical write-ahead delta log
  (CRC-framed records, torn-tail truncation, rotation at checkpoint);
* :mod:`~repro.persist.checkpoint` — cluster checkpoint/restore,
  ``applied_seq`` replay fencing, and the background
  :class:`Checkpointer` policy.

``python -m repro.persist inspect <dir>`` prints a human-readable
audit of a durable directory (manifest, per-snapshot sections, WAL
length, checksum verdicts).
"""

from .checkpoint import (
    CheckpointInfo,
    CheckpointPolicy,
    Checkpointer,
    checkpoint_cluster,
    current_manifest,
    init_persistence,
    read_current,
    read_manifest,
    restore_cluster,
    write_manifest,
)
from .snapshot import (
    SnapshotFile,
    flatten_codes,
    load_shard_engine,
    unflatten_codes,
    write_shard_snapshot,
)
from .wal import DeltaLog, wal_segments

__all__ = [
    "CheckpointInfo",
    "CheckpointPolicy",
    "Checkpointer",
    "DeltaLog",
    "SnapshotFile",
    "checkpoint_cluster",
    "current_manifest",
    "flatten_codes",
    "init_persistence",
    "load_shard_engine",
    "read_current",
    "read_manifest",
    "restore_cluster",
    "unflatten_codes",
    "wal_segments",
    "write_shard_snapshot",
    "write_manifest",
]
