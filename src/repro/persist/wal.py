"""The write-ahead delta log: logical cluster mutations, CRC-framed.

A :class:`DeltaLog` records every answer-changing *logical* operation
a cluster performs — the same routed-delta vocabulary the
``ProcessExecutor`` already speaks, lifted to cluster scope (global
positions, column DDL, lifecycle ops).  Derived work is deliberately
**not** logged: drift auto-migrations and auto-splits are
deterministic functions of the logical stream given the same advisor,
so replay re-derives them — the log stays small and a replayed
cluster converges to the identical shard set and backend verdicts.

Wire format, one file per segment::

    segment header:  magic "RWAL", format u16, flags u16, base_seq u64
    frame:           length u32 | crc32 u32 | payload (pickled record)
    frame:           ...

Record ``seq`` numbers are implicit — ``base_seq + frame index`` — so
they survive rotation without being stored.  Frames are written
length-and-CRC first... no: the *frame header* precedes the payload,
and the whole frame is flushed before the mutation is acknowledged
(``sync="fsync"`` additionally fsyncs per record for crash-of-OS
durability; the default ``"flush"`` survives process crashes).

Recovery semantics (:meth:`DeltaLog.open`):

* a **torn tail** — a frame header cut short, a declared length
  running past EOF, or a CRC mismatch on the very last frame of the
  last segment — is the expected residue of a crash mid-append; it is
  physically truncated away and recovery proceeds with every fully
  acknowledged record;
* a bad frame anywhere *else* — mid-file, or in a non-final
  segment — cannot be a torn write and means corruption; recovery
  refuses with :class:`repro.errors.CorruptWAL` rather than replay
  garbage or silently drop acknowledged history.

At checkpoint the log :meth:`rotate`\\ s: a fresh segment starts at
``last_seq + 1`` and the old segments are deleted only after the
checkpoint's ``CURRENT`` pointer is durable.  If the process dies
between those two steps the old records simply replay as no-ops —
the checkpoint manifest's ``applied_seq`` fences them out.
"""

from __future__ import annotations

import os
import pickle
import struct
import zlib

from ..errors import CorruptWAL, InvalidParameterError

WAL_MAGIC = b"RWAL"
WAL_FORMAT = 1

_SEG_HEADER = struct.Struct("<4sHHQ")
_FRAME = struct.Struct("<II")

_SEG_PREFIX = "wal-"
_SEG_SUFFIX = ".log"

_SYNC_MODES = ("none", "flush", "fsync")


def _segment_name(base_seq: int) -> str:
    return f"{_SEG_PREFIX}{base_seq:020d}{_SEG_SUFFIX}"


def wal_segments(directory: str) -> list[str]:
    """The directory's WAL segment filenames, oldest first."""
    try:
        names = os.listdir(directory)
    except FileNotFoundError:
        return []
    return sorted(
        n
        for n in names
        if n.startswith(_SEG_PREFIX) and n.endswith(_SEG_SUFFIX)
    )


class DeltaLog:
    """An append-only, CRC-framed log of logical cluster records."""

    def __init__(self, directory: str, sync: str = "flush") -> None:
        if sync not in _SYNC_MODES:
            raise InvalidParameterError(
                f"sync must be one of {_SYNC_MODES}, got {sync!r}"
            )
        self.directory = directory
        self.sync = sync
        self._fh = None
        self._segment_path: str | None = None
        self._base_seq = 1
        self._count = 0  # frames in the current segment
        self.records_written = 0
        self.bytes_written = 0

    # -- lifecycle ------------------------------------------------------

    @classmethod
    def open(
        cls, directory: str, sync: str = "flush"
    ) -> "tuple[DeltaLog, list[tuple[int, tuple]]]":
        """Open (or create) a directory's log; returns ``(log, records)``.

        ``records`` is every fully acknowledged ``(seq, record)`` pair
        across all segments, oldest first, with any torn tail already
        truncated away.  The returned log appends after the last good
        record.
        """
        os.makedirs(directory, exist_ok=True)
        log = cls(directory, sync=sync)
        records: list[tuple[int, tuple]] = []
        segments = wal_segments(directory)
        for position, name in enumerate(segments):
            last = position == len(segments) - 1
            path = os.path.join(directory, name)
            records.extend(log._scan_segment(path, truncate_tail=last))
        if segments:
            last_path = os.path.join(directory, segments[-1])
            log._adopt_segment(last_path)
        else:
            log._start_segment(1)
        return log, records

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    # -- appending ------------------------------------------------------

    @property
    def last_seq(self) -> int:
        """The highest acknowledged record seq (0 when empty)."""
        return self._base_seq + self._count - 1

    @property
    def segment_bytes(self) -> int:
        """Bytes in the current segment (header included)."""
        return self._fh.tell() if self._fh is not None else 0

    def append(self, record: tuple) -> int:
        """Frame, write, and flush one record; returns its seq."""
        if self._fh is None:
            raise InvalidParameterError("the log is closed")
        payload = pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL)
        frame = _FRAME.pack(len(payload), zlib.crc32(payload)) + payload
        self._fh.write(frame)
        if self.sync != "none":
            self._fh.flush()
            if self.sync == "fsync":
                os.fsync(self._fh.fileno())
        self._count += 1
        self.records_written += 1
        self.bytes_written += len(frame)
        return self.last_seq

    def rotate(self) -> None:
        """Start a fresh segment at ``last_seq + 1``; drop old segments.

        Called after a checkpoint's ``CURRENT`` pointer is durable:
        every record up to ``last_seq`` is baked into the snapshot, so
        the old segments are dead weight (and were they to survive a
        crash here, ``applied_seq`` fencing replays them as no-ops).
        """
        next_base = self.last_seq + 1
        old = [
            os.path.join(self.directory, name)
            for name in wal_segments(self.directory)
        ]
        self.close()
        self._start_segment(next_base)
        for path in old:
            if path != self._segment_path:
                try:
                    os.unlink(path)
                except OSError:
                    pass

    # -- internals ------------------------------------------------------

    def _start_segment(self, base_seq: int) -> None:
        os.makedirs(self.directory, exist_ok=True)
        path = os.path.join(self.directory, _segment_name(base_seq))
        fh = open(path, "wb")
        fh.write(_SEG_HEADER.pack(WAL_MAGIC, WAL_FORMAT, 0, base_seq))
        fh.flush()
        if self.sync == "fsync":
            os.fsync(fh.fileno())
        self._fh = fh
        self._segment_path = path
        self._base_seq = base_seq
        self._count = 0

    def _adopt_segment(self, path: str) -> None:
        """Continue appending to a recovered (already scanned) segment."""
        fh = open(path, "r+b")
        header = fh.read(_SEG_HEADER.size)
        _magic, _fmt, _flags, base_seq = _SEG_HEADER.unpack(header)
        count = 0
        while True:
            frame_header = fh.read(_FRAME.size)
            if len(frame_header) < _FRAME.size:
                break
            length, _crc32 = _FRAME.unpack(frame_header)
            fh.seek(length, os.SEEK_CUR)
            count += 1
        self._fh = fh
        self._segment_path = path
        self._base_seq = base_seq
        self._count = count

    def _scan_segment(
        self, path: str, truncate_tail: bool
    ) -> list[tuple[int, tuple]]:
        with open(path, "rb") as fh:
            data = fh.read()
        if len(data) < _SEG_HEADER.size:
            if truncate_tail:
                # A segment creation torn before its header landed.
                os.truncate(path, 0)
                with open(path, "r+b") as fh:
                    fh.write(
                        _SEG_HEADER.pack(WAL_MAGIC, WAL_FORMAT, 0, 1)
                    )
                return []
            raise CorruptWAL(f"{path!r} is shorter than its header")
        magic, fmt, _flags, base_seq = _SEG_HEADER.unpack(
            data[: _SEG_HEADER.size]
        )
        if magic != WAL_MAGIC:
            raise CorruptWAL(f"{path!r} has bad magic {magic!r}")
        if fmt != WAL_FORMAT:
            raise CorruptWAL(
                f"{path!r} is format {fmt}; this build reads {WAL_FORMAT}"
            )
        records: list[tuple[int, tuple]] = []
        offset = _SEG_HEADER.size
        index = 0
        while offset < len(data):
            torn_at: int | None = None
            reason = ""
            if offset + _FRAME.size > len(data):
                torn_at, reason = offset, "frame header cut short"
            else:
                length, crc32 = _FRAME.unpack(
                    data[offset : offset + _FRAME.size]
                )
                start = offset + _FRAME.size
                if start + length > len(data):
                    torn_at, reason = offset, "payload runs past EOF"
                else:
                    payload = data[start : start + length]
                    if zlib.crc32(payload) != crc32:
                        if truncate_tail and start + length == len(data):
                            # The last frame of the last segment: a
                            # torn payload write, not corruption.
                            torn_at, reason = offset, "final-frame CRC"
                        else:
                            raise CorruptWAL(
                                f"{path!r} record {base_seq + index} "
                                "failed its CRC32 mid-file"
                            )
                    else:
                        try:
                            record = pickle.loads(payload)
                        except Exception:
                            raise CorruptWAL(
                                f"{path!r} record {base_seq + index} "
                                "is undecodable despite a valid CRC32"
                            ) from None
                        records.append((base_seq + index, record))
                        index += 1
                        offset = start + length
                        continue
            # A torn tail: physically truncate the residue away so the
            # next recovery (and any raw reader) sees a clean log.
            if not truncate_tail:
                raise CorruptWAL(
                    f"{path!r} is torn at byte {torn_at} ({reason}) but "
                    "is not the final segment"
                )
            os.truncate(path, torn_at)
            break
        return records
