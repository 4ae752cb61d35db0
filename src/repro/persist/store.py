"""A file-backed :class:`~repro.cluster.cache.CacheStore`.

:class:`FileCacheStore` closes the PR 4 seam: the shared result cache
grew an external-protocol ``store`` hook (get/put/invalidate-by-prefix)
with only in-memory implementations behind it.  This one persists
decoded range results under the snapshot directory, so a restarted
cluster — or a freshly forked worker process — answers repeat queries
from files instead of re-decoding index pages.

Layout (content-addressed on the cache key)::

    <dir>/obj/<sha1(column)[:16]>/<shard uid>/<epoch>.<version>.<lo>.<hi>.entry

Each entry is ``[u32 crc32][u32 count][count x int64 positions]``.  A
short or CRC-failing entry is treated as a miss and unlinked — a cache
never has license to return wrong positions, so corruption degrades to
a decode, not an error.  Puts are atomic (tmp + rename) so readers in
other processes never observe a half-written entry.

Aggregate folds persist the same way: a fold key has the same six
slots (``cluster.cache.fold_key``) and its value is a list of ints.

Writes evict nothing (a version bump already makes the old keys
unreachable) and the store has no LRU, so each put reclaims instead:
it unlinks the entries older versions of its epoch slot left in its
``(column, uid)`` directory (for a fold key the slot holds the fold's
digest).  Disk use then grows with the distinct keys queried, not with
the number of writes.

The store is picklable by construction (``__reduce__`` re-opens the
directory), which is what lets the coordinator ship one to every
worker with ``ProcessExecutor.attach_cache_store``.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import struct
import zlib
from array import array
from typing import Iterable, Sequence

from ..cluster.cache import CacheStore, SharedKey

_ENTRY_HEADER = struct.Struct("<II")
_SUFFIX = ".entry"


def _column_dir(root: str, column: str) -> str:
    digest = hashlib.sha1(column.encode("utf-8")).hexdigest()[:16]
    return os.path.join(root, "obj", digest)


class FileCacheStore(CacheStore):
    """Durable second-level cache over a directory of entry files."""

    def __init__(self, directory: str) -> None:
        self.directory = directory
        os.makedirs(os.path.join(directory, "obj"), exist_ok=True)
        self.hits = 0
        self.misses = 0

    def __reduce__(self):
        return (FileCacheStore, (self.directory,))

    # -- key layout -----------------------------------------------------

    def _path(self, key: SharedKey) -> str:
        column, shard_id, epoch, version, lo, hi = key
        name = f"{epoch}.{version}.{lo}.{hi}{_SUFFIX}"
        return os.path.join(
            _column_dir(self.directory, column), str(shard_id), name
        )

    # -- CacheStore protocol --------------------------------------------

    def get(self, key: SharedKey) -> "Sequence[int] | None":
        try:
            with open(self._path(key), "rb") as fh:
                blob = fh.read()
        except (FileNotFoundError, NotADirectoryError):
            self.misses += 1
            return None
        positions = self._decode(blob)
        if positions is None:
            # Corrupt or truncated: drop it and fall through to a decode.
            try:
                os.unlink(self._path(key))
            except OSError:
                pass
            self.misses += 1
            return None
        self.hits += 1
        return positions

    def put(self, key: SharedKey, positions: Iterable[int]) -> None:
        body = array("q", positions)
        payload = _ENTRY_HEADER.pack(zlib.crc32(body.tobytes()), len(body))
        path = self._path(key)
        directory = os.path.dirname(path)
        os.makedirs(directory, exist_ok=True)
        tmp = path + ".tmp"
        with open(tmp, "wb") as fh:
            fh.write(payload)
            fh.write(body.tobytes())
        os.replace(tmp, path)
        self._reclaim(directory, key[2], key[3])

    def invalidate_prefix(self, prefix: tuple) -> int:
        """Drop every entry under ``prefix``; returns files removed.

        Prefixes mirror :class:`InMemorySharedCache.invalidate`: ``()``
        clears everything, ``(column,)`` one column's subtree, and
        ``(column, shard_id)`` a single shard's entries.
        """
        if not prefix:
            target = os.path.join(self.directory, "obj")
        elif len(prefix) == 1:
            target = _column_dir(self.directory, prefix[0])
        else:
            target = os.path.join(
                _column_dir(self.directory, prefix[0]), str(prefix[1])
            )
        removed = 0
        for _dirpath, _dirnames, filenames in os.walk(target):
            removed += sum(1 for f in filenames if f.endswith(_SUFFIX))
        shutil.rmtree(target, ignore_errors=True)
        if not prefix:
            os.makedirs(target, exist_ok=True)
        return removed

    def __contains__(self, key: SharedKey) -> bool:
        return os.path.exists(self._path(key))

    # -- helpers --------------------------------------------------------

    @staticmethod
    def _reclaim(directory: str, epoch: str, version: int) -> None:
        """Unlink ``directory``'s entries of ``epoch`` below ``version``.

        Versions only grow, so no one looks those keys up again.
        """
        for name in os.listdir(directory):
            if not name.endswith(_SUFFIX):
                continue  # another process's in-flight .tmp
            stem, older, _lo, _hi = name[: -len(_SUFFIX)].rsplit(".", 3)
            if stem == epoch and int(older) < version:
                try:
                    os.unlink(os.path.join(directory, name))
                except FileNotFoundError:
                    pass

    @staticmethod
    def _decode(blob: bytes) -> "tuple[int, ...] | None":
        if len(blob) < _ENTRY_HEADER.size:
            return None
        crc32, count = _ENTRY_HEADER.unpack(blob[: _ENTRY_HEADER.size])
        body = blob[_ENTRY_HEADER.size :]
        if len(body) != count * 8 or zlib.crc32(body) != crc32:
            return None
        return tuple(array("q", body))

    def entry_count(self) -> int:
        total = 0
        for _dirpath, _dirnames, filenames in os.walk(
            os.path.join(self.directory, "obj")
        ):
            total += sum(1 for f in filenames if f.endswith(_SUFFIX))
        return total
