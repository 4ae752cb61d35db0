"""The coordinator's fold cache: one bounded LRU serving every shard.

Every cluster read is a shard fold, and the coordinator caches each
fold's value in one :class:`InMemorySharedCache` under one key family,
the *fold key* (:func:`fold_key`): ``(shard_id, digest, version)``.
The ``shard_id`` slot holds the shard's stable *uid*
(``ClusterEngine.shard_uids``), not its position: positions shift when
shards split or merge, uids never do.  The digest names the
shard-specialized plan the fold evaluates and the *epochs* of the
columns it reads — an epoch is a random token stamped once per
``add_column``, so dropping a column and re-adding one under the same
name can never resurrect the old incarnation's entries even though
shard versions restart at zero, and same-named columns of different
engines sharing one cache never collide.  The version is the sum of
those columns' shard-local versions.  Together they yield the
cluster's invalidation protocol:

* an update routed to shard ``s`` bumps only that shard's version, so
  only shard ``s``'s entries — the folds that read the column — become
  unreachable; every other shard's cached results stay live and keep
  serving.  Nothing is evicted on the write: the LRU's replacement
  reclaims the dead entries' space;
* a lifecycle operation (split/merge) retires the participating
  shards' uids and mints fresh ones for their replacements, so the
  retired entries can never be served again while sibling shards' hot
  entries survive the reshape — a *positional* key here would let a
  fresh shard alias a retired neighbor's entries;
* unreachability is the correctness mechanism; *eviction* is an
  optimization, kept for DDL, retirement and ``drop_caches``
  (:meth:`InMemorySharedCache.invalidate`, every entry or one uid's).

Every value is a list of ints: a fold value encoded by
:func:`fold_entry` — a select fold's entry is the shard's sorted local
answer positions, which the gather offsets into global RIDs.
"""

from __future__ import annotations

import hashlib
import threading

from ..engine.cache import LRUCache

#: Cache key: (shard uid, digest of plan and epochs, version sum).
SharedKey = tuple[int, str, int]


def fold_key(shard_id: int, payload: tuple, versions: tuple) -> SharedKey:
    """The shared-cache key of one shard's fold.

    ``payload`` is the shard-specialized ``(mode, columns, leaves,
    root, group)`` the fold evaluates; ``versions`` holds ``(column,
    epoch, shard-local version)`` for every column in it, the group
    column included.  The digest covers the payload and the epochs, so
    a new incarnation of a column changes it; the version slot is the
    sum of the versions.  Versions only grow, so under one digest that
    sum names the whole version vector and rises with every write to
    any of the columns: the write makes the key unreachable.
    """
    epochs = [(column, epoch) for column, epoch, _ in versions]
    digest = hashlib.blake2b(
        repr((payload, epochs)).encode(), digest_size=20
    ).hexdigest()
    return (shard_id, digest, sum(v for _, _, v in versions))


def fold_entry(mode: str, value) -> list[int]:
    """A fold value as the list of ints the cache holds: ``[n]`` for
    a count, ``[0]``/``[1]`` for exists, a ``count_by`` dict as flat
    ``[code, count, code, count, ...]``, and a select answer as its
    own sorted shard-local positions."""
    if mode == "select":
        return value
    if mode == "count_by":
        return [x for pair in value.items() for x in pair]
    return [int(value)]


def fold_value(mode: str, entry):
    """The fold value :func:`fold_entry` encoded.

    ``entry`` must be the caller's own list, as
    :meth:`InMemorySharedCache.get` hands out: a select value is that
    list itself.
    """
    if mode == "select":
        return entry
    if mode == "count_by":
        return dict(zip(entry[::2], entry[1::2]))
    return entry[0] if mode == "count" else bool(entry[0])


class InMemorySharedCache:
    """The fold cache: an :class:`~repro.engine.cache.LRUCache` behind
    a lock.

    The lock serializes scatter tasks, which run concurrently under the
    threaded executor.  ``put`` stores a copy and ``get`` hands one
    out, so a caller that offset-translates its list in place never
    corrupts a later hit.  Capacity 0 caches nothing: every ``get``
    misses.
    """

    def __init__(self, capacity: int = 4096, metrics=None) -> None:
        self._lru = LRUCache(capacity)
        self._lock = threading.Lock()
        #: Optional :class:`repro.obs.MetricsRegistry`: every ``get``
        #: reports into ``cache.shared.hits`` / ``cache.shared.misses``
        #: when attached.  ``None`` (the default) costs one attribute
        #: check.
        self.metrics = metrics

    @property
    def capacity(self) -> int:
        return self._lru.capacity

    @property
    def hits(self) -> int:
        return self._lru.hits

    @property
    def misses(self) -> int:
        return self._lru.misses

    @property
    def evictions(self) -> int:
        return self._lru.evictions

    @property
    def hit_rate(self) -> float:
        return self._lru.hit_rate

    def __len__(self) -> int:
        with self._lock:
            return len(self._lru)

    def __contains__(self, key: SharedKey) -> bool:
        with self._lock:
            return key in self._lru

    def get(self, key: SharedKey) -> list[int] | None:
        """A copy of the cached list of ints, or ``None`` on a miss."""
        with self._lock:
            entry = self._lru.get(key)
        if self.metrics is not None:
            self.metrics.inc(
                "cache.shared.hits"
                if entry is not None
                else "cache.shared.misses"
            )
        return list(entry) if entry is not None else None

    def put(self, key: SharedKey, entry: list[int]) -> None:
        """Store a copy of one shard's fold value under its
        :func:`fold_key`, encoded by :func:`fold_entry`."""
        with self._lock:
            self._lru.put(key, list(entry))

    def invalidate(self, shard_id: int | None = None) -> int:
        """Drop every entry, or with ``shard_id`` one shard uid's;
        returns the count dropped."""
        with self._lock:
            if shard_id is None:
                return self._lru.invalidate()
            return self._lru.invalidate(lambda key: key[0] == shard_id)
