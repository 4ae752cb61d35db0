"""The shared result cache: one external store serving every shard.

The single-process engine keeps an :class:`~repro.engine.cache.\
LRUCache` per ``QueryEngine``; at cluster scale the cache must outlive
any one process, so this module defines the *abstraction* an external
store (memcached, Redis, a sidecar) would implement, plus in-memory
reference implementations the tests and benchmarks run against.

Every cluster read is a shard fold, and the coordinator caches each
fold's value under one key family, the *fold key* (:func:`fold_key`):
``(shard_id, digest, version)``.  The ``shard_id`` slot holds the
shard's stable *uid* (``ClusterEngine.shard_uids``), not its position:
positions shift when shards split or merge, uids never do.  The digest
names the shard-specialized plan the fold evaluates and the *epochs*
of the columns it reads — an epoch is a random token stamped once per
``add_column``, so dropping a column and re-adding one under the same
name can never resurrect the old incarnation's entries even though
shard versions restart at zero, and same-named columns of *different
engines* (or processes) sharing one store never collide.  The version
is the sum of those columns' shard-local versions.  With the uid
first, "this shard" is a *key-prefix* drop, the one bulk-eviction
primitive real external stores can hope to offer (Redis ``SCAN MATCH
prefix*``, a namespace flush).  Together they yield the cluster's
invalidation protocol:

* an update routed to shard ``s`` bumps only that shard's version, so
  only shard ``s``'s entries — the folds that read the column — become
  unreachable; every other shard's cached results stay
  live and keep serving.  Nothing is evicted on the write: a bounded
  store reclaims the dead entries' space (the LRU's replacement, or
  a TTL);
* a lifecycle operation (split/merge) retires the participating
  shards' uids and mints fresh ones for their replacements, so the
  retired entries can never be served again while sibling shards' hot
  entries survive the reshape — a *positional* key here would let a
  fresh shard alias a retired neighbor's entries;
* unreachability is the correctness mechanism; *eviction* is an
  optimization, kept for DDL, retirement and ``drop_caches``.  A store
  that cannot enumerate keys implements
  :meth:`CacheStore.invalidate_prefix` as a no-op and leans on
  TTL-based expiry (:class:`TTLStore`) — stale entries are dead
  weight, never wrong answers.

Storage is split from policy: a :class:`CacheStore` is the minimal
get/put/invalidate-by-prefix contract an external store implements
(:class:`DictStore` — the original LRU dict — is the default;
:class:`TTLStore` models an expiry-only store), and
:class:`InMemorySharedCache` wraps any store with the lock and the
defensive copies a *shared* cache needs.

Every value is a list of ints (JSON/msgpack friendly): a fold value
encoded by :func:`fold_entry` — a select fold's entry is the shard's
sorted local answer positions, which the gather offsets into global
RIDs.
"""

from __future__ import annotations

import hashlib
import threading
import time
from abc import ABC, abstractmethod

from ..engine.cache import LRUCache
from ..errors import InvalidParameterError

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
    """A fold value as the list of ints every store holds: ``[n]`` for
    a count, ``[0]``/``[1]`` for exists, a ``count_by`` dict as flat
    ``[code, count, code, count, ...]``, and a select answer as its
    own sorted shard-local positions."""
    if mode == "select":
        return value
    if mode == "count_by":
        return [x for pair in value.items() for x in pair]
    return [int(value)]


def fold_value(mode: str, entry):
    """The fold value :func:`fold_entry` encoded, rebuilt fresh."""
    if mode == "select":
        return list(entry)
    if mode == "count_by":
        return dict(zip(entry[::2], entry[1::2]))
    return entry[0] if mode == "count" else bool(entry[0])


class CacheStore(ABC):
    """The minimal contract of a result-cache backing store.

    Three verbs: ``get``, ``put``, and ``invalidate_prefix`` — drop
    every key whose leading slots equal ``prefix``.  That last verb is
    *optional power*: versioned keys already make stale entries
    unreachable, so a store that cannot enumerate its keys (most
    memcached-style stores) may inherit the no-op default and bound
    staleness with TTLs instead.
    """

    @abstractmethod
    def get(self, key: SharedKey) -> list[int] | None:
        """The stored value, or ``None`` on a miss."""

    @abstractmethod
    def put(self, key: SharedKey, positions: list[int]) -> None:
        """Store one shard's encoded fold value, a list of ints."""

    def invalidate_prefix(self, prefix: tuple) -> int:
        """Drop every key starting with ``prefix``; returns the count.

        Purely an optimization (see the module docstring); the default
        is the honest answer of a store without key enumeration.
        """
        return 0

    def __contains__(self, key: SharedKey) -> bool:
        """Non-destructive presence probe; pessimistic by default."""
        return False


class DictStore(CacheStore):
    """The original in-memory store: a bounded LRU dict.

    All replacement and accounting logic is the proven
    :class:`~repro.engine.cache.LRUCache`; key enumeration makes exact
    prefix invalidation possible.
    """

    def __init__(self, capacity: int = 4096) -> None:
        self._lru = LRUCache(capacity)

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

    def __len__(self) -> int:
        return len(self._lru)

    def __contains__(self, key: SharedKey) -> bool:
        return key in self._lru

    def get(self, key: SharedKey) -> list[int] | None:
        return self._lru.get(key)

    def put(self, key: SharedKey, positions: list[int]) -> None:
        self._lru.put(key, positions)

    def invalidate_prefix(self, prefix: tuple) -> int:
        width = len(prefix)
        return self._lru.invalidate(lambda key: key[:width] == prefix)


class TTLStore(CacheStore):
    """An expiry-only store: no key enumeration, entries age out.

    Models the memcached-style deployment the protocol was designed to
    tolerate: ``invalidate_prefix`` inherits the no-op default (the
    store cannot find the keys), and every entry instead carries a
    time-to-live.  Correctness never depends on it — versioned keys
    make stale entries unreachable — the TTL merely bounds how long
    dead weight occupies the store.

    ``clock`` is injectable for deterministic tests (defaults to
    :func:`time.monotonic`).  Expired entries are dropped lazily on
    ``get`` and swept opportunistically on ``put``; ``len()`` counts
    only unexpired entries and ``expirations`` counts every entry
    that aged out, however it was discovered (lazy ``get``, periodic
    sweep, or overwrite of an already-dead entry).

    ``max_entries`` (optional) bounds the store: sustained
    unique-query traffic — the front-end's coalescing keys are
    effectively unique under an adversarial mix — would otherwise
    grow the TTL window without limit between sweeps.  When a put
    would exceed the bound, expired entries are reclaimed first;
    live entries are then evicted soonest-expiring first (insertion
    order equals expiry order because every put rewrites its slot),
    counted in ``evictions`` — distinct from ``expirations``.
    """

    _SWEEP_EVERY = 256

    def __init__(
        self, ttl_s: float, clock=None, max_entries: int | None = None
    ) -> None:
        if ttl_s <= 0:
            raise InvalidParameterError("ttl_s must be > 0")
        if max_entries is not None and max_entries <= 0:
            raise InvalidParameterError("max_entries must be > 0")
        self.ttl_s = ttl_s
        self.max_entries = max_entries
        self._clock = clock if clock is not None else time.monotonic
        self._data: dict[SharedKey, tuple[float, list[int]]] = {}
        self._puts = 0
        self.hits = 0
        self.misses = 0
        self.expirations = 0
        self.evictions = 0

    def __len__(self) -> int:
        # Expired-but-unswept entries are invisible to get/contains,
        # so they must not be counted as live contents either.
        now = self._clock()
        return sum(1 for exp, _ in self._data.values() if exp > now)

    def __contains__(self, key: SharedKey) -> bool:
        entry = self._data.get(key)
        return entry is not None and entry[0] > self._clock()

    def get(self, key: SharedKey) -> list[int] | None:
        entry = self._data.get(key)
        if entry is None:
            self.misses += 1
            return None
        expires_at, positions = entry
        if expires_at <= self._clock():
            del self._data[key]
            self.expirations += 1
            self.misses += 1
            return None
        self.hits += 1
        return positions

    def put(self, key: SharedKey, positions: list[int]) -> None:
        now = self._clock()
        # Overwriting an entry that already aged out is an expiration
        # the periodic sweep will never see — count it here, or the
        # stat undercounts entries that die between sweeps.
        prior = self._data.pop(key, None)
        if prior is not None and prior[0] <= now:
            self.expirations += 1
        # The pop-then-insert keeps dict iteration order equal to
        # expiry order (a monotonic clock plus one fixed TTL), which
        # is what lets the bound below evict soonest-expiring first
        # without scanning.
        self._data[key] = (now + self.ttl_s, positions)
        self._puts += 1
        if self._puts % self._SWEEP_EVERY == 0:
            self._sweep(now)
        if (
            self.max_entries is not None
            and len(self._data) > self.max_entries
        ):
            self._sweep(now)
            while len(self._data) > self.max_entries:
                del self._data[next(iter(self._data))]
                self.evictions += 1

    def _sweep(self, now: float) -> None:
        doomed = [k for k, (exp, _) in self._data.items() if exp <= now]
        for k in doomed:
            del self._data[k]
        self.expirations += len(doomed)


class SharedResultCache(ABC):
    """What the cluster requires of an external result cache."""

    @abstractmethod
    def get(self, key: SharedKey) -> list[int] | None:
        """The cached list of ints, or ``None`` on a miss."""

    @abstractmethod
    def put(self, key: SharedKey, positions: list[int]) -> None:
        """Store one shard's fold value under its :func:`fold_key`,
        encoded by :func:`fold_entry`."""

    def __contains__(self, key: SharedKey) -> bool:
        """Non-destructive presence probe (used by ``explain``).

        Purely informational, so the default for stores that cannot
        answer it cheaply is a pessimistic ``False`` — never a
        stats-skewing ``get``.
        """
        return False

    def invalidate(self, shard_id: int | None = None) -> int:
        """Eagerly drop every entry, or with ``shard_id`` one shard's.

        Purely an optimization — version-carrying keys already make
        stale entries unreachable — so the default is a no-op, which
        is all a store without key enumeration can offer.
        """
        return 0


class InMemorySharedCache(SharedResultCache):
    """Reference implementation: a :class:`CacheStore` behind a lock.

    The store supplies replacement and accounting (the default
    :class:`DictStore` is the engine's proven LRU; a :class:`TTLStore`
    models expiry-only deployments); this wrapper adds what a *shared*
    cache needs on top — a lock (scatter tasks run concurrently under
    the threaded executor), defensive value copies (callers
    offset-translate their lists in place), and the key-scheme-aware
    mapping from the cluster's invalidation verbs onto prefix drops.
    """

    def __init__(
        self,
        capacity: int = 4096,
        store: CacheStore | None = None,
        metrics=None,
    ) -> None:
        self._store = store if store is not None else DictStore(capacity)
        self._lock = threading.Lock()
        #: Optional :class:`repro.obs.MetricsRegistry`: every ``get``
        #: reports into ``cache.shared.hits`` / ``cache.shared.misses``
        #: when attached.  ``None`` (the default) costs one attribute
        #: check.
        self.metrics = metrics

    @property
    def store(self) -> CacheStore:
        return self._store

    @property
    def capacity(self) -> int | None:
        return getattr(self._store, "capacity", None)

    @property
    def hits(self) -> int:
        return getattr(self._store, "hits", 0)

    @property
    def misses(self) -> int:
        return getattr(self._store, "misses", 0)

    @property
    def evictions(self) -> int:
        return getattr(self._store, "evictions", 0)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __len__(self) -> int:
        with self._lock:
            return len(self._store)

    def __contains__(self, key: SharedKey) -> bool:
        with self._lock:
            return key in self._store

    def get(self, key: SharedKey) -> list[int] | None:
        with self._lock:
            positions = self._store.get(key)
        if self.metrics is not None:
            self.metrics.inc(
                "cache.shared.hits"
                if positions is not None
                else "cache.shared.misses"
            )
        # Hand out a copy: a shared cache cannot know what its
        # callers do with the list, and an aliased mutation would
        # corrupt every later hit (a real external store serializes
        # and so copies implicitly).
        return list(positions) if positions is not None else None

    def put(self, key: SharedKey, positions: list[int]) -> None:
        with self._lock:
            self._store.put(key, list(positions))

    def invalidate(self, shard_id: int | None = None) -> int:
        prefix = () if shard_id is None else (shard_id,)
        with self._lock:
            return self._store.invalidate_prefix(prefix)
