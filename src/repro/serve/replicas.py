"""Hot-shard read replicas: RAM-resident twins consulted on cache miss.

A :class:`ReplicaSet` keeps up to ``capacity`` read-only replicas of a
cluster's hottest shards, built from the same picklable snapshots the
resident executor ships (:meth:`ClusterEngine._shard_payload`) and
kept in sync by the same routed-delta stream
(:meth:`ClusterEngine._ship_delta` / :meth:`_ship_retire`).  Two
deliberate divergences from a worker replica:

* the disk-latency model is forced to zero — a replica is a RAM copy,
  so serving from it is genuinely cheaper than the primary under any
  configured ``io_latency_s`` (``set_latency`` deltas are ignored for
  the same reason);
* every read is *version fenced*: a shard fold passes the primary's
  current ``version`` of every column it reads and the replica
  answers only when its synced versions match exactly, so a replica
  can never serve a stale answer — at worst it abstains and the
  primary serves.

Synced versions are recorded from the primary *after* each applied
delta (the cluster mutates itself first, then ships), so the fence is
exact, not heuristic.  A delta that fails to apply drops the replica
rather than leaving it silently diverged.

Membership is heat-driven and explicit: :meth:`refresh` re-picks the
top-``capacity`` shards by combined primary update heat
(:meth:`ClusterEngine.shard_heat`) and replica read heat, retiring
and building to match.  The front end can drive this periodically
(``replica_refresh_every``); nothing rebuilds mid-scatter.

Locking: the set has one internal mutex — folds arrive from
executor pool threads while deltas arrive from the coordinator.
:meth:`refresh` additionally takes the cluster's serve lock *first*
(cluster → replica order everywhere), so membership churn serializes
against scatters and updates without deadlock.
"""

from __future__ import annotations

import threading

from ..cluster.worker import ShardHost, evaluate_shard_fold
from ..errors import InvalidParameterError
from ..iomodel.stats import Snapshot
from ..obs.stats import ReplicaSetStats

__all__ = ["ReplicaSet"]


class ReplicaSet:
    """Up to ``capacity`` version-fenced RAM replicas of hot shards."""

    def __init__(self, capacity: int = 2, metrics=None) -> None:
        if capacity < 1:
            raise InvalidParameterError("ReplicaSet capacity must be >= 1")
        self.capacity = capacity
        self.metrics = metrics
        self._host = ShardHost()
        self._cluster = None
        self._lock = threading.Lock()
        # uid -> {column: primary version at last applied sync}
        self._synced: dict[int, dict[str, int]] = {}
        # uid -> replica reads served (the set's own heat signal)
        self._reads: dict[int, int] = {}
        self.hits = 0
        self.stale = 0
        self.absent = 0
        self.builds = 0
        self.retires = 0
        self.refreshes = 0
        self.deltas = 0

    # -- lifecycle (driven by ClusterEngine.attach_replicas) -----------

    def bind(self, cluster) -> None:
        """Adopt a cluster and seed the initial hot set.

        Called by :meth:`ClusterEngine.attach_replicas` under the
        cluster's serve lock; seeding reuses :meth:`refresh`.
        """
        if self._cluster is not None:
            raise InvalidParameterError(
                "this ReplicaSet is already bound to a cluster"
            )
        self._cluster = cluster
        self.refresh()

    def unbind(self) -> None:
        """Drop every replica and release the cluster."""
        with self._lock:
            for uid in list(self._synced):
                self._retire_locked(uid)
            self._cluster = None

    def close(self) -> None:
        """Tear down: forwarded from :meth:`ClusterEngine.close`."""
        self.unbind()

    # -- the routed-delta stream (called under the cluster lock) -------

    def retire(self, uid: int) -> None:
        with self._lock:
            if uid in self._synced:
                self._retire_locked(uid)

    def _retire_locked(self, uid: int) -> None:
        self._host.retire(uid)
        self._synced.pop(uid, None)
        self._reads.pop(uid, None)
        self.retires += 1

    def on_delta(self, uid: int, delta: tuple) -> None:
        """Apply one routed delta to the replica, then re-fence.

        ``set_latency`` is ignored — replicas are RAM copies and never
        model disk latency.  A delta that fails to apply drops the
        replica: the primary stays authoritative, never the twin.
        """
        with self._lock:
            if uid not in self._synced:
                return
            if delta[0] == "set_latency":
                return
            try:
                self._host.delta(uid, delta)
            except Exception:
                self._retire_locked(uid)
                return
            self.deltas += 1
            self._resync_locked(uid)

    def _resync_locked(self, uid: int) -> None:
        # The cluster mutates itself before shipping, so the primary's
        # per-column versions read here are exactly what folds will
        # fence against.
        shard_id = self._cluster.shard_uids.index(uid)
        shard = self._cluster.shards[shard_id]
        self._synced[uid] = {
            name: column.version for name, column in shard.columns.items()
        }

    def drop_caches(self) -> None:
        with self._lock:
            self._host.drop_caches_all()

    # -- the read path (called from scatter / executor threads) --------

    def fold(
        self, uid: int, payload: tuple, versions: dict[str, int]
    ) -> "tuple[object, Snapshot] | None":
        """One version-fenced shard fold, or ``None`` to fall back.

        ``versions`` carries the primary's current version for every
        column the shard-local plan touches; one mismatch abstains.
        """
        with self._lock:
            synced = self._synced.get(uid)
            if synced is None:
                self.absent += 1
                self._count("serve.replica.absent")
                return None
            for name, version in versions.items():
                if synced.get(name) != version:
                    self.stale += 1
                    self._count("serve.replica.stale")
                    return None
            engine = self._host.engines[uid]
            value, io = evaluate_shard_fold(engine, payload)
            self._note_hit(uid)
            return value, io

    def _note_hit(self, uid: int) -> None:
        self.hits += 1
        self._reads[uid] = self._reads.get(uid, 0) + 1
        self._count("serve.replica.hits")

    def _count(self, name: str) -> None:
        if self.metrics is not None:
            self.metrics.inc(name)

    # -- heat-driven membership ----------------------------------------

    def refresh(self) -> tuple[int, ...]:
        """Re-pick the top-``capacity`` shards by heat; returns them.

        Combined heat is the primary's update traffic
        (:meth:`ClusterEngine.shard_heat`) plus this set's own read
        counts; ties break toward the lowest shard position so the
        pick is deterministic.  Takes the cluster's serve lock first
        (then the set's own), so membership never churns mid-scatter.
        """
        cluster = self._cluster
        if cluster is None:
            raise InvalidParameterError(
                "refresh requires a bound cluster (attach_replicas first)"
            )
        with cluster._serve_lock:
            with self._lock:
                ranked = sorted(
                    range(cluster.num_shards),
                    key=lambda sid: (
                        -(
                            cluster.shard_heat(sid)
                            + self._reads.get(cluster.shard_uids[sid], 0)
                        ),
                        sid,
                    ),
                )
                want = [
                    cluster.shard_uids[sid]
                    for sid in ranked[: self.capacity]
                ]
                want_set = set(want)
                for uid in list(self._synced):
                    if uid not in want_set:
                        self._retire_locked(uid)
                for sid, uid in zip(ranked, want):
                    if uid not in self._synced:
                        if not self._rehydrate_locked(cluster, uid):
                            payload = cluster._shard_payload(sid)
                            cache_size, _latency, columns = payload
                            self._host.build(uid, (cache_size, 0.0, columns))
                        self._resync_locked(uid)
                        self.builds += 1
                self.refreshes += 1
                return tuple(want)

    def _rehydrate_locked(self, cluster, uid: int) -> bool:
        """Adopt a replica from its restore-time snapshot, if still valid.

        A just-restored cluster records each shard's snapshot path in
        ``_snap_sources`` — dropped again at the first delta or
        retirement touching the shard (:meth:`ClusterEngine.\
_ship_delta`), because a stale snapshot would wrongly pass the
        version fence ``_resync_locked`` records.  While the entry
        survives, the snapshot *is* the primary's state, and loading
        it (mmap, no index construction) beats a payload rebuild.
        """
        source = cluster._snap_sources.get(uid)
        if source is None:
            return False
        try:
            self._host.rehydrate(
                uid, source, cluster.cache_size, 0.0,
                {name: meta.epoch for name, meta in cluster.columns.items()},
            )
        except Exception:
            # Whatever went wrong (file gone, corrupt), the payload
            # build below reproduces the same state from memory.
            self._count("serve.replica.rehydrate_failed")
            return False
        self._count("serve.replica.rehydrated")
        return True

    # -- introspection --------------------------------------------------

    def stats(self) -> ReplicaSetStats:
        with self._lock:
            return ReplicaSetStats(
                capacity=self.capacity,
                resident=tuple(sorted(self._synced)),
                hits=self.hits,
                stale=self.stale,
                absent=self.absent,
                builds=self.builds,
                retires=self.retires,
                refreshes=self.refreshes,
                deltas=self.deltas,
            )
