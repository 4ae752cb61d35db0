"""Typed, JSON-serializable ``stats()`` snapshots.

``QueryEngine.stats()``, ``ClusterEngine.stats()`` and
``Table.stats()`` each answer with one frozen dataclass
from this module (the cluster adds its own ``ClusterStats`` next to
``GatherStats`` to avoid an import cycle).  Every field is either a
plain JSON type or something with a ``to_json``/``to_dict`` of its
own, so ``json.dumps(snapshot.to_dict())`` always works — the
fragmented counters the stack grew (``IOStats``/``Snapshot``,
``GatherStats``, ``op_counts``, cache hit ratios) become views of one
object.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..iomodel.stats import Snapshot

__all__ = [
    "CacheTierStats",
    "ColumnStats",
    "EngineStats",
    "FrontEndStats",
    "TableStats",
]


@dataclass(frozen=True)
class CacheTierStats:
    """Hit/miss accounting of one cache tier (engine LRU, shared)."""

    tier: str
    hits: int
    misses: int
    size: int
    capacity: int
    evictions: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def to_dict(self) -> dict:
        return {
            "tier": self.tier,
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
            "size": self.size,
            "capacity": self.capacity,
            "evictions": self.evictions,
        }


@dataclass(frozen=True)
class ColumnStats:
    """One engine column: backend verdict + size + update version."""

    name: str
    backend: str
    family: str
    n: int
    sigma: int
    version: int

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "backend": self.backend,
            "family": self.family,
            "n": self.n,
            "sigma": self.sigma,
            "version": self.version,
        }


@dataclass(frozen=True)
class EngineStats:
    """One ``QueryEngine.stats()`` snapshot."""

    columns: tuple[ColumnStats, ...]
    cache: CacheTierStats
    io: Snapshot
    metrics: dict | None = None
    slow_queries: int = 0

    def to_dict(self) -> dict:
        return {
            "columns": [c.to_dict() for c in self.columns],
            "cache": self.cache.to_dict(),
            "io": self.io.to_json(),
            "metrics": self.metrics,
            "slow_queries": self.slow_queries,
        }


@dataclass(frozen=True)
class FrontEndStats:
    """One ``FrontEnd.stats()`` snapshot: admission + coalescing counters.

    ``requests`` counts every call that reached the front end;
    ``admitted`` the ones that acquired an execution slot (coalesced
    followers are *not* admitted — they ride the leader's slot);
    ``coalesced`` the follower count; ``shed`` rejections by the
    admission gate; ``timeouts`` admitted requests that missed their
    deadline; ``cancelled`` requests abandoned by their caller before
    completing.  ``inflight`` / ``inflight_peak`` describe the
    execution queue at snapshot time and its high-water mark.
    """

    requests: int
    admitted: int
    completed: int
    coalesced: int
    shed: int
    timeouts: int
    cancelled: int
    errors: int
    inflight: int
    inflight_peak: int
    max_inflight: int

    def to_dict(self) -> dict:
        return {
            "requests": self.requests,
            "admitted": self.admitted,
            "completed": self.completed,
            "coalesced": self.coalesced,
            "shed": self.shed,
            "timeouts": self.timeouts,
            "cancelled": self.cancelled,
            "errors": self.errors,
            "inflight": self.inflight,
            "inflight_peak": self.inflight_peak,
            "max_inflight": self.max_inflight,
        }


@dataclass(frozen=True)
class TableStats:
    """One ``Table.stats()`` snapshot: row count + the engine's.

    Exactly one slot is filled, after the table's engine: ``engine``
    for a single :class:`~repro.engine.engine.QueryEngine`, and
    ``cluster`` (a :class:`repro.cluster.engine.ClusterStats`, typed
    loosely here to avoid the import cycle) for a table built by
    ``Table.sharded``.
    """

    num_rows: int
    engine: EngineStats | None = None
    cluster: object | None = None

    def to_dict(self) -> dict:
        return {
            "num_rows": self.num_rows,
            "engine": self.engine.to_dict() if self.engine else None,
            "cluster": (
                self.cluster.to_dict() if self.cluster is not None else None
            ),
        }
