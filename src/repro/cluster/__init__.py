"""Sharded scatter-gather serving on top of the query engine.

The single-process :class:`~repro.engine.engine.QueryEngine` answers
the paper's conjunctive range queries behind one LRU cache; this
package scales that design out.  Columns are partitioned into
contiguous RID-range shards (:mod:`.sharding`), each shard runs its
own engine — so the advisor may pick different backends per shard as
local statistics differ — and queries scatter across shards through a
pluggable executor (:mod:`.executor`), consult a versioned shared
result cache (:mod:`.cache`), and gather by offset translation and
ordered merge (:mod:`.engine`).  Update traffic is routed to single
shards, invalidates only their cache entries, and past a drift
threshold triggers online backend migration.
:meth:`repro.queries.Table.sharded` serves value-space tables over it.

See README.md in this directory for the architecture diagram and the
invalidation protocol.
"""

from .cache import InMemorySharedCache
from .engine import (
    ClusterEngine,
    ClusterStats,
    ColumnMeta,
    GatherStats,
    Migration,
    ShardMerge,
    ShardSplit,
    ShardStats,
)
from .executor import ProcessExecutor, SerialExecutor, ThreadedExecutor
from .sharding import (
    ShardPlan,
    locate,
    offsets_of,
    plan_from_lengths,
    plan_shards,
)

__all__ = [
    "ClusterEngine",
    "ClusterStats",
    "ColumnMeta",
    "GatherStats",
    "InMemorySharedCache",
    "Migration",
    "ProcessExecutor",
    "SerialExecutor",
    "ShardMerge",
    "ShardPlan",
    "ShardSplit",
    "ShardStats",
    "ThreadedExecutor",
    "locate",
    "offsets_of",
    "plan_from_lengths",
    "plan_shards",
]
