"""Reproduction of Pagh & Rao, "Secondary Indexing in One Dimension:
Beyond B-trees and Bitmap Indexes" (PODS 2009).

The package implements the paper's optimal secondary index (Theorem 2)
together with every substrate, variant, and baseline its analysis
touches, all running on a simulated I/O-model block device with exact
block-transfer accounting.  See DESIGN.md for the system inventory and
EXPERIMENTS.md for the measured reproduction of every theorem.

Quickstart::

    from repro import PaghRaoIndex
    from repro.model import Alphabet

    ages = [33, 41, 33, 27, 58, 33, 41]
    alphabet = Alphabet(ages)
    index = PaghRaoIndex(alphabet.encode(ages), alphabet.sigma)
    lo, hi = alphabet.code_range(30, 45)
    print(index.range_query(lo, hi).positions())   # rows with age 30..45
    print(index.stats)                              # block I/Os spent
"""

from .core import (
    ApproximatePaghRaoIndex,
    ApproximateResult,
    AppendableIndex,
    BufferedAppendableIndex,
    BufferedBitmapIndex,
    DeletableIndex,
    DynamicSecondaryIndex,
    PaghRaoIndex,
    RangeResult,
    SecondaryIndex,
    SpaceBreakdown,
    UniformTreeIndex,
)
from .cluster import (
    ClusterEngine,
    InMemorySharedCache,
    SerialExecutor,
    ThreadedExecutor,
)
from .engine import (
    Advisor,
    CostModel,
    IndexSpec,
    QueryEngine,
    WorkloadStats,
)
from .errors import (
    CodecError,
    InvalidParameterError,
    QueryError,
    ReproError,
    StorageError,
    UpdateError,
)
from .iomodel import Disk, IOStats
from .model.alphabet import Alphabet
from .obs import (
    ManualClock,
    MetricsRegistry,
    SlowQueryLog,
    Tracer,
)
from .queries import Table
from .query import (
    And,
    Eq,
    In,
    Not,
    Or,
    PlanReport,
    Pred,
    Range,
)

__version__ = "1.0.0"

__all__ = [
    "Advisor",
    "Alphabet",
    "And",
    "Eq",
    "In",
    "Not",
    "Or",
    "PlanReport",
    "Pred",
    "Range",
    "ApproximatePaghRaoIndex",
    "ApproximateResult",
    "AppendableIndex",
    "BufferedAppendableIndex",
    "BufferedBitmapIndex",
    "ClusterEngine",
    "CodecError",
    "CostModel",
    "DeletableIndex",
    "Disk",
    "DynamicSecondaryIndex",
    "IOStats",
    "InMemorySharedCache",
    "IndexSpec",
    "InvalidParameterError",
    "ManualClock",
    "MetricsRegistry",
    "PaghRaoIndex",
    "QueryEngine",
    "QueryError",
    "RangeResult",
    "ReproError",
    "SecondaryIndex",
    "SerialExecutor",
    "SlowQueryLog",
    "SpaceBreakdown",
    "StorageError",
    "Table",
    "ThreadedExecutor",
    "Tracer",
    "UniformTreeIndex",
    "UpdateError",
    "WorkloadStats",
]
