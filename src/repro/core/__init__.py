"""The paper's data structures: Theorems 1-7 plus deletion support."""

from .approximate import (
    ApproximatePaghRaoIndex,
    ApproximateResult,
    at_least_k_candidates,
)
from .buffered_bitmap import BufferedBitmapIndex
from .buffered_index import BufferedAppendableIndex
from .chains import BlockChain
from .deletions import DeletableIndex, DeletionTracker
from .fully_dynamic import DynamicSecondaryIndex
from .interface import RangeResult, SecondaryIndex, SpaceBreakdown
from .prefix import PrefixCounts
from .semidynamic import AppendableIndex
from .static_index import PaghRaoIndex
from .uniform_tree import UniformTreeIndex

__all__ = [
    "ApproximatePaghRaoIndex",
    "ApproximateResult",
    "AppendableIndex",
    "BlockChain",
    "BufferedAppendableIndex",
    "BufferedBitmapIndex",
    "DeletableIndex",
    "DeletionTracker",
    "DynamicSecondaryIndex",
    "PaghRaoIndex",
    "PrefixCounts",
    "RangeResult",
    "SecondaryIndex",
    "SpaceBreakdown",
    "UniformTreeIndex",
    "at_least_k_candidates",
]
