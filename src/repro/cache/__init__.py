"""Cache hierarchy: tag arrays, L1D, the shared banked L2, the prefetcher."""

from .array import CacheArray
from .l1 import L1Cache
from .l2 import BankedL2Cache
from .l3 import StackedL3
from .prefetch import Prefetcher

__all__ = [
    "BankedL2Cache",
    "CacheArray",
    "L1Cache",
    "Prefetcher",
    "StackedL3",
]
