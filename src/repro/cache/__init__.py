"""Cache hierarchy substrate: set-associative caches, prefetchers,
and the paper's two hierarchy configurations (Table III)."""

from .cache import Cache, CacheStats, LINE_BYTES
from .hierarchy import (AccessOutcome, CPU_GHZ, CacheHierarchy,
                        HIERARCHIES, HierarchyConfig, hierarchy1,
                        hierarchy2)
from .prefetcher import NextLinePrefetcher, PrefetchStats, StridePrefetcher

__all__ = [
    "AccessOutcome", "CPU_GHZ", "Cache", "CacheHierarchy", "CacheStats",
    "HIERARCHIES", "HierarchyConfig", "LINE_BYTES", "NextLinePrefetcher",
    "PrefetchStats", "StridePrefetcher", "hierarchy1", "hierarchy2",
]
