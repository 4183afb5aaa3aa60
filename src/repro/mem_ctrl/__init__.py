"""Memory-controller substrate: address mapping, request queues, page
policies, FR-FCFS scheduling, write batching, and the per-channel
controller with design-policy hooks."""

from .address_map import AddressMapping, MemLocation
from .controller import ChannelController, ControllerStats, MemoryController
from .page_policy import PagePolicy
from .policy import AccessPolicy, CONVENTIONAL_TURNAROUND_NS
from .queues import (READ_QUEUE_ENTRIES, ReadRequest, WRITE_QUEUE_ENTRIES,
                     WriteRequest)
from .scheduler import FrFcfsScheduler, SchedulerStats
from .writeback_cache import (WRITEBACK_CACHE_ASSOC, WRITEBACK_CACHE_BYTES,
                              WritebackCache, WritebackCacheStats)

__all__ = [
    "AccessPolicy", "AddressMapping",
    "CONVENTIONAL_TURNAROUND_NS", "ChannelController", "ControllerStats",
    "FrFcfsScheduler", "MemLocation", "MemoryController", "PagePolicy",
    "READ_QUEUE_ENTRIES", "ReadRequest", "SchedulerStats",
    "WRITEBACK_CACHE_ASSOC", "WRITEBACK_CACHE_BYTES", "WRITE_QUEUE_ENTRIES",
    "WritebackCache", "WritebackCacheStats", "WriteRequest",
]
