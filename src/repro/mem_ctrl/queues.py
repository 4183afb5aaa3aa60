"""Memory-controller request queues (Table IV: 256-entry read queue and
128-entry write queue per channel)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from .address_map import MemLocation


@dataclass
class ReadRequest:
    """A pending DRAM read."""
    location: MemLocation
    arrival_ns: float
    callback: Callable[[float], None]
    core_id: int = -1
    is_prefetch: bool = False
    #: The (flat rank, Rank, Bank) places holding this read's data, home
    #: copy first — the design policy's ``replica_banks``, resolved once
    #: at submission.  Which one serves is decided at pick and issue time
    #: by :func:`repro.mem_ctrl.policy.serve_replica`.
    candidates: Tuple[tuple, ...] = ()


@dataclass
class WriteRequest:
    """A pending DRAM write(back)."""
    location: MemLocation
    arrival_ns: float
    from_cleaning: bool = False


class BoundedQueue:
    """A simple bounded FIFO with occupancy stats."""

    def __init__(self, capacity: int, name: str):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.name = name
        self.entries: List[object] = []
        self.peak_occupancy = 0
        self.total_enqueued = 0

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def full(self) -> bool:
        return len(self.entries) >= self.capacity

    def push(self, item: object) -> None:
        if self.full:
            raise RuntimeError("{} queue overflow".format(self.name))
        self.entries.append(item)
        self.total_enqueued += 1
        self.peak_occupancy = max(self.peak_occupancy, len(self.entries))

    def pop_index(self, index: int) -> object:
        return self.entries.pop(index)

    def pop_front(self) -> object:
        return self.entries.pop(0)


#: Table IV queue capacities.
READ_QUEUE_ENTRIES = 256
WRITE_QUEUE_ENTRIES = 128
