"""Memory-controller request queues (Table IV: 256-entry read queue and
128-entry write queue per channel)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Tuple

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


#: Table IV queue capacities.
READ_QUEUE_ENTRIES = 256
WRITE_QUEUE_ENTRIES = 128
