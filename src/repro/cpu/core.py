"""Trace-driven core model.

Approximates the 4-wide out-of-order core of Table IV (224-entry ROB)
with the two properties that dominate memory-system studies:

* bounded memory-level parallelism — at most ``mlp_limit`` misses may
  be outstanding (the ROB fills while waiting), and
* serialization on dependent loads — a ``dependent`` reference cannot
  issue until every earlier miss has returned.

The core advances through its trace accumulating compute time from the
records' gap cycles; on-chip cache hit latency is charged when the hit
is dependent (otherwise the OoO window hides it).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

from .trace import TraceRecord, instructions_of

#: Default outstanding-miss bound: a 224-entry ROB at ~20 instructions
#: per memory reference sustains roughly ten in-flight misses.
DEFAULT_MLP_LIMIT = 10


@dataclass
class CoreStats:
    """Retired work and stall accounting for one core."""
    instructions: float = 0.0
    references: int = 0
    misses_issued: int = 0
    mlp_stall_ns: float = 0.0
    dependency_stall_ns: float = 0.0
    finish_ns: float = 0.0


class Core:
    """One core's execution state over its trace."""

    def __init__(self, core_id: int, trace: Iterator[TraceRecord],
                 cpu_ghz: float = 3.1, mlp_limit: int = DEFAULT_MLP_LIMIT):
        if mlp_limit <= 0:
            raise ValueError("mlp_limit must be positive")
        self.core_id = core_id
        self.trace = trace
        self.cpu_ghz = cpu_ghz
        self.mlp_limit = mlp_limit
        self.time_ns = 0.0
        self.outstanding = 0
        self.pending: Optional[TraceRecord] = None
        self.done = False
        self.blocked_on_mlp = False
        self.blocked_on_dependency = False
        self.stats = CoreStats()

    def next_record(self) -> Optional[TraceRecord]:
        """Fetch the next trace record (the pending one if execution
        previously blocked); None when the trace is exhausted."""
        if self.pending is not None:
            rec, self.pending = self.pending, None
            return rec
        rec = next(self.trace, None)
        if rec is None:
            self.done = True
            return None
        self.stats.instructions += instructions_of(rec)
        self.stats.references += 1
        return rec

    def can_issue(self, record: TraceRecord) -> bool:
        """May this reference issue right now?"""
        if record.dependent and self.outstanding > 0:
            return False
        return self.outstanding < self.mlp_limit

    def block(self, record: TraceRecord) -> None:
        """Remember the record that could not issue."""
        self.pending = record
        if record.dependent and self.outstanding > 0:
            self.blocked_on_dependency = True
        else:
            self.blocked_on_mlp = True

    def miss_returned(self, now_ns: float) -> None:
        """A memory request for this core completed."""
        if self.outstanding <= 0:
            raise RuntimeError("miss completion with none outstanding")
        self.outstanding -= 1
        if self.blocked_on_dependency and self.outstanding == 0:
            self.stats.dependency_stall_ns += max(0.0, now_ns - self.time_ns)
            self.time_ns = max(self.time_ns, now_ns)
            self.blocked_on_dependency = False
        if self.blocked_on_mlp:
            self.stats.mlp_stall_ns += max(0.0, now_ns - self.time_ns)
            self.time_ns = max(self.time_ns, now_ns)
            self.blocked_on_mlp = False

    @property
    def runnable(self) -> bool:
        """Has unissued work and is not blocked."""
        if self.done and self.pending is None:
            return False
        return not (self.blocked_on_mlp or self.blocked_on_dependency)
