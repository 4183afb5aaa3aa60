"""Job model for the system-wide simulation (Section IV-C)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional


@dataclass
class Job:
    """One batch job from the (synthetic) Grizzly trace.

    ``base_runtime_s`` is the execution time on the conventional
    system; a Hetero-DMR system scales it by the performance of the
    job's slowest allocated node and the job's memory utilization.
    """
    job_id: int
    submit_s: float
    nodes_requested: int
    base_runtime_s: float
    memory_utilization: float     # job-level peak across its nodes
    #: User-requested wall-clock limit; batch schedulers backfill
    #: against this, not the (unknown) actual runtime.  Users typically
    #: overestimate; 0 means "not provided" and falls back to the
    #: actual runtime (an oracle, the best case for backfill).
    requested_walltime_s: float = 0.0

    # Filled in by the simulator:
    start_s: Optional[float] = None
    finish_s: Optional[float] = None
    allocated_nodes: List[int] = field(default_factory=list)
    runtime_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.nodes_requested <= 0:
            raise ValueError("jobs need at least one node")
        if self.base_runtime_s <= 0:
            raise ValueError("runtime must be positive")
        if not 0.0 <= self.memory_utilization <= 1.0:
            raise ValueError("memory utilization must be in [0, 1]")

    @property
    def walltime_limit_s(self) -> float:
        """The limit the scheduler plans with."""
        if self.requested_walltime_s > 0:
            return self.requested_walltime_s
        return self.base_runtime_s

    @property
    def queue_delay_s(self) -> float:
        if self.start_s is None:
            raise ValueError("job has not started")
        return self.start_s - self.submit_s

    @property
    def turnaround_s(self) -> float:
        if self.finish_s is None:
            raise ValueError("job has not finished")
        return self.finish_s - self.submit_s
