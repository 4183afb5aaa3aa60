"""Batched placement queries over the fleet margin registry.

:class:`PlacementService` is the query side of the fleet subsystem:
the scheduler asks ``place(jobs)`` and gets node assignments computed
by the paper's margin-aware policy over the registry's *effective*
margins (profiled margin capped by demotions, zero for retired nodes).
Every call builds its free pool from ``registry.nodes()``, so a
demotion ingested between two queries changes the second answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

from ..hpc.cluster import ClusterNode
from ..hpc.scheduler import (AllocationPolicy, FreeNodePool,
                             MarginAwareAllocationPolicy)
from .registry import MarginRegistry

#: A placement request: a Job-like object, ``(job_id, node_count)``,
#: or a bare node count (the job id is then its batch position).
PlacementRequest = Union[object, Tuple[int, int], int]


@dataclass(frozen=True)
class Assignment:
    """One placed job: which nodes, and the margin class it runs in
    (the bucket of the slowest allocated node, which is what the
    performance model keys on)."""
    job_id: int
    nodes: Tuple[int, ...]
    margin_bucket: int


def _request_key(job: PlacementRequest, position: int) -> Tuple[int, int]:
    """Normalize a request to ``(job_id, node_count)``."""
    if hasattr(job, "nodes_requested"):
        return int(getattr(job, "job_id", position)), \
            int(job.nodes_requested)
    if isinstance(job, tuple):
        return int(job[0]), int(job[1])
    return position, int(job)


class PlacementService:
    """Answer placement queries from registry state (see module doc)."""

    def __init__(self, registry: MarginRegistry,
                 policy: Optional[AllocationPolicy] = None):
        self.registry = registry
        self.policy = policy or MarginAwareAllocationPolicy()

    def place(self, jobs: Sequence[PlacementRequest]
              ) -> List[Optional[Assignment]]:
        """Assign nodes to a batch of jobs, in order.

        Each job takes its nodes out of the free pool for the rest of
        the batch; a job the policy cannot satisfy yields ``None`` (it
        would wait in queue) without blocking later, smaller jobs.
        """
        free = FreeNodePool.of(
            [ClusterNode(rec.node, rec.effective_margin_mts)
             for rec in self.registry.nodes()], self.policy.buckets)
        out: List[Optional[Assignment]] = []
        for position, job in enumerate(jobs):
            job_id, count = _request_key(job, position)
            if count <= 0:
                raise ValueError("jobs need at least one node")
            keys = self.policy.pick(free, count)
            if keys is None:
                out.append(None)
                continue
            chosen = free.take(keys)
            bucket = free.bucket(chosen.min_margin)
            out.append(Assignment(job_id,
                                  tuple(n.index for n in chosen),
                                  bucket))
        return out
