"""Batched placement queries over the fleet margin registry.

:class:`PlacementService` is the query side of the fleet subsystem:
the scheduler asks ``place(jobs)`` and gets node assignments computed
by the paper's margin-aware policy over the registry's *effective*
margins (profiled margin capped by demotions, zero for retired nodes).
A TTL'd cache keeps the derived cluster view hot between queries and is
invalidated the moment any registry event lands (sequence-number
check), so a demotion ingested between two queries changes the second
answer — the acceptance test for this PR.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple, Union

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
    """Answer placement queries from registry state (see module doc).

    ``cache_ttl_s`` bounds how long a derived margin-bucket view may
    serve queries without re-deriving; any registry mutation (detected
    via ``last_seq``) invalidates it immediately regardless of age.

    Cache age is measured on an injectable **monotonic** clock (the
    ``NodeMarginProfiler`` pattern): the default source is
    ``time.monotonic``, never the wall clock, and explicitly passed
    ``now_s`` values are clamped to the high-water mark — so an NTP
    step backwards can neither make the view look younger than it is
    nor wedge freshness arithmetic on a negative age.
    """

    def __init__(self, registry: MarginRegistry,
                 policy: Optional[AllocationPolicy] = None,
                 cache_ttl_s: float = 300.0,
                 clock: Optional[Callable[[], float]] = None):
        if cache_ttl_s <= 0:
            raise ValueError("cache_ttl_s must be positive")
        self.registry = registry
        self.policy = policy or MarginAwareAllocationPolicy()
        self.cache_ttl_s = cache_ttl_s
        self.cache_hits = 0
        self.cache_misses = 0
        self._clock = clock if clock is not None else _time.monotonic
        self._seen_s = float("-inf")
        self._cached_at_s = 0.0
        self._cached_seq = -1
        self._cached_nodes: List[ClusterNode] = []

    def _now(self, now_s: Optional[float]) -> float:
        """Resolve the query time: explicit ``now_s`` (simulation
        clock) or the injectable monotonic clock, clamped to the
        high-water mark so time never runs backwards for the cache."""
        now = self._clock() if now_s is None else float(now_s)
        if now < self._seen_s:
            now = self._seen_s
        self._seen_s = now
        return now

    def cluster_view(self, now_s: Optional[float] = None
                     ) -> List[ClusterNode]:
        """Read-only :class:`ClusterNode` view of the fleet's effective
        margins (cached; see class docstring for invalidation)."""
        now = self._now(now_s)
        fresh = (self._cached_seq == self.registry.last_seq and
                 now - self._cached_at_s < self.cache_ttl_s)
        if fresh:
            self.cache_hits += 1
        else:
            self.cache_misses += 1
            self._cached_nodes = [
                ClusterNode(rec.node, rec.effective_margin_mts)
                for rec in self.registry.nodes()]
            self._cached_seq = self.registry.last_seq
            self._cached_at_s = now
        return list(self._cached_nodes)

    def bucket_counts(self, now_s: Optional[float] = None) -> dict:
        """Free-node count per margin bucket in the current view."""
        pool = FreeNodePool.of(self.cluster_view(now_s),
                               self.policy.buckets)
        return {b: n for b, n in pool.counts.items() if n}

    def place(self, jobs: Sequence[PlacementRequest],
              now_s: Optional[float] = None
              ) -> List[Optional[Assignment]]:
        """Assign nodes to a batch of jobs, in order.

        Each job takes its nodes out of the free pool for the rest of
        the batch; a job the policy cannot satisfy yields ``None`` (it
        would wait in queue) without blocking later, smaller jobs.
        """
        free = FreeNodePool.of(self.cluster_view(now_s),
                               self.policy.buckets)
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
