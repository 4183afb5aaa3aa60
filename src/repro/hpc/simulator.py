"""Event-driven HPC system simulator (Slurm-simulator stand-in).

Feeds a job trace through a cluster + scheduler and a node-performance
model.  For a Hetero-DMR system, each job's execution time is scaled by
the Hetero-DMR speedup at the *lowest* node margin among its allocated
nodes and at the job's memory-utilization bucket (jobs at >=50%
utilization see no benefit), exactly the methodology of Section IV-C.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..core.margin_selection import bucket_node_margin
from .cluster import Cluster
from .job import Job
from .scheduler import Allocation, EasyBackfillScheduler, FreeNodePool
from .traces import memory_bucket


@dataclass(frozen=True)
class PerformanceModel:
    """Speedup of the simulated system over the conventional one, by
    node margin bucket and job memory bucket.

    The default table is the hand-set one this reproduction started
    from (800 MT/s: 1.12, 600 MT/s: 1.09 for jobs under 50 %
    utilization), not a measurement: the committed Figure 12 does not
    reproduce it.  For speedups measured by this reproduction, build
    the model with
    :func:`repro.fastmodel.performance_model_from_calibration` (the
    calibrated fast tier) or
    :meth:`repro.sim.runner.Fig12Bars.performance_model` (a Figure 12
    grid).
    """
    speedups: Dict[int, Dict[str, float]] = field(default_factory=lambda: {
        800: {"under_25": 1.12, "25_to_50": 1.12, "over_50": 1.0},
        600: {"under_25": 1.09, "25_to_50": 1.09, "over_50": 1.0},
        0: {"under_25": 1.0, "25_to_50": 1.0, "over_50": 1.0},
    })

    def speedup(self, margin_mts: int, utilization: float) -> float:
        """Speedup for a node margin and job utilization; the margin is
        snapped into the model's buckets through the same
        ``bucket_node_margin`` the profiler and scheduler use (one
        bucketing rule, not three)."""
        bucket = memory_bucket(utilization)
        snapped = bucket_node_margin(margin_mts, tuple(self.speedups))
        table = self.speedups.get(snapped)
        if table is None:
            return 1.0
        return table.get(bucket, 1.0)


CONVENTIONAL_MODEL = PerformanceModel(speedups={0: {
    "under_25": 1.0, "25_to_50": 1.0, "over_50": 1.0}})


@dataclass
class SystemResult:
    """Aggregate metrics of one system simulation."""
    jobs: List[Job]

    def mean_execution_s(self) -> float:
        return sum(j.runtime_s for j in self.jobs) / len(self.jobs)

    def mean_queue_delay_s(self) -> float:
        return sum(j.queue_delay_s for j in self.jobs) / len(self.jobs)

    def mean_turnaround_s(self) -> float:
        return sum(j.turnaround_s for j in self.jobs) / len(self.jobs)

    def percentile_turnaround_s(self, fraction: float) -> float:
        """Turnaround percentile (e.g. 0.95 for the tail)."""
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("fraction must be in [0, 1]")
        ordered = sorted(j.turnaround_s for j in self.jobs)
        idx = min(len(ordered) - 1, int(fraction * len(ordered)))
        return ordered[idx]

    def mean_bounded_slowdown(self, tau_s: float = 600.0) -> float:
        """Mean bounded slowdown: turnaround / max(runtime, tau)."""
        return sum(j.turnaround_s / max(j.runtime_s, tau_s)
                   for j in self.jobs) / len(self.jobs)

    def node_utilization(self, total_nodes: int) -> float:
        if not self.jobs:
            return 0.0
        span = (max(j.finish_s for j in self.jobs) -
                min(j.submit_s for j in self.jobs))
        busy = sum(j.runtime_s * j.nodes_requested for j in self.jobs)
        return busy / (span * total_nodes) if span > 0 else 0.0

    def summary(self, total_nodes: int) -> Dict[str, float]:
        """The headline metrics, rounded for deterministic reports."""
        return {
            "mean_execution_s": round(self.mean_execution_s(), 3),
            "mean_queue_delay_s": round(self.mean_queue_delay_s(), 3),
            "mean_turnaround_s": round(self.mean_turnaround_s(), 3),
            "p95_turnaround_s": round(
                self.percentile_turnaround_s(0.95), 3),
            "mean_bounded_slowdown": round(
                self.mean_bounded_slowdown(), 6),
            "node_utilization": round(
                self.node_utilization(total_nodes), 6),
        }


class SystemSimulator:
    """Discrete-event simulation of submit -> queue -> run -> finish."""

    def __init__(self, cluster: Cluster,
                 scheduler: Optional[EasyBackfillScheduler] = None,
                 performance: Optional[PerformanceModel] = None):
        self.cluster = cluster
        self.scheduler = scheduler or EasyBackfillScheduler()
        self.performance = performance or CONVENTIONAL_MODEL

    def run(self, jobs: List[Job]) -> SystemResult:
        """Simulate the full trace; returns completed-job metrics.

        The input jobs are copied so a trace can be replayed through
        several system configurations.
        """
        jobs = [Job(j.job_id, j.submit_s, j.nodes_requested,
                    j.base_runtime_s, j.memory_utilization,
                    j.requested_walltime_s)
                for j in jobs]
        for job in jobs:
            if job.nodes_requested > len(self.cluster):
                raise ValueError("job {} wider than the cluster".format(
                    job.job_id))
        events: List[Tuple[float, int, str, Job]] = []
        for i, job in enumerate(jobs):
            heapq.heappush(events, (job.submit_s, i, "submit", job))
        queue: List[Job] = []
        free = FreeNodePool.of(self.cluster.nodes,
                               self.scheduler.policy.buckets)
        # Free-list order: a released node rejoins at the back.
        free_key = len(free)
        #: In-flight (finish_s, job) pairs, keyed by finish-event seq.
        running: Dict[int, Tuple[float, Job]] = {}
        #: Each in-flight job's nodes with their per-margin blocks,
        #: kept until it finishes and they are freed again.
        held: Dict[int, Allocation] = {}
        seq = len(jobs)
        while events:
            now, event_seq, kind, job = heapq.heappop(events)
            if kind == "submit":
                queue.append(job)
            else:
                job.finish_s = now
                del running[event_seq]
                taken = held.pop(event_seq)
                free.add_blocks(*taken.rekeyed(free_key))
                free_key += len(taken)
            for started, nodes in self.scheduler.schedule_pass(
                    now, queue, free, running.values()):
                started.allocated_nodes = nodes[:]
                started.start_s = now
                factor = self.performance.speedup(
                    nodes.min_margin, started.memory_utilization)
                started.runtime_s = started.base_runtime_s / factor
                finish = now + started.runtime_s
                running[seq] = (finish, started)
                held[seq] = nodes
                heapq.heappush(events, (finish, seq, "finish", started))
                seq += 1
        unfinished = [j for j in jobs if j.finish_s is None]
        if unfinished:
            raise RuntimeError("{} jobs never finished".format(
                len(unfinished)))
        return SystemResult(jobs)
