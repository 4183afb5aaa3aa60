"""HPC system substrate: job traces, cluster, schedulers, and the
system-wide simulator (Section IV-C)."""

from .cluster import Cluster, ClusterNode, DEFAULT_GROUP_FRACTIONS
from .job import Job
from .scheduler import (AllocationPolicy, EasyBackfillScheduler,
                        FreeNodePool, MarginAwareAllocationPolicy)
from .simulator import (CONVENTIONAL_MODEL, PerformanceModel,
                        SystemResult, SystemSimulator)
from .traces import (CLOUD_BUCKET_FRACTIONS, GRIZZLY_CORES_PER_NODE, GRIZZLY_JOB_COUNT,
                     GRIZZLY_MEMORY_GB_PER_NODE, GRIZZLY_MONTHS,
                     GRIZZLY_NODES, GRIZZLY_UTILIZATION,
                     MEMORY_BUCKET_FRACTIONS, TraceConfig,
                     bucket_fractions, draw_memory_utilization,
                     draw_node_count, draw_runtime_s, generate_trace,
                     memory_bucket)

__all__ = [
    "AllocationPolicy", "CLOUD_BUCKET_FRACTIONS", "CONVENTIONAL_MODEL",
    "Cluster", "ClusterNode", "DEFAULT_GROUP_FRACTIONS",
    "EasyBackfillScheduler", "FreeNodePool", "GRIZZLY_CORES_PER_NODE",
    "GRIZZLY_JOB_COUNT", "GRIZZLY_MEMORY_GB_PER_NODE", "GRIZZLY_MONTHS",
    "GRIZZLY_NODES", "GRIZZLY_UTILIZATION", "Job",
    "MEMORY_BUCKET_FRACTIONS", "MarginAwareAllocationPolicy",
    "PerformanceModel", "SystemResult", "SystemSimulator", "TraceConfig",
    "bucket_fractions", "draw_memory_utilization", "draw_node_count",
    "draw_runtime_s", "generate_trace", "memory_bucket",
]
