"""Synthetic HPC workload trace generators for the paper's six
benchmark suites."""

from .base import TraceGenerator, WorkloadProfile
from .registry import (AVERAGE_MPI_FRACTION, AVERAGE_WRITE_SHARE,
                       BANDWIDTH_TARGETS, PROFILES, get_profile, suite_names)

__all__ = [
    "AVERAGE_MPI_FRACTION", "AVERAGE_WRITE_SHARE", "BANDWIDTH_TARGETS",
    "PROFILES", "TraceGenerator", "WorkloadProfile", "get_profile",
    "suite_names",
]
