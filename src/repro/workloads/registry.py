"""Registry of the paper's six HPC benchmark suites (Section II-B).

Exposes the suite profiles in one place, plus each suite's calibration
target from Figure 15 (DRAM bandwidth utilization at manufacturer
specification under Hierarchy1).  The averages the paper reports weigh
every suite equally (footnote 1), which :func:`suite_names` preserves
by returning a stable ordering.
"""

from __future__ import annotations

from typing import Dict, List

from .base import WorkloadProfile
from . import coral2, graph500, hpcg, linpack, lulesh, npb

#: Suite profiles in the paper's presentation order.
PROFILES: Dict[str, WorkloadProfile] = {
    "linpack": linpack.PROFILE,
    "hpcg": hpcg.PROFILE,
    "graph500": graph500.PROFILE,
    "coral2": coral2.PROFILE,
    "lulesh": lulesh.PROFILE,
    "npb": npb.PROFILE,
}

#: Figure 15 calibration anchors: average DRAM bandwidth utilization at
#: spec under Hierarchy1 (fractions of peak).  The paper's figure is
#: not tabulated in its text; the binding calibration constraints are
#: the Figure 5 speedups (which ARE in the text), and these anchors
#: record what the calibrated baseline measures — the ordering (the
#: latency-bound graph suite lowest, the solvers near saturation) is
#: the shape the figure shows.
BANDWIDTH_TARGETS: Dict[str, float] = {
    "linpack": 0.82,
    "hpcg": 0.82,
    "graph500": 0.50,
    "coral2": 0.80,
    "lulesh": 0.78,
    "npb": 0.79,
}

#: Average write share of DRAM traffic reported by the paper ("writes
#: only account for ... 15%, see Figure 15").
AVERAGE_WRITE_SHARE = 0.15

#: Average share of core-hours in MPI communication under Hierarchy1.
AVERAGE_MPI_FRACTION = 0.13


def suite_names() -> List[str]:
    """The six suites in stable order."""
    return list(PROFILES)


def get_profile(name: str) -> WorkloadProfile:
    """Look up a suite profile; raises ``KeyError`` with the valid names."""
    try:
        return PROFILES[name]
    except KeyError:
        raise KeyError("unknown suite {!r}; valid: {}".format(
            name, ", ".join(PROFILES))) from None
