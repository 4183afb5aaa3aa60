"""Fast-tier cluster pipeline: calibrated node speedups driving
10k-node system sweeps.

Closes the loop the cycle tier cannot afford: derive the
:class:`~repro.hpc.simulator.PerformanceModel` from the calibration
artifact (instead of the hand-transcribed Figure 12 constants) and
feed it to the discrete-event system simulator at fleet scale.  The
node side is closed-form, so a 10,000-node sweep is bounded by the
scheduler, not the memory model — seconds, not CPU-months.
"""

from __future__ import annotations

import time
from typing import Optional, Tuple

from ..cache.hierarchy import HIERARCHIES
from ..hpc.cluster import Cluster
from ..hpc.simulator import (CONVENTIONAL_MODEL, PerformanceModel,
                             SystemSimulator)
from ..hpc.traces import TraceConfig, generate_trace
from ..sim.runner import fig12_grid, grid_margins
from .calibration import Calibration, load_default_calibration


def performance_model_from_calibration(
        calibration: Optional[Calibration] = None,
        design: str = "hetero-dmr",
        hierarchies: Optional[Tuple[str, ...]] = None
        ) -> PerformanceModel:
    """Build the system-level performance model from the fast tier.

    Each (margin, job bucket) entry is the Figure 12 bar for
    ``design`` on the calibrated backend's margin rungs, averaged
    across hierarchies
    (:meth:`repro.sim.runner.Fig12Bars.performance_model`).
    Utilization resolves the effective design exactly as a node
    simulation would, so the >=50% bucket collapses to 1.0 on its own
    (replication is infeasible there), not by special-casing.
    """
    calibration = calibration or load_default_calibration()
    hierarchies = tuple(hierarchies) if hierarchies else \
        tuple(calibration.grid["hierarchies"])
    return fig12_grid(calibration.fast_time, calibration.grid["suites"],
                      [HIERARCHIES[name]() for name in hierarchies],
                      grid_margins(calibration.backend),
                      designs=(design,)).performance_model(design)


def cluster_sweep(total_nodes: int = 10_000, job_count: int = 2_000,
                  seed: int = 17,
                  calibration: Optional[Calibration] = None) -> dict:
    """10k-node fleet sweep: one synthetic trace replayed through the
    conventional system and the Hetero-DMR system whose node speedups
    come from the calibrated fast tier.

    Returns a deterministic report plus ``wall_s`` (the only
    non-deterministic field — drop it before diffing runs).
    """
    model = performance_model_from_calibration(calibration)
    trace = generate_trace(TraceConfig(total_nodes=total_nodes,
                                       job_count=job_count, seed=seed))
    t0 = time.perf_counter()
    conventional = SystemSimulator(
        Cluster(total_nodes, seed=seed),
        performance=CONVENTIONAL_MODEL).run(trace)
    hetero = SystemSimulator(
        Cluster(total_nodes, seed=seed),
        performance=model).run(trace)
    wall_s = time.perf_counter() - t0
    return {
        "sweep": "fastmodel_cluster",
        "total_nodes": total_nodes,
        "job_count": job_count,
        "seed": seed,
        "model_speedups": {str(m): {k: round(v, 6)
                                    for k, v in sorted(t.items())}
                           for m, t in sorted(model.speedups.items())},
        "conventional": conventional.summary(total_nodes),
        "hetero_dmr": hetero.summary(total_nodes),
        "mean_turnaround_improvement": round(
            conventional.mean_turnaround_s()
            / hetero.mean_turnaround_s(), 6),
        "wall_s": wall_s,
    }

