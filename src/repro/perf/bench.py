"""Benchmark harness behind ``repro perf bench``.

Times the Figure 12 sweep three ways —

* **fast**: :class:`~repro.perf.sweep.SweepRunner` with effective-cell
  deduplication and (where the host has cores to spare) a
  process-pool fan-out;
* **reference**: the same cell set simulated one-by-one, serially, at
  cycle fidelity with no deduplication — the shape of the sweep before
  this harness existed; and
* **recorded baseline**: numbers committed in
  ``benchmarks/perf/baseline.json`` (seed-tree serial wall time and an
  events/sec floor), so speedup and regression are judged against a
  fixed reference rather than whatever this checkout happens to do.

The report lands in ``BENCH_speedup.json``; the events/sec regression
gate trips when the fast path falls more than
:data:`REGRESSION_TOLERANCE` below the recorded baseline.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, Optional

from .sweep import SweepConfig, SweepRunner, _run_cell

#: Fractional events/sec drop vs the recorded baseline that trips the
#: regression gate (the CI perf-smoke job fails the build on it).
REGRESSION_TOLERANCE = 0.20

#: Default location of the recorded baseline, relative to the repo root.
DEFAULT_BASELINE = Path("benchmarks") / "perf" / "baseline.json"

#: Default report filename.
DEFAULT_REPORT = Path("BENCH_speedup.json")


def load_baseline(path: Optional[Path] = None) -> Optional[dict]:
    """Read the recorded baseline; None when the file is absent."""
    path = Path(path) if path is not None else DEFAULT_BASELINE
    if not path.exists():
        return None
    with open(path) as fh:
        return json.load(fh)


@dataclass
class BenchReport:
    """One ``repro perf bench`` outcome, serialized to
    ``BENCH_speedup.json``."""
    refs_per_core: int
    n_cells: int
    unique_simulations: int
    workers_requested: int
    workers_used: int
    cpu_capacity: int
    cap_reason: str
    fast_wall_s: float
    events_processed: int
    events_per_second: float
    fidelity: str = "cycle"
    reference_wall_s: Optional[float] = None
    speedup_vs_reference: Optional[float] = None
    baseline_wall_s: Optional[float] = None
    speedup_vs_baseline: Optional[float] = None
    baseline_events_per_second: Optional[float] = None
    regressed: bool = False
    fastmodel: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "bench": "fig12_sweep",
            "refs_per_core": self.refs_per_core,
            "n_cells": self.n_cells,
            "unique_simulations": self.unique_simulations,
            "workers": {"requested": self.workers_requested,
                        "used": self.workers_used,
                        "cpu_capacity": self.cpu_capacity,
                        "cap_reason": self.cap_reason},
            "fidelity": self.fidelity,
            "fast_wall_s": self.fast_wall_s,
            "events_processed": self.events_processed,
            "events_per_second": self.events_per_second,
            "reference_wall_s": self.reference_wall_s,
            "speedup_vs_reference": self.speedup_vs_reference,
            "baseline_wall_s": self.baseline_wall_s,
            "speedup_vs_baseline": self.speedup_vs_baseline,
            "baseline_events_per_second": self.baseline_events_per_second,
            "regressed": self.regressed,
            "regression_tolerance": REGRESSION_TOLERANCE,
            "fastmodel": self.fastmodel,
        }

    def write(self, path: Optional[Path] = None) -> Path:
        path = Path(path) if path is not None else DEFAULT_REPORT
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        return path


def _reference_pass(config: SweepConfig) -> tuple:
    """Time the un-optimized sweep shape: every grid cell simulated
    serially at cycle fidelity, no effective-cell deduplication."""
    runner = SweepRunner(replace(config, fidelity="cycle"))
    cells = config.cells()
    t0 = time.perf_counter()
    for cell in cells:
        _run_cell(runner._task(cell))
    return time.perf_counter() - t0, len(cells)


def fastmodel_benchmark(include_cycle: bool = True,
                        cluster_nodes: int = 10_000,
                        cluster_jobs: int = 2_000) -> Dict[str, object]:
    """Cycle-vs-fast fidelity side-by-side on the Figure 12 grid.

    Times one serial cycle-tier sweep and one fast-tier sweep at the
    calibration trace length, runs the fig12 cross-check gate, and
    times the calibrated 10k-node cluster sweep.  ``include_cycle``
    False skips the (minutes-long) cycle pass and reports only the
    fast side — the cross-check gate still runs, because its cycle
    numbers come from the calibration artifact, not a re-simulation.
    """
    from ..fastmodel import cluster_sweep, run_crosscheck
    from ..fastmodel.calibration import GRID_REFS_PER_CORE
    check = run_crosscheck()
    out: Dict[str, object] = {
        "refs_per_core": GRID_REFS_PER_CORE,
        "crosscheck_passed": check["passed"],
        "crosscheck_worst_bar": check["worst"]["bar"],
        "crosscheck_worst_abs_error": check["worst"]["abs_error"],
    }
    fast = SweepRunner(SweepConfig(refs_per_core=GRID_REFS_PER_CORE,
                                   fidelity="fast")).run()
    out["fast_sweep_wall_s"] = fast.wall_s
    out["fast_sweep_cells"] = len(fast.cells)
    if include_cycle:
        cycle = SweepRunner(SweepConfig(refs_per_core=GRID_REFS_PER_CORE,
                                        fidelity="cycle")).run()
        out["cycle_sweep_wall_s"] = cycle.wall_s
        if fast.wall_s:
            out["fast_speedup_vs_cycle"] = cycle.wall_s / fast.wall_s
    cluster = cluster_sweep(total_nodes=cluster_nodes,
                            job_count=cluster_jobs)
    out["cluster_nodes"] = cluster_nodes
    out["cluster_jobs"] = cluster_jobs
    out["cluster_wall_s"] = cluster["wall_s"]
    out["cluster_turnaround_improvement"] = \
        cluster["mean_turnaround_improvement"]
    return out


def run_perf_bench(refs_per_core: int = 120,
                   workers: int = 8,
                   fidelity: Optional[str] = None,
                   baseline_path: Optional[Path] = None,
                   seed: Optional[int] = None,
                   include_reference: bool = True,
                   include_fastmodel: bool = False,
                   fastmodel_cycle: bool = True) -> BenchReport:
    """Run the Figure 12 sweep benchmark and build the report.

    ``seed`` of None keeps the grid seed the recorded baseline was
    measured with.  The recorded baseline's wall time is scaled
    linearly in ``refs_per_core`` when the bench runs at a different
    trace length than the baseline was recorded at (simulation work is
    linear in the reference count, so the approximation is good; the
    baseline file records its own ``refs_per_core``).

    ``fidelity`` selects the tier for the main sweep (the recorded
    baseline and regression gate are only meaningful at cycle
    fidelity); ``include_fastmodel`` adds the cycle-vs-fast
    side-by-side section (see :func:`fastmodel_benchmark`).
    """
    kwargs = {"refs_per_core": refs_per_core, "workers": workers,
              "fidelity": fidelity}
    if seed is not None:
        kwargs["seeds"] = (seed,)
    config = SweepConfig(**kwargs)
    runner = SweepRunner(config)
    result = runner.run()
    report = BenchReport(
        refs_per_core=refs_per_core,
        n_cells=len(result.cells),
        unique_simulations=result.unique_simulations,
        workers_requested=workers,
        workers_used=result.workers_used,
        cpu_capacity=result.cpu_capacity,
        cap_reason=result.cap_reason,
        fidelity=runner._fidelity,
        fast_wall_s=result.wall_s,
        events_processed=result.events_processed,
        events_per_second=result.events_per_second,
        fastmodel=(fastmodel_benchmark(include_cycle=fastmodel_cycle)
                   if include_fastmodel else {}),
    )
    if include_reference:
        ref_wall, _ = _reference_pass(config)
        report.reference_wall_s = ref_wall
        if result.wall_s:
            report.speedup_vs_reference = ref_wall / result.wall_s
    baseline = load_baseline(baseline_path)
    # The recorded baseline measures the cycle engine; comparing a
    # closed-form pass against it (or gating on its events/sec floor
    # when no events were processed) would be meaningless.
    if baseline and runner._fidelity == "cycle":
        scale = refs_per_core / baseline["refs_per_core"]
        base_wall = baseline["seed_serial_wall_s"] * scale
        report.baseline_wall_s = base_wall
        if result.wall_s:
            report.speedup_vs_baseline = base_wall / result.wall_s
        floor = baseline.get("events_per_second")
        if floor:
            report.baseline_events_per_second = floor
            report.regressed = (report.events_per_second <
                                floor * (1.0 - REGRESSION_TOLERANCE))
    return report
