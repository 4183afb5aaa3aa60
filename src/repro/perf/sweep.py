"""Parallel sweep runner for node-simulation grids.

Fans the cells of a (design x workload x seed) grid across a
``ProcessPoolExecutor``, reusing the fleet profiler's determinism
discipline (:func:`repro.fleet.profiler.node_seed`-style derived seeds,
``pool.map`` in-task-order ingestion, serial fallback where the
platform cannot spawn workers).  The same sweep therefore produces
byte-identical cell results — wall-time fields aside — at any worker
count, which CI asserts.

Before dispatch, cells are *deduplicated to effective cells*: two
cells whose configurations cannot produce different outcomes (see
:func:`repro.sim.node.effective_design` and the experiment runner's
key normalization) share one simulation, and the result is mirrored
back to every aliasing cell.  On the Figure 12 grid this cuts the
number of simulations ~2.7x, which is where most of the sweep speedup
comes from on few-core hosts.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..cache.hierarchy import HIERARCHIES
from ..dram.backend import resolve_backend
from ..sim.fidelity import ensure_fidelity_supported
from ..sim.node import NodeConfig, effective_design, simulate_node
from ..sim.runner import BUCKET_UTILIZATION
from ..workloads.registry import suite_names

#: Effective designs that never leave spec timing (margin knobs inert).
_SPEC_ONLY = ("baseline", "baseline-plain", "fmr")


def available_cpus() -> int:
    """CPUs this process may actually run on.

    ``os.cpu_count()`` reports the host's cores, which overcounts under
    CPU affinity masks and container cpusets, where a sweep would then
    oversubscribe the cores it may actually use.  Prefer the scheduler
    affinity mask where the platform exposes it.

    On platforms without ``sched_getaffinity`` (macOS, Windows) — or
    when the call fails, or reports an empty mask — fall back to
    ``os.cpu_count()``; the result is never 0 or ``None``.
    """
    getaffinity = getattr(os, "sched_getaffinity", None)
    if getaffinity is not None:
        try:
            count = len(getaffinity(0))
        except (OSError, ValueError):  # pragma: no cover - exotic
            count = 0
        if count > 0:
            return count
    count = os.cpu_count() or 0
    return count if count > 0 else 1

#: NodeResult fields copied into each cell's result record.
_RESULT_FIELDS = (
    "time_ns", "instructions", "dram_reads", "dram_writes",
    "dram_write_bursts", "mean_read_latency_ns", "bus_utilization",
    "row_hit_rate", "llc_miss_rate", "activates", "refreshes",
    "transitions", "effective_design", "events_processed",
    "schedule_clamped")


@dataclass(frozen=True)
class SweepConfig:
    """One sweep campaign over the node-simulation grid.

    The grid is the cross product of ``suites x hierarchies x designs
    x margins x buckets x seeds`` (baseline cells ignore margins and
    buckets — they are normalized away).  ``workers <= 1`` runs
    serially; larger values fan out over a process pool with identical
    results.
    """
    suites: Tuple[str, ...] = ()
    hierarchies: Tuple[str, ...] = ("Hierarchy1", "Hierarchy2")
    designs: Tuple[str, ...] = ("baseline", "fmr", "hetero-dmr",
                                "hetero-dmr+fmr")
    margins: Tuple[int, ...] = (800, 600)
    buckets: Tuple[str, ...] = ("0-25", "25-50", "50-100")
    seeds: Tuple[int, ...] = (12345,)
    refs_per_core: int = 3000
    workers: int = 0
    #: Fidelity tier for every cell ("cycle", "fast", or None for the
    #: ``REPRO_FIDELITY`` default).  Fast cells are closed-form: the
    #: runner skips the process pool and evaluates the whole grid as
    #: one numpy batch.
    fidelity: Optional[str] = None
    #: Memory-technology backend for every cell ("ddr4", "mrdimm", or
    #: None for the ``REPRO_BACKEND`` default).
    backend: Optional[str] = None
    #: Fault-injection knobs applied to every margin-bearing cell
    #: (chaos-style campaigns over the grid); cycle fidelity only.
    read_error_rate: float = 0.0
    transition_fault_rate: float = 0.0

    def __post_init__(self) -> None:
        if not self.suites:
            object.__setattr__(self, "suites", tuple(suite_names()))
        if self.refs_per_core <= 0:
            raise ValueError("refs_per_core must be positive")
        for h in self.hierarchies:
            if h not in HIERARCHIES:
                raise ValueError("unknown hierarchy {!r}".format(h))
        for b in self.buckets:
            if b not in BUCKET_UTILIZATION:
                raise ValueError("unknown bucket {!r}".format(b))
        if self.backend is not None:
            resolve_backend(self.backend)
        for knob in ("read_error_rate", "transition_fault_rate"):
            if not 0.0 <= getattr(self, knob) <= 1.0:
                raise ValueError("{} must be a probability".format(knob))
        if self.fidelity is not None:
            # Validate the tier AND the knob combination right here at
            # config construction, not deep inside a pool worker.
            ensure_fidelity_supported(
                self.fidelity,
                knobs={"read_error_rate": self.read_error_rate,
                       "transition_fault_rate":
                           self.transition_fault_rate},
                source="SweepConfig")

    def cells(self) -> List[dict]:
        """The sweep's cells in deterministic grid order."""
        out = []
        for hier in self.hierarchies:
            for suite in self.suites:
                for seed in self.seeds:
                    for design in self.designs:
                        if design in ("baseline", "baseline-plain"):
                            out.append(dict(
                                suite=suite, hierarchy=hier,
                                design=design, margin_mts=800,
                                bucket="0-25", seed=seed))
                            continue
                        for margin in self.margins:
                            for bucket in self.buckets:
                                out.append(dict(
                                    suite=suite, hierarchy=hier,
                                    design=design, margin_mts=margin,
                                    bucket=bucket, seed=seed))
        return out


def cell_key(cell: dict) -> tuple:
    """Normalized effective-cell key: cells with equal keys provably
    produce identical simulation results."""
    util = BUCKET_UTILIZATION[cell["bucket"]]
    eff = effective_design(cell["design"], util)
    if eff in _SPEC_ONLY:
        return (cell["suite"], cell["hierarchy"], eff, None,
                cell["seed"])
    return (cell["suite"], cell["hierarchy"], eff, cell["margin_mts"],
            cell["seed"])


def _task_config(task: Tuple) -> NodeConfig:
    (suite, hierarchy, design, margin_mts, bucket, seed, refs,
     fidelity, backend, read_error_rate, transition_fault_rate) = task
    return NodeConfig(
        suite=suite, hierarchy=HIERARCHIES[hierarchy](), design=design,
        margin_mts=margin_mts,
        memory_utilization=BUCKET_UTILIZATION[bucket],
        refs_per_core=refs, seed=seed, fidelity=fidelity, backend=backend,
        read_error_rate=read_error_rate,
        transition_fault_rate=transition_fault_rate)


def _outcome(result) -> dict:
    return {name: getattr(result, name) for name in _RESULT_FIELDS}


def _run_cell(task: Tuple) -> dict:
    """Worker body: simulate one effective cell (top-level so it
    pickles).  Returns outcome fields plus the cell's wall time."""
    t0 = time.perf_counter()
    result = simulate_node(_task_config(task))
    out = _outcome(result)
    out["wall_s"] = time.perf_counter() - t0
    return out


@dataclass
class SweepResult:
    """Outcome of one sweep: per-cell records plus accounting.

    ``cap_reason`` explains any gap between requested and used workers
    ("" when they match): ``cpu-capacity`` (affinity mask / cpuset had
    fewer CPUs than requested), ``single-task`` (nothing to fan out),
    ``pool-unavailable`` (the platform refused to spawn workers),
    ``pool-broken`` (workers died mid-sweep; rerun serially), or
    ``fast-fidelity`` (closed-form cells evaluate as one batch; no
    pool by design).  ``fidelity`` and ``backend`` are the tier and
    memory backend the cells ran on, resolved from the config and the
    ``REPRO_*`` environment.
    """
    cells: List[dict]
    unique_simulations: int
    wall_s: float
    workers_used: int
    events_processed: int
    fidelity: str
    backend: str
    cap_reason: str = ""

    @property
    def events_per_second(self) -> float:
        return self.events_processed / self.wall_s if self.wall_s else 0.0

    def deterministic_view(self) -> List[dict]:
        """Cell records with wall-time fields stripped — the part that
        must be byte-identical at any worker count."""
        out = []
        for cell in self.cells:
            clean = {k: v for k, v in cell.items() if k != "wall_s"}
            out.append(clean)
        return out


class SweepRunner:
    """Runs a sweep's unique effective cells across a process pool —
    or, at fast fidelity, as one closed-form batch with no pool at
    all."""

    def __init__(self, config: SweepConfig):
        self.config = config
        # Resolve once (environment included) so every worker receives
        # an explicit tier/backend and the whole sweep provably ran on
        # one; the knob guard re-runs here because an env-resolved
        # "fast" bypasses the config-time check.
        self._fidelity = ensure_fidelity_supported(
            config.fidelity,
            knobs={"read_error_rate": config.read_error_rate,
                   "transition_fault_rate": config.transition_fault_rate},
            source="SweepRunner")
        self._backend = resolve_backend(config.backend)

    def _unique_tasks(self, cells: List[dict]
                      ) -> Tuple[List[Tuple], Dict[tuple, int]]:
        """Deduplicate cells to effective-cell tasks, preserving first
        occurrence order (deterministic at any worker count)."""
        order: Dict[tuple, int] = {}
        tasks: List[Tuple] = []
        for cell in cells:
            key = cell_key(cell)
            if key in order:
                continue
            order[key] = len(tasks)
            tasks.append(self._task(cell))
        return tasks, order

    def _task(self, cell: dict) -> Tuple:
        """The picklable worker task that simulates ``cell``."""
        cfg = self.config
        return (cell["suite"], cell["hierarchy"], cell["design"],
                cell["margin_mts"], cell["bucket"], cell["seed"],
                cfg.refs_per_core, self._fidelity, self._backend,
                cfg.read_error_rate, cfg.transition_fault_rate)

    def _map(self, tasks: List[Tuple]) -> List[dict]:
        """Run tasks, in order, serially or over a process pool.
        ``pool.map`` yields in task order, so ingestion order (and
        therefore every downstream artifact) is identical at any
        worker count.  Sets ``workers_used`` and ``cap_reason`` so a
        serial run is always explained, never silent.  Workers are
        capped at the CPUs this process may run on: results are
        identical at any worker count, so oversubscribing cores only
        adds pool overhead."""
        self.workers_used = 1
        self.cap_reason = ""
        if self._fidelity == "fast":
            # Closed-form cells: one batched evaluation beats any
            # worker count, so the pool is skipped by design.
            self.cap_reason = "fast-fidelity"
            return self._map_fast(tasks)
        workers = self.config.workers
        capacity = available_cpus()
        if workers > capacity:
            workers = capacity
            self.cap_reason = "cpu-capacity"
        if workers > 1 and len(tasks) <= 1:
            self.cap_reason = "single-task"
        if workers > 1 and len(tasks) > 1:
            try:
                from concurrent.futures import ProcessPoolExecutor
                from concurrent.futures.process import BrokenProcessPool
                chunk = max(1, len(tasks) // (workers * 4))
                with ProcessPoolExecutor(max_workers=workers) as pool:
                    outcomes = list(pool.map(_run_cell, tasks,
                                             chunksize=chunk))
                self.workers_used = workers
                return outcomes
            except (OSError, PermissionError):
                # Sandboxed: the platform refuses to spawn workers.
                self.cap_reason = "pool-unavailable"
            except BrokenProcessPool:
                # Workers died mid-sweep (OOM-killed, interpreter
                # mismatch, ...).  Cells are deterministic, so a full
                # serial rerun gives identical results.
                self.cap_reason = "pool-broken"
        return [_run_cell(task) for task in tasks]

    def _map_fast(self, tasks: List[Tuple]) -> List[dict]:
        """Evaluate every unique cell in one closed-form batch
        (numpy-vectorized when available; bit-identical scalar
        fallback otherwise)."""
        from ..fastmodel import simulate_nodes_fast
        t0 = time.perf_counter()
        results = simulate_nodes_fast([_task_config(task)
                                       for task in tasks])
        per_cell = (time.perf_counter() - t0) / max(1, len(results))
        outcomes = []
        for result in results:
            out = _outcome(result)
            out["wall_s"] = per_cell
            outcomes.append(out)
        return outcomes

    def run(self) -> SweepResult:
        """Execute the sweep; returns per-cell records in grid order."""
        cells = self.config.cells()
        tasks, order = self._unique_tasks(cells)
        t0 = time.perf_counter()
        outcomes = self._map(tasks)
        wall = time.perf_counter() - t0
        records = []
        for cell in cells:
            outcome = outcomes[order[cell_key(cell)]]
            record = dict(cell)
            record.update(outcome)
            records.append(record)
        events = sum(o["events_processed"] for o in outcomes)
        return SweepResult(cells=records,
                           unique_simulations=len(tasks),
                           wall_s=wall,
                           workers_used=self.workers_used,
                           events_processed=events,
                           fidelity=self._fidelity,
                           backend=self._backend,
                           cap_reason=self.cap_reason)
