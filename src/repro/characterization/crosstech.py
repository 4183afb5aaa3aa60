"""Cross-technology margin pipeline: the Section II characterization
and the Hetero-DMR placement study rerun per memory backend.

The paper quantifies DDR4 frequency margin; the same methodology
transfers to any technology whose module margins are normally
distributed.  For each registered backend this module:

1. draws a seeded synthetic module population from the backend's
   margin distribution and buckets nodes into the backend's own
   scheduler classes (``MarginMonteCarlo``);
2. measures node-level Hetero-DMR speedups at the backend's margin
   rungs with the *cycle* engine (``ExperimentRunner(backend=...)``),
   building a :class:`~repro.hpc.simulator.PerformanceModel` keyed by
   those rungs; and
3. replays one synthetic job trace through the conventional system and
   the margin-aware system (scheduler classes = backend buckets).

:func:`compare_backends` runs the pipeline over several backends and
emits one deterministic comparison artifact — no wall-clock, no host
fields — so CI can run it twice and ``cmp`` the outputs
(``repro backend compare``).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

# The system-simulation imports (hpc, sim) stay inside the functions:
# ``repro.core`` imports this package at module scope and ``repro.hpc``
# imports ``repro.core``, so top-level imports here would be circular.
from ..dram.backend import get_backend, resolve_backend
from .montecarlo import MarginMonteCarlo

__all__ = ["backend_performance_model", "characterize_backend",
           "compare_backends", "placement_comparison"]


def characterize_backend(backend: Optional[str] = None,
                         trials: int = 4000,
                         seed: int = 2026) -> dict:
    """Section II / III-D characterization for one backend: seeded
    module-margin Monte Carlo bucketed into the backend's scheduler
    classes.  Deterministic for a given (backend, trials, seed)."""
    name = resolve_backend(backend)
    b = get_backend(name)
    mc = MarginMonteCarlo(mean_mts=b.margin_mean_mts,
                          stdev_mts=b.margin_stdev_mts, seed=seed)
    fractions = mc.node_group_fractions(trials,
                                        buckets=b.margin_buckets)
    channels = mc.channel_margins(trials)
    return {
        "backend": name,
        "spec_data_rate_mts": b.spec_data_rate_mts,
        "margin_buckets": list(b.margin_buckets),
        "rank_mux_factor": b.rank_mux_factor,
        "mux_latency_ns": b.mux_latency_ns,
        "module_margin_mean_mts": b.margin_mean_mts,
        "module_margin_stdev_mts": b.margin_stdev_mts,
        "trials": trials,
        "seed": seed,
        "node_group_fractions": {
            str(k): round(v, 6) for k, v in fractions.items()},
        "channel_fraction_at_bucket": {
            str(m): round(channels.fraction_at_least(m), 6)
            for m in b.margin_buckets},
    }


def backend_performance_model(backend: Optional[str] = None,
                              refs_per_core: int = 1500,
                              seed: int = 12345,
                              design: str = "hetero-dmr",
                              hierarchy: str = "Hierarchy1",
                              suites: Optional[Sequence[str]] = None,
                              read_error_rate: float = 0.0,
                              transition_fault_rate: float = 0.0
                              ) -> PerformanceModel:
    """Node-level Hetero-DMR speedups at the backend's margin rungs,
    measured with the cycle engine (the fast tier would need a
    per-backend calibration artifact; the comparison pipeline measures
    instead of predicting).

    Utilization resolves the effective design exactly as a node
    simulation would, so the >=50% bucket collapses to 1.0 on its own
    rather than by special-casing.  The fault-injection knobs flow into
    the margin cells (spec-only cells cannot fault), so a degraded
    fleet's system model reflects retry/transition overheads instead of
    clean-node speedups.
    """
    from ..cache.hierarchy import HIERARCHIES
    from ..sim.runner import ExperimentRunner, fig12_grid, grid_margins
    from ..workloads.registry import suite_names
    name = resolve_backend(backend)
    runner = ExperimentRunner(refs_per_core=refs_per_core, seed=seed,
                              fidelity="cycle", backend=name)

    def time_ns(suite, hier, cell_design, margin_mts, utilization):
        return runner.run(suite, hier, cell_design, margin_mts=margin_mts,
                          memory_utilization=utilization,
                          read_error_rate=read_error_rate,
                          transition_fault_rate=transition_fault_rate
                          ).time_ns

    return fig12_grid(time_ns, tuple(suites or suite_names()),
                      [HIERARCHIES[hierarchy]()], grid_margins(name),
                      designs=(design,)).performance_model(design)


def placement_comparison(backend: Optional[str],
                         model: "PerformanceModel",
                         group_fractions: Dict[int, float],
                         total_nodes: int = 200,
                         job_count: int = 400,
                         seed: int = 2026) -> dict:
    """One trace through the conventional system and the margin-aware
    system whose scheduler classes are the backend's buckets."""
    from ..hpc.cluster import Cluster
    from ..hpc.scheduler import (EasyBackfillScheduler,
                                 MarginAwareAllocationPolicy)
    from ..hpc.simulator import CONVENTIONAL_MODEL, SystemSimulator
    from ..hpc.traces import TraceConfig, generate_trace
    buckets = get_backend(backend).placement_buckets
    trace = generate_trace(TraceConfig(total_nodes=total_nodes,
                                       job_count=job_count, seed=seed))
    conventional = SystemSimulator(
        Cluster(total_nodes, group_fractions=group_fractions,
                seed=seed),
        performance=CONVENTIONAL_MODEL).run(trace)
    margin_aware = SystemSimulator(
        Cluster(total_nodes, group_fractions=group_fractions,
                seed=seed),
        scheduler=EasyBackfillScheduler(
            MarginAwareAllocationPolicy(buckets=buckets)),
        performance=model).run(trace)
    return {
        "conventional": conventional.summary(total_nodes),
        "margin_aware": margin_aware.summary(total_nodes),
        "mean_turnaround_improvement": round(
            conventional.mean_turnaround_s()
            / margin_aware.mean_turnaround_s(), 6),
        "mean_execution_improvement": round(
            conventional.mean_execution_s()
            / margin_aware.mean_execution_s(), 6),
    }


def compare_backends(backends: Sequence[str] = ("ddr4", "mrdimm"),
                     refs_per_core: int = 1500,
                     trials: int = 4000,
                     total_nodes: int = 200,
                     job_count: int = 400,
                     seed: int = 2026) -> dict:
    """The full cross-technology study: characterization + node
    speedups + placement, per backend, in one deterministic artifact.

    The first backend is the comparison baseline (DDR4 by canonical
    ordering); every other backend gets a relative row.
    """
    names = [resolve_backend(n) for n in backends]
    if len(set(names)) != len(names):
        raise ValueError("duplicate backends: {}".format(
            ", ".join(names)))
    report: Dict[str, object] = {
        "report": "backend_compare",
        "seed": seed,
        "refs_per_core": refs_per_core,
        "trials": trials,
        "total_nodes": total_nodes,
        "job_count": job_count,
        "backends": {},
    }
    per_backend: Dict[str, dict] = {}
    for name in names:
        character = characterize_backend(name, trials=trials, seed=seed)
        model = backend_performance_model(name,
                                          refs_per_core=refs_per_core,
                                          seed=12345)
        fractions = {int(k): v for k, v in
                     character["node_group_fractions"].items()}
        # Re-normalize the rounded fractions so Cluster's sum check
        # cannot trip on artifact-rounding residue.
        norm = sum(fractions.values())
        fractions = {k: v / norm for k, v in fractions.items()}
        placement = placement_comparison(
            name, model, fractions, total_nodes=total_nodes,
            job_count=job_count, seed=seed)
        entry = dict(character)
        entry["node_speedups"] = {
            str(m): {k: round(v, 6) for k, v in sorted(t.items())}
            for m, t in sorted(model.speedups.items())}
        entry["system"] = placement
        per_backend[name] = entry
        report["backends"][name] = entry
    baseline = names[0]
    comparison: Dict[str, dict] = {}
    for name in names[1:]:
        a, b_ = per_backend[baseline], per_backend[name]
        comparison[name] = {
            "vs": baseline,
            "spec_data_rate_ratio": round(
                b_["spec_data_rate_mts"] / a["spec_data_rate_mts"], 6),
            "turnaround_improvement_delta": round(
                b_["system"]["mean_turnaround_improvement"]
                - a["system"]["mean_turnaround_improvement"], 6),
            "top_bucket_fraction_delta": round(
                b_["node_group_fractions"][
                    str(b_["margin_buckets"][0])]
                - a["node_group_fractions"][
                    str(a["margin_buckets"][0])], 6),
        }
    report["comparison"] = comparison
    return report

