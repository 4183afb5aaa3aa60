"""Experiment orchestration for the evaluation figures, and the one
owner of the Figure 12 grid.

Maps each of the paper's evaluation experiments onto node simulations
and composes them with the paper's weighting rules:

* Figure 5:  the four Table II settings x six suites x two hierarchies
  (baseline design, timing override).
* Figure 12: {FMR, Hetero-DMR, Hetero-DMR+FMR} x usage buckets
  {[0,25), [25,50), [50,100]} x the backend's margin rungs (DDR4: 0.8
  and 0.6 GT/s) x hierarchies, normalized to the Commercial Baseline;
  the "[0~100%]" bar weights buckets by the Figure 1 job fractions,
  and the headline numbers weight margins by the node-group fractions
  (62% / 36%).
* Figures 13-15 reuse the same runs (energy, traffic, bandwidth).

:func:`fig12_grid` is that recipe, written once: the runner's bars,
the fast tier's cycle-vs-fast cross-check, and both system
performance models (calibrated and cycle-measured) all call it with
their own cell-time function.  :func:`grid_margins` gives every one
of them the same margin rungs.

Simulations are cached per configuration key, so a bench that asks for
several views of the same cell pays for one simulation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..analysis.stats import suite_average, weighted_mean
from ..cache.hierarchy import HIERARCHIES, HierarchyConfig
from ..core.margin_selection import NODE_GROUP_FRACTIONS
from ..dram.backend import get_backend, resolve_backend
from ..dram.timing import TABLE2_SETTINGS, TimingParameters
from ..hpc.simulator import PerformanceModel
from ..hpc.traces import MEMORY_BUCKET_FRACTIONS
from ..workloads.registry import suite_names
from .fidelity import ensure_fidelity_supported
from .node import (SPEC_ONLY_DESIGNS, NodeConfig, NodeResult,
                   effective_design, simulate_node)

#: Node-margin weights for the headline numbers: the Section III-D2
#: group fractions restricted to margin-bearing nodes.  Derived from
#: ``core.margin_selection.NODE_GROUP_FRACTIONS`` so the 62/36 split
#: lives in exactly one place (shared with ``hpc.cluster``).  Other
#: backends take the split by rung rank (see :func:`fig12_grid`).
MARGIN_WEIGHTS = {margin: fraction for margin, fraction
                  in NODE_GROUP_FRACTIONS.items() if margin > 0}

#: Figure 12 usage bucket -> the Figure 1 job memory bucket it stands
#: for (the system performance model's key).
_BUCKET_TO_JOB = {"0-25": "under_25", "25-50": "25_to_50",
                  "50-100": "over_50"}

#: Figure 1 usage-bucket weights used for the "[0~100%]" bars.
USAGE_WEIGHTS = {bucket: MEMORY_BUCKET_FRACTIONS[job]
                 for bucket, job in _BUCKET_TO_JOB.items()}

#: Representative utilization per bucket fed to the simulator.
BUCKET_UTILIZATION = {"0-25": 0.15, "25-50": 0.35, "50-100": 0.75}

#: Figure 12's designs, as configured (utilization resolves each
#: cell's effective design).
FIG12_DESIGNS = ("fmr", "hetero-dmr", "hetero-dmr+fmr")

#: ``time(suite, hierarchy, design, margin_mts, utilization)``: one
#: Figure 12 cell's runtime (any unit; only ratios are used).
CellTime = Callable[[str, HierarchyConfig, str, int, float], float]


def grid_margins(backend: Optional[str] = None) -> Tuple[int, ...]:
    """The Figure 12 grid's node margins for ``backend`` (None defers
    to ``REPRO_BACKEND``): its margin rungs, fastest first — DDR4
    800/600 MT/s, MRDIMM 2200/1600."""
    return tuple(get_backend(backend).margin_buckets)


@dataclass(frozen=True)
class Fig12Bars:
    """Figure 12's bars per hierarchy name (see :func:`fig12_grid`)."""
    margins: Tuple[int, ...]
    bars: Dict[str, Dict[str, float]]

    def _hierarchy_mean(self, label: str) -> float:
        values = [bars[label] for bars in self.bars.values()]
        return sum(values) / len(values)

    def headline(self, design: str) -> float:
        """The paper's headline number: weighted over usage buckets and
        margins, averaged over hierarchies."""
        return self._hierarchy_mean("{}/headline".format(design))

    def performance_model(self, design: str) -> PerformanceModel:
        """The system simulator's node-speedup model: each (margin, job
        bucket) entry is ``design``'s cell bar averaged over
        hierarchies; a node without margin (0) runs at parity."""
        speedups = {
            margin: {job: self._hierarchy_mean(
                         "{}@{}/{}".format(design, margin, bucket))
                     for bucket, job in _BUCKET_TO_JOB.items()}
            for margin in self.margins}
        speedups[0] = {job: 1.0 for job in _BUCKET_TO_JOB.values()}
        return PerformanceModel(speedups=speedups)


def fig12_grid(time: CellTime, suites: Sequence[str],
               hierarchies: Sequence[HierarchyConfig],
               margins: Sequence[int],
               designs: Sequence[str] = FIG12_DESIGNS) -> Fig12Bars:
    """Figure 12's bars (paper Section IV-A), per hierarchy, from one
    cell-time function.

    ``design@margin/bucket`` is the suite-equal average speedup over
    the baseline at the bucket's utilization, ``design@margin/all``
    weights the buckets by Figure 1's job fractions, and
    ``design/headline`` weights the margins by the node-group fractions
    by rank, fastest first, so every backend's rungs take the 62/36
    split.  Suites are summed in the order given, and bars are
    inserted design by design, then margin by margin (the
    cross-check's worst-bar pick breaks ties by that order).
    """
    rank_weights = list(zip(margins, MARGIN_WEIGHTS.values()))
    out: Dict[str, Dict[str, float]] = {}
    for hier in hierarchies:
        base = {s: time(s, hier, "baseline", margins[0],
                        BUCKET_UTILIZATION["0-25"]) for s in suites}
        bars: Dict[str, float] = {}
        for design in designs:
            for margin in margins:
                label = "{}@{}/".format(design, margin)
                for bucket, util in BUCKET_UTILIZATION.items():
                    bars[label + bucket] = suite_average({
                        s: base[s] / time(s, hier, design, margin, util)
                        for s in suites})
                bars[label + "all"] = weighted_mean(
                    [bars[label + b] for b in USAGE_WEIGHTS],
                    list(USAGE_WEIGHTS.values()))
            bars["{}/headline".format(design)] = weighted_mean(
                [bars["{}@{}/all".format(design, m)]
                 for m, _ in rank_weights],
                [w for _, w in rank_weights])
        out[hier.name] = bars
    return Fig12Bars(margins=tuple(margins), bars=out)


@dataclass
class ExperimentRunner:
    """Runs and caches node simulations for one trace length/seed.

    ``fidelity`` selects the model tier per
    :func:`repro.sim.fidelity.resolve_fidelity` (None defers to
    ``REPRO_FIDELITY``); the cache is per-runner, so one runner never
    mixes tiers.
    """
    refs_per_core: int = 5000
    seed: int = 12345
    fidelity: Optional[str] = None
    #: Memory-technology backend (None defers to ``REPRO_BACKEND``).
    backend: Optional[str] = None
    _cache: Dict[tuple, NodeResult] = field(default_factory=dict)

    # -- primitives ---------------------------------------------------------------

    def run(self, suite: str, hierarchy: HierarchyConfig,
            design: str = "baseline",
            timing: Optional[TimingParameters] = None,
            margin_mts: int = 800,
            memory_utilization: float = 0.15,
            use_latency_margin: bool = True,
            read_error_rate: float = 0.0,
            transition_fault_rate: float = 0.0) -> NodeResult:
        """Simulate one cell (cached).

        ``use_latency_margin``, ``read_error_rate``, and
        ``transition_fault_rate`` parameterize degradation-ladder and
        chaos-campaign cells; the figure benches leave them at their
        defaults.

        The cache key is *normalized to the effective cell*: utilization
        only selects the effective design (see
        :func:`repro.sim.node.effective_design`), and for effective
        designs that never leave specification timing the margin and
        fault knobs cannot influence the outcome, so such cells
        deduplicate onto one simulation.  On the Figure 12 grid this
        cuts the number of distinct simulations by ~2.7x."""
        # Validate the fidelity/knob combination BEFORE the cache
        # lookup: a hit on a knob-normalized key must not bypass the
        # fast tier's fault-injection refusal.
        ensure_fidelity_supported(
            self.fidelity,
            knobs={"read_error_rate": read_error_rate,
                   "transition_fault_rate": transition_fault_rate},
            source="ExperimentRunner.run")
        backend = resolve_backend(self.backend)
        eff = effective_design(design, memory_utilization)
        knobs = None if eff in SPEC_ONLY_DESIGNS else (
            margin_mts, use_latency_margin, read_error_rate,
            transition_fault_rate)
        key = (suite, hierarchy.name, eff, backend,
               timing.data_rate_mts if timing else None,
               timing.tRCD_ns if timing else None, knobs)
        if key not in self._cache:
            self._cache[key] = simulate_node(NodeConfig(
                suite=suite, hierarchy=hierarchy, design=design,
                timing=timing, margin_mts=margin_mts,
                memory_utilization=memory_utilization,
                use_latency_margin=use_latency_margin,
                read_error_rate=read_error_rate,
                transition_fault_rate=transition_fault_rate,
                refs_per_core=self.refs_per_core, seed=self.seed,
                fidelity=self.fidelity, backend=backend))
        return self._cache[key]

    def baseline(self, suite: str,
                 hierarchy: HierarchyConfig) -> NodeResult:
        return self.run(suite, hierarchy, "baseline")

    # -- Figure 5 -------------------------------------------------------------------

    def table2_speedups(self, hierarchy: HierarchyConfig
                        ) -> Dict[str, Dict[str, float]]:
        """Per-setting, per-suite speedup over the manufacturer
        setting (Figure 5)."""
        spec_name = "Manufacturer-specified Setting"
        out: Dict[str, Dict[str, float]] = {}
        spec_times = {
            s: self.run(s, hierarchy, timing=TABLE2_SETTINGS[spec_name])
            .time_ns for s in suite_names()}
        for name, timing in TABLE2_SETTINGS.items():
            per_suite = {}
            for s in suite_names():
                r = self.run(s, hierarchy, timing=timing)
                per_suite[s] = spec_times[s] / r.time_ns
            out[name] = per_suite
        return out

    # -- Figure 12 ---------------------------------------------------------------------

    def _time_ns(self, suite: str, hierarchy: HierarchyConfig,
                 design: str, margin_mts: int,
                 memory_utilization: float) -> float:
        return self.run(suite, hierarchy, design, margin_mts=margin_mts,
                        memory_utilization=memory_utilization).time_ns

    def fig12_bars(self, hierarchies: Optional[List[HierarchyConfig]]
                   = None) -> Fig12Bars:
        """Figure 12 on this runner's backend's margin rungs, every
        suite, both hierarchies unless given."""
        hierarchies = hierarchies or [f() for f in HIERARCHIES.values()]
        return fig12_grid(self._time_ns, suite_names(), hierarchies,
                          grid_margins(self.backend))
