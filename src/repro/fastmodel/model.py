"""Closed-form analytical node model (the ``fast`` fidelity tier).

One node simulation is reduced to a closed form of the normalized
runtime ``t_norm = time_ns / refs_per_core``:

    t_norm = intercept[suite, hierarchy, design]
             + slope[suite, hierarchy] * x_total(timing, counts)
             + transition_offset

``x_total`` is the memory-time feature — the sum of four terms that
are pure functions of the DDR timing in force and the cell's
calibrated traffic counts:

* ``x_bus``   — read data-bus occupancy per channel: reads/ref x
  burst time at the *read-mode* timing, inflated by the refresh duty
  cycle ``1 / (1 - tRFC/tREFI)`` (the latency-margin setting's longer
  tREFI shrinks this term);
* ``x_row``   — row-activation overhead visible after bank-level
  parallelism: reads/ref x row-miss rate x (tRCD + tRP), divided by
  the banks per channel (replication-active designs compact into half
  the ranks, halving bank parallelism);
* ``x_write`` — write data-bus occupancy per channel at the
  *write-mode* timing (manufacturer spec for Hetero-DMR designs — the
  paper's central asymmetry — or the timing override for Table II
  settings);
* ``x_dep``   — dependent-load latency per core: reads per core-ref x
  the un-overlappable access latency (tCAS + row-miss x tRCD + burst).

``transition_offset`` prices write-mode entries at their physical
cost: two frequency transitions for Hetero-DMR designs, two bus
turnarounds otherwise (no fitted coefficient — the cost is known).

Calibration (:mod:`repro.fastmodel.calibration`) fits the **slope**
per (suite, hierarchy) from the 800-vs-600 MT/s margin pairs — how
much of the timing-feature delta actually surfaces as runtime after
overlap — and the **intercept** per (suite, hierarchy, effective
design) as the design's mean unexplained time.  Intercepts are
deliberately *not* keyed by margin: inside a design, the margin
ordering must come from the timing physics in ``x_total``, which is
what makes the fig12 ranking cross-check a real gate rather than a
tautology.
"""

from __future__ import annotations

from typing import Dict, List, Optional, TYPE_CHECKING

from ..cache.hierarchy import HierarchyConfig
from ..dram.backend import DDR4_BACKEND, MemoryBackend, resolve_backend
from ..dram.frequency import TRANSITION_NS
from ..dram.rank import BANKS_PER_RANK
from ..dram.timing import TimingParameters
from ..mem_ctrl.policy import CONVENTIONAL_TURNAROUND_NS
from ..sim.fidelity import ensure_fidelity_supported

if TYPE_CHECKING:   # pragma: no cover - import cycle guard
    from ..sim.node import NodeConfig, NodeResult
    from .calibration import Calibration

#: Bump when the feature definitions change: a calibration fitted
#: against one feature set must not be evaluated with another.
MODEL_VERSION = 3

#: Designs whose read mode runs above specification.
_MARGIN_DESIGNS = ("hetero-dmr", "hetero-dmr+fmr")

#: Designs that replicate into half the modules (halved bank-level
#: parallelism for demand traffic; mirrors ``NodeSimulation``).
_REPLICATING_DESIGNS = ("fmr", "hetero-dmr", "hetero-dmr+fmr")


class FastModelError(ValueError):
    """The fast tier cannot serve this configuration."""


def read_timing(design: str, margin_mts: int, use_latency_margin: bool,
                timing: Optional[TimingParameters],
                backend: MemoryBackend = DDR4_BACKEND) -> TimingParameters:
    """The timing the channel runs during read mode for ``design``.

    Mirrors ``NodeSimulation._build_channels``: Hetero-DMR designs boot
    into the fast setting (spec + margin, optionally + latency margin)
    regardless of any safe-timing override; everything else reads at
    the override or the backend's specified setting.
    """
    if design in _MARGIN_DESIGNS:
        return backend.fast_timing(margin_mts, use_latency_margin)
    return timing or backend.spec_timing()


def write_timing(design: str, timing: Optional[TimingParameters],
                 backend: MemoryBackend = DDR4_BACKEND
                 ) -> TimingParameters:
    """The timing in force while write batches drain: Hetero-DMR
    transitions back to the safe setting; other designs never leave
    their configured timing."""
    if design in _MARGIN_DESIGNS:
        return backend.spec_timing()
    return timing or backend.spec_timing()


def banks_per_channel(hierarchy: HierarchyConfig, design: str,
                      backend: MemoryBackend = DDR4_BACKEND) -> int:
    """Banks available to demand traffic on one channel (the backend's
    rank multiplexing multiplies the logical ranks)."""
    ranks = hierarchy.modules_per_channel * \
        backend.effective_ranks(hierarchy.ranks_per_module)
    if design in _REPLICATING_DESIGNS:
        ranks //= 2
    return ranks * BANKS_PER_RANK


def features(hierarchy: HierarchyConfig, design: str,
             read_t: TimingParameters, write_t: TimingParameters,
             reads_n: float, writes_n: float, row_hit_rate: float,
             entries_n: float,
             backend: MemoryBackend = DDR4_BACKEND) -> Dict[str, float]:
    """The model's feature terms for one cell.

    Counts are normalized per core-reference-step (``count /
    refs_per_core``); ``reads_n`` and ``writes_n`` therefore already
    include the core count, while the dependent-latency term divides it
    back out (stalls serialize per core, not per node).
    """
    nchan = hierarchy.channels
    miss = 1.0 - row_hit_rate
    refresh_inflation = 1.0 / (1.0 - read_t.tRFC_ns / read_t.tREFI_ns)
    x_bus = reads_n * read_t.burst_time_ns * refresh_inflation / nchan
    x_row = (reads_n * miss * (read_t.tRCD_ns + read_t.tRP_ns)
             / (nchan * banks_per_channel(hierarchy, design, backend)))
    x_write = writes_n * write_t.burst_time_ns / nchan
    x_dep = (reads_n / hierarchy.cores) * (
        read_t.tCAS_ns + miss * read_t.tRCD_ns + read_t.burst_time_ns)
    entry_cost = (2.0 * TRANSITION_NS if design in _MARGIN_DESIGNS
                  else 2.0 * CONVENTIONAL_TURNAROUND_NS)
    x_total = ((x_bus + x_row) + x_write) + x_dep
    return {"x_bus": x_bus, "x_row": x_row, "x_write": x_write,
            "x_dep": x_dep, "x_total": x_total,
            "offset": entries_n * entry_cost}


def evaluate(intercept: float, slope: float,
             feats: Dict[str, float]) -> float:
    """Predicted ``t_norm`` for one cell."""
    return (intercept + slope * feats["x_total"]) + feats["offset"]


def predict_cell(calibration: "Calibration", suite: str,
                 hierarchy: HierarchyConfig, design: str,
                 margin_mts: int, use_latency_margin: bool = True,
                 timing: Optional[TimingParameters] = None
                 ) -> Dict[str, float]:
    """Predict one *effective* cell: returns the calibrated cell stats
    plus the predicted ``t_norm``.

    ``design`` must already be the effective design (callers resolve
    utilization first).  Margins not in the calibration grid borrow the
    nearest calibrated cell's traffic counts while the timing features
    track the requested margin exactly — that is what lets the
    adaptive ladder's intermediate rungs use the fast tier.
    """
    from ..dram.backend import get_backend
    backend = get_backend(calibration.backend)
    cell = calibration.lookup_cell(suite, hierarchy.name, design,
                                   margin_mts)
    slope = calibration.slope_for(suite, hierarchy.name)
    intercept = calibration.intercept_for(suite, hierarchy.name, design)
    read_t = read_timing(design, margin_mts, use_latency_margin, timing,
                         backend)
    write_t = write_timing(design, timing, backend)
    feats = features(hierarchy, design, read_t, write_t,
                     cell["reads_n"], cell["writes_n"],
                     cell["row_hit_rate"], cell["entries_n"], backend)
    out = dict(cell)
    out["t_norm"] = evaluate(intercept, slope, feats)
    return out


def _validate_fast_config(config: "NodeConfig") -> None:
    """Last-line guard for configs whose fidelity resolved to "fast"
    through the environment (explicit ``fidelity="fast"`` configs were
    already validated at construction).  Raises the same typed
    :class:`~repro.sim.fidelity.FidelityError` as every other entry
    point, with the offending knob named."""
    ensure_fidelity_supported(
        "fast",
        knobs={"read_error_rate": config.read_error_rate,
               "transition_fault_rate": config.transition_fault_rate,
               "channel_margins": config.channel_margins},
        source="fastmodel")


def simulate_nodes_fast(configs: "List[NodeConfig]",
                        calibration: Optional["Calibration"] = None
                        ) -> list:
    """Batch fast-tier evaluation: many cells in one call, each through
    :func:`predict_cell` — this is what lets the sweep runner skip the
    process pool entirely for fast cells.
    """
    from ..sim.node import NodeResult, effective_design
    from .calibration import StaleCalibrationError
    if calibration is None:
        from .calibration import load_default_calibration
        calibration = load_default_calibration()
    cal_backend = calibration.backend
    results = []
    for config in configs:
        _validate_fast_config(config)
        config_backend = resolve_backend(config.backend)
        if config_backend != cal_backend:
            raise StaleCalibrationError(
                "calibration artifact was fitted for backend {!r} but "
                "the configuration asks for {!r}; run `repro fastmodel "
                "calibrate --backend {}` and point REPRO_CALIBRATION "
                "at the result".format(cal_backend, config_backend,
                                       config_backend))
        eff = effective_design(config.design, config.memory_utilization)
        cell = predict_cell(calibration, config.suite, config.hierarchy,
                            eff, config.margin_mts,
                            config.use_latency_margin, config.timing)
        n = config.refs_per_core

        def count(name: str) -> int:
            return int(round(cell[name] * n))

        results.append(NodeResult(
            config=config,
            time_ns=cell["t_norm"] * n,
            instructions=cell["instructions_n"] * n,
            dram_reads=count("reads_n"),
            dram_writes=count("writes_n"),
            dram_write_bursts=count("bursts_n"),
            cleaning_writes=count("cleaning_n"),
            cleaned_rewrites=count("rewrites_n"),
            write_mode_entries=count("entries_n"),
            mean_read_latency_ns=cell["mean_read_latency_ns"],
            bus_utilization=cell["bus_utilization"],
            row_hit_rate=cell["row_hit_rate"],
            llc_miss_rate=cell["llc_miss_rate"],
            activates=count("activates_n"),
            refreshes=count("refreshes_n"),
            transitions=count("transitions_n"),
            self_refresh_rank_ns=0.0,
            effective_design=eff,
            events_processed=0,
            schedule_clamped=0,
        ))
    return results


def simulate_node_fast(config: "NodeConfig",
                       calibration: Optional["Calibration"] = None
                       ) -> "NodeResult":
    """Fast-tier counterpart of :func:`repro.sim.node.simulate_node`.

    Returns a :class:`~repro.sim.node.NodeResult` whose runtime comes
    from the closed form and whose traffic counters are the calibrated
    per-reference counts scaled to ``config.refs_per_core``.
    ``events_processed`` is 0 — no event loop ran.
    """
    return simulate_nodes_fast([config], calibration)[0]
