"""End-to-end chaos campaign for a Hetero-DMR system.

Drives a long simulated run that injects every fault class the design
claims to survive — transient copy corruption with every pattern in
``errors.models.ERROR_PATTERNS``, a repeat-address permanent fault,
frequency-transition failures, a thermal excursion scaling error rates
through ``characterization.temperature``, and an epoch-threshold flood
where *100% of reads hit a corrupted copy* — against a live functional
datapath (``core.replication``), while a
:class:`~repro.resilience.degradation.DegradationController` walks the
settings ladder and a margin-aware cluster scheduler pulls the node's
demotions into placement.

Every read is checked against a shadow model of the written data, so
the campaign machine-checks DESIGN.md §6 invariants 3, 4, 6, and 7
continuously; the outcome is a deterministic
:class:`~repro.resilience.report.SurvivabilityReport` (same seed ->
byte-identical render, asserted by CI).

Timeline (fractions of the configured duration):

====================  ==========================================
[0.00, 0.30) normal   rate-driven corruption at 23 C ambient;
                      a permanent fault strikes in [0.10, 0.25)
[0.30, 0.50) thermal  45 C ambient; rates scale 4x (2x when the
                      rung keeps latency margins)
[0.50, 0.60) flood    every copy corrupted every step — the
                      epoch guard must trip
[0.60, 1.00) recovery fault-free; the ladder re-promotes one
                      rung per clean window, re-profiling (with
                      flaky boots) before leaving specification
====================  ==========================================
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..cache.hierarchy import HierarchyConfig
from ..characterization.modules import SyntheticModule
from ..characterization.temperature import (CHAMBER_AMBIENT_C,
                                            ROOM_AMBIENT_C,
                                            error_rate_multiplier)
from ..characterization.testbench import BootFailure, TestMachine
from ..core.config import HeteroDMRConfig
from ..core.profiling import NodeMarginProfiler
from ..core.replication import HeteroDMRManager, UncorrectableError
from ..dram.channel import Channel, SafetyViolation
from ..dram.frequency import FrequencyState
from ..dram.module import Module, ModuleSpec
from ..errors.injector import ErrorInjector
from ..errors.telemetry import MarginAdvisor, NS_PER_HOUR
from ..fleet.ingest import FleetIngest
from ..fleet.registry import MarginRegistry
from ..hpc.cluster import Cluster
from ..hpc.job import Job
from ..hpc.scheduler import (EasyBackfillScheduler,
                             MarginAwareAllocationPolicy)
from ..hpc.simulator import PerformanceModel, SystemSimulator
from ..obs import get_recorder
from ..recovery import CheckpointStore, NodeSupervisor, RecoveryManager
from ..sim.runner import ExperimentRunner
from .degradation import (DegradationController, LadderEvent, LadderRung,
                          build_ladder)
from .report import SurvivabilityReport

BLOCK_BYTES = 64


class FlakyTestMachine(TestMachine):
    """A characterization rig mid-thermal-excursion: the first
    ``fail_calls`` margin measurements raise :class:`BootFailure`,
    exercising the profiler's bounded retry/backoff path."""

    def __init__(self, fail_calls: int = 2, **kwargs):
        super().__init__(**kwargs)
        self.fail_calls = fail_calls
        self._calls = 0

    def measure_margin(self, module, *args, **kwargs):
        self._calls += 1
        if self._calls <= self.fail_calls:
            raise BootFailure("module {} did not boot at margin"
                              .format(module.module_id))
        return super().measure_margin(module, *args, **kwargs)


@dataclass(frozen=True)
class ChaosConfig:
    """Knobs of one chaos campaign.  Defaults are the full campaign;
    :meth:`smoke` shrinks it to a CI-sized run with the same phase
    structure (all fault classes, epoch trips, remap, re-promotion)."""
    seed: int = 2026
    duration_hours: float = 2.0
    steps: int = 400
    address_count: int = 48
    reads_per_step: int = 12
    base_margin_mts: int = 800
    # Error budget / telemetry.
    epoch_hours: float = 0.1
    epoch_error_threshold: int = 300
    demote_ce_rate: float = 700.0
    advisor_window_hours: float = 0.05
    # Ladder pacing.
    clean_window_hours: float = 0.06
    demote_dwell_hours: float = 0.25
    # Fault-class intensities.
    base_error_rate_per_hour: float = 400.0
    transition_fault_rate: float = 0.01
    thermal_ambient_c: float = CHAMBER_AMBIENT_C
    # Phase boundaries (fractions of the duration).
    thermal_span: Tuple[float, float] = (0.30, 0.50)
    flood_span: Tuple[float, float] = (0.50, 0.60)
    permanent_span: Tuple[float, float] = (0.10, 0.25)
    swing_fractions: Tuple[float, ...] = (0.05, 0.62)
    armed_fault_fractions: Tuple[float, ...] = (0.07, 0.35)
    # Workload shape.
    write_every_steps: int = 5
    writes_per_batch: int = 4
    low_utilization: float = 0.15
    high_utilization: float = 0.80
    # Re-profiling.
    reprofile_fail_calls: int = 2
    # Crash-restart fault class (repro.recovery drills).  Each entry is
    # (kill-point class, fraction of the duration); the exact step gets
    # a small seeded jitter so the kill lands at a deterministic but
    # not hand-picked instant.
    crash_fractions: Tuple[Tuple[str, float], ...] = (
        ("mid-write-mode", 0.06), ("mid-checkpoint", 0.27),
        ("mid-epoch", 0.55))
    checkpoint_every_steps: int = 20
    checkpoint_keep: int = 4
    supervisor_max_restarts: int = 6
    # Transient bus faults on the correction path's safe re-read.
    bus_fault_rate: float = 0.02
    # Node (cycle-level) phase.
    node_suite: str = "hpcg"
    node_refs_per_core: int = 1500
    node_read_error_rate: float = 0.02
    node_transition_fault_rate: float = 0.05
    # Cluster phase.
    cluster_nodes: int = 25
    cluster_jobs: int = 10
    #: Fidelity tier for the campaign: "cycle" uses the transcribed
    #: Figure 12 defaults, "fast" derives the cluster-phase model from
    #: the fast tier's calibration artifact.  Fast fidelity cannot
    #: model the node phase's fault-injection knobs, so a fast campaign
    #: must zero ``node_read_error_rate`` and
    #: ``node_transition_fault_rate`` explicitly — any other
    #: combination is refused at construction time with a
    #: :class:`~repro.sim.fidelity.FidelityError`.
    fidelity: str = "cycle"

    def __post_init__(self) -> None:
        from ..sim.fidelity import ensure_fidelity_supported
        ensure_fidelity_supported(
            self.fidelity,
            knobs={
                "node_read_error_rate": self.node_read_error_rate,
                "node_transition_fault_rate":
                    self.node_transition_fault_rate,
            },
            source="ChaosConfig")

    @property
    def duration_ns(self) -> float:
        return self.duration_hours * NS_PER_HOUR

    @classmethod
    def smoke(cls, seed: int = 2026) -> "ChaosConfig":
        """A ~30-second configuration for CI: shorter and smaller, but
        the flood still spans multiple (shortened) epochs so the
        two-trip straight-to-spec path is exercised."""
        return cls(seed=seed, duration_hours=1.0, steps=160,
                   address_count=32, reads_per_step=8,
                   epoch_hours=0.04, epoch_error_threshold=120,
                   demote_ce_rate=560.0, advisor_window_hours=0.04,
                   clean_window_hours=0.03, demote_dwell_hours=0.15,
                   node_refs_per_core=600, cluster_jobs=8)


class ChaosCampaign:
    """Runs one chaos campaign and produces a survivability report."""

    def __init__(self, config: Optional[ChaosConfig] = None):
        self.config = config or ChaosConfig()
        self.report = SurvivabilityReport(
            seed=self.config.seed,
            duration_hours=self.config.duration_hours)
        self._checks: Dict[str, int] = {
            "inv3_checks": 0, "inv4_checks": 0, "inv5_checks": 0,
            "inv6_checks": 0, "inv7_checks": 0}
        self._shadow: Dict[int, Tuple[int, ...]] = {}
        self._dirty: Set[int] = set()
        self._perm_module_id: Optional[str] = None
        self._cluster_ran = False
        self._stats_carry: Dict[str, int] = {}
        self._ladder_events_carry: List[LadderEvent] = []
        # Guard counters observed across manager incarnations: dying
        # guards are added at crash time, restored baselines subtracted,
        # so every trip/roll is counted exactly once in the report.
        self._trips_carry = 0
        self._rolls_carry = 0
        self._build()

    # -- construction -----------------------------------------------------------------

    def _build(self) -> None:
        cfg = self.config
        self._data_rng = random.Random(cfg.seed ^ 0x5AD0)
        self.addresses = list(range(cfg.address_count))
        self.channel = Channel(index=0)
        self.channel.modules = [
            Module(ModuleSpec(), "M0",
                   true_margin_mts=cfg.base_margin_mts - 200),
            Module(ModuleSpec(), "M1",
                   true_margin_mts=cfg.base_margin_mts)]
        self.channel.frequency.seed_faults(cfg.seed ^ 0xFA017,
                                           cfg.transition_fault_rate)
        self.advisor = MarginAdvisor(
            demote_ce_rate=cfg.demote_ce_rate,
            window_ns=cfg.advisor_window_hours * NS_PER_HOUR)
        self.manager = HeteroDMRManager(
            self.channel,
            config=HeteroDMRConfig(
                margin_mts=cfg.base_margin_mts,
                epoch_hours=cfg.epoch_hours,
                epoch_error_threshold=cfg.epoch_error_threshold),
            telemetry=self.advisor)
        self.injector = ErrorInjector(self.manager, seed=cfg.seed ^ 0x1271)
        self._bus_rng = random.Random(cfg.seed ^ 0xB05F)
        self._attach_bus_hook(self.manager)
        self.cluster = Cluster(cfg.cluster_nodes, seed=cfg.seed)
        self.chaos_node = next(n.index for n in self.cluster.nodes
                               if n.margin_mts == 800)
        # Rung changes flow *through* the fleet registry (the node's
        # write-ahead log) before touching cluster state, so recovery
        # can replay them after a crash.
        self.registry = MarginRegistry()
        self.ingest = FleetIngest(self.registry, cluster=self.cluster)
        self.registry.record_profile(self.chaos_node,
                                     cfg.base_margin_mts, time_s=0.0)
        self.store = CheckpointStore(keep=cfg.checkpoint_keep)
        self.recovery = RecoveryManager(self.store, self.registry,
                                        node=self.chaos_node)
        self.supervisor = NodeSupervisor(
            node=self.chaos_node, registry=self.registry,
            max_restarts=cfg.supervisor_max_restarts,
            budget_window_ns=cfg.duration_ns, seed=cfg.seed)
        self.profiler = NodeMarginProfiler(
            machine=FlakyTestMachine(fail_calls=cfg.reprofile_fail_calls,
                                     seed=cfg.seed & 0xFFFF))
        self.profile_channels = [[
            SyntheticModule("P0", ModuleSpec(),
                            true_margin_mts=820.0, boot_margin_mts=1050.0,
                            voltage_uplift_mts=100.0,
                            ce_rate_per_hour=40.0, ue_rate_per_hour=0.0),
            SyntheticModule("P1", ModuleSpec(),
                            true_margin_mts=870.0, boot_margin_mts=1050.0,
                            voltage_uplift_mts=120.0,
                            ce_rate_per_hour=25.0, ue_rate_per_hour=0.0),
        ]]
        hook = self.ingest.rung_hook(self.chaos_node)
        self.controller = self._controller_cls()(
            self.manager, self.advisor,
            ladder=build_ladder(cfg.base_margin_mts),
            clean_window_ns=cfg.clean_window_hours * NS_PER_HOUR,
            demote_dwell_ns=cfg.demote_dwell_hours * NS_PER_HOUR,
            profiler=self.profiler,
            profile_channels=self.profile_channels,
            on_rung_change=hook,
            **self._controller_kwargs())
        hook.controller = self.controller

    # -- scenario extension points ------------------------------------------------------
    #
    # Subclasses (e.g. the moving-margin campaign in repro.adaptive)
    # override these to swap the controller and move the environment
    # without touching the invariant-checked step loop.  The base
    # implementations reproduce the classic campaign byte-for-byte.

    def _controller_cls(self):
        """Controller class the campaign drives."""
        return DegradationController

    def _controller_kwargs(self) -> Dict[str, object]:
        """Extra keyword arguments for the controller constructor
        (both at build time and when recovery rebuilds it)."""
        return {}

    def _ambient_at(self, frac: float, now_ns: float) -> float:
        """Ambient temperature for this step: the classic campaign is
        a square thermal excursion; drift scenarios shape it freely."""
        cfg = self.config
        return (cfg.thermal_ambient_c
                if self._in_span(frac, cfg.thermal_span)
                else ROOM_AMBIENT_C)

    def _injection_rate(self, frac: float) -> float:
        """Rate-driven corruption intensity (errors/hour before the
        thermal multiplier) outside the flood span.  The classic
        campaign keeps the recovery window fault-free; a zero rate
        consumes no injector RNG, so overriding this cannot perturb
        the base sequence."""
        cfg = self.config
        if frac < cfg.flood_span[0]:
            return cfg.base_error_rate_per_hour
        return 0.0

    def _step_hook(self, step: int, frac: float, now_ns: float,
                   step_ns: float) -> None:
        """Called once per surviving step before any fault activity;
        drift scenarios move the hidden true margin here."""

    def _attach_bus_hook(self, manager: HeteroDMRManager) -> None:
        """Arm the correction path's transient-bus-fault injection; the
        RNG lives on the campaign so fault timing is continuous across
        crash restarts."""
        manager.retry_seed = self.config.seed
        manager.bus_fault_hook = self._bus_fault

    def _bus_fault(self, address: int, attempt: int) -> bool:
        return attempt == 0 and \
            self._bus_rng.random() < self.config.bus_fault_rate

    # -- helpers ------------------------------------------------------------------------

    def _fresh_data(self) -> List[int]:
        return [self._data_rng.randrange(256) for _ in range(BLOCK_BYTES)]

    def _in_span(self, frac: float, span: Tuple[float, float]) -> bool:
        return span[0] <= frac < span[1]

    def _checked_read(self, address: int) -> None:
        """Invariant 4: data returned to the core always matches what
        the core last wrote, whatever was injected into the copy."""
        mgr = self.manager
        via_copy = mgr.replication_active and not mgr.in_write_mode
        try:
            data = mgr.read(address)
        except UncorrectableError:
            self.report.uncorrectable_errors += 1
            return
        self._checks["inv4_checks"] += 1
        if tuple(data) != self._shadow[address]:
            self.report.silent_corruptions += 1
        if via_copy:
            self._dirty.discard(address)   # detection rewrote the copy

    def _do_writes(self, step: int) -> None:
        """Broadcast writes + invariant 6: original == copy after every
        write that happens while replication is active."""
        cfg = self.config
        mgr = self.manager
        mgr.enter_write_mode()
        for i in range(cfg.writes_per_batch):
            address = self.addresses[
                (step * cfg.writes_per_batch + i) % len(self.addresses)]
            data = self._fresh_data()
            mgr.write(address, data)
            self._shadow[address] = tuple(data)
            self._dirty.discard(address)
            if mgr.replication_active:
                self._checks["inv6_checks"] += 1
                free = self.channel.modules[mgr.free_module_index]
                original = mgr._original_module(address)
                if free.read_block(address).stored_bytes() != \
                        original.read_block(address).stored_bytes():
                    self.report.broadcast_divergences += 1

    def _utilization_swing(self, now_ns: float) -> None:
        """Invariant 7: deactivating and re-activating replication
        never changes the data any address returns."""
        mgr = self.manager
        mgr.now_ns = max(mgr.now_ns, now_ns)
        mgr.observe_utilization(self.config.high_utilization)
        for address in self.addresses:
            self._checks["inv7_checks"] += 1
            try:
                data = mgr.read(address)
            except UncorrectableError:
                self.report.uncorrectable_errors += 1
                continue
            if tuple(data) != self._shadow[address]:
                self.report.replication_divergences += 1
        mgr.observe_utilization(self.config.low_utilization)
        free = self.channel.modules[mgr.free_module_index]
        for address in self.addresses:
            self._checks["inv7_checks"] += 1
            copy = free.read_block(address)
            original = mgr._original_module(address).read_block(address)
            if copy is None or \
                    copy.stored_bytes() != original.stored_bytes():
                self.report.replication_divergences += 1
        self._dirty.clear()   # re-replication scrubbed every copy

    def _check_inv3(self) -> None:
        """Invariant 3: whenever the clock is away from specification,
        every original-holding module must be in self-refresh."""
        if self.channel.frequency.state is FrequencyState.SAFE:
            return
        for module in self.channel.modules:
            self._checks["inv3_checks"] += 1
            if not (module.holds_copies or module.in_self_refresh):
                self.report.safety_violations += 1

    def _check_inv5(self, now_ns: float) -> None:
        """Invariant 5: an exhausted epoch budget forces (and keeps)
        the system at specification until the epoch re-arms."""
        if self.manager.epoch_guard.margin_allowed(now_ns):
            return
        self._checks["inv5_checks"] += 1
        if not self.manager.in_write_mode or \
                self.channel.frequency.state is not FrequencyState.SAFE:
            self.report.safety_violations += 1

    def _inject(self, frac: float, now_ns: float, step_ns: float,
                multiplier: float) -> None:
        cfg = self.config
        mgr = self.manager
        if not mgr.replication_active:
            return
        if self._in_span(frac, cfg.flood_span):
            hit = self.injector.campaign(self.addresses, probability=1.0)
        else:
            rate = self._injection_rate(frac) * multiplier
            hit = self.injector.campaign(
                self.addresses, rate_per_hour=rate, duration_ns=step_ns)
        self._dirty.update(hit)
        if hit:
            rec = get_recorder()
            if rec.enabled:
                rec.counter("chaos", "injections", len(hit))
                rec.event("chaos", "chaos_inject", now_ns,
                          count=len(hit), frac=frac)
        # Repeat-address permanent fault: the same address in the same
        # module corrupts every step until the controller remaps it.
        if self._in_span(frac, cfg.permanent_span):
            free_id = self.channel.modules[mgr.free_module_index].module_id
            if self._perm_module_id is None:
                self._perm_module_id = free_id
            if free_id == self._perm_module_id:
                self.injector.corrupt_copy(self.addresses[0])
                self._dirty.add(self.addresses[0])

    # -- crash-restart fault class (repro.recovery) -------------------------------------

    def _dmr_config(self) -> HeteroDMRConfig:
        cfg = self.config
        return HeteroDMRConfig(
            margin_mts=cfg.base_margin_mts,
            epoch_hours=cfg.epoch_hours,
            epoch_error_threshold=cfg.epoch_error_threshold)

    def _accumulate_stats(self, stats) -> None:
        """Fold a dying manager's counters into the campaign totals."""
        for name, value in vars(stats).items():
            self._stats_carry[name] = \
                self._stats_carry.get(name, 0) + value

    def _total_stat(self, name: str) -> int:
        return self._stats_carry.get(name, 0) + \
            getattr(self.manager.stats, name)

    def _write_checkpoint(self, now_ns: float) -> None:
        self.recovery.capture(self.manager.epoch_guard, self.controller,
                              self.advisor, now_ns)

    def _crash_restart(self, now_ns: float, kill_point: str) -> None:
        """One crash-restart drill: perform the kill-point's activity,
        lose every in-memory object, rebuild the node from durable
        state only (checkpoint + registry WAL), and machine-check the
        recovery invariants — conservative restore, no lost replicated
        write, registry/cluster reconvergence."""
        cfg = self.config
        report = self.report
        mgr = self.manager
        if kill_point == "mid-write-mode":
            # Killed between broadcast writes: whatever reached DRAM
            # before the kill must survive recovery.
            mgr.enter_write_mode()
            for i in range(cfg.writes_per_batch):
                address = self.addresses[i % len(self.addresses)]
                data = self._fresh_data()
                mgr.write(address, data)
                self._shadow[address] = tuple(data)
                self._dirty.discard(address)
        elif kill_point == "mid-checkpoint":
            # Killed while a checkpoint write was in flight: the torn
            # file must be detected and recovery must fall back to the
            # previous valid checkpoint.
            self._write_checkpoint(now_ns)
            self.store.corrupt_latest()
        # The crash: every in-memory object is gone.  DRAM contents
        # survive, but copies are untrusted after an unclean shutdown —
        # recovery scrubs and re-replicates them from the originals.
        report.crashes += 1
        report.kill_points[kill_point] = \
            report.kill_points.get(kill_point, 0) + 1
        rec = get_recorder()
        if rec.enabled:
            rec.counter("chaos", "crash_restarts", kill_point=kill_point)
            rec.event("chaos", "crash_restart", now_ns,
                      kill_point=kill_point)
        decision = self.supervisor.report_crash(now_ns,
                                                reason=kill_point)
        self._ladder_events_carry.extend(self.controller.events)
        self._accumulate_stats(mgr.stats)
        self._trips_carry += mgr.epoch_guard.tripped_epochs
        self._rolls_carry += mgr.epoch_guard.epochs_rolled
        restart_ns = decision.restart_at_ns
        # What the durable record promises, for the assertions below.
        recovered = self.recovery.recover()
        report.checkpoint_fallbacks += recovered.fallbacks
        report.replayed_events += recovered.replayed_events
        durable_guard = recovered.section("epoch_guard") or {}
        durable_errors = int(durable_guard.get("errors_this_epoch", 0))
        durable_total = int(durable_guard.get("total_errors", 0))
        durable_rung = recovered.durable_rung()
        # Rebuild the node from durable state only.
        self.channel.to_safe(restart_ns)
        for module in self.channel.modules:
            if module.holds_copies:
                module.scrub()
                module.holds_copies = False
                module.is_free = False
        advisor = self.recovery.restore_advisor(recovered)
        if advisor is None:
            advisor = MarginAdvisor(
                demote_ce_rate=cfg.demote_ce_rate,
                window_ns=cfg.advisor_window_hours * NS_PER_HOUR)
        manager = HeteroDMRManager(self.channel,
                                   config=self._dmr_config(),
                                   telemetry=advisor)
        guard = self.recovery.restore_guard(recovered)
        if guard is not None:
            manager.epoch_guard = guard
        manager.now_ns = restart_ns
        self._attach_bus_hook(manager)
        self.injector.manager = manager   # RNG continuity across crash
        self.advisor = advisor
        self.manager = manager
        manager.observe_utilization(cfg.low_utilization)
        self.controller = self.recovery.rebuild_controller(
            manager, advisor, recovered, now_ns=restart_ns,
            controller_cls=self._controller_cls(),
            clean_window_ns=cfg.clean_window_hours * NS_PER_HOUR,
            demote_dwell_ns=cfg.demote_dwell_hours * NS_PER_HOUR,
            profiler=self.profiler,
            profile_channels=self.profile_channels,
            **self._controller_kwargs())
        hook = self.ingest.rung_hook(self.chaos_node, self.controller)
        self.controller.on_rung_change = hook
        hook(self.controller.current_rung)
        # Conservative restore: never fewer epoch errors ...
        restored_guard = manager.epoch_guard
        if restored_guard.errors_this_epoch < durable_errors or \
                restored_guard.total_errors < durable_total:
            report.conservative_violations += 1
        # ... and never a faster rung than the last durable state.
        if durable_rung is not None:
            restored = self.controller.current_rung
            faster = restored.margin_mts > durable_rung.margin_mts or (
                restored.margin_mts == durable_rung.margin_mts and
                restored.use_latency_margin and
                not durable_rung.use_latency_margin)
            if faster:
                report.conservative_violations += 1
        # No replicated write lost: every address still returns the
        # last value the core wrote before the crash.
        manager.enter_write_mode()
        for address in self.addresses:
            report.recovery_read_checks += 1
            try:
                data = manager.read(address)
            except UncorrectableError:
                report.uncorrectable_errors += 1
                continue
            if tuple(data) != self._shadow[address]:
                report.lost_writes += 1
        self._dirty.clear()   # recovery re-replicated every copy
        # Placement reconvergence: the fleet view (registry) and the
        # scheduler view (cluster) agree on the node's margin.
        rec = self.registry.node(self.chaos_node)
        node = self.cluster.nodes[self.chaos_node]
        if rec.effective_margin_mts != node.effective_margin_mts:
            report.reconvergence_failures += 1
        # The restored baselines were already counted in the dying
        # guard's totals — subtract so the report counts each once.
        self._trips_carry -= manager.epoch_guard.tripped_epochs
        self._rolls_carry -= manager.epoch_guard.epochs_rolled
        self.supervisor.restarted(restart_ns)
        report.recoveries += 1

    # -- phases -----------------------------------------------------------------------

    def _run_cluster_phase(self) -> None:
        """Scheduling with the chaos node demoted to specification:
        margin-aware placement must bucket it at zero margin and every
        job's runtime must match the effective margins it landed on."""
        cfg = self.config
        self.report.groups_demoted = self.cluster.group_counts()
        rng = random.Random(cfg.seed ^ 0xC1)
        jobs = [Job(job_id=i, submit_s=60.0 * i,
                    nodes_requested=2 + (i % 5),
                    base_runtime_s=120.0 + 40.0 * (i % 7),
                    memory_utilization=(0.1, 0.35, 0.6)[i % 3])
                for i in range(cfg.cluster_jobs)]
        from ..sim.fidelity import resolve_fidelity
        if resolve_fidelity(cfg.fidelity) == "fast":
            from ..fastmodel import performance_model_from_calibration
            performance = performance_model_from_calibration()
        else:
            performance = PerformanceModel()
        simulator = SystemSimulator(
            self.cluster,
            scheduler=EasyBackfillScheduler(MarginAwareAllocationPolicy()),
            performance=performance)
        result = simulator.run(jobs)
        self.report.jobs_completed = len(result.jobs)
        consistent = True
        for job in result.jobs:
            min_margin = min(n.effective_margin_mts
                             for n in job.allocated_nodes)
            expected = job.base_runtime_s / performance.speedup(
                min_margin, job.memory_utilization)
            if abs(job.runtime_s - expected) > 1e-9:
                consistent = False
        demoted = self.cluster.nodes[self.chaos_node]
        if demoted.effective_margin_mts != 0:
            consistent = False
        self.report.placement_consistent = consistent
        self._cluster_ran = True

    def _run_node_phase(self) -> None:
        """Cycle-level spot check: the degraded operating point (lower
        margin, read errors, transition faults) runs and is no faster
        than the healthy one; retry/fault counters surface."""
        cfg = self.config
        hier = HierarchyConfig(
            name="Chaos", cores=2,
            l2_bytes_per_core=256 << 10, l2_assoc=16,
            l2_latency_cycles=12,
            l3_bytes_total=4 << 20, l3_assoc=16, l3_latency_cycles=68,
            channels=1)
        runner = ExperimentRunner(refs_per_core=cfg.node_refs_per_core,
                                  seed=cfg.seed)
        healthy = runner.run(cfg.node_suite, hier, design="hetero-dmr",
                             margin_mts=cfg.base_margin_mts,
                             memory_utilization=cfg.low_utilization)
        degraded = runner.run(
            cfg.node_suite, hier, design="hetero-dmr",
            margin_mts=max(0, cfg.base_margin_mts - 200),
            memory_utilization=cfg.low_utilization,
            use_latency_margin=False,
            read_error_rate=cfg.node_read_error_rate,
            transition_fault_rate=cfg.node_transition_fault_rate)
        self.report.node_slowdown = degraded.time_ns / healthy.time_ns
        self.report.node_read_retries = degraded.read_retries
        self.report.node_failed_transitions = degraded.failed_transitions
        self.report.node_write_mode_entries = degraded.write_mode_entries

    # -- the campaign -------------------------------------------------------------------

    def _crash_steps(self) -> Dict[int, str]:
        """Deterministic seeded kill-points: each configured fraction
        lands on its step with a small seeded jitter so the kill
        instant is reproducible but not hand-aligned to the workload."""
        cfg = self.config
        rng = random.Random(cfg.seed ^ 0xDEAD)
        steps: Dict[int, str] = {}
        for name, frac in cfg.crash_fractions:
            step = int(frac * cfg.steps) + rng.randrange(-2, 3)
            step = max(1, min(cfg.steps - 2, step))
            while step in steps:
                step += 1
            steps[step] = name
        return steps

    def run(self) -> SurvivabilityReport:
        cfg = self.config
        report = self.report
        report.kill_points_expected = tuple(sorted(
            {name for name, _ in cfg.crash_fractions}))
        report.groups_before = self.cluster.group_counts()
        # Populate memory and activate replication.
        for address in self.addresses:
            data = self._fresh_data()
            self.manager.write(address, data)
            self._shadow[address] = tuple(data)
        self.manager.observe_utilization(cfg.low_utilization)
        self.controller.maybe_enter_read_mode(0.0)
        self._write_checkpoint(0.0)   # boot checkpoint
        step_ns = cfg.duration_ns / cfg.steps
        swing_steps = {int(f * cfg.steps) for f in cfg.swing_fractions}
        armed_steps = {int(f * cfg.steps)
                       for f in cfg.armed_fault_fractions}
        crash_steps = self._crash_steps()
        read_cursor = 0
        for step in range(cfg.steps):
            now_ns = (step + 1) * step_ns
            frac = (step + 1) / cfg.steps
            if step in crash_steps:
                # The node dies this step; the drill performs the
                # kill-point activity, recovers, and checks invariants.
                self._crash_restart(now_ns, crash_steps[step])
                continue
            self.supervisor.heartbeat(now_ns)
            self.manager.now_ns = max(self.manager.now_ns, now_ns)
            self._step_hook(step, frac, now_ns, step_ns)
            ambient = self._ambient_at(frac, now_ns)
            multiplier = error_rate_multiplier(
                ambient, self.controller.current_rung.use_latency_margin)
            report.thermal_multiplier_max = max(
                report.thermal_multiplier_max, multiplier)
            if step in armed_steps:
                self.channel.frequency.inject_transition_fault()
            if step in swing_steps:
                self._utilization_swing(now_ns)
            if step % cfg.write_every_steps == 0:
                self._do_writes(step)
            try:
                self._inject(frac, now_ns, step_ns, multiplier)
                self.controller.maybe_enter_read_mode(now_ns)
                flood = self._in_span(frac, cfg.flood_span)
                in_perm = self._in_span(frac, cfg.permanent_span)
                sample = list(self.addresses) if flood else [
                    self.addresses[(read_cursor + i) % len(self.addresses)]
                    for i in range(cfg.reads_per_step)]
                read_cursor += cfg.reads_per_step
                if in_perm and self.addresses[0] not in sample:
                    sample.append(self.addresses[0])
                for address in sample:
                    self._checked_read(address)
            except SafetyViolation:
                report.safety_violations += 1
            self._check_inv3()
            events = self.controller.observe(now_ns)
            self._check_inv5(now_ns)
            self.controller.maybe_enter_read_mode(now_ns)
            # Safety-critical transitions (trips, rung moves, remaps)
            # are flushed to durable storage immediately; quiet steps
            # checkpoint on the periodic cadence.
            if events:
                self._write_checkpoint(now_ns)
            elif step and step % cfg.checkpoint_every_steps == 0:
                self._write_checkpoint(now_ns)
            if not self._cluster_ran and self.controller.at_spec:
                self._run_cluster_phase()
        self._finalize(cfg.duration_ns)
        return report

    def _finalize(self, end_ns: float) -> None:
        report = self.report
        mgr = self.manager
        # Datapath totals span every manager incarnation: counters of
        # managers lost to crash drills were folded into the carry.
        report.reads = self._total_stat("reads")
        report.writes = self._total_stat("writes")
        report.corrections = self._total_stat("corrections")
        report.copy_errors_detected = \
            self._total_stat("copy_errors_detected")
        report.correction_retries = \
            self._total_stat("correction_retries")
        report.injected_errors = self.injector.stats.injected
        report.injected_by_pattern = dict(sorted(
            self.injector.stats.by_pattern.items()))
        report.transition_faults = self.channel.frequency.failed_transitions
        report.epoch_trips = \
            self._trips_carry + mgr.epoch_guard.tripped_epochs
        report.epochs_rolled = \
            self._rolls_carry + mgr.epoch_guard.epochs_rolled
        report.invariant_checks = dict(self._checks)
        events = self._ladder_events_carry + list(self.controller.events)
        report.ladder_events = events
        report.final_rung = self.controller.current_rung.name
        report.remaps = sum(1 for e in events if e.kind == "remap")
        report.demoted_to_spec = any(
            e.kind == "demote" and e.to_rung == "spec" for e in events)
        report.repromoted = any(e.kind == "promote" for e in events)
        report.retired = self.controller.retired
        report.reprofile_attempts = self.controller.reprofile_attempts
        report.reprofile_failures = self.controller.reprofile_failures
        report.fleet_summary = self.advisor.fleet_summary(end_ns)
        report.checkpoints_written = self.recovery.checkpoints_written
        report.supervisor_restarts = self.supervisor.restarts_total
        report.groups_after = self.cluster.group_counts()
        self._run_node_phase()


def run_chaos_campaign(config: Optional[ChaosConfig] = None
                       ) -> SurvivabilityReport:
    """Build, run, and report one chaos campaign."""
    return ChaosCampaign(config).run()
