"""The ledger's five workloads.

Each workload function builds its inputs from ``seed`` plus size
arguments (the defaults are the ledger's sizes; tests pass smaller
ones) and returns ``(call, outcome)``.  ``call()`` is the timed part;
``outcome(result)`` checks its return value and summarises it as an
:class:`Outcome` outside the timed region.  ``repro`` is imported inside
the functions, so in a fresh process the set-up time includes the
import.  Every workload runs in one process with no worker pool.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
import time
from typing import Callable, Dict, List, Tuple

#: Exact per-layer counts the workloads return, as (name, unit, better).
#: They come from the workloads' own results, never from sampling.
COUNT_METRICS = (
    ("sim.instructions", "count", "higher"),
    ("sim.events", "count", "lower"),
    ("sim.schedule_clamped", "count", "lower"),
    ("dram.reads", "count", "lower"),
    ("dram.writes", "count", "lower"),
    ("dram.row_hit_rate", "ratio", "higher"),
    ("dram.transitions", "count", "lower"),
    ("mem_ctrl.write_mode_entries", "count", "lower"),
    ("cache.llc_miss_rate", "ratio", "lower"),
    ("perf.sweep.unique_sims", "count", "lower"),
    ("sim.node.baseline_wall_s", "s", "lower"),
    ("sim.node.hetero_wall_s", "s", "lower"),
    ("service.daemon.decisions", "count", "higher"),
    ("service.daemon.placed", "count", "higher"),
    ("service.daemon.shed", "count", "lower"),
    ("service.daemon.expired", "count", "lower"),
    ("service.daemon.unsatisfiable", "count", "lower"),
    ("service.daemon.queue_peak", "count", "lower"),
    ("service.daemon.backpressure_waits", "count", "lower"),
    ("service.daemon.cache_hit_ratio", "ratio", "higher"),
    ("service.daemon.place_p50_ms", "ms", "lower"),
    ("service.daemon.place_p99_ms", "ms", "lower"),
    ("service.daemon.place_p999_ms", "ms", "lower"),
    ("service.daemon.place_samples", "count", "higher"),
    ("service.sharding.compactions", "count", "lower"),
    ("service.ha.decisions", "count", "higher"),
    ("service.ha.failovers", "count", "lower"),
    ("service.ha.fenced_writes", "count", "lower"),
    ("service.ha.place_p99_ms", "ms", "lower"),
    ("service.ha.place_p999_ms", "ms", "lower"),
    ("service.ha.place_samples", "count", "higher"),
    ("fastmodel.worst_abs_err", "abs", "lower"),
    ("hpc.simulator.turnaround_gain", "x", "higher"),
)

#: Seed of ``cluster-fast``'s load shape (see :func:`cluster_fast`).
TRACE_SEED = 17

#: Workload seeds used when ``--seed`` is not given.
DEFAULT_SEEDS = {"fig12-short": 12345, "node-long": 12345, "soak": 2026,
                 "ha-drill": 2026, "cluster-fast": 17}


@dataclasses.dataclass
class Outcome:
    """What one timed call produced, as the ledger records it."""
    #: Operations attempted: cells, decisions or jobs.
    attempted: int
    #: Operations that failed; a failed gate fails every operation.
    failed: int
    #: Input processed, the numerator of ``ops_per_s``: grid cells,
    #: simulated L2 references, submitted events, decisions or jobs.
    ops: float
    #: SHA-256 over the workload's deterministic outputs.
    digest: str
    #: Exact per-layer counts, named as in :data:`COUNT_METRICS`.
    counts: Dict[str, float]
    #: Gate clauses that did not hold (empty when the outputs check out).
    failures: List[str]


Prepared = Tuple[Callable[[], object], Callable[[object], Outcome]]


def digest_of(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _node_counts(records: List[dict]) -> Dict[str, float]:
    """Per-layer counts summed (rates averaged) over node results."""
    n = max(1, len(records))
    counts = {
        "sim.instructions": sum(r["instructions"] for r in records),
        "sim.events": sum(r["events_processed"] for r in records),
        "sim.schedule_clamped": sum(r["schedule_clamped"] for r in records),
        "dram.reads": sum(r["dram_reads"] for r in records),
        "dram.writes": sum(r["dram_writes"] for r in records),
        "dram.row_hit_rate": sum(r["row_hit_rate"] for r in records) / n,
        "dram.transitions": sum(r["transitions"] for r in records),
        "cache.llc_miss_rate": sum(r["llc_miss_rate"] for r in records) / n,
        "sim.node.baseline_wall_s": sum(
            r["wall_s"] for r in records
            if r["effective_design"] == "baseline"),
        "sim.node.hetero_wall_s": sum(
            r["wall_s"] for r in records
            if r["effective_design"].startswith("hetero")),
    }
    if all("write_mode_entries" in r for r in records):
        counts["mem_ctrl.write_mode_entries"] = sum(
            r["write_mode_entries"] for r in records)
    return counts


def _cell_problem(record: dict, expected_design: str) -> str:
    """Why a node result cannot be right ("" when it can)."""
    if not (record["time_ns"] > 0 and record["instructions"] > 0
            and record["dram_reads"] > 0):
        return "produced no work"
    if record["effective_design"] != expected_design:
        return "ran as " + record["effective_design"]
    return ""


def fig12_short(seed: int = DEFAULT_SEEDS["fig12-short"],
                suites: Tuple[str, ...] = ("linpack", "graph500", "lulesh"),
                hierarchies: Tuple[str, ...] = ("Hierarchy1", "Hierarchy2"),
                refs_per_core: int = 120) -> Prepared:
    """A short-trace Figure 12 sweep: every design x margin 800/600 x
    usage bucket, serial (``workers=1``).  Per-cell construction and
    cache warm-up dominate; the sweep's dedup runs each effective cell
    once."""
    from repro.perf.sweep import SweepConfig, SweepRunner, cell_key
    from repro.sim.node import effective_design
    from repro.sim.runner import BUCKET_UTILIZATION
    runner = SweepRunner(SweepConfig(
        suites=suites, hierarchies=hierarchies, seeds=(seed,),
        refs_per_core=refs_per_core, workers=1))

    def outcome(result) -> Outcome:
        unique: Dict[tuple, dict] = {}
        failures = []
        for record in result.cells:
            unique.setdefault(cell_key(record), record)
            problem = _cell_problem(record, effective_design(
                record["design"], BUCKET_UTILIZATION[record["bucket"]]))
            if problem:
                failures.append("{suite}/{hierarchy}/{design}@{margin_mts}"
                                "/{bucket} ".format(**record) + problem)
        attempted = len(result.cells)
        failed = len(failures)
        sims = list(unique.values())
        if result.unique_simulations != len(sims):
            failures.append("{} simulations for {} effective cells".format(
                result.unique_simulations, len(sims)))
            failed = attempted
        counts = _node_counts(sims)
        counts["perf.sweep.unique_sims"] = result.unique_simulations
        return Outcome(
            attempted=attempted, failed=failed, ops=attempted,
            digest=digest_of(result.deterministic_view()),
            counts=counts, failures=failures)

    return runner.run, outcome


def node_long(seed: int = DEFAULT_SEEDS["node-long"],
              suites: Tuple[str, ...] = ("linpack", "lulesh"),
              designs: Tuple[str, ...] = ("baseline", "hetero-dmr+fmr"),
              refs_per_core: int = 3000) -> Prepared:
    """Long single-node simulations on Hierarchy2 at margin 600 and 20 %
    memory utilization.  Per-event work dominates.  Baseline cells run
    the write drain; Hetero-DMR+FMR cells steer reads in
    ``core.policies`` instead."""
    from repro.cache.hierarchy import hierarchy2
    from repro.sim.node import NodeConfig, NodeSimulation
    configs = [NodeConfig(suite=suite, hierarchy=hierarchy2(),
                          design=design, margin_mts=600,
                          memory_utilization=0.2,
                          refs_per_core=refs_per_core, seed=seed)
               for suite in suites for design in designs]

    def call():
        cells = []
        for config in configs:
            started = time.perf_counter()
            try:
                result = NodeSimulation(config).run()
            except Exception as exc:  # a cell that raised counts as failed
                result = exc
            cells.append((result, time.perf_counter() - started))
        return cells

    def outcome(cells) -> Outcome:
        records, timed, failures = [], [], []
        for config, (result, wall_s) in zip(configs, cells):
            name = "{}/{} ".format(config.suite, config.design)
            if isinstance(result, Exception):
                failures.append(name + "raised {!r}".format(result))
                continue
            record = {k: v for k, v in dataclasses.asdict(result).items()
                      if k != "config"}
            record.update(suite=config.suite, design=config.design)
            problem = _cell_problem(record, config.design)
            if problem:
                failures.append(name + problem)
            records.append(record)
            timed.append(dict(record, wall_s=wall_s))
        return Outcome(
            attempted=len(configs), failed=len(failures),
            ops=sum(c.refs_per_core * c.hierarchy.cores for c in configs),
            digest=digest_of(records), counts=_node_counts(timed),
            failures=failures)

    return call, outcome


def soak(seed: int = DEFAULT_SEEDS["soak"], registry_dir=None,
         events: int = 300_000, verify_events: int = 10_000) -> Prepared:
    """The closed-loop daemon soak: 1490 nodes in 16 shards, WAL on
    disk with compaction, prefix verification on.  Storms and write
    floods are sized from the admission bounds, so bounds below the
    soak's defaults make them smaller and more frequent, and the
    traffic mix varies less from seed to seed."""
    from repro.service.soak import SoakConfig, SoakScenario
    scenario = SoakScenario(SoakConfig(
        events=events, seed=seed, verify_events=verify_events,
        queue_limit=64, event_queue_limit=256, compact_every=256,
        registry_dir=registry_dir))

    def outcome(report) -> Outcome:
        stats = report.stats
        failures = report.failures()
        ms = {q: (getattr(report, q + "_s") or 0.0) * 1000.0
              for q in ("p50", "p99", "p999")}
        counts = {
            "service.daemon.decisions": report.decisions,
            "service.daemon.cache_hit_ratio": stats["cache_hit_ratio"],
            "service.daemon.place_p50_ms": ms["p50"],
            "service.daemon.place_p99_ms": ms["p99"],
            "service.daemon.place_p999_ms": ms["p999"],
            # Every placement the controller answered observes latency
            # once; shed requests never reach it.
            "service.daemon.place_samples": sum(
                stats[k] for k in ("placed", "unsatisfiable", "expired",
                                   "duplicate")),
            "service.sharding.compactions": report.compactions,
        }
        for key in ("placed", "shed", "expired", "unsatisfiable",
                    "queue_peak", "backpressure_waits"):
            counts["service.daemon." + key] = stats[key]
        return Outcome(
            attempted=report.decisions,
            failed=report.decisions if failures else 0,
            ops=report.events,
            digest=digest_of({"decisions": report.digest,
                              "verify_match": report.verify_match}),
            counts=counts, failures=failures)

    return scenario.run, outcome


class _PlacementCounter:
    """Decision-stream sink that counts answered placements (the
    decisions whose latency the HA plane observes)."""

    _MARKS = ('"status":"placed"', '"status":"unsatisfiable"',
              '"status":"duplicate"')

    def __init__(self):
        self.count = 0

    def write(self, line: str) -> None:
        if any(mark in line for mark in self._MARKS):
            self.count += 1


def ha_drill(seed: int = DEFAULT_SEEDS["ha-drill"], registry_dir=None,
             events: int = 120_000) -> Prepared:
    """The HA failover drill: 2 daemons, 1490 nodes, 16 shards, the
    full fault plan, plus the never-crashed reference pass."""
    from repro.service.ha import HAConfig, HAFailoverDrill
    drill = HAFailoverDrill(HAConfig(seed=seed, events=events,
                                     registry_dir=registry_dir))

    def call():
        placements = _PlacementCounter()
        return drill.run(stream=placements), placements.count

    def outcome(result) -> Outcome:
        drilled, place_samples = result
        report = drilled.report
        failures = report.failures()
        if drilled.digest != drilled.reference_digest:
            failures.append("HA decisions differ from the reference")
        counts = {
            "service.ha.decisions": report.ha_decisions,
            "service.ha.failovers": report.failovers,
            "service.ha.fenced_writes": report.fenced_writes,
            "service.ha.place_p99_ms": (drilled.p99_s or 0.0) * 1000.0,
            "service.ha.place_p999_ms": (drilled.p999_s or 0.0) * 1000.0,
            "service.ha.place_samples": place_samples,
        }
        return Outcome(
            attempted=report.ha_decisions,
            failed=report.ha_decisions if failures else 0,
            ops=report.ha_decisions,
            digest=digest_of({"decisions": drilled.digest,
                              "report": report.render()}),
            counts=counts, failures=failures)

    return call, outcome


def _system_metrics(result, total_nodes: int) -> dict:
    return {
        "mean_execution_s": result.mean_execution_s(),
        "mean_queue_delay_s": result.mean_queue_delay_s(),
        "mean_turnaround_s": result.mean_turnaround_s(),
        "p95_turnaround_s": result.percentile_turnaround_s(0.95),
        "mean_bounded_slowdown": result.mean_bounded_slowdown(),
        "node_utilization": result.node_utilization(total_nodes),
    }


def cluster_fast(seed: int = DEFAULT_SEEDS["cluster-fast"],
                 total_nodes: int = 10_000,
                 job_count: int = 8_000) -> Prepared:
    """Fleet-scale placement on the fast tier: one trace through a
    conventional fleet and a Hetero-DMR fleet placed by
    ``MarginAwareAllocationPolicy``, then the fig12 cross-check and the
    228-cell fast sweep.  No cycle engine and no daemon.

    The trace's load shape (job widths, runtimes and arrivals) is the
    fixed ``TRACE_SEED`` trace, and ``seed`` draws each job's memory
    utilization, which sets its speedup on the Hetero-DMR fleet.  A
    fresh shape per seed would move the placement work (free nodes
    scanned per select) by a 6.6 % quartile spread over ten seeds; with
    the shape fixed it moves by 0.1 %."""
    from repro.fastmodel import (load_default_calibration,
                                 performance_model_from_calibration,
                                 run_crosscheck)
    from repro.fastmodel.calibration import GRID_REFS_PER_CORE
    from repro.hpc.cluster import Cluster
    from repro.hpc.scheduler import (EasyBackfillScheduler,
                                     MarginAwareAllocationPolicy)
    from repro.hpc.simulator import CONVENTIONAL_MODEL, SystemSimulator
    from repro.hpc.traces import (TraceConfig, draw_memory_utilization,
                                  generate_trace)
    from repro.perf.sweep import SweepConfig, SweepRunner
    calibration = load_default_calibration()
    rng = random.Random(seed)
    trace = [dataclasses.replace(
                 job, memory_utilization=draw_memory_utilization(rng))
             for job in generate_trace(TraceConfig(
                 total_nodes=total_nodes, job_count=job_count,
                 seed=TRACE_SEED))]
    conventional = SystemSimulator(Cluster(total_nodes, seed=seed),
                                   performance=CONVENTIONAL_MODEL)
    hetero = SystemSimulator(
        Cluster(total_nodes, seed=seed),
        scheduler=EasyBackfillScheduler(MarginAwareAllocationPolicy()),
        performance=performance_model_from_calibration(calibration))
    fast_sweep = SweepRunner(SweepConfig(refs_per_core=GRID_REFS_PER_CORE,
                                         fidelity="fast"))

    def call():
        return (conventional.run(trace), hetero.run(trace),
                run_crosscheck(calibration), fast_sweep.run())

    def outcome(result) -> Outcome:
        conv, het, check, sweep = result
        failures = [] if check["passed"] else ["fig12 cross-check FAIL"]
        jobs = len(conv.jobs) + len(het.jobs)
        return Outcome(
            attempted=jobs, failed=jobs if failures else 0, ops=jobs,
            digest=digest_of({
                "conventional": _system_metrics(conv, total_nodes),
                "hetero_dmr": _system_metrics(het, total_nodes),
                "crosscheck": check,
                "fast_sweep": sweep.deterministic_view()}),
            counts={"fastmodel.worst_abs_err": check["worst"]["abs_error"],
                    "hpc.simulator.turnaround_gain":
                        conv.mean_turnaround_s() / het.mean_turnaround_s()},
            failures=failures)

    return call, outcome


#: Workload name -> (function, whether it needs a registry directory).
WORKLOADS = {
    "fig12-short": (fig12_short, False),
    "node-long": (node_long, False),
    "soak": (soak, True),
    "ha-drill": (ha_drill, True),
    "cluster-fast": (cluster_fast, False),
}
