"""Command-line interface.

::

    python -m repro characterize            # Section II campaign
    python -m repro montecarlo              # Figure 11 margin MC
    python -m repro settings                # Table II settings
    python -m repro node --suite hpcg       # one node, four designs
    python -m repro hpc --nodes 256         # Figure 17-style system run
    python -m repro backend compare         # DDR4-vs-MRDIMM study
    python -m repro chaos --smoke           # fault-injection campaign
    python -m repro adapt --smoke           # moving-margin adaptation
    python -m repro fleet profile           # profile a fleet registry
    python -m repro recover restore         # crash recovery
    python -m repro perf bench              # sweep benchmark + gate
    python -m repro obs trace               # deterministic trace run
    python -m repro serve                   # placement daemon (JSONL)
    python -m repro soak --smoke            # seeded soak + gate
    python -m repro smoke chaos-smoke       # one CI smoke scenario
    python -m repro suites                  # workload catalogue

Each subcommand prints the same plain-text tables the benchmark
targets save under ``benchmarks/results/``.

Conventions shared by every subcommand:

* ``--seed`` may be given globally (``repro --seed 7 hpc``) or after
  the subcommand (``repro hpc --seed 7``); the subcommand-level value
  wins, and both default to 2021.
* Exit codes.  A handler returns 0, or 1 when its own verdict is a
  failure (a campaign FAILed, a job went unplaced).  Anything else is
  raised, and :func:`main` alone maps it to a code, printing one
  ``repro <command>: <cause>`` line on stderr:

  ==========================================================  ====
  ``FidelityError``, ``FastModelError``,                      1
  ``CalibrationError``, :class:`DomainFailure`
  ``OSError``, ``RegistryError`` (I/O, corrupt input)         2
  ``KnobError`` (bad ``REPRO_*`` value; ``repro: <cause>``)   2
  argparse usage error (bad choice, number out of range)      2
  ==========================================================  ====

  Any other exception is a bug and keeps its traceback.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from typing import Iterator, List, Optional, Sequence

from .analysis.reporting import format_bar_chart, format_kv, format_table
from .analysis.stats import histogram, mean, stdev
from .knobs import KnobError

#: Default RNG seed when neither --seed position supplies one.
DEFAULT_SEED = 2021

#: The exit-code contract (see module docstring).
EXIT_OK = 0
EXIT_DOMAIN_FAILURE = 1
EXIT_IO_ERROR = 2
EXIT_USAGE = 2

#: Memory-technology backends the ``--backend`` options accept.
BACKENDS = ("ddr4", "mrdimm")


class DomainFailure(Exception):
    """The command ran but cannot do what was asked (exit 1)."""


@contextlib.contextmanager
def _io(action: str, *parse_errors: type) -> Iterator[None]:
    """Prefix an ``OSError`` or ``RegistryError`` raised in the block
    with ``action`` ("cannot load registry").  ``parse_errors`` names
    further exception types that mean the file read in the block is
    corrupt; they become ``OSError`` too."""
    from .fleet.registry import RegistryError
    try:
        yield
    except RegistryError as exc:
        raise RegistryError("{}: {}".format(action, exc)) from exc
    except (OSError,) + parse_errors as exc:
        raise OSError("{}: {}".format(action, exc)) from exc


def _write(path: str, content: object, what: str = "report") -> None:
    """Write ``content`` to ``path``: text as is, anything else as
    indented sorted-key JSON plus a newline."""
    if not isinstance(content, str):
        content = json.dumps(content, indent=2, sort_keys=True) + "\n"
    with _io("cannot write {}".format(what)), open(path, "w") as fh:
        fh.write(content)


def _resolve_seed(args: argparse.Namespace) -> int:
    """Subcommand ``--seed`` beats the global one; both optional."""
    sub_seed = getattr(args, "sub_seed", None)
    if sub_seed is not None:
        return sub_seed
    if args.seed is not None:
        return args.seed
    return DEFAULT_SEED


def _cmd_characterize(args: argparse.Namespace) -> int:
    from .characterization import ModulePopulation, measure_population
    pop = ModulePopulation(seed=_resolve_seed(args))
    measured = measure_population(pop.modules)
    abc = [measured[m.module_id].margin_mts for m in pop.major_brands()]
    d = [measured[m.module_id].margin_mts for m in pop.by_brand("D")]
    print(format_table(
        ["population", "modules", "mean margin MT/s", "stdev"],
        [["brands A-C", len(abc), mean(abc), stdev(abc)],
         ["brand D", len(d), mean(d), stdev(d)]],
        title="frequency margins ({} modules, {} chips)".format(
            len(pop.modules), pop.total_chips())))
    print()
    print(format_bar_chart(
        {"{:>5.0f} MT/s".format(k): v
         for k, v in histogram(abc + d, 200).items()}, fmt="{:.0f}"))
    return 0


def _cmd_montecarlo(args: argparse.Namespace) -> int:
    from .characterization import MarginMonteCarlo
    mc = MarginMonteCarlo(seed=_resolve_seed(args))
    rows = []
    for name, dist in (
            ("channel (aware)", mc.channel_margins(args.trials, True)),
            ("channel (unaware)", mc.channel_margins(args.trials, False)),
            ("node (aware)", mc.node_margins(args.trials // 4, True)),
            ("node (unaware)", mc.node_margins(args.trials // 4, False))):
        rows.append([name, dist.fraction_at_least(800),
                     dist.fraction_at_least(600)])
    print(format_table(["population", ">= 0.8 GT/s", ">= 0.6 GT/s"],
                       rows, title="Figure 11 Monte Carlo"))
    return 0


def _cmd_settings(args: argparse.Namespace) -> int:
    from .dram.timing import TABLE2_SETTINGS
    rows = [[name, t.data_rate_mts, t.tRCD_ns, t.tRP_ns, t.tRAS_ns,
             t.tREFI_ns / 1000.0, "{:.1f}".format(t.peak_bandwidth_gbs)]
            for name, t in TABLE2_SETTINGS.items()]
    print(format_table(
        ["setting", "MT/s", "tRCD", "tRP", "tRAS", "tREFI us", "GB/s"],
        rows, title="Table II memory settings"))
    return 0


def _cmd_node(args: argparse.Namespace) -> int:
    from .cache.hierarchy import HIERARCHIES
    from .sim import NodeConfig, simulate_node
    hierarchy = HIERARCHIES[args.hierarchy]()
    results = {}
    for design in ("baseline", "fmr", "hetero-dmr", "hetero-dmr+fmr"):
        results[design] = simulate_node(NodeConfig(
            suite=args.suite, hierarchy=hierarchy, design=design,
            margin_mts=args.margin, memory_utilization=args.utilization,
            refs_per_core=args.refs, seed=_resolve_seed(args),
            fidelity=args.fidelity))
    base = results["baseline"]
    rows = [[d, base.time_ns / r.time_ns, r.ipc, r.bus_utilization,
             r.write_share] for d, r in results.items()]
    print(format_table(
        ["design", "speedup", "IPC", "bus util", "write share"], rows,
        title="{} on {} (margin {} MT/s, {:.0%} memory used)".format(
            args.suite, args.hierarchy, args.margin, args.utilization)))
    return 0


def _cmd_hpc(args: argparse.Namespace) -> int:
    from .hpc import (CONVENTIONAL_MODEL, Cluster, EasyBackfillScheduler,
                      MarginAwareAllocationPolicy, PerformanceModel,
                      SystemSimulator, TraceConfig, generate_trace)
    from .sim.fidelity import ensure_fidelity_supported
    fidelity = ensure_fidelity_supported(
        args.fidelity,
        knobs={"read_error_rate": args.read_error_rate,
               "transition_fault_rate": args.transition_fault_rate},
        source="repro hpc --fidelity fast")
    if fidelity == "fast":
        from .fastmodel import performance_model_from_calibration
        model = performance_model_from_calibration()
    elif args.read_error_rate or args.transition_fault_rate:
        # Degraded fleet: derive the node-speedup model from real
        # cycle simulations honoring the fault knobs instead of the
        # clean transcribed Figure 12 constants.
        from .characterization.crosstech import backend_performance_model
        model = backend_performance_model(
            refs_per_core=args.model_refs, seed=_resolve_seed(args),
            read_error_rate=args.read_error_rate,
            transition_fault_rate=args.transition_fault_rate)
    else:
        model = PerformanceModel()
    jobs = generate_trace(TraceConfig(total_nodes=args.nodes,
                                      job_count=args.jobs,
                                      seed=_resolve_seed(args)))
    conv = SystemSimulator(Cluster(args.nodes), EasyBackfillScheduler(),
                           CONVENTIONAL_MODEL).run(jobs)
    hdmr = SystemSimulator(
        Cluster(args.nodes),
        EasyBackfillScheduler(MarginAwareAllocationPolicy()),
        model).run(jobs)
    rows = []
    for name, r in (("conventional", conv), ("hetero-dmr", hdmr)):
        rows.append([name, r.mean_execution_s(), r.mean_queue_delay_s(),
                     r.mean_turnaround_s()])
    print(format_table(
        ["system", "mean exec s", "mean queue s", "mean turnaround s"],
        rows, title="system-wide simulation ({} nodes, {} jobs)".format(
            args.nodes, args.jobs)))
    print("turnaround speedup: {:.3f}x".format(
        conv.mean_turnaround_s() / hdmr.mean_turnaround_s()))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .perf.sweep import SweepConfig, SweepRunner
    config = SweepConfig(refs_per_core=args.refs, workers=args.workers,
                         fidelity=args.fidelity,
                         seeds=(_resolve_seed(args),))
    result = SweepRunner(config).run()
    pairs = [
        ["cells", len(result.cells)],
        ["unique simulations", result.unique_simulations],
        ["fidelity", args.fidelity or "default"],
        ["workers used", "{}{}".format(
            result.workers_used,
            " ({})".format(result.cap_reason)
            if result.cap_reason else "")],
        ["wall s", "{:.3f}".format(result.wall_s)],
    ]
    if result.events_processed:
        pairs.append(["events/s", "{:.0f}".format(
            result.events_per_second)])
    if args.out:
        _write(args.out, {"sweep": "fig12_grid",
                          "refs_per_core": args.refs,
                          "fidelity": args.fidelity or "default",
                          "cells": result.deterministic_view()},
               "records")
        pairs.append(["records", args.out])
    print(format_kv("fig12 grid sweep", pairs))
    return EXIT_OK


def _cmd_fastmodel(args: argparse.Namespace) -> int:
    from .fastmodel import cluster_sweep, run_calibration, run_crosscheck

    if args.fastmodel_command == "calibrate":
        from .fastmodel.calibration import GRID_REFS_PER_CORE
        calibration = run_calibration(
            suites=args.suites,
            refs_per_core=args.refs or GRID_REFS_PER_CORE,
            progress=print if args.verbose else None,
            backend=args.backend)
        with _io("cannot write artifact"):
            path = calibration.save(args.out)
        worst = max(calibration.fit_errors.values()) \
            if calibration.fit_errors else 0.0
        print(format_kv("fastmodel calibrate", [
            ["cells", len(calibration.cells)],
            ["backend", calibration.backend],
            ["refs per core", calibration.refs_per_core],
            ["worst fit error", "{:.5f}".format(worst)],
            ["artifact", str(path)],
        ]))
        return EXIT_OK

    if args.fastmodel_command == "check":
        report = run_crosscheck(suites=args.suites)
        pairs = []
        for hier, d in sorted(report["hierarchies"].items()):
            pairs.append(["{} rankings".format(hier),
                          "match" if d["rankings_match"]
                          else "INVERTED"])
            pairs.append(["{} worst |error|".format(hier),
                          "{:.6f} ({})".format(d["worst_abs_error"],
                                               d["worst_bar"])])
        pairs.append(["tolerance", report["tolerance"]])
        pairs.append(["passed", report["passed"]])
        if args.out:
            _write(args.out, report)
            pairs.append(["report", args.out])
        print(format_kv("fastmodel fig12 cross-check", pairs))
        return EXIT_OK if report["passed"] else EXIT_DOMAIN_FAILURE

    # cluster
    report = cluster_sweep(total_nodes=args.nodes, job_count=args.jobs,
                           seed=_resolve_seed(args))
    if args.out:
        _write(args.out, report)
    print(format_kv("fastmodel cluster sweep", [
        ["nodes", report["total_nodes"]],
        ["jobs", report["job_count"]],
        ["mean turnaround improvement", "{:.4f}x".format(
            report["mean_turnaround_improvement"])],
        ["conventional turnaround s", report["conventional"]
         ["mean_turnaround_s"]],
        ["hetero-dmr turnaround s", report["hetero_dmr"]
         ["mean_turnaround_s"]],
        ["wall s", "{:.2f}".format(report["wall_s"])],
    ]))
    return EXIT_OK


def _cmd_backend(args: argparse.Namespace) -> int:
    from .characterization.crosstech import (characterize_backend,
                                             compare_backends)

    if args.backend_command == "characterize":
        report = characterize_backend(args.backend, trials=args.trials,
                                      seed=_resolve_seed(args))
        title = "backend characterization"
        pairs = [
            ["backend", report["backend"]],
            ["spec data rate MT/s", report["spec_data_rate_mts"]],
            ["margin buckets", ", ".join(
                str(m) for m in report["margin_buckets"])],
        ]
        for bucket, frac in report["node_group_fractions"].items():
            pairs.append(["nodes @ {} MT/s".format(bucket),
                          "{:.1%}".format(frac)])
    else:
        report = compare_backends(backends=args.backends,
                                  refs_per_core=args.refs,
                                  trials=args.trials,
                                  total_nodes=args.nodes,
                                  job_count=args.jobs,
                                  seed=_resolve_seed(args))
        title = "cross-technology backend comparison"
        pairs = []
        for name, entry in report["backends"].items():
            pairs.append(["{} spec MT/s".format(name),
                          entry["spec_data_rate_mts"]])
            pairs.append(["{} turnaround improvement".format(name),
                          "{:.4f}x".format(
                              entry["system"]
                              ["mean_turnaround_improvement"])])
        for name, row in report["comparison"].items():
            pairs.append(["{} vs {} improvement delta".format(
                name, row["vs"]), "{:+.4f}".format(
                    row["turnaround_improvement_delta"])])
    if args.out:
        _write(args.out, report)
        pairs.append(["report", args.out])
    print(format_kv(title, pairs))
    return EXIT_OK


def _cmd_chaos(args: argparse.Namespace) -> int:
    import dataclasses
    from .resilience import ChaosConfig, run_chaos_campaign
    base = ChaosConfig.smoke() if args.smoke else ChaosConfig()
    config = dataclasses.replace(base, seed=_resolve_seed(args))
    report = run_chaos_campaign(config)
    text = report.render()
    if args.report_file:
        _write(args.report_file, text)
    print(text, end="")
    return EXIT_OK if report.passed() else EXIT_DOMAIN_FAILURE


def _cmd_adapt(args: argparse.Namespace) -> int:
    import dataclasses
    from .adaptive import MovingMarginConfig, run_moving_margin_campaign
    base = (MovingMarginConfig.smoke() if args.smoke
            else MovingMarginConfig())
    config = dataclasses.replace(base, seed=_resolve_seed(args),
                                 drift=args.drift,
                                 adaptive=not args.static)
    report = run_moving_margin_campaign(
        config,
        compare_static=not (args.static or args.no_baseline))
    text = report.render()
    if args.report_file:
        _write(args.report_file, text)
    print(text, end="")
    return EXIT_OK if report.passed() else EXIT_DOMAIN_FAILURE


def _cmd_fleet(args: argparse.Namespace) -> int:
    from .fleet import (FleetConfig, FleetProfiler, MarginRegistry,
                        PlacementService)
    seed = _resolve_seed(args)

    if args.fleet_command == "profile":
        with _io("cannot open registry"):
            registry = MarginRegistry(args.registry)
        config = FleetConfig(nodes=args.nodes, seed=seed,
                             guard_band_mts=args.guard_band,
                             flaky_node_rate=args.flaky_rate,
                             workers=args.workers)
        with _io("registry write failed"):
            summary = FleetProfiler(config, registry).run(
                resume=args.resume, crash_after=args.crash_after)
        text = summary.render()
        if args.report_file:
            _write(args.report_file, text)
        print(text, end="")
        if registry.path is not None:
            print("registry: {}".format(registry.snapshot_path))
        return EXIT_OK if summary.succeeded else EXIT_DOMAIN_FAILURE

    with _io("cannot load registry"):
        registry = MarginRegistry(args.registry, create=False)

    if args.fleet_command == "status":
        rows = [[rec.node,
                 rec.margin_mts if rec.margin_mts is not None else "-",
                 rec.effective_margin_mts, rec.margin_bucket,
                 "retired" if rec.retired else
                 ("demoted" if rec.demoted_margin_mts is not None
                  else "ok"),
                 rec.advisories]
                for rec in registry.nodes()]
        print(format_table(
            ["node", "profiled", "effective", "bucket", "state",
             "advisories"], rows,
            title="fleet registry ({} nodes, seq {})".format(
                len(registry), registry.last_seq)))
        buckets = ", ".join("{}: {}".format(k, v) for k, v in
                            registry.bucket_counts().items())
        print("bucket counts: {}".format(buckets or "(empty)"))
        return EXIT_OK if len(registry) else EXIT_DOMAIN_FAILURE

    # place
    fields = [w.strip() for w in args.widths.split(",") if w.strip()]
    if not fields or not all(w.isdigit() and int(w) > 0 for w in fields):
        raise DomainFailure("--widths must be comma-separated positive "
                            "integers")
    widths = [int(w) for w in fields]
    service = PlacementService(registry)
    assignments = service.place(widths)
    rows = []
    for i, (width, assignment) in enumerate(zip(widths, assignments)):
        if assignment is None:
            rows.append([i, width, "-", "UNPLACED"])
        else:
            rows.append([i, width,
                         ",".join(str(n) for n in assignment.nodes),
                         assignment.margin_bucket])
    print(format_table(["job", "nodes", "assigned", "bucket"], rows,
                       title="fleet placement ({} jobs over {} nodes)"
                       .format(len(widths), len(registry))))
    placed = sum(1 for a in assignments if a is not None)
    print("placed {}/{} jobs".format(placed, len(widths)))
    return EXIT_OK if placed == len(widths) else EXIT_DOMAIN_FAILURE


def _cmd_recover(args: argparse.Namespace) -> int:
    from .fleet import MarginRegistry
    from .recovery import CheckpointStore, RecoveryManager

    if args.recover_command == "status":
        from pathlib import Path
        if not Path(args.store).is_dir():
            raise FileNotFoundError(
                "no checkpoint store at {}".format(args.store))
        store = CheckpointStore(args.store)
        rows = []
        valid = 0
        for name, ckpt, status in store.entries():
            if ckpt is not None:
                valid += 1
                rows.append([name, ckpt.node, ckpt.seq,
                             "{:.3f}".format(ckpt.time_ns / 1e9),
                             ",".join(sorted(ckpt.state)) or "-",
                             status])
            else:
                rows.append([name, "-", "-", "-", "-", status])
        print(format_table(
            ["checkpoint", "node", "seq", "time s", "sections",
             "status"], rows,
            title="checkpoint store {} ({} valid of {})".format(
                args.store, valid, len(rows))))
        return EXIT_OK if valid else EXIT_DOMAIN_FAILURE

    with _io("cannot load registry"):
        registry = MarginRegistry(args.registry, create=False)

    if args.recover_command == "checkpoint":
        if not registry.has_node(args.node):
            raise DomainFailure("node {} unknown to the registry"
                                .format(args.node))
        record = registry.node(args.node)
        with _io("checkpoint write failed"):
            manager = RecoveryManager(CheckpointStore(args.store),
                                      registry, node=args.node)
            ckpt = manager.checkpoint_state(
                {"node_record": record.to_dict()}, now_ns=0.0)
        print(format_kv("recover checkpoint", [
            ["node", args.node], ["seq", ckpt.seq],
            ["store", args.store],
            ["effective margin MT/s", record.effective_margin_mts]]))
        return EXIT_OK

    # restore
    with _io("registry repair failed"):
        repaired = registry.repair_log()
        registry.write_snapshot()
    pairs = [["registry", str(args.registry)],
             ["torn log bytes dropped", repaired],
             ["events replayed into snapshot", registry.last_seq],
             ["nodes", len(registry)]]
    restorable = len(registry) > 0
    if args.store is not None:
        with _io("cannot read checkpoint store"):
            manager = RecoveryManager(CheckpointStore(args.store),
                                      registry, node=args.node)
            recovered = manager.recover()
        rung = recovered.durable_rung()
        pairs += [["node", args.node],
                  ["checkpoint seq", recovered.checkpoint_seq],
                  ["corrupt checkpoints skipped", recovered.fallbacks],
                  ["wal events replayed", recovered.replayed_events],
                  ["durable rung",
                   rung.name if rung is not None else "-"]]
        restorable = recovered.checkpoint is not None or \
            registry.has_node(args.node)
    print(format_kv("recover restore", pairs))
    return EXIT_OK if restorable else EXIT_DOMAIN_FAILURE


def _cmd_perf(args: argparse.Namespace) -> int:
    if args.perf_command == "bench":
        from .perf import load_baseline, run_perf_bench
        # Fail on a corrupt baseline before the sweep, not after it.
        with _io("cannot load baseline", ValueError):
            load_baseline(args.baseline)
        # Unlike the other subcommands the bench defaults to the grid
        # seed the baseline was recorded with, not DEFAULT_SEED, so an
        # argument-less run stays comparable to the committed baseline.
        seed = getattr(args, "sub_seed", None)
        if seed is None:
            seed = args.seed
        report = run_perf_bench(
            refs_per_core=args.refs, workers=args.workers,
            fidelity=args.fidelity, baseline_path=args.baseline,
            seed=seed, include_reference=not args.no_reference,
            include_fastmodel=args.fastmodel,
            fastmodel_cycle=not args.fastmodel_no_cycle)
        with _io("cannot write report"):
            path = report.write(args.out)
        pairs = [
            ["cells", report.n_cells],
            ["unique simulations", report.unique_simulations],
            ["workers (requested/used)", "{}/{}{}".format(
                report.workers_requested, report.workers_used,
                " ({})".format(report.cap_reason)
                if report.cap_reason else "")],
            ["cpu capacity", report.cpu_capacity],
            ["fast wall s", "{:.2f}".format(report.fast_wall_s)],
            ["events/s", "{:.0f}".format(report.events_per_second)],
        ]
        if report.speedup_vs_reference is not None:
            pairs.append(["speedup vs serial reference", "{:.2f}x"
                          .format(report.speedup_vs_reference)])
        if report.speedup_vs_baseline is not None:
            pairs.append(["speedup vs recorded baseline", "{:.2f}x"
                          .format(report.speedup_vs_baseline)])
        if report.fastmodel:
            fm = report.fastmodel
            pairs.append(["fastmodel crosscheck",
                          "pass" if fm["crosscheck_passed"]
                          else "FAIL"])
            if "fast_speedup_vs_cycle" in fm:
                pairs.append(["fastmodel speedup vs cycle", "{:.0f}x"
                              .format(fm["fast_speedup_vs_cycle"])])
            pairs.append(["fastmodel 10k-node wall s", "{:.2f}"
                          .format(fm["cluster_wall_s"])])
        pairs.append(["report", str(path)])
        pairs.append(["regressed", report.regressed])
        print(format_kv("perf bench (fig12 sweep)", pairs))
        return EXIT_DOMAIN_FAILURE if report.regressed else EXIT_OK

    # profile
    import cProfile
    import pstats
    from .cache.hierarchy import HIERARCHIES
    from .sim import NodeConfig, simulate_node
    config = NodeConfig(
        suite=args.suite, hierarchy=HIERARCHIES[args.hierarchy](),
        design=args.design, refs_per_core=args.refs,
        memory_utilization=args.utilization, seed=_resolve_seed(args))
    # The block disables the profiler even when the run raises.
    with cProfile.Profile() as profiler:
        simulate_node(config)
    stats = pstats.Stats(profiler, stream=sys.stdout)
    try:
        stats.sort_stats("cumulative").print_stats(args.top)
    except BrokenPipeError:    # e.g. piped into head
        pass
    return EXIT_OK


def _obs_run_scenario(name: str, seed: int, recorder) -> bool:
    """Run one instrumented scenario under ``recorder``; returns the
    domain verdict (``False`` means the scenario itself FAILed)."""
    from .obs import recording
    with recording(recorder):
        if name == "node":
            from .cache.hierarchy import HIERARCHIES
            from .sim import NodeConfig, simulate_node
            # Two operating points so the trace exercises both event
            # families: low utilization speeds the channel up
            # (frequency transitions), higher utilization queues
            # enough writes to batch (write-mode spans).
            for suite, util in (("linpack", 0.2), ("lulesh", 0.5)):
                simulate_node(NodeConfig(
                    suite=suite,
                    hierarchy=HIERARCHIES["Hierarchy1"](),
                    design="hetero-dmr+fmr", refs_per_core=2000,
                    memory_utilization=util, seed=seed))
            return True
        import dataclasses
        if name == "adapt-smoke":
            from .adaptive import MovingMarginCampaign, MovingMarginConfig
            config = dataclasses.replace(MovingMarginConfig.smoke(),
                                         seed=seed)
            return MovingMarginCampaign(config).run().passed()
        # chaos-smoke
        from .resilience import ChaosConfig, run_chaos_campaign
        config = dataclasses.replace(ChaosConfig.smoke(), seed=seed)
        return run_chaos_campaign(config).passed()


def _obs_summarize(events: List[dict]) -> str:
    """Per-(subsystem, event) counts and time spans for a trace."""
    spans: dict = {}
    for ev in events:
        key = (str(ev["subsystem"]), str(ev["event"]))
        t = float(ev["t_ns"])
        count, first, last = spans.get(key, (0, t, t))
        spans[key] = (count + 1, min(first, t), max(last, t))
    rows = [[sub, name, count, "{:.0f}".format(first),
             "{:.0f}".format(last)]
            for (sub, name), (count, first, last) in sorted(spans.items())]
    out = format_table(
        ["subsystem", "event", "count", "first t_ns", "last t_ns"],
        rows, title="trace summary ({} events)".format(len(events)))
    out += "\n" + format_kv("totals", [
        ["events", len(events)],
        ["series", len(spans)]])
    return out


def _cmd_obs(args: argparse.Namespace) -> int:
    from .obs import (JsonlTraceSink, MemoryTraceSink, Recorder,
                      read_trace, to_json, to_prometheus)
    seed = _resolve_seed(args)

    if args.obs_command == "trace":
        with _io("cannot open trace file"):
            sink = JsonlTraceSink(args.out)
        with sink:
            ok = _obs_run_scenario(args.scenario, seed,
                                   Recorder(trace=sink))
        print(format_kv("obs trace", [
            ["scenario", args.scenario], ["seed", seed],
            ["trace", args.out], ["events", sink.events_emitted],
            ["scenario passed", ok]]))
        return EXIT_OK if ok and sink.events_emitted \
            else EXIT_DOMAIN_FAILURE

    if args.obs_command == "export":
        recorder = Recorder()
        ok = _obs_run_scenario(args.scenario, seed, recorder)
        text = to_prometheus(recorder.snapshot()) \
            if args.format == "prometheus" \
            else to_json(recorder.snapshot())
        if args.out:
            _write(args.out, text, "metrics")
            print("metrics: {}".format(args.out))
        else:
            print(text, end="")
        return EXIT_OK if ok else EXIT_DOMAIN_FAILURE

    # summary
    if args.trace_file is not None:
        # A line that parses but is not an event is corrupt too.
        with _io("cannot read trace", ValueError, KeyError, TypeError):
            events = read_trace(args.trace_file)
            text = _obs_summarize(events)
    elif args.scenario is not None:
        sink = MemoryTraceSink()
        _obs_run_scenario(args.scenario, seed, Recorder(trace=sink))
        events = sink.events
        text = _obs_summarize(events)
    else:
        raise DomainFailure("summary needs --trace-file or --scenario")
    try:
        print(text)
    except BrokenPipeError:    # e.g. piped into head
        pass
    return EXIT_OK if events else EXIT_DOMAIN_FAILURE


def _serve_requests(path: Optional[str]) -> tuple:
    """Parse the JSONL request stream (``path``, or stdin when None)
    into service requests.  A malformed line is reported as ``repro
    serve: bad request line N: <cause>`` and skipped; returns the
    requests and the number of bad lines."""
    from .fleet.registry import coerce_event
    from .service import (ClockTick, PlaceRequest, RegistryWrite,
                          ReleaseRequest)
    with _io("cannot read requests"):
        if path is None:
            lines = sys.stdin.readlines()
        else:
            with open(path) as fh:
                lines = fh.readlines()
    requests, bad = [], 0
    for lineno, line in enumerate(lines, 1):
        if not line.strip():
            continue
        try:
            doc = json.loads(line)
            op = doc["op"]
            if op == "place":
                deadline = doc.get("deadline_s")
                request = PlaceRequest(
                    int(doc["job"]), int(doc.get("nodes", 1)),
                    float(deadline) if deadline is not None else None)
                if request.nodes_requested <= 0:
                    raise ValueError("jobs need at least one node")
            elif op == "release":
                request = ReleaseRequest(int(doc["job"]))
            elif op == "write":
                kind, node = str(doc["kind"]), int(doc["node"])
                request = RegistryWrite(kind, node, coerce_event(
                    kind, node, doc.get("payload", {})))
            elif op == "tick":
                request = ClockTick(float(doc["now_s"]))
            else:
                raise ValueError("unknown op {!r}".format(op))
            requests.append(request)
        except (KeyError, TypeError, ValueError) as exc:
            print("repro serve: bad request line {}: {}"
                  .format(lineno, exc), file=sys.stderr)
            bad += 1
    return requests, bad


def _serve_ha(args: argparse.Namespace, seed: int, requests: list,
              sink) -> str:
    """``repro serve --daemons N``: the HA control plane answers the
    request stream from N lease-holding daemons."""
    from .service import (HAConfig, HAControlPlane, PlaceRequest,
                          RegistryWrite, ReleaseRequest)
    from .service.sharding import DEFAULT_SHARDS
    config = HAConfig(nodes=args.nodes,
                      shards=(args.shards if args.shards is not None
                              else DEFAULT_SHARDS),
                      daemons=args.daemons, seed=seed)
    plane = HAControlPlane(config, decision_sink=sink)
    for request in requests:
        if isinstance(request, PlaceRequest):
            plane.submit_place(request.job_id, request.nodes_requested)
        elif isinstance(request, ReleaseRequest):
            plane.submit_release(request.job_id)
        elif isinstance(request, RegistryWrite):
            plane.submit_write(request)
        else:
            plane.tick(request.now_s)
    guard = 0
    while plane.pending and guard < 100_000:
        plane.tick(plane.now_s + 0.25)
        guard += 1
    plane.stop()
    stats = plane.stats
    return ("repro serve: {} daemons, {} decisions (placed {}, "
            "unsatisfiable {}, released {}), {} writes, {} failovers, "
            "{} fenced writes".format(
                args.daemons, stats.decisions, stats.placed,
                stats.unsatisfiable, stats.released, stats.writes,
                plane.failover.failovers,
                plane.table.stats.fenced_writes))


def _serve_daemon(args: argparse.Namespace, registry, requests: list,
                  sink) -> str:
    """``repro serve``: one asyncio placement daemon."""
    import asyncio
    from .service import (DaemonConfig, PlaceRequest, PlacementDaemon,
                          RegistryWrite, ReleaseRequest)
    config = DaemonConfig(
        queue_limit=args.queue_limit,
        event_queue_limit=max(4096, 2 * args.queue_limit))
    daemon = PlacementDaemon(registry, config, decision_sink=sink)

    async def run_requests() -> None:
        async with daemon:
            futures = []
            for request in requests:
                if isinstance(request, PlaceRequest):
                    futures.append(daemon.submit(request))
                elif isinstance(request, ReleaseRequest):
                    futures.append(await daemon.submit_release(request))
                elif isinstance(request, RegistryWrite):
                    await daemon.submit_write(request)
                else:
                    await daemon.submit_tick(request.now_s)
            if futures:
                await asyncio.gather(*futures)

    asyncio.run(run_requests())
    stats = daemon.stats
    return ("repro serve: {} decisions (placed {}, shed {}, expired {}, "
            "released {}), {} writes, queue peak {}".format(
                stats.decisions, stats.placed, stats.shed, stats.expired,
                stats.released, stats.writes, stats.queue_peak))


def _cmd_serve(args: argparse.Namespace) -> int:
    from .fleet.registry import RegistryError
    seed = _resolve_seed(args)
    registry = None
    if args.daemons > 1:
        if args.registry is not None:
            raise RegistryError("--registry is not supported with "
                                "--daemons > 1 (the HA plane seeds its "
                                "own fleet)")
    else:
        from .hpc.cluster import Cluster
        from .service import ShardedRegistry
        with _io("cannot open registry"):
            if args.registry is not None:
                registry = ShardedRegistry(args.registry, create=False)
            else:
                registry = ShardedRegistry(shards=args.shards)
                for node in Cluster(args.nodes, seed=seed).nodes:
                    registry.record_profile(node.index, node.margin_mts)
    requests, bad = _serve_requests(args.requests)
    with contextlib.ExitStack() as stack:
        with _io("cannot open output"):
            stream = sys.stdout if args.out is None else \
                stack.enter_context(open(args.out, "w"))

        def sink(decision) -> None:
            stream.write(decision.to_json() + "\n")

        summary = (_serve_ha(args, seed, requests, sink)
                   if registry is None else
                   _serve_daemon(args, registry, requests, sink))
    print(summary, file=sys.stderr)
    return EXIT_DOMAIN_FAILURE if bad else EXIT_OK


def _cmd_soak(args: argparse.Namespace) -> int:
    """``repro soak``: the seeded placement-daemon soak, or with
    ``--failover`` the HA drill — seeded faults against N daemons,
    decision stream compared against a never-crashed single-daemon
    reference."""
    import dataclasses
    import tempfile
    from .service import HAConfig, HAFailoverDrill, SoakConfig, SoakScenario
    overrides = [("events", args.events), ("nodes", args.nodes),
                 ("shards", args.shards),
                 ("p999_budget_s", args.p999_budget),
                 ("compact_every", args.compact_every)]
    if args.failover:
        config = HAConfig.smoke() if args.smoke else HAConfig()
        overrides.append(("daemons", args.daemons))
        logs = (args.decisions, args.reference_decisions)
    else:
        config = SoakConfig.smoke() if args.smoke else SoakConfig()
        overrides += [("verify", not args.no_verify),
                      ("queue_limit", args.queue_limit)]
        logs = (args.decisions,)
    with contextlib.ExitStack() as stack:
        registry_dir = args.registry
        if registry_dir is None:
            registry_dir = stack.enter_context(tempfile.TemporaryDirectory(
                prefix="repro-ha-" if args.failover else "repro-soak-"))
        config = dataclasses.replace(
            config, registry_dir=registry_dir, seed=_resolve_seed(args),
            **{k: v for k, v in overrides if v is not None})
        with _io("cannot open decision log"):
            streams = [stack.enter_context(open(path, "w"))
                       if path is not None else None for path in logs]
        if args.failover:
            result = HAFailoverDrill(config).run(
                stream=streams[0], reference_stream=streams[1])
        else:
            result = SoakScenario(config).run(stream=streams[0])
    if args.report_file is not None:
        _write(args.report_file, result.report.render()
               if args.failover else result.to_dict())
    print(result.format_summary() if args.failover
          else result.format_report())
    return EXIT_OK if result.passed() else EXIT_DOMAIN_FAILURE


def _cmd_smoke(args: argparse.Namespace) -> int:
    from pathlib import Path
    from .smoke import SCENARIOS, run_scenario
    out_dir = Path(args.out_dir)
    with _io("cannot use output directory"):
        out_dir.mkdir(parents=True, exist_ok=True)
        if any(out_dir.iterdir()):    # a rerun would append to it
            raise FileExistsError("{} is not empty".format(out_dir))
    failure = run_scenario(SCENARIOS[args.scenario], out_dir)
    if failure is not None:
        raise DomainFailure("{}: {}".format(args.scenario, failure))
    print("smoke {}: passed ({})".format(args.scenario, out_dir))
    return EXIT_OK


def _cmd_suites(args: argparse.Namespace) -> int:
    from .workloads import PROFILES
    rows = [[p.name, p.footprint_bytes >> 20, p.stream_fraction,
             p.write_fraction, p.dependent_fraction, p.mpi_fraction,
             p.description]
            for p in PROFILES.values()]
    print(format_table(
        ["suite", "MB", "stream", "writes", "dependent", "MPI",
         "description"], rows, title="workload suites"))
    return 0


def _ranged(cast: type, low: float, high: Optional[float] = None):
    """argparse type: ``cast`` the text (a ``ValueError`` is argparse's
    "invalid int value"), then require ``low <= value <= high``."""
    def parse(text: str):
        value = cast(text)
        if not low <= value <= (value if high is None else high):
            raise argparse.ArgumentTypeError("{} is outside [{}, {}]".format(
                text, low, "inf" if high is None else high))
        return value
    parse.__name__ = cast.__name__
    return parse


_positive_int = _ranged(int, 1)
_non_negative_int = _ranged(int, 0)
_fraction = _ranged(float, 0.0, 1.0)


def _names(valid: Sequence[str]):
    """argparse type: distinct comma-separated names from ``valid``."""
    def parse(text: str) -> tuple:
        names = tuple(n.strip() for n in text.split(","))
        if len(set(names)) != len(names) or not set(names) <= set(valid):
            raise argparse.ArgumentTypeError(
                "{!r} is not a list of distinct names from {}".format(
                    text, ", ".join(valid)))
        return names
    return parse


def _design(text: str) -> str:
    """argparse type: a node design name."""
    from .sim.node import DESIGNS
    if text not in DESIGNS:
        raise argparse.ArgumentTypeError(
            "unknown design {!r}; valid: {}".format(
                text, ", ".join(DESIGNS)))
    return text


def build_parser() -> argparse.ArgumentParser:
    from .smoke import SCENARIOS
    from .workloads import suite_names
    suites = suite_names()
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of the ISCA'21 memory frequency "
                    "margin / Hetero-DMR paper")
    parser.add_argument("--seed", type=int, default=None,
                        help="global RNG seed (default {}); a "
                             "subcommand-level --seed overrides it"
                        .format(DEFAULT_SEED))
    sub = parser.add_subparsers(dest="command", required=True)

    # Every subcommand also takes --seed, so both `repro --seed 7 hpc`
    # and `repro hpc --seed 7` work.  The subcommand's value lands in
    # a separate dest because argparse would otherwise overwrite the
    # already-parsed global value with the subparser default.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", dest="sub_seed", type=int,
                        default=None,
                        help="RNG seed (overrides the global --seed)")
    # Options several subcommands share, each defined once.
    node_opts = argparse.ArgumentParser(add_help=False, parents=[common])
    node_opts.add_argument("--suite", default="linpack", choices=suites)
    node_opts.add_argument("--hierarchy", default="Hierarchy1",
                           choices=("Hierarchy1", "Hierarchy2"))
    node_opts.add_argument("--utilization", type=_fraction, default=0.2)
    node_opts.add_argument("--refs", type=_positive_int, default=3000)
    fidelity_opt = argparse.ArgumentParser(add_help=False)
    fidelity_opt.add_argument("--fidelity", default=None,
                              choices=("cycle", "fast"),
                              help="model tier (default: REPRO_FIDELITY "
                                   "or cycle)")
    registry_opt = argparse.ArgumentParser(add_help=False)
    registry_opt.add_argument("--registry", required=True,
                              help="existing registry directory")
    json_out = argparse.ArgumentParser(add_help=False)
    json_out.add_argument("--out", default=None,
                          help="write the report JSON here")
    campaign = argparse.ArgumentParser(add_help=False, parents=[common])
    campaign.add_argument("--smoke", action="store_true",
                          help="short CI-sized campaign (~1 simulated "
                               "hour)")
    campaign.add_argument("--report-file", default=None,
                          help="also write the report to this path")

    sub.add_parser("characterize", parents=[common],
                   help="run the Section II margin characterization")

    mc = sub.add_parser("montecarlo", parents=[common],
                        help="Figure 11 margin Monte Carlo")
    # The node populations draw trials // 4 samples.
    mc.add_argument("--trials", type=_ranged(int, 4), default=20000)

    sub.add_parser("settings", parents=[common],
                   help="print the Table II settings")

    node = sub.add_parser("node", parents=[node_opts, fidelity_opt],
                          help="simulate one node, four designs")
    node.add_argument("--margin", type=_non_negative_int, default=800)

    hpc = sub.add_parser("hpc", parents=[common],
                         help="system-wide Slurm-style simulation")
    hpc.add_argument("--nodes", type=_positive_int, default=256)
    hpc.add_argument("--jobs", type=_positive_int, default=3000)
    hpc.add_argument("--fidelity", default=None,
                     choices=("cycle", "fast"),
                     help="node-speedup model: transcribed Figure 12 "
                          "defaults (cycle) or the calibrated fast "
                          "tier's predictions (fast); default: "
                          "REPRO_FIDELITY or cycle")
    hpc.add_argument("--read-error-rate", type=_fraction, default=0.0,
                     help="margin-read error rate for a degraded "
                          "fleet; derives the node-speedup model from "
                          "cycle simulations honoring the faults "
                          "(refused under --fidelity fast)")
    hpc.add_argument("--transition-fault-rate", type=_fraction,
                     default=0.0,
                     help="frequency-transition fault rate for a "
                          "degraded fleet (refused under --fidelity "
                          "fast)")
    hpc.add_argument("--model-refs", type=_positive_int, default=300,
                     help="trace references per core for the "
                          "fault-aware model derivation")

    sweep = sub.add_parser(
        "sweep", parents=[common, fidelity_opt],
        help="run the Figure 12 grid sweep at either fidelity tier")
    sweep.add_argument("--refs", type=_positive_int, default=3000,
                       help="trace references per core and cell")
    sweep.add_argument("--workers", type=int, default=0,
                       help="worker processes for cycle cells "
                            "(<=1 serial; fast cells never fan out)")
    sweep.add_argument("--out", default=None,
                       help="write per-cell records (deterministic "
                            "view) to this JSON file")

    fastmodel = sub.add_parser(
        "fastmodel", help="fast fidelity tier: calibrate the "
                          "closed-form model, cross-check it against "
                          "the cycle engine, run 10k-node sweeps")
    fsub = fastmodel.add_subparsers(dest="fastmodel_command",
                                    required=True)
    fcal = fsub.add_parser(
        "calibrate", parents=[common],
        help="run the cycle engine over the fig12 effective-cell grid "
             "and fit the closed-form model (writes the versioned "
             "calibration artifact)")
    fcal.add_argument("--refs", type=_positive_int, default=None,
                      help="trace references per core (default: the "
                           "committed grid length)")
    fcal.add_argument("--suites", type=_names(suites), default=None,
                      help="comma-separated suite subset (default: "
                           "all suites)")
    fcal.add_argument("--out", default=None,
                      help="artifact path (default "
                           "benchmarks/perf/fastmodel_calibration"
                           ".json)")
    fcal.add_argument("--verbose", action="store_true",
                      help="print each calibrated cell")
    fcal.add_argument("--backend", default=None, choices=BACKENDS,
                      help="memory-technology backend to calibrate "
                           "(default: REPRO_BACKEND or ddr4)")
    fcheck = fsub.add_parser(
        "check", parents=[common, json_out],
        help="fig12 cycle-vs-fast cross-check: rankings + weighted "
             "speedups within tolerance (exit 1 on failure); the "
             "report is deterministic, so two runs diff clean")
    fcheck.add_argument("--suites", type=_names(suites), default=None,
                        help="comma-separated suite subset")
    fcluster = fsub.add_parser(
        "cluster", parents=[common, json_out],
        help="10k-node system sweep with the calibrated performance "
             "model")
    fcluster.add_argument("--nodes", type=_positive_int, default=10000)
    fcluster.add_argument("--jobs", type=_positive_int, default=2000)

    backend = sub.add_parser(
        "backend", help="memory-technology backends: per-backend "
                        "characterization and the cross-technology "
                        "comparison artifact")
    bsub = backend.add_subparsers(dest="backend_command",
                                  required=True)
    bchar = bsub.add_parser(
        "characterize", parents=[common, json_out],
        help="seeded margin Monte Carlo for one backend, bucketed "
             "into its own scheduler classes")
    bchar.add_argument("--backend", default=None, choices=BACKENDS,
                       help="memory-technology backend (default: "
                            "REPRO_BACKEND or ddr4)")
    bchar.add_argument("--trials", type=_positive_int, default=4000)
    bcomp = bsub.add_parser(
        "compare", parents=[common],
        help="cross-technology study: characterization + cycle-"
             "measured node speedups + margin-aware placement per "
             "backend, one deterministic artifact")
    bcomp.add_argument("--backends", type=_names(BACKENDS),
                       default="ddr4,mrdimm",
                       help="comma-separated backend list (first is "
                            "the comparison baseline)")
    bcomp.add_argument("--refs", type=_positive_int, default=1500,
                       help="trace references per core for the cycle "
                            "speedup measurements")
    bcomp.add_argument("--trials", type=_positive_int, default=4000,
                       help="Monte Carlo trials per backend")
    bcomp.add_argument("--nodes", type=_positive_int, default=200,
                       help="cluster size for the placement phase")
    bcomp.add_argument("--jobs", type=_positive_int, default=400,
                       help="job-trace length for the placement phase")
    bcomp.add_argument("--out", default=None,
                       help="write the comparison artifact here")

    sub.add_parser(
        "chaos", parents=[campaign],
        help="run the fault-injection chaos campaign and print "
             "the survivability report (exit 1 on FAIL)")

    adapt = sub.add_parser(
        "adapt", parents=[campaign],
        help="run the moving-margin campaign: environment drift + "
             "fault injection + crash drills under the adaptive "
             "margin controller (exit 1 on FAIL)")
    adapt.add_argument("--drift", default="composite",
                       choices=("ramp", "diurnal", "aging", "composite"),
                       help="drift scenario moving the hidden true "
                            "margin (default composite)")
    adapt.add_argument("--static", action="store_true",
                       help="drive the static reactive controller "
                            "instead of the adaptive one (no baseline "
                            "comparison)")
    adapt.add_argument("--no-baseline", action="store_true",
                       help="skip the same-seed static baseline run "
                            "(halves the campaign time; the "
                            "beats-static check is then not enforced)")

    fleet = sub.add_parser(
        "fleet", help="fleet margin registry: profile, status, place")
    fsub = fleet.add_subparsers(dest="fleet_command", required=True)
    profile = fsub.add_parser(
        "profile", parents=[common],
        help="profile a fleet into a registry (parallel, seeded)")
    profile.add_argument("--nodes", type=_positive_int, default=64)
    profile.add_argument("--registry", default=None,
                         help="registry directory (in-memory when "
                              "omitted)")
    profile.add_argument("--workers", type=int, default=0,
                         help="profiling worker processes (<=1 serial)")
    profile.add_argument("--guard-band", type=_non_negative_int, default=0,
                         help="guard band de-rating margins, MT/s")
    profile.add_argument("--flaky-rate", type=_fraction, default=0.0,
                         help="fraction of nodes whose rig fails boots "
                              "(exercises bounded retry)")
    profile.add_argument("--report-file", default=None,
                         help="also write the summary to this path")
    profile.add_argument("--resume", action="store_true",
                         help="repair the event log and profile only "
                              "nodes the registry does not know yet")
    profile.add_argument("--crash-after", type=int, default=None,
                         help="recovery drill: SIGKILL this process "
                              "after N nodes, leaving a torn event "
                              "line (never returns)")
    fsub.add_parser(
        "status", parents=[common, registry_opt],
        help="print per-node registry state and bucket counts")
    place = fsub.add_parser(
        "place", parents=[common, registry_opt],
        help="answer a batched placement query from the registry")
    place.add_argument("--widths", default="8,4,4,2,1",
                       help="comma-separated node counts, one job per "
                            "entry")

    recover = sub.add_parser(
        "recover", help="crash recovery: checkpoint store inventory, "
                        "bootstrap checkpoints, registry repair")
    rsub = recover.add_subparsers(dest="recover_command", required=True)
    rstatus = rsub.add_parser(
        "status", parents=[common],
        help="list a checkpoint store's entries and their validity")
    rstatus.add_argument("--store", required=True,
                         help="checkpoint store directory")
    rcheckpoint = rsub.add_parser(
        "checkpoint", parents=[common, registry_opt],
        help="write a bootstrap checkpoint pinning a node to the "
             "registry's current sequence number")
    rcheckpoint.add_argument("--store", required=True,
                             help="checkpoint store directory")
    rcheckpoint.add_argument("--node", type=_non_negative_int, default=0)
    rrestore = rsub.add_parser(
        "restore", parents=[common, registry_opt],
        help="repair a crashed registry (drop any torn event line, "
             "rewrite the snapshot) and, with --store, report the "
             "node state recovery would restore")
    rrestore.add_argument("--store", default=None,
                          help="checkpoint store directory (optional)")
    rrestore.add_argument("--node", type=_non_negative_int, default=0)

    perf = sub.add_parser(
        "perf", help="performance harness: sweep benchmark with "
                     "regression gate, cProfile of one node")
    psub = perf.add_subparsers(dest="perf_command", required=True)
    bench = psub.add_parser(
        "bench", parents=[common, fidelity_opt],
        help="time the Figure 12 sweep (fast path vs serial "
             "reference vs recorded baseline); writes "
             "BENCH_speedup.json; exit 1 when events/sec regresses "
             "more than 20%% below the baseline (a gate that only "
             "applies at cycle fidelity)")
    bench.add_argument("--refs", type=_positive_int, default=120,
                       help="trace references per core and cell")
    bench.add_argument("--workers", type=int, default=8,
                       help="sweep worker processes (<=1 serial)")
    bench.add_argument("--out", default=None,
                       help="report path (default BENCH_speedup.json)")
    bench.add_argument("--baseline", default=None,
                       help="baseline file (default "
                            "benchmarks/perf/baseline.json)")
    bench.add_argument("--no-reference", action="store_true",
                       help="skip the serial no-dedup reference pass "
                            "(halves the bench time)")
    bench.add_argument("--fastmodel", action="store_true",
                       help="add the cycle-vs-fast side-by-side "
                            "section (one full cycle sweep at the "
                            "calibration trace length — minutes)")
    bench.add_argument("--fastmodel-no-cycle", action="store_true",
                       help="with --fastmodel, skip the cycle timing "
                            "pass (cross-check and cluster timing "
                            "still run)")
    pprofile = psub.add_parser(
        "profile", parents=[node_opts],
        help="cProfile one node simulation, print the top functions "
             "by cumulative time")
    pprofile.add_argument("--design", type=_design, default="hetero-dmr")
    pprofile.add_argument("--top", type=_positive_int, default=25,
                          help="rows of profile output to print")

    obs = sub.add_parser(
        "obs", help="observability: deterministic lifecycle traces, "
                    "metrics exporters, trace summaries")
    osub = obs.add_subparsers(dest="obs_command", required=True)
    scenarios = ("adapt-smoke", "chaos-smoke", "node")
    otrace = osub.add_parser(
        "trace", parents=[common],
        help="run a seeded scenario with tracing on; the JSONL trace "
             "is byte-identical for the same scenario and seed")
    otrace.add_argument("--scenario", default="chaos-smoke",
                        choices=scenarios)
    otrace.add_argument("--out", default="obs-trace.jsonl",
                        help="trace file path")
    oexport = osub.add_parser(
        "export", parents=[common],
        help="run a seeded scenario and export its metrics snapshot")
    oexport.add_argument("--scenario", default="chaos-smoke",
                         choices=scenarios)
    oexport.add_argument("--format", default="prometheus",
                         choices=("prometheus", "json"))
    oexport.add_argument("--out", default=None,
                         help="metrics file (stdout when omitted)")
    osummary = osub.add_parser(
        "summary", parents=[common],
        help="per-event counts and time spans of a trace (from "
             "--trace-file, or traced live with --scenario)")
    osummary.add_argument("--trace-file", default=None,
                          help="existing JSONL trace to summarize")
    osummary.add_argument("--scenario", default=None,
                          choices=scenarios,
                          help="run this scenario instead of reading "
                               "a file")

    serve = sub.add_parser(
        "serve", parents=[common],
        help="run the placement daemon over a JSONL request stream "
             "(stdin or --requests), writing one decision line per "
             "placement/release")
    serve.add_argument("--registry", default=None,
                       help="existing sharded registry directory "
                            "(a seeded in-memory fleet when omitted)")
    serve.add_argument("--nodes", type=_positive_int, default=64,
                       help="in-memory fleet size when no --registry")
    serve.add_argument("--shards", type=_positive_int, default=None,
                       help="shard count for the in-memory fleet")
    serve.add_argument("--queue-limit", type=_positive_int, default=512,
                       help="placement admission watermark (requests "
                            "beyond it are shed, not queued)")
    serve.add_argument("--requests", default=None,
                       help="JSONL request file (stdin when omitted)")
    serve.add_argument("--out", default=None,
                       help="decision JSONL file (stdout when omitted)")
    serve.add_argument("--daemons", type=_positive_int, default=1,
                       help="run N placement daemons behind "
                            "shard-group leases with fencing tokens "
                            "(the HA control plane) instead of one "
                            "asyncio daemon")

    soak = sub.add_parser(
        "soak", parents=[common],
        help="seeded closed-loop soak of the placement daemon: mixed "
             "events, storms past the admission watermark, registry "
             "churn; exits 1 unless the SoakReport gate passes")
    soak.add_argument("--smoke", action="store_true",
                      help="CI-sized preset (~20k events, 200 nodes)")
    soak.add_argument("--events", type=_positive_int, default=None,
                      help="total submitted events (default 1000000; "
                           "smoke preset 20000)")
    soak.add_argument("--nodes", type=_positive_int, default=None,
                      help="fleet size (default 1490; smoke 200)")
    soak.add_argument("--shards", type=_positive_int, default=None,
                      help="registry shard count")
    soak.add_argument("--queue-limit", type=_positive_int, default=None,
                      help="placement admission watermark")
    soak.add_argument("--p999-budget", type=_ranged(float, 0.0),
                      default=None,
                      help="p999 placement-latency budget, seconds")
    soak.add_argument("--compact-every", type=_non_negative_int,
                      default=None,
                      help="auto-compact a shard after this many "
                           "appends (0 disables)")
    soak.add_argument("--registry", default=None,
                      help="registry directory (a temp dir, cleaned "
                           "up afterwards, when omitted)")
    soak.add_argument("--decisions", default=None,
                      help="write the full run's decision JSONL here")
    soak.add_argument("--report-file", default=None,
                      help="write the JSON SoakReport here")
    soak.add_argument("--no-verify", action="store_true",
                      help="skip the same-seed prefix-verification "
                           "pass")
    soak.add_argument("--failover", action="store_true",
                      help="run the HA failover drill instead: "
                           "SIGKILL mid-lease, clock-skewed renewal, "
                           "torn lease record, dual-owner partition; "
                           "decision stream must match a "
                           "never-crashed single-daemon run "
                           "(--report-file then holds the rendered "
                           "survivability report, byte-reproducible "
                           "per seed)")
    soak.add_argument("--daemons", type=_positive_int, default=None,
                      help="HA daemon count for --failover "
                           "(default 2)")
    soak.add_argument("--reference-decisions", default=None,
                      help="with --failover: write the single-daemon "
                           "reference decision JSONL here")

    smoke = sub.add_parser(
        "smoke", help="run one CI smoke scenario: each pass of seeded "
                      "commands in a fresh interpreter, then compare "
                      "the outputs that must be byte-identical "
                      "(exit 1 on a mismatch or unexpected status)")
    smoke.add_argument("scenario", choices=tuple(SCENARIOS))
    smoke.add_argument("--out-dir", default="smoke-out",
                       help="working directory for the passes' "
                            "outputs; must be new or empty (default "
                            "smoke-out)")

    sub.add_parser("suites", parents=[common],
                   help="list the workload suites")
    return parser


_HANDLERS = {
    "characterize": _cmd_characterize,
    "montecarlo": _cmd_montecarlo,
    "settings": _cmd_settings,
    "node": _cmd_node,
    "hpc": _cmd_hpc,
    "sweep": _cmd_sweep,
    "fastmodel": _cmd_fastmodel,
    "backend": _cmd_backend,
    "chaos": _cmd_chaos,
    "adapt": _cmd_adapt,
    "fleet": _cmd_fleet,
    "recover": _cmd_recover,
    "perf": _cmd_perf,
    "obs": _cmd_obs,
    "serve": _cmd_serve,
    "soak": _cmd_soak,
    "smoke": _cmd_smoke,
    "suites": _cmd_suites,
}


def main(argv: Optional[List[str]] = None) -> int:
    """Parse ``argv``, run the subcommand, and turn the exceptions of
    the exit-code table (module docstring) into their codes."""
    args = build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except Exception as exc:
        # Imported only on failure: a successful run never pays for it.
        from .fastmodel import CalibrationError, FastModelError
        from .fleet.registry import RegistryError
        from .sim.fidelity import FidelityError
        prefix = "repro " + args.command
        if isinstance(exc, KnobError):
            code, prefix = EXIT_USAGE, "repro"
        elif isinstance(exc, (OSError, RegistryError)):
            code = EXIT_IO_ERROR
        elif isinstance(exc, (FidelityError, FastModelError,
                              CalibrationError, DomainFailure)):
            code = EXIT_DOMAIN_FAILURE
        else:
            raise
        print("{}: {}".format(prefix, exc), file=sys.stderr)
        return code


if __name__ == "__main__":     # pragma: no cover
    sys.exit(main())
