"""Performance ledger: run the seeded workloads and print every metric.

    python3 benchmarks/ledger/run.py [--workload W ...] [--seed S]
        [--repeats N | --seconds T] [--trace [0|1]] [--out FILE]
        [--src DIR]

Each repeat of a workload is a fresh single-process worker
(``worker.py``) with every ``REPRO_*`` variable stripped from its
environment.  Repeats run one after another, ``--repeats`` times or
until ``--seconds`` is used up (at least one), and every end-to-end
metric is printed as a median with quartiles and n.  Set-up-only
workers top the set-up samples up to five.  With ``--trace`` the
repeats alternate between untraced and sampled workers and the
per-layer metrics are printed instead.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``correct`` is false when a gate failed, when repeats
disagree, or when the outputs at a workload's recorded seed differ from
the digest recorded in ``ledger.json``.

Exit status: 0 when every output checked out, 1 when one did not (the
result is still printed), 2 when nothing could be measured (no ``repro``
sources under ``--src``, a bad argument).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(HERE))

from sampler import LAYERS  # noqa: E402
from workloads import COUNT_METRICS, DEFAULT_SEEDS, WORKLOADS  # noqa: E402

#: End-to-end metrics: (name, unit, better, bound).  The bound is the
#: share of the parent's median by which a metric may worsen before a
#: change counts as a regression: 10 %, and for ``setup_s`` 10 % or
#: 50 ms, whichever is larger, as a share of the smallest workload's
#: set-up median, capped at the benchmark format's 25 % (see
#: README.md).  ``wall_s`` and ``setup_s`` are host-normalised seconds
#: (``hostprobe.py``), and ``ops_per_s`` counts per normalised second;
#: the raw times are ``host.wall_s`` and ``host.setup_s``.
E2E_METRICS = (
    ("wall_s", "s", "lower", 0.10),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
    ("ops_per_s", "1/s", "higher", 0.10),
)

#: Per-layer metrics: (name, unit, better).  They carry no bound.
PER_LAYER_METRICS = tuple(
    [(layer + suffix, "s", "lower")
     for layer in LAYERS for suffix in (".self_s", ".busy_s")]
    + [("sim.node.construct_s", "s", "lower")]
    + list(COUNT_METRICS)
    + [("sim.kips", "kinstr/s", "higher"),
       ("host.wall_s", "s", "lower"),
       ("host.setup_s", "s", "lower"),
       ("host.probe_ms", "ms", "lower"),
       ("trace.overhead", "ratio", "lower"),
       ("trace.samples", "count", "higher")])

#: Recorded output digests and the layer -> end-to-end map.
LEDGER_FILE = HERE / "ledger.json"

#: Scratch space for registry directories, removed after each repeat.
WORK_ROOT = HERE / ".work"

#: Set-up-only workers run until this many set-ups were timed.
MIN_SETUPS = 5
#: Worker time limits: a time-boxed run of one workload ends within
#: three minutes even when a worker hangs.
CHILD_TIMEOUT_S = 100.0
SETUP_TIMEOUT_S = 15.0
#: A time-boxed run never starts a repeat it expects to end past this.
HARD_LIMIT_S = 100.0
#: Traced-run sanity checks: sampled self time must cover the wall,
#: and the sampler must cost little.  Single traced/untraced pairs
#: scatter too much to judge the overhead, so it is checked only over
#: at least ``TRACE_CHECK_PAIRS`` pairs, the default with ``--trace``.
MIN_SELF_SHARE = 0.95
MAX_OVERHEAD = 1.10
TRACE_CHECK_PAIRS = 8


def quartiles(values: Sequence[float]):
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def child_env(src: Path) -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(src)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(workload: str, seed: int, src: Path, trace: bool = False,
               setup_only: bool = False) -> dict:
    """One repeat (or one set-up) in a fresh worker process; returns its
    JSON report (``{"error": ...}`` when it failed)."""
    WORK_ROOT.mkdir(exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=workload + "-", dir=str(WORK_ROOT))
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload",
           workload, "--seed", str(seed), "--work-dir", work_dir]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    timeout = SETUP_TIMEOUT_S if setup_only else CHILD_TIMEOUT_S
    try:
        proc = subprocess.run(cmd, env=child_env(src), cwd=str(ROOT),
                              capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"error": "worker timed out after {:.0f} s".format(timeout)}
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    try:
        doc = json.loads(lines[-1])
    except (IndexError, ValueError):
        return {"error": "worker exited {} without a report: {}".format(
            proc.returncode, proc.stderr.strip()[-2000:])}
    return doc


def measure(workload: str, seed: int, src: Path, trace: bool,
            repeats: Optional[int], seconds: Optional[float]) -> dict:
    """Run repeats (untraced, or untraced/traced pairs) of a workload,
    then set-up-only workers until ``MIN_SETUPS`` set-ups were timed."""
    plain: List[dict] = []
    traced: List[dict] = []
    started = time.monotonic()
    while True:
        order = (False,)
        if trace:
            # Pairs alternate which side runs first, so steady host
            # drift does not land on the traced side every time.
            order = (False, True) if len(plain) % 2 == 0 else (True, False)
        for sampled in order:
            (traced if sampled else plain).append(
                run_worker(workload, seed, src, trace=sampled))
        done = len(plain)
        if repeats is not None:
            if done >= repeats:
                break
            continue
        elapsed = time.monotonic() - started
        if elapsed + elapsed / done > min(seconds, HARD_LIMIT_S):
            break
    setups: List[dict] = []
    while len(plain) + len(setups) < MIN_SETUPS:
        setups.append(run_worker(workload, seed, src, setup_only=True))
    return {"plain": plain, "traced": traced, "setups": setups}


def _recorded_digests() -> Dict[str, dict]:
    with open(LEDGER_FILE) as fh:
        return json.load(fh)["digests"]


def summarize(workload: str, seed: int, runs: dict) -> dict:
    """Medians, checks and per-layer numbers for one workload."""
    plain, traced = runs["plain"], runs["traced"]
    setups = runs.get("setups", [])
    good = [r for r in plain if "error" not in r]
    good_traced = [r for r in traced if "error" not in r]
    failures: List[str] = ["set-up {}: {}".format(i + 1, r["error"].strip())
                           for i, r in enumerate(setups) if "error" in r]
    attempted = failed = 0
    sizes = [r["outcome"]["attempted"] for r in good + good_traced]
    size = max(sizes) if sizes else 1
    digests = []
    labelled = ([("repeat {}".format(i + 1), run)
                 for i, run in enumerate(plain)]
                + [("traced repeat {}".format(i + 1), run)
                   for i, run in enumerate(traced)])
    for label, run in labelled:
        if "error" in run:
            failures.append("{}: {}".format(label, run["error"].strip()))
            attempted += size
            failed += size
            continue
        outcome = run["outcome"]
        attempted += outcome["attempted"]
        failed += outcome["failed"]
        failures += ["{}: {}".format(label, f) for f in outcome["failures"]]
        digests.append(outcome["digest"])
        if outcome["digest"] != digests[0]:
            failures.append(label + ": outputs differ from repeat 1")
            failed += outcome["attempted"] - outcome["failed"]
    digest = digests[0] if digests else None
    recorded = _recorded_digests().get(workload, {})
    changed = (digest != recorded.get("digest")
               if seed == recorded.get("seed") and digest else None)
    if changed:
        failures.append("outputs differ from the digest recorded in "
                        "ledger.json for seed {}".format(seed))

    e2e: Dict[str, dict] = {}
    set_ups = [r for r in good + setups if "error" not in r]
    series = {
        "wall_s": [r["norm_wall_s"] for r in good],
        "setup_s": [r["norm_setup_s"] for r in set_ups],
        "peak_rss_mb": [r["peak_rss_mb"] for r in good],
        "ops_per_s": [r["outcome"]["ops"] / r["norm_wall_s"]
                      for r in good],
    }
    for name, unit, _, _ in E2E_METRICS:
        values = series[name]
        if values:
            q1, median, q3 = quartiles(values)
            e2e[name] = {"unit": unit, "median": median, "q1": q1,
                         "q3": q3, "n": len(values), "values": values}

    summary = {
        "workload": workload, "seed": seed,
        "correct": not failures and bool(good),
        "attempted": attempted, "failed": failed,
        "failures": failures, "digest": digest,
        "outputs_changed": changed, "end_to_end": e2e,
        "counts": _counts(good),
    }
    pairs = [(p, t) for p, t in zip(plain, traced)
             if "error" not in p and "error" not in t]
    if pairs:
        summary["per_layer"], summary["trace_checks"] = _per_layer(
            good, set_ups, pairs, summary["counts"])
    return summary


def _counts(good: List[dict]) -> Dict[str, float]:
    """Median of each exact count over the untraced repeats; a count
    the workload does not produce reads 0."""
    declared = {name for name, _, _ in COUNT_METRICS}
    out = {}
    for name in sorted(declared):
        values = [r["outcome"]["counts"].get(name, 0) for r in good]
        out[name] = statistics.median(values) if values else 0
    for run in good:
        extra = set(run["outcome"]["counts"]) - declared
        if extra:
            raise ValueError("undeclared counts: " + ", ".join(sorted(extra)))
    return out


def _per_layer(good: List[dict], set_ups: List[dict], pairs: List[tuple],
               counts: Dict[str, float]):
    """Sampled layer seconds (pooled samples scaled to the median traced
    wall), the exact counts, and the traced run's sanity checks.
    ``pairs`` holds (untraced, traced) repeats that ran back to back;
    the overhead is their median ratio of host-normalised walls, so
    host drift within and between pairs cancels."""
    traced = [t for _, t in pairs]
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    samples = sum(r["trace"]["samples"] for r in traced)
    per = traced_wall / samples if samples else 0.0
    metrics: Dict[str, float] = {}
    for layer in LAYERS:
        metrics[layer + ".self_s"] = per * sum(
            r["trace"]["self"].get(layer, 0) for r in traced)
        metrics[layer + ".busy_s"] = per * sum(
            r["trace"]["busy"].get(layer, 0) for r in traced)
    metrics["sim.node.construct_s"] = per * sum(
        r["trace"]["span_samples"] for r in traced)
    metrics.update(counts)
    metrics["sim.kips"] = statistics.median(
        r["outcome"]["counts"].get("sim.instructions", 0) / 1000.0
        / r["wall_s"] for r in good)
    metrics["host.wall_s"] = statistics.median(r["wall_s"] for r in good)
    metrics["host.setup_s"] = statistics.median(
        r["setup_s"] for r in set_ups)
    metrics["host.probe_ms"] = 1000.0 * statistics.median(
        r["probe_s"] for r in good)
    metrics["trace.overhead"] = statistics.median(
        t["norm_wall_s"] / p["norm_wall_s"] for p, t in pairs)
    metrics["trace.samples"] = statistics.median(
        r["trace"]["samples"] for r in traced)
    self_share = sum(metrics[l + ".self_s"] for l in LAYERS) / traced_wall
    checks = {"self_share": self_share,
              "overhead": metrics["trace.overhead"], "pairs": len(pairs),
              "ok": None}
    if len(pairs) >= TRACE_CHECK_PAIRS:
        checks["ok"] = (self_share >= MIN_SELF_SHARE
                        and metrics["trace.overhead"] <= MAX_OVERHEAD)
    return metrics, checks


def contract_metrics(summary: dict, trace: bool) -> Dict[str, dict]:
    """The ``metrics`` object of the result line."""
    if trace:
        values = summary.get("per_layer", {})
        return {name: {"value": values[name], "unit": unit}
                for name, unit, _ in PER_LAYER_METRICS if name in values}
    return {name: {"value": summary["end_to_end"][name]["median"],
                   "unit": unit}
            for name, unit, _, _ in E2E_METRICS
            if name in summary["end_to_end"]}


def print_summary(summary: dict, trace: bool) -> None:
    attempted = summary["attempted"]
    changed = summary["outputs_changed"]
    print("== {workload}  seed {seed}  correct {correct}".format(**summary))
    print("   attempted {}  failed {}  failed_share {:.6f}  "
          "outputs_changed {}  digest {}".format(
              attempted, summary["failed"],
              summary["failed"] / attempted if attempted else 0.0,
              "n/a (seed differs from the recorded one)"
              if changed is None else str(changed).lower(),
              summary["digest"]))
    for failure in summary["failures"]:
        print("   FAILED: " + failure.splitlines()[-1])
    print("   {:<14} {:<6} {:>14} {:>14} {:>14} {:>4}".format(
        "metric", "unit", "median", "q1", "q3", "n"))
    for name, unit, _, _ in E2E_METRICS:
        row = summary["end_to_end"].get(name)
        if row:
            print("   {:<14} {:<6} {:>14.6g} {:>14.6g} {:>14.6g} {:>4}"
                  .format(name, unit, row["median"], row["q1"], row["q3"],
                          row["n"]))
    if trace and "per_layer" in summary:
        layer = summary["per_layer"]
        print("   per layer (traced):")
        for name, unit, _ in PER_LAYER_METRICS:
            if layer[name]:
                print("   {:<36} {:<6} {:>14.6g}".format(
                    name, unit, layer[name]))
        checks = summary["trace_checks"]
        if checks["ok"] is None:
            verdict = "not checked, needs {} pairs".format(TRACE_CHECK_PAIRS)
        else:
            verdict = "ok" if checks["ok"] else "NOT OK"
        print("   trace checks: self time covers {:.1%} of the traced wall"
              ", overhead {:.3f}x over {} pairs: {}".format(
                  checks["self_share"], checks["overhead"],
                  checks["pairs"], verdict))


def host_block(src: Path) -> dict:
    """Facts about the host and the measured tree."""
    sys.path.insert(0, str(src))
    try:
        from repro.perf.sweep import available_cpus
        cpus = available_cpus()
    except ImportError:
        cpus = None
    finally:
        sys.path.remove(str(src))
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"
    describe = "unknown"
    if (src.parent / ".git").exists():
        try:
            describe = subprocess.run(
                ["git", "describe", "--always", "--dirty"],
                cwd=str(src.parent), capture_output=True, text=True,
                timeout=10).stdout.strip() or "unknown"
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"nproc": os.cpu_count(), "available_cpus": cpus,
            "python": platform.python_version(), "numpy": numpy_version,
            "git_describe": describe}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="workload to run (repeatable; default all)")
    parser.add_argument("--seed", type=int,
                        help="seed for every workload (default: each "
                             "workload's own)")
    budget = parser.add_mutually_exclusive_group()
    budget.add_argument("--repeats", type=int,
                        help="repeats per workload (default 5; with "
                             "--trace, untraced/traced pairs, default "
                             "{})".format(TRACE_CHECK_PAIRS))
    budget.add_argument("--seconds", type=float,
                        help="time box per workload instead of --repeats")
    parser.add_argument("--trace", type=int, nargs="?", const=1,
                        default=0, choices=(0, 1),
                        help="also run each repeat under the sampler and "
                             "report per-layer metrics")
    parser.add_argument("--out", help="write the full result set here")
    parser.add_argument("--src", default=str(ROOT / "src"),
                        help="source tree to measure (default: ./src)")
    args = parser.parse_args(argv)
    if args.repeats is not None and args.repeats < 1:
        parser.error("--repeats must be at least 1")
    if args.seconds is not None and args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.repeats is None and args.seconds is None:
        args.repeats = TRACE_CHECK_PAIRS if args.trace else 5
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    src = Path(args.src).resolve()
    if not (src / "repro" / "__init__.py").is_file():
        print("run.py: no repro package under {}".format(src),
              file=sys.stderr)
        return 2
    trace = bool(args.trace)
    names = args.workload or list(WORKLOADS)
    load_before = os.getloadavg()
    summaries = {}
    for name in names:
        seed = args.seed if args.seed is not None else DEFAULT_SEEDS[name]
        runs = measure(name, seed, src, trace, args.repeats, args.seconds)
        summaries[name] = summarize(name, seed, runs)
        print_summary(summaries[name], trace)
    if WORK_ROOT.exists() and not any(WORK_ROOT.iterdir()):
        WORK_ROOT.rmdir()
    correct = all(s["correct"] for s in summaries.values())
    if args.out:
        host = host_block(src)
        host.update(loadavg_before=load_before,
                    loadavg_after=os.getloadavg())
        with open(args.out, "w") as fh:
            json.dump({"host": host,
                       "settings": {"seed": args.seed,
                                    "repeats": args.repeats,
                                    "seconds": args.seconds,
                                    "trace": trace},
                       "workloads": summaries}, fh, indent=2,
                      sort_keys=True)
            fh.write("\n")
    if len(summaries) == 1:
        (summary,) = summaries.values()
        metrics = contract_metrics(summary, trace)
    else:
        metrics = {"{}.{}".format(name, metric): value
                   for name, summary in summaries.items()
                   for metric, value in contract_metrics(summary,
                                                         trace).items()}
    print(json.dumps({
        "correct": correct,
        "attempted": sum(s["attempted"] for s in summaries.values()),
        "failed": sum(s["failed"] for s in summaries.values()),
        "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
