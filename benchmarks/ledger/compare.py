"""A/B the ledger between two source trees.

    python3 benchmarks/ledger/compare.py PARENT_TREE CHANGE_TREE
        [--workload W ...] [--pairs 10] [--seed S] [--out FILE]

Each tree is a checkout holding ``src/repro``.  Both sides run this
tree's ``run.py`` with identical settings, one repeat per side per
pair; the pairs alternate which side runs first.  For every workload x
end-to-end metric the report gives each side's median and quartiles,
the pairs the change won, and one verdict:

* ``improved``: the change won at least 9 in 10 pairs and the medians
  differ, the right way, by more than the parent's quartile spread;
* ``unresolved``: either side's quartile spread, as a share of its
  median, exceeds the metric's bound, and not every change run beats
  every parent run;
* ``worse``: the change's median is worse than the parent's by more
  than the bound;
* ``unchanged``: none of the above;
* ``failed``: some run on either side produced no value for the metric
  (its repeat failed).

A rise in the share of failed operations is flagged separately; a run
that produced no result at all counts as one failed operation.
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Sequence

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import E2E_METRICS, WORK_ROOT, quartiles  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

WIN_SHARE = 0.9
RUN_TIMEOUT_S = 900.0


def verdict(parent: Sequence[float], change: Sequence[float],
            better: str, bound: float) -> str:
    """Verdict for one metric from per-run values in pair order."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same number of runs on each side")
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    if wins >= math.ceil(WIN_SHARE * len(parent)) and \
            sign * (c_med - p_med) > p_q3 - p_q1:
        return "improved"
    spread = max((p_q3 - p_q1) / abs(p_med) if p_med else 0.0,
                 (c_q3 - c_q1) / abs(c_med) if c_med else 0.0)
    if sign > 0:
        all_better = min(change) > max(parent)
    else:
        all_better = max(change) < min(parent)
    if spread > bound and not all_better:
        return "unresolved"
    worsening = sign * (p_med - c_med) / abs(p_med) if p_med else 0.0
    return "worse" if worsening > bound else "unchanged"


def failed_share(runs: List[dict]) -> float:
    attempted = sum(r["attempted"] for r in runs)
    return sum(r["failed"] for r in runs) / attempted if attempted else 0.0


#: What a run that produced no result counts as.
NO_RESULT = {"attempted": 1, "failed": 1, "correct": False, "metrics": {}}


def run_side(tree: Path, workload: str, seed) -> dict:
    """One single-repeat ledger run of one workload against ``tree``'s
    sources."""
    WORK_ROOT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=str(WORK_ROOT)) as scratch:
        out = Path(scratch) / "result.json"
        cmd = [sys.executable, str(HERE / "run.py"), "--src",
               str(tree / "src"), "--workload", workload, "--repeats", "1",
               "--out", str(out)]
        if seed is not None:
            cmd += ["--seed", str(seed)]
        try:
            subprocess.run(cmd, capture_output=True, text=True,
                           timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return dict(NO_RESULT)
        if not out.exists():
            return dict(NO_RESULT)
        with open(out) as fh:
            summary = json.load(fh)["workloads"][workload]
    return {"attempted": summary["attempted"],
            "failed": summary["failed"],
            "correct": summary["correct"],
            "metrics": {name: row["median"] for name, row
                        in summary["end_to_end"].items()}}


def compare_workload(parent: Path, change: Path, workload: str,
                     pairs: int, seed) -> dict:
    sides: Dict[str, List[dict]] = {"parent": [], "change": []}
    trees = {"parent": parent, "change": change}
    for i in range(pairs):
        order = ("parent", "change") if i % 2 == 0 else \
            ("change", "parent")
        for side in order:
            sides[side].append(run_side(trees[side], workload, seed))
    rows = {}
    for name, unit, better, bound in E2E_METRICS:
        p = [r["metrics"][name] for r in sides["parent"]
             if name in r["metrics"]]
        c = [r["metrics"][name] for r in sides["change"]
             if name in r["metrics"]]
        row = {"unit": unit, "bound": bound, "pairs": pairs,
               "parent_runs": p, "change_runs": c, "wins": 0,
               "verdict": "failed"}
        for side, values in (("parent", p), ("change", c)):
            row[side] = (dict(zip(("q1", "median", "q3"),
                                  quartiles(values))) if values else None)
        if len(p) == len(c) == pairs:
            sign = 1.0 if better == "higher" else -1.0
            row["wins"] = sum(1 for a, b in zip(p, c) if sign * (b - a) > 0)
            row["verdict"] = verdict(p, c, better, bound)
        rows[name] = row
    shares = {side: failed_share(runs) for side, runs in sides.items()}
    return {"metrics": rows, "failed_share": shares,
            "failed_share_up": shares["change"] > shares["parent"],
            "correct": all(r["correct"] for runs in sides.values()
                           for r in runs)}


def print_report(workload: str, report: dict) -> None:
    print("== {}  correct {}  failed_share parent {:.6f} change {:.6f}{}"
          .format(workload, report["correct"],
                  report["failed_share"]["parent"],
                  report["failed_share"]["change"],
                  "  FAILED SHARE UP" if report["failed_share_up"]
                  else ""))
    print("   {:<14} {:<4} {:>34} {:>34} {:>6}  {}".format(
        "metric", "unit", "parent median [q1, q3]",
        "change median [q1, q3]", "wins", "verdict"))
    for name, row in report["metrics"].items():
        cells = ["{median:.6g} [{q1:.6g}, {q3:.6g}]".format(**row[side])
                 if row[side] else "no value"
                 for side in ("parent", "change")]
        print("   {:<14} {:<4} {:>34} {:>34} {:>3}/{:<2}  {}".format(
            name, row["unit"], cells[0], cells[1], row["wins"],
            row["pairs"], row["verdict"]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    for tree in (args.parent, args.change):
        if not (tree / "src" / "repro" / "__init__.py").is_file():
            parser.error("{} holds no src/repro".format(tree))
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    reports = {}
    for workload in args.workload or list(WORKLOADS):
        reports[workload] = compare_workload(
            args.parent.resolve(), args.change.resolve(), workload,
            args.pairs, args.seed)
        print_report(workload, reports[workload])
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(reports, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
