"""Pass/fail rule for the CI ledger A/B.

    python3 .github/scripts/ledger_gate.py GATE_JSON

GATE_JSON is the ``--out`` report of ``benchmarks/ledger/compare.py``,
which always exits 0.  Exit 1, printing one line per cause, when a
metric's verdict is ``failed``, when a change median is worse than the
parent median by more than the row's bound whatever the verdict (an
``unresolved`` verdict can hide a real slowdown), when the share of
failed operations rose, or when an output did not check out.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2]
                       / "benchmarks" / "ledger"))
from run import E2E_METRICS  # noqa: E402

BETTER = {name: better for name, _, better, _ in E2E_METRICS}


def causes(reports: dict) -> list:
    """One line per reason the change fails the gate."""
    out = []
    for workload, report in sorted(reports.items()):
        for name, row in sorted(report["metrics"].items()):
            if row["verdict"] == "failed":
                out.append("{} {}: a run produced no value".format(
                    workload, name))
                continue
            parent, change = row["parent"]["median"], row["change"]["median"]
            sign = 1.0 if BETTER[name] == "higher" else -1.0
            worse = sign * (parent - change) / abs(parent) if parent else 0.0
            if worse > row["bound"]:
                out.append("{} {}: median {:.6g} -> {:.6g}, {:.1%} worse "
                           "than the parent, bound {:.0%} ({})".format(
                               workload, name, parent, change, worse,
                               row["bound"], row["verdict"]))
        if report["failed_share_up"]:
            out.append(workload + ": the share of failed operations rose")
        if not report["correct"]:
            out.append(workload + ": an output did not check out")
    return out


def main(argv=None) -> int:
    (path,) = sys.argv[1:] if argv is None else argv
    with open(path) as fh:
        found = causes(json.load(fh))
    for line in found or ["pass"]:
        print("ledger gate: " + line)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
