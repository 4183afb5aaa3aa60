"""The CI smoke scenarios as one table, and the runner behind
``repro smoke <name>``.

A scenario is a list of ``repro`` command lines run in one or more
passes, plus the files that must come out byte-identical: between the
passes (``across``: a seeded run reproduces itself) or within each
pass (``within``: e.g. the HA decision stream against its
never-crashed reference).  Every step runs as ``python -m repro`` in a
fresh interpreter with the caller's environment, so a pass never
reuses another pass's process-global state (the kept warm-cache arrays,
the loaded calibration) and each pass gets its own hash seed.
"""

from __future__ import annotations

import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Tuple

#: Exit status of a child killed by SIGKILL (``fleet profile
#: --crash-after``), as :mod:`subprocess` reports it.
KILLED = -9

#: The default two passes; ``{p}`` in a step or file name is the pass.
TWO_PASSES = ({"p": "a"}, {"p": "b"})


@dataclass(frozen=True)
class Step:
    """One ``repro`` command line, formatted with the pass's values.

    ``status`` is the exit status it must end with; ``once`` runs it in
    the first pass only; ``stdout`` names a file that keeps its output.
    """
    argv: str
    status: int = 0
    once: bool = False
    stdout: Optional[str] = None


@dataclass(frozen=True)
class Scenario:
    """Steps run per pass, and the files that must match."""
    steps: Tuple[Step, ...]
    across: Tuple[str, ...] = ()
    within: Tuple[Tuple[str, str], ...] = ()
    passes: Tuple[Dict[str, str], ...] = TWO_PASSES


SCENARIOS: Dict[str, Scenario] = {
    "chaos-smoke": Scenario(
        steps=(Step("--seed 2026 chaos --smoke "
                    "--report-file report-{p}.txt"),),
        across=("report-{p}.txt",)),
    "adapt-smoke": Scenario(
        steps=(Step("--seed 2026 adapt --smoke "
                    "--report-file adapt-report.txt", once=True),
               Step("--seed 2026 obs trace --scenario adapt-smoke "
                    "--out adapt-trace-{p}.jsonl")),
        across=("adapt-trace-{p}.jsonl",)),
    "fleet-smoke": Scenario(
        # Different worker counts must not change the registry.
        steps=(Step("--seed 2026 fleet profile --nodes 64 "
                    "--workers {workers} --registry fleet-{p} "
                    "--report-file fleet-report-{p}.txt"),),
        across=("fleet-{p}/snapshot.json",),
        passes=({"p": "a", "workers": "4"}, {"p": "b", "workers": "2"})),
    "fastmodel-smoke": Scenario(
        steps=(Step("fastmodel check --suites linpack,hpcg "
                    "--out check-{p}.json"),
               Step("fastmodel check --out check-full.json", once=True),
               Step("sweep --fidelity fast --refs 3000 "
                    "--out sweep-{p}.json")),
        across=("check-{p}.json", "sweep-{p}.json")),
    "obs-smoke": Scenario(
        steps=(Step("--seed 2026 obs trace --scenario chaos-smoke "
                    "--out trace-{p}.jsonl"),
               Step("obs summary --trace-file trace-{p}.jsonl", once=True,
                    stdout="obs-summary.txt"),
               Step("--seed 2026 obs export --scenario chaos-smoke "
                    "--format prometheus --out metrics.prom",
                    once=True)),
        across=("trace-{p}.jsonl",)),
    "soak-smoke": Scenario(
        steps=(Step("--seed 2026 soak --smoke --registry soak-{p} "
                    "--decisions decisions-{p}.jsonl "
                    "--report-file soak-report-{p}.json",
                    stdout="soak-summary-{p}.txt"),),
        across=("decisions-{p}.jsonl",)),
    "ha-failover-smoke": Scenario(
        steps=(Step("--seed 2026 soak --failover --smoke "
                    "--registry drill-{p} --decisions ha-{p}.jsonl "
                    "--reference-decisions ref-{p}.jsonl "
                    "--report-file ha-report-{p}.txt",
                    stdout="ha-summary-{p}.txt"),),
        across=("ha-report-{p}.txt", "ha-{p}.jsonl"),
        within=(("ha-{p}.jsonl", "ref-{p}.jsonl"),)),
    "crash-recovery-smoke": Scenario(
        steps=(Step("--seed 2026 fleet profile --nodes 32 "
                    "--registry fleet-ref"),
               Step("--seed 2026 fleet profile --nodes 32 "
                    "--registry fleet-crash --crash-after 11",
                    status=KILLED),
               Step("recover restore --registry fleet-crash",
                    stdout="recover-report.txt"),
               Step("--seed 2026 fleet profile --nodes 32 "
                    "--registry fleet-crash --resume "
                    "--report-file resume-report.txt")),
        within=(("fleet-ref/snapshot.json", "fleet-crash/snapshot.json"),
                ("fleet-ref/events.jsonl", "fleet-crash/events.jsonl")),
        passes=({"p": "a"},)),
    "backend-smoke": Scenario(
        steps=(Step("--seed 2026 backend characterize --backend mrdimm "
                    "--out characterize-{p}.json"),
               # Default trace length (--refs 1500) so the placement
               # deltas are amortized; the two cycle passes dominate.
               Step("--seed 2026 backend compare --out compare-{p}.json")),
        across=("characterize-{p}.json", "compare-{p}.json")),
}


def _differ(out_dir: Path, left: str, right: str) -> Optional[str]:
    """None when the two files are byte-identical, else the cause."""
    print("$ cmp {} {}".format(left, right), flush=True)
    a = (out_dir / left).read_bytes()
    b = (out_dir / right).read_bytes()
    if a == b:
        return None
    at = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y),
              min(len(a), len(b)))
    return "{} and {} differ (first difference at byte {})".format(
        left, right, at)


def run_scenario(scenario: Scenario, out_dir: Path) -> Optional[str]:
    """Run every pass of ``scenario`` with ``out_dir`` as the working
    directory.  Returns None when each step exits as expected and each
    listed pair of files is byte-identical, else the first failure.
    A file the scenario lists but no step wrote raises ``OSError``."""
    env = dict(os.environ)
    # The child must import this checkout, whatever the caller's cwd.
    package_root = str(Path(__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p)
    for index, values in enumerate(scenario.passes):
        for step in scenario.steps:
            if step.once and index:
                continue
            argv = step.argv.format(**values).split()
            print("$ repro {}".format(" ".join(argv)), flush=True)
            done = subprocess.run(
                [sys.executable, "-m", "repro"] + argv, cwd=out_dir,
                env=env, stdout=subprocess.PIPE if step.stdout else None)
            if step.stdout:
                (out_dir / step.stdout.format(**values)).write_bytes(
                    done.stdout)
                sys.stdout.write(done.stdout.decode())
            if done.returncode != step.status:
                return "`repro {}` exited {}, expected {}".format(
                    " ".join(argv), done.returncode, step.status)
        for left, right in scenario.within:
            failure = _differ(out_dir, left.format(**values),
                              right.format(**values))
            if failure:
                return failure
    first = scenario.passes[0]
    for name in scenario.across:
        for values in scenario.passes[1:]:
            failure = _differ(out_dir, name.format(**first),
                              name.format(**values))
            if failure:
                return failure
    return None
