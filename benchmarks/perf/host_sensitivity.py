"""How a ledger workload's normalised time moves with the host's speed.

    python3 benchmarks/perf/host_sensitivity.py [--workload W]
        [--seconds T] [--seed S] [--src DIR]

The ledger (``benchmarks/ledger``) rescales each timed call by the speed
its host probe measures around it (``hostprobe.py``).  That cancels a
slow host only when the call slows down exactly as much as the probe's
reference loop.  This script runs one workload's timed call again and
again in one process for ``--seconds`` (after one untimed warm-up call),
with a probe before and after each call, and prints:

* the elasticity ``e``: the least-squares slope of log(call seconds) on
  log(probe seconds).  At ``e = 1`` the call slows as the probe does;
  at ``e < 1`` its normalised time reads lower whenever the host is slow;
* the median normalised time in quiet phases (probe within 15 % of the
  fastest) and in slow ones (probe at least 1.5x the fastest), and the
  slow/quiet ratio, which is 1 for a call the probe tracks exactly.

Only workloads that need no registry directory repeat in one process:
``fig12-short``, ``node-long`` and ``cluster-fast``.  The host's phases
come and go on their own, so run long enough to see both (a few
minutes on a shared host); with one phase only, ``e`` is noise.
"""

from __future__ import annotations

import argparse
import math
import statistics
import sys
import time
from pathlib import Path
from typing import List, Optional, Tuple

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "benchmarks" / "ledger"))

from hostprobe import HostProbe, normalize  # noqa: E402
from workloads import DEFAULT_SEEDS, WORKLOADS  # noqa: E402

#: Probe-time bands, as multiples of the fastest probe seen.
QUIET = 1.15
SLOW = 1.5

#: One timed call: (probe before, probe after, call seconds).
Sample = Tuple[float, float, float]


def sample(workload: str, seconds: float,
           seed: Optional[int] = None) -> List[Sample]:
    """Time ``workload``'s call, probed on both sides, until
    ``seconds`` have passed (at least once)."""
    function, needs_dir = WORKLOADS[workload]
    if needs_dir:
        raise ValueError("{} needs a registry directory and does not "
                         "repeat in one process".format(workload))
    probe = HostProbe()
    call, _ = function(DEFAULT_SEEDS[workload] if seed is None else seed)
    call()
    rows: List[Sample] = []
    end = time.perf_counter() + seconds
    while not rows or time.perf_counter() < end:
        before = probe.measure()
        started = time.perf_counter()
        call()
        took = time.perf_counter() - started
        rows.append((before, probe.measure(), took))
    return rows


def summarise(rows: List[Sample]) -> dict:
    """Elasticity and the quiet/slow normalised medians of ``rows``."""
    probe = [(before + after) / 2.0 for before, after, _ in rows]
    norm = [normalize([took], [before, after])
            for before, after, took in rows]
    xs = [math.log(p) for p in probe]
    ys = [math.log(took) for _, _, took in rows]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    spread = sum((x - mx) ** 2 for x in xs)
    elasticity = (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
                  / spread if spread > 0 else None)
    fastest = min(probe)
    quiet = [n for p, n in zip(probe, norm) if p <= QUIET * fastest]
    slow = [n for p, n in zip(probe, norm) if p >= SLOW * fastest]
    out = {"samples": len(rows), "elasticity": elasticity,
           "quiet": len(quiet), "slow": len(slow),
           "quiet_norm_s": statistics.median(quiet),
           "slow_norm_s": statistics.median(slow) if slow else None}
    out["slow_over_quiet"] = (out["slow_norm_s"] / out["quiet_norm_s"]
                              if slow else None)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="cluster-fast",
                        choices=[name for name, (_, needs_dir)
                                 in WORKLOADS.items() if not needs_dir])
    parser.add_argument("--seconds", type=float, default=120.0)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="the tree whose repro is measured")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src))
    result = summarise(sample(args.workload, args.seconds, args.seed))

    def fmt(value, spec):
        return "n/a" if value is None else format(value, spec)

    print("{}: {} calls, elasticity {}".format(
        args.workload, result["samples"], fmt(result["elasticity"], ".2f")))
    print("normalised s: quiet {} (n={}), slow {} (n={}), "
          "slow/quiet {}".format(
              fmt(result["quiet_norm_s"], ".4f"), result["quiet"],
              fmt(result["slow_norm_s"], ".4f"), result["slow"],
              fmt(result["slow_over_quiet"], ".3f")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
