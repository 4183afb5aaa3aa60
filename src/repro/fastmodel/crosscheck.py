"""Cycle-vs-fast cross-check on the Figure 12 grid — the fast tier's
acceptance gate.

Because ``memory_utilization`` influences a node simulation *only*
through the effective design, every Figure 12 bar at the calibration
trace length is a pure function of the 72 effective cells stored in
the calibration artifact.  The cycle side of the comparison therefore
comes straight from the artifact's ``t_norm_cycle`` values (the cycle
engine is deterministic — re-running it reproduces them bit for bit),
and the fast side from closed-form predictions; the check runs in
milliseconds and needs no simulator.

The gate has two parts:

* **rankings** — per hierarchy, every pair of Figure 12 bars (design x
  margin x bucket, plus the usage-weighted and headline aggregates)
  that the cycle engine separates by more than ``RANK_QUANTUM`` must
  keep its order under the fast tier (no discordant pairs).  Pairs the
  cycle engine itself cannot separate — many bars are exact aliases of
  one effective cell — are ties and carry no ordering claim, so they
  cannot make the gate flap; and
* **magnitudes** — every weighted speedup must agree within
  ``SPEEDUP_TOLERANCE`` absolute.

The report dict is fully deterministic (no wall-clock, no host
fields), so CI can run the check twice and ``cmp`` the outputs.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..cache.hierarchy import HIERARCHIES
from ..sim.runner import fig12_grid, grid_margins
from .calibration import Calibration, load_default_calibration

#: Maximum absolute disagreement tolerated on any weighted speedup.
#: The committed calibration fits the cycle grid to well under 0.005;
#: 0.02 leaves headroom without letting a qualitatively wrong model
#: through (the figure's bar-to-bar contrasts are 0.03+).
SPEEDUP_TOLERANCE = 0.02

#: Minimum cycle-tier separation for a bar pair to carry an ordering
#: claim.  Below this scale the cycle engine's orderings are dominated
#: by unmodeled micro-behavior that is itself non-monotonic in margin:
#: on the committed grid, dual-copy read steering (Hetero-DMR+FMR can
#: serve a read from either replica, and the choice shifts row-buffer
#: locality with timing) makes the *cycle engine* rank the 600 MT/s
#: margin up to 0.0056 *above* 800 MT/s on Hierarchy2's low-usage
#: bars.  The closed form prices timing physics, not event-alignment
#: accidents, so orderings under 0.0075 are treated as ties; the real
#: Figure 12 margin contrasts sit at 0.03-0.05, far above it.
RANK_QUANTUM = 0.0075


def _rank(bars: Dict[str, float]) -> List[str]:
    return [label for label, _ in
            sorted(bars.items(), key=lambda kv: (-kv[1], kv[0]))]


def _inversions(cycle: Dict[str, float],
                fast: Dict[str, float]) -> List[dict]:
    """Discordant separated pairs: the cycle tier orders the pair by
    more than ``RANK_QUANTUM`` and the fast tier orders it the other
    way (fast-tier exact ties are not inversions — they make no
    opposing claim)."""
    out = []
    labels = sorted(cycle)
    for i, a in enumerate(labels):
        for b in labels[i + 1:]:
            dc = cycle[a] - cycle[b]
            if abs(dc) <= RANK_QUANTUM:
                continue
            df = fast[a] - fast[b]
            if dc * df < 0.0:
                hi, lo = (a, b) if dc > 0 else (b, a)
                out.append({"cycle_faster": hi, "cycle_slower": lo,
                            "cycle_gap": round(abs(dc), 6),
                            "fast_gap": round(-abs(df), 6)})
    return out


def fig12_speedups(calibration: Optional[Calibration] = None,
                   suites: Optional[Tuple[str, ...]] = None,
                   hierarchies: Optional[Tuple[str, ...]] = None
                   ) -> Dict[str, Dict[str, Dict[str, float]]]:
    """Per-hierarchy Figure 12 bars under both tiers.

    Returns ``{hierarchy: {"cycle": bars, "fast": bars}}`` where each
    bars dict is :func:`repro.sim.runner.fig12_grid`'s, on the
    calibrated backend's margin rungs.
    """
    calibration = calibration or load_default_calibration()
    suites = tuple(suites) if suites else \
        tuple(calibration.grid["suites"])
    hierarchies = tuple(hierarchies) if hierarchies else \
        tuple(calibration.grid["hierarchies"])
    missing = [s for s in suites
               if s not in calibration.grid["suites"]]
    if missing:
        raise ValueError("suites not in calibration grid: {}".format(
            ", ".join(missing)))
    hiers = [HIERARCHIES[name]() for name in hierarchies]
    margins = grid_margins(calibration.backend)
    tiers = {"cycle": fig12_grid(calibration.cycle_time, suites, hiers,
                                 margins).bars,
             "fast": fig12_grid(calibration.fast_time, suites, hiers,
                                margins).bars}
    return {name: {tier: bars[name] for tier, bars in tiers.items()}
            for name in hierarchies}


def run_crosscheck(calibration: Optional[Calibration] = None,
                   suites: Optional[Tuple[str, ...]] = None,
                   hierarchies: Optional[Tuple[str, ...]] = None,
                   tolerance: float = SPEEDUP_TOLERANCE) -> dict:
    """Run the full gate; the returned report is deterministic."""
    calibration = calibration or load_default_calibration()
    grids = fig12_speedups(calibration, suites, hierarchies)
    report: Dict[str, object] = {
        "check": "fastmodel_fig12_crosscheck",
        "tolerance": tolerance,
        "rank_quantum": RANK_QUANTUM,
        "calibration_refs_per_core": calibration.refs_per_core,
        "hierarchies": {},
    }
    passed = True
    worst = {"bar": None, "abs_error": 0.0}
    for hier_name, bars in sorted(grids.items()):
        cycle, fast = bars["cycle"], bars["fast"]
        inversions = _inversions(cycle, fast)
        rankings_match = not inversions
        errors = {label: fast[label] - cycle[label] for label in cycle}
        hier_worst = max(errors, key=lambda k: abs(errors[k]))
        if abs(errors[hier_worst]) > worst["abs_error"]:
            worst = {"bar": "{}:{}".format(hier_name, hier_worst),
                     "abs_error": abs(errors[hier_worst])}
        within = all(abs(e) <= tolerance for e in errors.values())
        passed = passed and rankings_match and within
        report["hierarchies"][hier_name] = {
            "rankings_match": rankings_match,
            "inversions": inversions,
            "ranking_cycle": _rank(cycle),
            "ranking_fast": _rank(fast),
            "within_tolerance": within,
            "speedups_cycle": {k: round(v, 6)
                               for k, v in sorted(cycle.items())},
            "speedups_fast": {k: round(v, 6)
                              for k, v in sorted(fast.items())},
            "worst_bar": hier_worst,
            "worst_abs_error": round(abs(errors[hier_worst]), 6),
        }
    report["worst"] = {"bar": worst["bar"],
                       "abs_error": round(worst["abs_error"], 6)}
    report["passed"] = passed
    return report
