"""Error-rate bookkeeping for margin-exploiting operation (Fig. 6).

Scales the per-module CE/UE rates of the characterization by
scenario multipliers:

* 45 C ambient: 4x the 23 C rates (2x under freq+lat margins),
* full population (two modules per channel): each module accessed half
  as often, so per-module error rates halve (Section II-C).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..characterization.modules import SyntheticModule
from ..characterization.temperature import error_rate_multiplier

#: Per-module rate multiplier when every channel slot is populated.
FULL_POPULATION_MULTIPLIER = 0.5


@dataclass(frozen=True)
class ErrorScenario:
    """Operating conditions for an error-rate query."""
    ambient_c: float = 23.0
    with_latency_margin: bool = False
    fully_populated: bool = False

    def multiplier(self) -> float:
        mult = error_rate_multiplier(self.ambient_c,
                                     self.with_latency_margin)
        if self.with_latency_margin:
            mult *= 1.6   # freq+lat margins raise the 23 C base rate
        if self.fully_populated:
            mult *= FULL_POPULATION_MULTIPLIER
        return mult


def errors_per_hour(module: SyntheticModule,
                    scenario: ErrorScenario) -> "tuple[float, float]":
    """(CE, UE) rates per hour for a module under a scenario."""
    mult = scenario.multiplier()
    return (module.ce_rate_per_hour * mult,
            module.ue_rate_per_hour * mult)


def population_error_summary(modules: Sequence[SyntheticModule],
                             scenario: ErrorScenario
                             ) -> "dict[str, float]":
    """Aggregate CE/UE statistics across a module population."""
    ces, ues = [], []
    for m in modules:
        ce, ue = errors_per_hour(m, scenario)
        ces.append(ce)
        ues.append(ue)
    n = max(1, len(modules))
    return {
        "mean_ce_per_hour": sum(ces) / n,
        "mean_ue_per_hour": sum(ues) / n,
        "zero_error_fraction": sum(
            1 for c, u in zip(ces, ues) if c == 0 and u == 0) / n,
        "max_ce_per_hour": max(ces) if ces else 0.0,
    }
