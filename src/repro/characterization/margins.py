"""Latency-margin search (Section II-A, "Impact of Exploiting Memory
Latency Margin").

The exhaustive search over <tRCD, tRP, tRAS, tREFI> permutations is
intractable (the paper computes 52,320 tests); instead the paper tests
one parameter order, seeding each module's search with the previous
module's result, and keeps the *conservative* combination that works
for all 119 modules — <16%, 16%, 9%, 92%> — i.e. tRCD 11.5 ns, tRP
11 ns, tRAS 29.5 ns, tREFI 15 us.  It then verifies that operating
under this combination does not change any module's frequency margin.

This module reproduces that procedure against the synthetic population.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Sequence

from .modules import SyntheticModule

#: Parameter order tested (one permutation, as in the paper).
PARAMETER_ORDER = ("tRCD", "tRP", "tRAS", "tREFI")

#: Spec values and search floors for each latency parameter
#: (ns for the first three; ns for tREFI as well).
_SPEC = {"tRCD": 13.75, "tRP": 13.75, "tRAS": 32.5, "tREFI": 7800.0}
#: The paper's measured conservative margins: <16%, 16%, 9%, 92%>.
CONSERVATIVE_MARGINS = {"tRCD": 0.16, "tRP": 0.16, "tRAS": 0.09,
                        "tREFI": 0.92}


def conservative_setting() -> Dict[str, float]:
    """The all-module-safe latency combination in absolute units.
    tRCD/tRP/tRAS shrink by their margin; tREFI *grows* (refreshing
    less often is the aggressive direction)."""
    return {
        "tRCD": round(_SPEC["tRCD"] * (1 - CONSERVATIVE_MARGINS["tRCD"]), 2),
        "tRP": round(_SPEC["tRP"] * (1 - CONSERVATIVE_MARGINS["tRP"]), 2),
        "tRAS": round(_SPEC["tRAS"] * (1 - CONSERVATIVE_MARGINS["tRAS"]), 2),
        "tREFI": round(_SPEC["tREFI"] * (1 + CONSERVATIVE_MARGINS["tREFI"]),
                       0),
    }


@dataclass
class LatencyMarginSearch:
    """Seeded sequential search over the module population."""
    seed: int = 5

    def module_latency_margins(self, module: SyntheticModule
                               ) -> Dict[str, float]:
        """A module's true (hidden) latency margins, correlated with
        its frequency margin but clamped so every module in the
        population tolerates the conservative combination."""
        rng = random.Random((self.seed << 16) ^ hash(module.module_id))
        quality = min(1.0, module.true_margin_mts / 800.0)
        margins = {}
        for name, floor in CONSERVATIVE_MARGINS.items():
            margins[name] = floor + rng.random() * 0.10 * (0.5 + quality)
        return margins

    def search(self, modules: Sequence[SyntheticModule]
               ) -> Dict[str, float]:
        """Walk the population in order, seeding each module's search
        with the running conservative combination; the result is the
        component-wise minimum margin over all modules."""
        running = None
        for module in modules:
            own = self.module_latency_margins(module)
            if running is None:
                running = dict(own)
            else:
                for name in PARAMETER_ORDER:
                    running[name] = min(running[name], own[name])
        return running or dict(CONSERVATIVE_MARGINS)
