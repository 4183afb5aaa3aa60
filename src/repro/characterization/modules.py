"""Synthetic population of the 119 characterized server RDIMMs.

The physical modules of Section II are unavailable, so this module
builds a deterministic synthetic population whose *measured* statistics
reproduce every number the paper reports (see DESIGN.md's substitution
table):

* 119 modules, 3006 chips, four brands: A (40), B (35), C (28) are the
  major manufacturers; D (16) is the small module-only vendor.
* Brands A-C average 770 MT/s (27%) of margin; brand D averages
  ~213 MT/s (2.6x lower).
* 44 modules are 3200 MT/s with 9 chips/rank; 36 of them reach the
  test platform's 4000 MT/s cap and none exceed it; the rest bottom
  out at 600 MT/s (the paper's observed minimum for 9 chips/rank).
* 18-chips/rank modules spread ~2.1x wider than 9-chips/rank ones.
* 2400 MT/s modules average ~967 MT/s of margin.
* modules A8-A31 were borrowed from a three-years-old in-production
  cluster; a few others are refurbished; aging shows no margin effect.
* nine named modules (A3, A40, A55, B12, B19, C3, C6, C10, C12) fail
  to boot at their margin in a 45 C ambient.

Each synthetic module carries a hidden *true* margin (continuous) plus
a boot margin and error-rate parameters; the testbench *measures* the
true margin through the same 200 MT/s-step procedure the paper uses.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List

from ..dram.module import ModuleSpec

#: Study scale reported in Table I.
STUDY_MODULES = 119
STUDY_CHIPS = 3006

#: Modules that fail to boot at 45 C ambient (Figure 6 caption).
THERMAL_BOOT_FAILURES = ("A3", "A40", "A55", "B12", "B19", "C3", "C6",
                         "C10", "C12")

#: Modules borrowed from an in-production cluster (not thermal-tested).
IN_PRODUCTION_RANGE = ("A", 8, 31)


@dataclass
class SyntheticModule:
    """One characterized module: spec sheet + hidden ground truth."""
    module_id: str
    spec: ModuleSpec
    true_margin_mts: float          # error-free for 99.999%+ accesses
    boot_margin_mts: float          # highest rate that still boots
    voltage_uplift_mts: float       # extra margin at 1.35 V
    ce_rate_per_hour: float         # corrected errors at boot margin, 23 C
    ue_rate_per_hour: float         # uncorrected errors at boot margin, 23 C
    margin_drop_at_45c_mts: float = 0.0
    fails_boot_at_45c: bool = False

    @property
    def brand(self) -> str:
        return self.spec.brand


def _margin_9cpr_3200(rng: random.Random, index: int) -> float:
    """9 chips/rank, 3200 MT/s: 36 of 44 sit at/above the platform's
    4000 MT/s cap; the rest land in [600, 800)."""
    if index % 44 < 36:
        return 820.0 + rng.random() * 300.0   # capped to 800 when measured
    return 610.0 + rng.random() * 180.0


def _margin_18cpr_3200(rng: random.Random) -> float:
    """18 chips/rank, 3200 MT/s: wider spread, occasionally low."""
    value = rng.gauss(640.0, 270.0)
    return min(max(value, 220.0), 1100.0)


def _margin_2400(rng: random.Random) -> float:
    """2400 MT/s modules: ~967 MT/s average margin."""
    value = rng.gauss(980.0, 210.0)
    return min(max(value, 620.0), 1580.0)


def _margin_brand_d(rng: random.Random) -> float:
    """The small brand: 2.6x lower margins, some with none at all."""
    value = rng.gauss(260.0, 160.0)
    return min(max(value, 0.0), 520.0)


def _error_rates(rng: random.Random, margin: float) -> "tuple[float, float]":
    """CE/UE rates per hour at the highest *bootable* data rate, 23 C.

    Roughly a third of modules show zero errors in a one-hour test
    (e.g., C22-C27 in Figure 6); the rest follow a heavy-tailed
    distribution, with UEs about an order of magnitude rarer than CEs.
    """
    if rng.random() < 0.35:
        return 0.0, 0.0
    ce = 10.0 ** rng.uniform(-1.0, 3.2)
    ue = ce * 10.0 ** rng.uniform(-2.0, -0.5) if rng.random() < 0.6 else 0.0
    return ce, ue


class ModulePopulation:
    """Deterministic generator for the 119-module study population."""

    def __init__(self, seed: int = 2021):
        self.seed = seed
        self.modules: List[SyntheticModule] = []
        self._build()

    def _build(self) -> None:
        rng = random.Random(self.seed)
        counts = {"A": 55, "B": 28, "C": 20, "D": 16}
        idx_9cpr_3200 = 0
        for brand, count in counts.items():
            for i in range(1, count + 1):
                module_id = "{}{}".format(brand, i)
                if brand == "D":
                    spec = ModuleSpec(brand=brand, spec_data_rate_mts=3200,
                                      chips_per_rank=18,
                                      ranks_per_module=2,
                                      chip_density_gbit=8,
                                      manufacture_year=2019 + i % 3)
                    margin = _margin_brand_d(rng)
                else:
                    kind = self._kind_for(brand, i)
                    if kind == "9cpr-3200":
                        spec = ModuleSpec(brand=brand,
                                          spec_data_rate_mts=3200,
                                          chips_per_rank=9,
                                          ranks_per_module=2 - (i % 2 == 0),
                                          chip_density_gbit=16,
                                          manufacture_year=2019 + i % 3)
                        margin = _margin_9cpr_3200(rng, idx_9cpr_3200)
                        idx_9cpr_3200 += 1
                    elif kind == "18cpr-3200":
                        spec = ModuleSpec(brand=brand,
                                          spec_data_rate_mts=3200,
                                          chips_per_rank=18,
                                          ranks_per_module=2,
                                          chip_density_gbit=8,
                                          manufacture_year=2018 + i % 4)
                        margin = _margin_18cpr_3200(rng)
                    else:
                        spec = ModuleSpec(brand=brand,
                                          spec_data_rate_mts=2400,
                                          chips_per_rank=18,
                                          ranks_per_module=2,
                                          chip_density_gbit=8,
                                          manufacture_year=2017 + i % 3)
                        margin = _margin_2400(rng)
                condition = "new"
                if brand == IN_PRODUCTION_RANGE[0] and \
                        IN_PRODUCTION_RANGE[1] <= i <= IN_PRODUCTION_RANGE[2]:
                    condition = "in-production"
                elif brand == "B" and i % 11 == 0:
                    condition = "refurbished"
                spec = ModuleSpec(brand=spec.brand,
                                  spec_data_rate_mts=spec.spec_data_rate_mts,
                                  chips_per_rank=spec.chips_per_rank,
                                  ranks_per_module=spec.ranks_per_module,
                                  chip_density_gbit=spec.chip_density_gbit,
                                  manufacture_year=spec.manufacture_year,
                                  condition=condition)
                ce, ue = _error_rates(rng, margin)
                self.modules.append(SyntheticModule(
                    module_id=module_id,
                    spec=spec,
                    true_margin_mts=margin,
                    boot_margin_mts=margin + 150.0 + rng.random() * 250.0,
                    voltage_uplift_mts=200.0 + rng.random() * 300.0,
                    ce_rate_per_hour=ce,
                    ue_rate_per_hour=ue,
                    margin_drop_at_45c_mts=self._thermal_drop(
                        rng, module_id),
                    fails_boot_at_45c=module_id in THERMAL_BOOT_FAILURES,
                ))

    @staticmethod
    def _kind_for(brand: str, i: int) -> str:
        """Assign organization: 44 modules are 9-chips/rank 3200 MT/s,
        31 are 18-chips/rank 3200 MT/s, 28 are 2400 MT/s (brands A-C
        total 103).  A multiplicative shuffle (29 is coprime with 103)
        interleaves the classes across brands so per-brand averages
        stay similar, as the paper reports for brands A-C."""
        position = {"A": 0, "B": 55, "C": 83}[brand] + (i - 1)
        shuffled = (position * 29) % 103
        if shuffled < 44:
            return "9cpr-3200"
        if shuffled < 75:
            return "18cpr-3200"
        return "2400"

    @staticmethod
    def _thermal_drop(rng: random.Random, module_id: str) -> float:
        """Five of 103 brand A-C modules lose margin at 45 C ambient."""
        digest = hash((module_id, "thermal")) & 0xFFFF
        return 200.0 if digest % 21 == 0 else 0.0

    # -- selections ---------------------------------------------------------------

    def by_brand(self, brand: str) -> List[SyntheticModule]:
        return [m for m in self.modules if m.brand == brand]

    def major_brands(self) -> List[SyntheticModule]:
        """Brands A-C, the modules the paper's evaluation uses."""
        return [m for m in self.modules if m.brand in ("A", "B", "C")]

    def by_chips_per_rank(self, chips: int) -> List[SyntheticModule]:
        return [m for m in self.major_brands()
                if m.spec.chips_per_rank == chips]

    def by_spec_rate(self, rate: int) -> List[SyntheticModule]:
        return [m for m in self.major_brands()
                if m.spec.spec_data_rate_mts == rate]

    def by_condition(self, condition: str) -> List[SyntheticModule]:
        return [m for m in self.major_brands()
                if m.spec.condition == condition]

    def thermal_chamber_set(self) -> List[SyntheticModule]:
        """Modules tested at 45 C: brands A-C minus the borrowed
        in-production modules A8-A31."""
        out = []
        for m in self.major_brands():
            if m.spec.condition == "in-production":
                continue
            out.append(m)
        return out

    def get(self, module_id: str) -> SyntheticModule:
        for m in self.modules:
            if m.module_id == module_id:
                return m
        raise KeyError("no module {!r}".format(module_id))

    def total_chips(self) -> int:
        return sum(m.spec.total_chips for m in self.modules)
