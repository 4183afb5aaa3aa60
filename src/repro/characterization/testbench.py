"""Software test machine reproducing the Section II-A measurement flow.

The paper's rig is an unlocked Xeon W-3175X on a C621 board: install
one module, raise the data rate in 200 MT/s BIOS steps at 1.2 V, and
record the highest rate at which 99.999%+ of accesses are correct.
Two platform behaviours observed in the paper are modelled explicitly:

* a system-level cap near 4000 MT/s (no 3200 MT/s module ever ran
  faster, even at 1.35 V, while 22 of the 27 sub-4000 modules did
  improve at 1.35 V), and
* thermal-chamber behaviour: some modules lose one step of margin at a
  45 C ambient and nine specific modules fail to boot there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..dram.timing import (DATA_RATE_STEP_MTS, DDR4_ELEVATED_VOLTAGE,
                           DDR4_STANDARD_VOLTAGE)
from .modules import SyntheticModule
from .stress import StressTester
from .temperature import (ROOM_AMBIENT_C, error_rate_multiplier)

#: System-level data-rate ceiling of the test platform (Section II-A).
PLATFORM_CAP_MTS = 4000


class BootFailure(Exception):
    """The module did not boot at the requested configuration."""


@dataclass
class MarginMeasurement:
    """Result of characterizing one module."""
    module_id: str
    spec_rate_mts: int
    margin_mts: int               # highest error-free step minus spec
    max_bootable_mts: int
    hit_platform_cap: bool
    tests_run: int


@dataclass
class ErrorRateMeasurement:
    """One-hour stress-test error counts at the highest bootable rate."""
    module_id: str
    data_rate_mts: int
    ambient_c: float
    with_latency_margin: bool
    corrected_errors: float
    uncorrected_errors: float


class TestMachine:
    """The characterization rig (one module installed at a time)."""

    def __init__(self, platform_cap_mts: int = PLATFORM_CAP_MTS,
                 seed: int = 99):
        self.platform_cap_mts = platform_cap_mts
        self.tester = StressTester(seed=seed)

    # -- margin measurement -------------------------------------------------------

    def effective_margin(self, module: SyntheticModule,
                         voltage: float = DDR4_STANDARD_VOLTAGE,
                         ambient_c: float = ROOM_AMBIENT_C) -> float:
        """Hidden true margin under the given conditions (model side)."""
        margin = module.true_margin_mts
        if voltage >= DDR4_ELEVATED_VOLTAGE:
            margin += module.voltage_uplift_mts
        if ambient_c > ROOM_AMBIENT_C + 10:
            margin -= module.margin_drop_at_45c_mts
        return margin

    def boots_at(self, module: SyntheticModule, data_rate_mts: int,
                 voltage: float = DDR4_STANDARD_VOLTAGE,
                 ambient_c: float = ROOM_AMBIENT_C) -> bool:
        """Does the system POST with this module at this data rate?"""
        if data_rate_mts > self.platform_cap_mts:
            return False
        if ambient_c > ROOM_AMBIENT_C + 10 and module.fails_boot_at_45c \
                and data_rate_mts > module.spec.spec_data_rate_mts:
            return False
        boot_margin = module.boot_margin_mts
        if voltage >= DDR4_ELEVATED_VOLTAGE:
            boot_margin += module.voltage_uplift_mts
        return data_rate_mts <= module.spec.spec_data_rate_mts + boot_margin

    def measure_margin(self, module: SyntheticModule,
                       voltage: float = DDR4_STANDARD_VOLTAGE,
                       ambient_c: float = ROOM_AMBIENT_C
                       ) -> MarginMeasurement:
        """Step the data rate up in 200 MT/s increments; the margin is
        the highest step at which the stress test still passes."""
        spec = module.spec.spec_data_rate_mts
        true_margin = self.effective_margin(module, voltage, ambient_c)
        best = spec
        max_boot = spec
        tests_before = self.tester.tests_run
        rate = spec
        while True:
            rate += DATA_RATE_STEP_MTS
            if not self.boots_at(module, rate, voltage, ambient_c):
                break
            max_boot = rate
            result = self.tester.run(
                rate, spec, true_margin,
                rate_multiplier=error_rate_multiplier(ambient_c, False))
            if result.passed:
                best = rate
            else:
                break
        return MarginMeasurement(
            module_id=module.module_id,
            spec_rate_mts=spec,
            margin_mts=best - spec,
            max_bootable_mts=max_boot,
            hit_platform_cap=(max_boot >= self.platform_cap_mts),
            tests_run=self.tester.tests_run - tests_before)

    # -- error-rate measurement ------------------------------------------------------

    def measure_error_rates(self, module: SyntheticModule,
                            ambient_c: float = ROOM_AMBIENT_C,
                            with_latency_margin: bool = False
                            ) -> Optional[ErrorRateMeasurement]:
        """One-hour stress test at the module's highest bootable rate
        (Section II-C).  Returns None when the module fails to boot at
        that rate in the given ambient (the chamber's boot failures)."""
        rate = module.spec.spec_data_rate_mts + int(
            min(module.boot_margin_mts,
                self.platform_cap_mts - module.spec.spec_data_rate_mts)
            // DATA_RATE_STEP_MTS * DATA_RATE_STEP_MTS)
        if not self.boots_at(module, rate, ambient_c=ambient_c):
            return None
        mult = error_rate_multiplier(ambient_c, with_latency_margin)
        lat_factor = 1.6 if with_latency_margin else 1.0
        return ErrorRateMeasurement(
            module_id=module.module_id,
            data_rate_mts=rate,
            ambient_c=ambient_c,
            with_latency_margin=with_latency_margin,
            corrected_errors=module.ce_rate_per_hour * mult * lat_factor,
            uncorrected_errors=module.ue_rate_per_hour * mult * lat_factor)

    # -- full system ----------------------------------------------------------------


def measure_population(modules: List[SyntheticModule],
                       machine: Optional[TestMachine] = None
                       ) -> Dict[str, MarginMeasurement]:
    """Characterize every module on one machine; returns per-module
    measurements keyed by module id."""
    machine = machine or TestMachine()
    return {m.module_id: machine.measure_margin(m) for m in modules}
