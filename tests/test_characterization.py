"""Tests that the synthetic population reproduces Section II's numbers."""

import pytest

from repro.analysis.stats import mean, stdev
from repro.characterization import (LatencyMarginSearch, MarginMonteCarlo,
                                    ModulePopulation, PLATFORM_CAP_MTS,
                                    STUDY_MODULES, TestMachine,
                                    conservative_setting,
                                    dimm_temperature_c,
                                    error_rate_multiplier,
                                    measure_population)
from repro.characterization.modules import THERMAL_BOOT_FAILURES
from repro.dram.timing import DDR4_ELEVATED_VOLTAGE

POP = ModulePopulation()
MEASURED = measure_population(POP.modules)


def _margins(modules):
    return [MEASURED[m.module_id].margin_mts for m in modules]


def test_population_size():
    assert len(POP.modules) == STUDY_MODULES == 119


def test_chip_count_close_to_paper():
    assert abs(POP.total_chips() - 3006) < 350


def test_brand_counts():
    assert len(POP.by_brand("A")) == 55
    assert len(POP.by_brand("D")) == 16
    assert len(POP.major_brands()) == 103


def test_major_brands_average_margin():
    """Brands A-C average 770 MT/s (27%)."""
    avg = mean(_margins(POP.major_brands()))
    assert 700 <= avg <= 840


def test_brand_d_much_lower():
    """Brand D averages ~213 MT/s, 2.6x lower."""
    d = mean(_margins(POP.by_brand("D")))
    abc = mean(_margins(POP.major_brands()))
    assert d < 300
    assert abc / max(d, 1) > 2.0


def test_brands_a_to_c_similar():
    avgs = [mean(_margins(POP.by_brand(b))) for b in "ABC"]
    assert max(avgs) - min(avgs) < 200


def test_9cpr_consistent_margins():
    """9 chips/rank: min 600 MT/s, low variation."""
    m9 = _margins(POP.by_chips_per_rank(9))
    assert min(m9) >= 600
    assert stdev(m9) < 150


def test_18cpr_wider_variation():
    m9 = _margins(POP.by_chips_per_rank(9))
    m18 = _margins(POP.by_chips_per_rank(18))
    assert stdev(m18) > 1.5 * stdev(m9)


def test_2400_vs_3200_margins():
    """2400 MT/s modules ~967; 3200 MT/s ~679 (platform cap)."""
    m24 = mean(_margins(POP.by_spec_rate(2400)))
    m32 = mean(_margins(POP.by_spec_rate(3200)))
    assert 880 <= m24 <= 1060
    assert 600 <= m32 <= 760


def test_most_common_margin_is_800():
    from collections import Counter
    counts = Counter(_margins(POP.major_brands()))
    assert counts.most_common(1)[0][0] == 800


def test_platform_cap_never_exceeded():
    for m in POP.modules:
        meas = MEASURED[m.module_id]
        assert meas.spec_rate_mts + meas.margin_mts <= PLATFORM_CAP_MTS


def test_most_9cpr_3200_hit_the_cap():
    """36 of 44 such modules reach 4000 MT/s."""
    group = [m for m in POP.by_chips_per_rank(9)
             if m.spec.spec_data_rate_mts == 3200]
    capped = sum(1 for m in group
                 if MEASURED[m.module_id].margin_mts == 800)
    assert len(group) == 44
    assert capped >= 30


def test_aging_has_little_impact():
    new = mean(_margins(POP.by_condition("new")))
    used = mean(_margins(POP.by_condition("in-production")))
    assert abs(new - used) / new < 0.25


def test_elevated_voltage_raises_margin_of_uncapped():
    machine = TestMachine()
    below_cap = [m for m in POP.major_brands()
                 if MEASURED[m.module_id].margin_mts < 800
                 and m.spec.spec_data_rate_mts == 3200]
    improved = 0
    for m in below_cap:
        high = machine.measure_margin(m, voltage=DDR4_ELEVATED_VOLTAGE)
        if high.margin_mts > MEASURED[m.module_id].margin_mts:
            improved += 1
    assert improved >= len(below_cap) * 0.6


def test_elevated_voltage_cannot_pass_cap():
    machine = TestMachine()
    capped = [m for m in POP.major_brands()
              if MEASURED[m.module_id].hit_platform_cap]
    for m in capped[:5]:
        high = machine.measure_margin(m, voltage=DDR4_ELEVATED_VOLTAGE)
        assert high.spec_rate_mts + high.margin_mts <= PLATFORM_CAP_MTS


def test_thermal_chamber_excludes_borrowed_modules():
    ids = {m.module_id for m in POP.thermal_chamber_set()}
    for i in range(8, 32):
        assert "A{}".format(i) not in ids


def test_thermal_boot_failures_flagged():
    for mid in THERMAL_BOOT_FAILURES:
        assert POP.get(mid).fails_boot_at_45c


def test_error_rates_measured_at_boot_margin():
    machine = TestMachine()
    m = POP.major_brands()[0]
    meas = machine.measure_error_rates(m)
    assert meas is not None
    assert meas.data_rate_mts >= m.spec.spec_data_rate_mts


def test_45c_error_rates_scale_4x():
    machine = TestMachine()
    mod = next(m for m in POP.thermal_chamber_set()
               if m.ce_rate_per_hour > 0 and not m.fails_boot_at_45c)
    room = machine.measure_error_rates(mod, ambient_c=23.0)
    hot = machine.measure_error_rates(mod, ambient_c=45.0)
    assert hot.corrected_errors == pytest.approx(
        4.0 * room.corrected_errors)


def test_45c_boot_failures_return_none():
    machine = TestMachine()
    mod = POP.get(THERMAL_BOOT_FAILURES[0])
    assert machine.measure_error_rates(mod, ambient_c=45.0) is None


def test_get_unknown_module():
    with pytest.raises(KeyError):
        POP.get("Z1")
