"""Tests for error patterns, rates, and the injector."""

import random

import pytest

from repro.characterization.modules import ModulePopulation
from repro.core import HeteroDMRManager
from repro.dram import Channel, Module, ModuleSpec
from repro.errors import (ERROR_PATTERNS, ErrorInjector, ErrorScenario,
                          errors_per_hour, population_error_summary)
from repro.errors.models import (chip_failure, full_block_error,
                                 multi_byte_burst, single_bit_flip,
                                 stuck_at_zero)

RNG = random.Random(0)
CLEAN = list(range(72))


def test_patterns_validate_length():
    with pytest.raises(ValueError):
        single_bit_flip([0] * 10, RNG)


def test_single_bit_flip_changes_one_bit():
    out = single_bit_flip(CLEAN, random.Random(1))
    diffs = [(a ^ b) for a, b in zip(CLEAN, out)]
    changed = [d for d in diffs if d]
    assert len(changed) == 1
    assert bin(changed[0]).count("1") == 1


def test_burst_bounded_and_contiguous():
    out = multi_byte_burst(CLEAN, random.Random(2), max_bytes=4)
    idx = [i for i, (a, b) in enumerate(zip(CLEAN, out)) if a != b]
    assert 1 <= len(idx) <= 4
    assert idx == list(range(idx[0], idx[0] + len(idx)))


def test_chip_failure_strides_by_nine():
    out = chip_failure(CLEAN, random.Random(3))
    idx = [i for i, (a, b) in enumerate(zip(CLEAN, out)) if a != b]
    assert all(i % 9 == idx[0] % 9 for i in idx)
    assert len(idx) == 8


def test_full_block_error_replaces_everything():
    out = full_block_error(CLEAN, random.Random(4))
    assert len(out) == 72


def test_stuck_at_zero():
    assert stuck_at_zero(CLEAN, RNG) == [0] * 72


def test_registry_contains_all():
    assert set(ERROR_PATTERNS) == {
        "single_bit_flip", "multi_byte_burst", "chip_failure",
        "full_block_error", "stuck_at_zero", "row_corruption"}


def test_scenario_multipliers():
    base = ErrorScenario()
    hot = ErrorScenario(ambient_c=45.0)
    hot_lat = ErrorScenario(ambient_c=45.0, with_latency_margin=True)
    assert base.multiplier() == pytest.approx(1.0)
    assert hot.multiplier() == pytest.approx(4.0)
    # freq+lat: 1.6x base at 23C, 2x more at 45C -> 3.2x total.
    assert hot_lat.multiplier() == pytest.approx(3.2)


def test_full_population_halves_rates():
    s = ErrorScenario(fully_populated=True)
    assert s.multiplier() == pytest.approx(0.5)


def test_errors_per_hour_uses_module_rates():
    pop = ModulePopulation()
    m = next(mod for mod in pop.modules if mod.ce_rate_per_hour > 0)
    ce, ue = errors_per_hour(m, ErrorScenario(ambient_c=45.0))
    assert ce == pytest.approx(m.ce_rate_per_hour * 4.0)


def test_population_summary_fields():
    pop = ModulePopulation()
    s = population_error_summary(pop.major_brands(), ErrorScenario())
    assert 0.0 < s["zero_error_fraction"] < 1.0
    assert s["max_ce_per_hour"] >= s["mean_ce_per_hour"]


def _manager():
    ch = Channel(index=0)
    ch.modules = [Module(ModuleSpec(), "M0"), Module(ModuleSpec(), "M1")]
    mgr = HeteroDMRManager(ch)
    for i in range(8):
        mgr.write(i * 64, [i] * 64)
    mgr.observe_utilization(0.2)
    mgr.enter_read_mode()
    return mgr


def test_injector_named_pattern():
    mgr = _manager()
    inj = ErrorInjector(mgr)
    assert inj.corrupt_copy(0, "stuck_at_zero") == "stuck_at_zero"
    assert inj.stats.injected == 1


def test_injector_unknown_pattern_rejected():
    mgr = _manager()
    with pytest.raises(ValueError):
        ErrorInjector(mgr, patterns=["nope"])


def test_injector_campaign_probability_bounds():
    mgr = _manager()
    inj = ErrorInjector(mgr)
    with pytest.raises(ValueError):
        inj.campaign([0], probability=1.5)
    hits = inj.campaign([i * 64 for i in range(8)], probability=1.0)
    assert len(hits) == 8


def test_injector_campaign_then_reads_recover():
    mgr = _manager()
    inj = ErrorInjector(mgr, seed=9)
    inj.campaign([i * 64 for i in range(8)], probability=0.5)
    for i in range(8):
        assert list(mgr.read(i * 64)) == [i] * 64
        if mgr.in_write_mode:
            mgr.enter_read_mode()
