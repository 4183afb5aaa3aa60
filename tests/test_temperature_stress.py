"""Tests for the thermal model and the stress tester."""

import pytest

from repro.characterization.stress import StressTester
from repro.characterization.temperature import (dimm_temperature_c,
                                                error_rate_multiplier)


def test_room_ambient_anchors():
    assert dimm_temperature_c(23.0, active=False) == pytest.approx(43.0)
    assert dimm_temperature_c(23.0, active=True) == pytest.approx(53.0)


def test_chamber_anchor():
    assert dimm_temperature_c(45.0, active=True) == pytest.approx(60.0, abs=1.0)


def test_multiplier_anchors():
    assert error_rate_multiplier(23.0, False) == pytest.approx(1.0)
    assert error_rate_multiplier(45.0, False) == pytest.approx(4.0)
    assert error_rate_multiplier(45.0, True) == pytest.approx(2.0)


def test_multiplier_monotonic():
    assert error_rate_multiplier(35.0, False) > 1.0
    assert error_rate_multiplier(35.0, False) < 4.0


def test_stress_passes_within_margin():
    t = StressTester(seed=1)
    res = t.run(3600, 3200, true_margin_mts=800)
    assert res.passed
    assert res.errors == 0 or res.error_fraction < 1e-5


def test_stress_fails_beyond_margin():
    t = StressTester(seed=1)
    res = t.run(4200, 3200, true_margin_mts=600)
    assert not res.passed


def test_stress_validates_config():
    with pytest.raises(ValueError):
        StressTester(accesses_per_test=0)


def test_error_probability_monotone():
    t = StressTester()
    assert t.error_probability(-400) < t.error_probability(0) \
        < t.error_probability(400)


def test_rate_multiplier_raises_errors():
    t1, t2 = StressTester(seed=3), StressTester(seed=3)
    low = t1.run(4100, 3200, 800, rate_multiplier=1.0)
    high = t2.run(4100, 3200, 800, rate_multiplier=100.0)
    assert high.errors >= low.errors
