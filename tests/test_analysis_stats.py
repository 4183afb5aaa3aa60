"""Unit tests for repro.analysis.stats."""

import math

import pytest

from repro.analysis import stats


def test_mean_simple():
    assert stats.mean([1, 2, 3]) == 2.0


def test_mean_empty_raises():
    with pytest.raises(ValueError):
        stats.mean([])


def test_stdev_population():
    assert stats.stdev([2, 2, 2]) == 0.0
    assert stats.stdev([1, 3]) == 1.0


def test_stdev_empty_raises():
    with pytest.raises(ValueError):
        stats.stdev([])


def test_sample_stdev_bessel():
    assert stats.sample_stdev([1, 3]) == pytest.approx(math.sqrt(2))


def test_sample_stdev_needs_two():
    with pytest.raises(ValueError):
        stats.sample_stdev([1])


def test_confidence_interval_centers_on_mean():
    mu, half = stats.confidence_interval_99([10.0] * 5)
    assert mu == 10.0
    assert half == 0.0


def test_confidence_interval_width_shrinks_with_n():
    _, half_small = stats.confidence_interval_99([1, 2, 3, 4])
    _, half_big = stats.confidence_interval_99([1, 2, 3, 4] * 16)
    assert half_big < half_small


def test_confidence_interval_single_value():
    mu, half = stats.confidence_interval_99([5.0])
    assert (mu, half) == (5.0, 0.0)


def test_weighted_mean_basic():
    assert stats.weighted_mean([1, 3], [1, 1]) == 2.0
    assert stats.weighted_mean([1, 3], [3, 1]) == 1.5


def test_weighted_mean_unnormalized_weights():
    assert stats.weighted_mean([2, 4], [20, 20]) == 3.0


def test_weighted_mean_mismatch_raises():
    with pytest.raises(ValueError):
        stats.weighted_mean([1], [1, 2])


def test_weighted_mean_zero_weights_raises():
    with pytest.raises(ValueError):
        stats.weighted_mean([1, 2], [0, 0])


def test_suite_average_weighs_equally():
    per_suite = {"a": 1.0, "b": 2.0, "c": 3.0}
    assert stats.suite_average(per_suite) == 2.0


def test_histogram_bins():
    h = stats.histogram([0, 100, 199, 200, 350], 200)
    assert h == {0.0: 3, 200.0: 2}


def test_histogram_negative_bin_width():
    with pytest.raises(ValueError):
        stats.histogram([1], 0)


def test_cdf_at_least():
    vals = [100, 200, 300, 400]
    assert stats.cdf_at_least(vals, 250) == 0.5
    assert stats.cdf_at_least(vals, 0) == 1.0
    assert stats.cdf_at_least(vals, 500) == 0.0


def test_cdf_at_least_empty_raises():
    with pytest.raises(ValueError):
        stats.cdf_at_least([], 1)


def test_z99_matches_normal_quantile():
    # Two-sided 99%: Phi(z) = 0.995.
    assert stats.Z_99 == pytest.approx(2.5758, abs=1e-4)
