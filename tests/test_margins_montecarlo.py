"""Tests for the latency-margin search and the Figure 11 Monte Carlo."""

import pytest

from repro.characterization import (LatencyMarginSearch, MarginMonteCarlo,
                                    ModulePopulation, conservative_setting)
from repro.characterization.margins import CONSERVATIVE_MARGINS

POP = ModulePopulation()


def test_conservative_margins_match_paper():
    """The paper's <16%, 16%, 9%, 92%> combination."""
    assert CONSERVATIVE_MARGINS == {"tRCD": 0.16, "tRP": 0.16,
                                    "tRAS": 0.09, "tREFI": 0.92}


def test_conservative_setting_absolute_values():
    s = conservative_setting()
    assert s["tRCD"] == pytest.approx(11.55, abs=0.1)
    assert s["tRP"] == pytest.approx(11.55, abs=0.6)
    assert s["tRAS"] == pytest.approx(29.58, abs=0.2)
    assert s["tREFI"] == pytest.approx(14976, abs=60)


def test_search_result_dominates_conservative_floor():
    search = LatencyMarginSearch()
    result = search.search(POP.modules)
    for name, floor in CONSERVATIVE_MARGINS.items():
        assert result[name] >= floor


def test_search_is_componentwise_minimum():
    search = LatencyMarginSearch()
    result = search.search(POP.modules)
    for m in POP.modules:
        own = search.module_latency_margins(m)
        for name in CONSERVATIVE_MARGINS:
            assert result[name] <= own[name] + 1e-12


def test_mc_channel_fractions_match_fig11():
    mc = MarginMonteCarlo()
    aware = mc.channel_margins(20000, True)
    unaware = mc.channel_margins(20000, False)
    assert aware.fraction_at_least(800) == pytest.approx(0.96, abs=0.02)
    assert unaware.fraction_at_least(800) == pytest.approx(0.80, abs=0.02)


def test_mc_node_fractions_match_fig11():
    mc = MarginMonteCarlo()
    aware = mc.node_margins(4000, True)
    unaware = mc.node_margins(4000, False)
    assert aware.fraction_at_least(800) == pytest.approx(0.62, abs=0.04)
    assert unaware.fraction_at_least(800) == pytest.approx(0.07, abs=0.03)
    assert aware.fraction_at_least(600) >= 0.97
    assert unaware.fraction_at_least(600) == pytest.approx(0.96, abs=0.03)


def test_mc_group_fractions():
    groups = MarginMonteCarlo().node_group_fractions(4000)
    assert groups[800] == pytest.approx(0.62, abs=0.05)
    assert groups[600] == pytest.approx(0.36, abs=0.05)
    assert groups[0] == pytest.approx(0.02, abs=0.03)
    assert sum(groups.values()) == pytest.approx(1.0)


def test_mc_determinism():
    a = MarginMonteCarlo(seed=5).channel_margins(100, True).margins_mts
    b = MarginMonteCarlo(seed=5).channel_margins(100, True).margins_mts
    assert a == b


def test_mc_histogram_on_grid():
    dist = MarginMonteCarlo().channel_margins(500, True)
    assert all(m % 200 == 0 for m in dist.histogram())


def test_mc_validates_stdev():
    with pytest.raises(ValueError):
        MarginMonteCarlo(stdev_mts=0)
