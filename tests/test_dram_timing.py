"""Tests for DDR4 timing parameter sets (Table II)."""

import pytest

from repro.dram.timing import (BURST_LENGTH, DDR4_MAX_SPEC_MTS,
                               TABLE2_SETTINGS, TimingParameters,
                               exploit_freq_lat_margins,
                               exploit_frequency_margin,
                               exploit_latency_margin,
                               manufacturer_spec_3200)


def test_spec_3200_matches_table2_row1():
    t = manufacturer_spec_3200()
    assert (t.data_rate_mts, t.tRCD_ns, t.tRP_ns, t.tRAS_ns,
            t.tREFI_ns) == (3200, 13.75, 13.75, 32.5, 7800.0)


def test_latency_margin_matches_table2_row2():
    t = exploit_latency_margin()
    assert (t.data_rate_mts, t.tRCD_ns, t.tRP_ns, t.tRAS_ns,
            t.tREFI_ns) == (3200, 11.5, 11.0, 29.5, 15000.0)


def test_frequency_margin_matches_table2_row3():
    t = exploit_frequency_margin(800)
    assert t.data_rate_mts == 4000
    assert (t.tRCD_ns, t.tRP_ns, t.tRAS_ns) == (13.75, 13.75, 32.5)


def test_freq_lat_matches_table2_row4():
    t = exploit_freq_lat_margins(800)
    assert t.data_rate_mts == 4000
    assert (t.tRCD_ns, t.tRP_ns) == (11.5, 11.0)


def test_table2_has_four_rows():
    assert len(TABLE2_SETTINGS) == 4


def test_clock_derivation():
    assert manufacturer_spec_3200().tCK_ns == pytest.approx(0.625)


def test_burst_time():
    t = manufacturer_spec_3200()
    assert t.burst_time_ns == pytest.approx((BURST_LENGTH / 2) * 0.625)


def test_peak_bandwidth():
    assert manufacturer_spec_3200().peak_bandwidth_gbs == pytest.approx(25.6)
    assert exploit_frequency_margin().peak_bandwidth_gbs == pytest.approx(32.0)


def test_trc_is_tras_plus_trp():
    t = manufacturer_spec_3200()
    assert t.tRC_ns == pytest.approx(32.5 + 13.75)


def test_cas_scales_with_data_rate():
    """Frequency margin keeps CL in clocks, shrinking it in ns."""
    spec = manufacturer_spec_3200()
    fast = spec.at_data_rate(4000)
    assert fast.tCAS_ns == pytest.approx(spec.tCAS_ns * 3200 / 4000)
    assert fast.tCCD_ns == pytest.approx(spec.tCCD_ns * 3200 / 4000)


def test_analog_latencies_unscaled():
    spec = manufacturer_spec_3200()
    fast = spec.at_data_rate(4000)
    assert fast.tRCD_ns == spec.tRCD_ns
    assert fast.tRP_ns == spec.tRP_ns
    assert fast.tREFI_ns == spec.tREFI_ns


def test_invalid_data_rate():
    with pytest.raises(ValueError):
        TimingParameters(data_rate_mts=0, tRCD_ns=1, tRP_ns=1, tRAS_ns=1,
                         tREFI_ns=1)


def test_invalid_latency():
    with pytest.raises(ValueError):
        TimingParameters(data_rate_mts=3200, tRCD_ns=-1, tRP_ns=1,
                         tRAS_ns=1, tREFI_ns=1)
