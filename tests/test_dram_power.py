"""Tests for the DRAM energy model."""

from repro.dram.power import DramPowerParams


def test_self_refresh_cheaper_than_active():
    p = DramPowerParams()
    assert p.background_self_refresh_w < p.background_active_w
