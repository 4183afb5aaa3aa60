"""Tests for the EPI model and the silicon-corroboration emulation."""

import pytest

from repro.dram.timing import (exploit_freq_lat_margins,
                               manufacturer_spec_3200)
from repro.energy import CpuPowerParams, node_epi, normalized_epi
from repro.sim import (NodeConfig, emulate_hetero_dmr, emulated_speedup,
                       simulate_node, write_time_ns)
from tests.conftest import tiny_hierarchy


def _run(**kw):
    kw.setdefault("hierarchy", tiny_hierarchy())
    kw.setdefault("refs_per_core", 1200)
    return simulate_node(NodeConfig(**kw))


def test_cpu_energy_positive_and_monotone():
    p = CpuPowerParams()
    e1 = p.energy_joules(8, 1.0, 1e9)
    e2 = p.energy_joules(8, 2.0, 1e9)
    assert 0 < e1 < e2


def test_cpu_energy_validates():
    with pytest.raises(ValueError):
        CpuPowerParams().energy_joules(8, -1.0, 0)


def test_epi_breakdown_fields():
    r = _run()
    b = node_epi(r)
    assert b.cpu_joules > 0
    assert b.dram_dynamic_joules > 0
    assert b.dram_background_joules > 0
    assert b.epi_nj > 0
    dram = b.dram_dynamic_joules + b.dram_background_joules
    assert 0 < dram / b.total_joules < 0.6


def test_normalized_epi_of_self_is_one():
    r = _run()
    assert normalized_epi(r, r) == pytest.approx(1.0)


def test_hetero_dmr_epi_improves():
    """Figure 13: Hetero-DMR cuts EPI despite doubled write energy."""
    base = _run(suite="linpack", refs_per_core=2500)
    hdmr = _run(suite="linpack", refs_per_core=2500, design="hetero-dmr",
                memory_utilization=0.2)
    assert normalized_epi(hdmr, base) < 1.02


def test_write_time_formula():
    t = manufacturer_spec_3200()
    ns = write_time_ns(25.6e9 * 0.85, t, channels=1)
    assert ns == pytest.approx(1e9)      # one second of peak*0.85


def test_write_time_validates():
    with pytest.raises(ValueError):
        write_time_ns(-1, manufacturer_spec_3200(), 1)


def test_emulation_moves_write_time_to_spec():
    fast_run = _run(timing=exploit_freq_lat_margins(),
                    refs_per_core=2500)
    em = emulate_hetero_dmr(fast_run, exploit_freq_lat_margins(),
                            manufacturer_spec_3200())
    assert em.write_time_slow_ns > em.write_time_fast_ns
    assert em.emulated_exec_ns > fast_run.time_ns


def test_emulated_speedup_below_raw_margin_speedup():
    """Hetero-DMR gives up the margin on writes, so its emulated
    speedup is slightly below the raw margin setting's."""
    base = _run(refs_per_core=2500)
    fast = _run(timing=exploit_freq_lat_margins(), refs_per_core=2500)
    em = emulate_hetero_dmr(fast, exploit_freq_lat_margins(),
                            manufacturer_spec_3200())
    raw = base.time_ns / fast.time_ns
    emu = emulated_speedup(base.time_ns, em)
    assert emu < raw
    assert emu > 1.0


def test_emulated_speedup_validates():
    fast = _run(timing=exploit_freq_lat_margins())
    em = emulate_hetero_dmr(fast, exploit_freq_lat_margins(),
                            manufacturer_spec_3200())
    with pytest.raises(ValueError):
        emulated_speedup(0.0, em)
