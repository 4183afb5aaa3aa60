"""Energy-model design effects the paper calls out (Figure 13)."""

import pytest

from repro.dram.power import DramPowerParams
from repro.energy import CpuPowerParams, node_epi
from repro.sim import NodeConfig, simulate_node
from tests.conftest import tiny_hierarchy


def _run(design, **kw):
    return simulate_node(NodeConfig(
        suite="lulesh", hierarchy=tiny_hierarchy(), design=design,
        memory_utilization=0.2, refs_per_core=1500, **kw))


def test_broadcast_writes_double_write_bursts():
    base = _run("baseline")
    hdmr = _run("hetero-dmr")
    # Hetero-DMR commits two bursts of write energy per logical write.
    assert hdmr.dram_write_bursts == 2 * hdmr.dram_writes
    assert base.dram_write_bursts == base.dram_writes


def test_self_refresh_saves_background_energy():
    hdmr = _run("hetero-dmr")
    breakdown = node_epi(hdmr)
    # The originals slept for a nonzero share of rank-seconds.
    assert hdmr.self_refresh_rank_ns > 0
    assert breakdown.dram_background_joules > 0


def test_cpu_static_power_dominates():
    """The paper's energy argument rests on static CPU energy
    dominating; verify the model reflects that."""
    r = _run("baseline")
    b = node_epi(r)
    assert b.cpu_joules > 2 * (b.dram_dynamic_joules +
                               b.dram_background_joules)


def test_memory_share_below_2018_datacenter_number():
    """Memory is ~18% of system power (Barroso 2018); the model's
    DRAM share sits at or below that ballpark."""
    r = _run("baseline")
    b = node_epi(r)
    dram = b.dram_dynamic_joules + b.dram_background_joules
    assert dram / b.total_joules < 0.35


def test_epi_scales_with_custom_power_params():
    r = _run("baseline")
    cheap = node_epi(r, cpu=CpuPowerParams(static_w_per_core=1.0,
                                           uncore_w=1.0))
    dear = node_epi(r, cpu=CpuPowerParams(static_w_per_core=20.0,
                                          uncore_w=40.0))
    assert dear.epi_nj > cheap.epi_nj
