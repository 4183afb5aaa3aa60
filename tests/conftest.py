"""Shared fixtures: small geometries so unit/integration tests run fast."""

import gc

import pytest

from repro.cache.hierarchy import HierarchyConfig
from repro.dram.channel import Channel
from repro.dram.module import Module, ModuleSpec
from repro.dram.timing import exploit_freq_lat_margins


def tiny_hierarchy(cores: int = 2, channels: int = 1) -> HierarchyConfig:
    """A scaled-down hierarchy for fast simulation tests."""
    return HierarchyConfig(
        name="Tiny", cores=cores,
        l2_bytes_per_core=256 << 10, l2_assoc=16, l2_latency_cycles=12,
        l3_bytes_total=4 << 20, l3_assoc=16, l3_latency_cycles=68,
        channels=channels)


@pytest.fixture
def tiny_hier():
    return tiny_hierarchy()


@pytest.fixture
def two_module_channel():
    """A channel with two dual-rank modules and fast timing configured."""
    ch = Channel(index=0, fast_timing=exploit_freq_lat_margins())
    ch.modules = [Module(ModuleSpec(), "M0", true_margin_mts=600),
                  Module(ModuleSpec(), "M1", true_margin_mts=800)]
    return ch


@pytest.fixture
def collect_cycles():
    """Collect reference cycles when the test ends, so a file handle an
    object cycle kept open warns in the test that leaked it rather than
    in whichever later test the collector happens to run."""
    yield
    gc.collect()


def pytest_configure(config):
    """TestMachine is a characterization rig, not a test class."""
    from repro.characterization import testbench
    testbench.TestMachine.__test__ = False
