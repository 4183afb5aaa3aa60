"""Shared fixtures: small geometries so unit/integration tests run fast."""

import gc

import pytest

from repro.cache.hierarchy import HierarchyConfig
from repro.dram.channel import Channel
from repro.dram.module import Module, ModuleSpec
from repro.dram.timing import exploit_freq_lat_margins
from repro.hpc.scheduler import FreeNodePool


def dirty_lines(cache) -> list:
    """Every dirty line's address in ``cache``, read through the
    LLC cleaning hook (``dirty_lru_blocks``) with no limit."""
    return cache.dirty_lru_blocks(cache.nsets * cache.assoc)


def policy_select(policy, free_nodes: list, count: int):
    """The nodes ``policy`` allocates for ``count`` from ``free_nodes``
    (None if short), picked by ``policy.pick`` over a pool keyed by
    position, as the scheduler picks."""
    keys = policy.pick(FreeNodePool.of(free_nodes, policy.buckets), count)
    return None if keys is None else [free_nodes[k] for k in keys]


def metric(recorder, table: str, subsystem: str, name: str, **labels):
    """One series' value from ``recorder.snapshot()`` (``table`` is
    ``"counters"`` or ``"gauges"``), or None if it was never set."""
    series = (subsystem, name, {k: str(v) for k, v in labels.items()})
    for row in recorder.snapshot()[table]:
        if (row["subsystem"], row["name"], row["labels"]) == series:
            return row["value"]
    return None


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
