"""Integration tests for the single-node performance simulator."""

import gc
import random
import weakref
from types import SimpleNamespace

import pytest

from repro.cache import hierarchy as hierarchy_module
from repro.cache.hierarchy import CacheHierarchy, hierarchy1, hierarchy2
from repro.sim import NodeConfig, simulate_node
from repro.sim.node import NodeSimulation
from repro.dram.timing import exploit_freq_lat_margins
from tests.conftest import dirty_lines, tiny_hierarchy


def _cfg(**kw):
    kw.setdefault("hierarchy", tiny_hierarchy())
    kw.setdefault("refs_per_core", 800)
    kw.setdefault("suite", "linpack")
    return NodeConfig(**kw)


def test_simulation_completes_and_counts():
    r = simulate_node(_cfg())
    assert r.time_ns > 0
    assert r.instructions > 0
    assert r.dram_reads > 0
    assert 0 < r.ipc < 8


def test_determinism():
    a = simulate_node(_cfg())
    b = simulate_node(_cfg())
    assert a.time_ns == b.time_ns
    assert a.dram_reads == b.dram_reads


def test_seed_changes_outcome():
    a = simulate_node(_cfg(seed=1))
    b = simulate_node(_cfg(seed=2))
    assert a.time_ns != b.time_ns


def test_invalid_design_rejected():
    with pytest.raises(ValueError):
        NodeConfig(design="magic")


def test_invalid_utilization_rejected():
    with pytest.raises(ValueError):
        NodeConfig(memory_utilization=1.5)


def test_faster_timing_is_faster():
    slow = simulate_node(_cfg())
    fast = simulate_node(_cfg(timing=exploit_freq_lat_margins()))
    assert fast.time_ns < slow.time_ns


def test_hetero_dmr_regresses_at_high_utilization():
    r = simulate_node(_cfg(design="hetero-dmr", memory_utilization=0.8))
    assert r.effective_design == "baseline"
    assert r.transitions == 0


def test_hetero_dmr_active_at_low_utilization():
    r = simulate_node(_cfg(design="hetero-dmr", memory_utilization=0.2))
    assert r.effective_design == "hetero-dmr"
    assert r.self_refresh_rank_ns > 0       # originals slept


def test_hetero_fmr_buckets():
    low = simulate_node(_cfg(design="hetero-dmr+fmr",
                             memory_utilization=0.2))
    mid = simulate_node(_cfg(design="hetero-dmr+fmr",
                             memory_utilization=0.4))
    assert low.effective_design == "hetero-dmr+fmr"
    assert mid.effective_design == "hetero-dmr"


def test_write_share_positive_for_store_heavy_suite():
    r = simulate_node(_cfg(refs_per_core=3000))
    assert r.dram_writes > 0
    assert 0.0 < r.write_share < 0.5


def test_bus_utilization_bounded():
    r = simulate_node(_cfg())
    assert 0.0 < r.bus_utilization <= 1.0


def test_dram_accesses_per_instruction_positive():
    r = simulate_node(_cfg())
    assert r.dram_accesses_per_instruction > 0


def test_prefetchers_can_be_disabled():
    on = simulate_node(_cfg(refs_per_core=1500))
    off = simulate_node(_cfg(refs_per_core=1500, use_prefetchers=False))
    assert on.dram_reads != off.dram_reads


def test_safety_invariant_holds_throughout():
    """The channel-level safety check is armed during every Hetero-DMR
    simulation; completing without SafetyViolation proves originals
    were never touched outside spec."""
    sim = NodeSimulation(_cfg(design="hetero-dmr", memory_utilization=0.1,
                              refs_per_core=1200))
    for ch in sim.channels:
        assert ch.enforce_safety
    r = sim.run()
    assert r.transitions >= 1


def test_error_injection_slows_hetero_dmr():
    clean = simulate_node(_cfg(design="hetero-dmr",
                               memory_utilization=0.2,
                               refs_per_core=1200))
    noisy = simulate_node(_cfg(design="hetero-dmr",
                               memory_utilization=0.2,
                               refs_per_core=1200,
                               read_error_rate=0.01))
    assert noisy.time_ns > clean.time_ns


def _paper_cfg(suite, hierarchy, design, seed=12345):
    return NodeConfig(suite=suite, hierarchy=hierarchy, design=design,
                      seed=seed, memory_utilization=0.2, refs_per_core=40)


#: Consecutive builds exercising every way the warm key can repeat or
#: change: design only, suite, hierarchy, seed, and an exact repeat.
WARM_SEQUENCE = [
    ("linpack", hierarchy1(), "baseline", 12345),
    ("linpack", hierarchy1(), "hetero-dmr+fmr", 12345),
    ("lulesh", hierarchy1(), "baseline", 12345),
    ("linpack", hierarchy2(), "baseline", 12345),
    ("linpack", hierarchy1(), "baseline", 99),
    ("linpack", hierarchy1(), "baseline", 99),
]


def _caches(h):
    return [h.l3] + h.l2s


def test_reused_warm_state_matches_cold_builds(monkeypatch):
    cold = []
    for cell in WARM_SEQUENCE:
        hierarchy_module._last_warm = None
        cold.append(NodeSimulation(_paper_cfg(*cell)).run())
    hierarchy_module._last_warm = None
    for i, cell in enumerate(WARM_SEQUENCE):
        before = hierarchy_module._last_warm
        assert NodeSimulation(_paper_cfg(*cell)).run() == cold[i]
        if i in (1, 5):      # same warm key as the build before
            assert hierarchy_module._last_warm is before

    # A short cell warmed with no live set, warmed with every set live
    # and restored from either runs the same.
    cfg = _paper_cfg(*WARM_SEQUENCE[0])
    hierarchy_module._last_warm = None
    lazy = NodeSimulation(cfg)
    assert all(ways is None
               for c in _caches(lazy.hierarchy) for ways in c._sets)
    results = [lazy.run(), NodeSimulation(cfg).run()]
    warm = CacheHierarchy.warm
    monkeypatch.setattr(
        CacheHierarchy, "warm",
        lambda self, *args, refs_per_core, **kw: warm(self, *args, **kw))
    hierarchy_module._last_warm = None
    live = NodeSimulation(cfg)
    assert all(ways is not None
               for c in _caches(live.hierarchy) for ways in c._sets)
    results += [live.run(), NodeSimulation(cfg).run()]
    assert results == [cold[0]] * 4
    hierarchy_module._last_warm = None


def _cold_warm(monkeypatch, refs_per_core):
    """A cold Hierarchy2 warm for ``refs_per_core`` references per
    core, and the generator it drew from."""
    rngs = []

    class Recorded(random.Random):
        def __init__(self, seed):
            super().__init__(seed)
            rngs.append(self)

    monkeypatch.setattr(hierarchy_module, "random",
                        SimpleNamespace(Random=Recorded))
    hierarchy_module._last_warm = None
    h = CacheHierarchy(hierarchy2())
    h.warm(12345 ^ 0x5EED, 1 << 20, 0.3, refs_per_core=refs_per_core)
    hierarchy_module._last_warm = None
    [rng] = rngs
    return h, rng


def test_short_run_warm_builds_no_set_and_draws_like_a_long_one(
        monkeypatch):
    """120 refs/core reaches fewer than the 1024 L2 and 32768 L3 sets
    of Hierarchy2; 3000 reaches at least as many."""
    short, short_rng = _cold_warm(monkeypatch, 120)
    long_, long_rng = _cold_warm(monkeypatch, 3000)
    assert all(ways is None for c in _caches(short) for ways in c._sets)
    assert all(ways is not None for c in _caches(long_) for ways in c._sets)
    assert short_rng.getstate() == long_rng.getstate()
    for a, b in zip(_caches(short), _caches(long_)):
        assert [list(w.items()) for w in a.sets()] == \
            [list(w.items()) for w in b.sets()]


def test_hetero_llc_starts_clean_without_disturbing_the_snapshot():
    hierarchy_module._last_warm = None
    base = _paper_cfg("linpack", hierarchy1(), "baseline")
    cold_dirty = len(dirty_lines(NodeSimulation(base).hierarchy.l3))
    assert cold_dirty > 0
    hetero = NodeSimulation(_paper_cfg("linpack", hierarchy1(),
                                       "hetero-dmr"))
    assert dirty_lines(hetero.hierarchy.l3) == []
    assert dirty_lines(hetero.hierarchy.l2s[0])
    assert len(dirty_lines(NodeSimulation(base).hierarchy.l3)) == \
        cold_dirty
    # A hetero node warmed cold still leaves the dirty snapshot behind.
    hierarchy_module._last_warm = None
    NodeSimulation(_paper_cfg("linpack", hierarchy1(), "hetero-dmr+fmr"))
    assert len(dirty_lines(NodeSimulation(base).hierarchy.l3)) == \
        cold_dirty


@pytest.mark.parametrize("design", ["baseline", "hetero-dmr+fmr"])
def test_finished_node_is_freed_without_the_cycle_collector(design):
    """No reference cycle keeps a finished node and its caches alive
    until a gen-2 collection."""
    sim = NodeSimulation(_cfg(design=design, memory_utilization=0.2,
                              refs_per_core=200))
    gc.collect()
    gc.disable()
    try:
        sim.run()
        ref = weakref.ref(sim)
        del sim
        assert ref() is None
    finally:
        gc.enable()
