"""Tests for the experiment runner and an end-to-end pipeline check."""

import pytest

from repro.sim.runner import (BUCKET_UTILIZATION, ExperimentRunner,
                              MARGIN_WEIGHTS, USAGE_WEIGHTS)
from repro.hpc import (Cluster, EasyBackfillScheduler,
                       MarginAwareAllocationPolicy, PerformanceModel,
                       SystemSimulator, TraceConfig, generate_trace)
from tests.conftest import tiny_hierarchy


def test_weights_match_paper():
    assert MARGIN_WEIGHTS == {800: 0.62, 600: 0.36}
    assert USAGE_WEIGHTS["0-25"] == pytest.approx(0.62)
    assert sum(USAGE_WEIGHTS.values()) == pytest.approx(1.0)
    assert set(BUCKET_UTILIZATION) == set(USAGE_WEIGHTS)


def test_runner_caches_simulations():
    runner = ExperimentRunner(refs_per_core=400)
    hier = tiny_hierarchy()
    a = runner.run("linpack", hier)
    b = runner.run("linpack", hier)
    assert a is b
    assert len(runner._cache) == 1


def _hdmr_speedup(runner, hier, bucket: str) -> float:
    """Hetero-DMR @ 800 MT/s over the baseline, linpack, at the
    bucket's representative utilization."""
    base = runner.baseline("linpack", hier)
    cell = runner.run("linpack", hier, "hetero-dmr", margin_mts=800,
                      memory_utilization=BUCKET_UTILIZATION[bucket])
    return base.time_ns / cell.time_ns


def test_design_speedup_sane():
    runner = ExperimentRunner(refs_per_core=600)
    sp = _hdmr_speedup(runner, tiny_hierarchy(), "0-25")
    assert 0.5 < sp < 2.0


def test_50_100_bucket_collapses_to_baseline():
    runner = ExperimentRunner(refs_per_core=600)
    sp = _hdmr_speedup(runner, tiny_hierarchy(), "50-100")
    assert sp == pytest.approx(1.0, abs=1e-9)


def test_end_to_end_node_to_system_pipeline():
    """Measured node speedups feed the system simulator, as in the
    paper's Section IV-C methodology."""
    runner = ExperimentRunner(refs_per_core=500)
    hier = tiny_hierarchy()
    sp800 = max(1.0, _hdmr_speedup(runner, hier, "0-25"))
    pm = PerformanceModel(speedups={
        800: {"under_25": sp800, "25_to_50": sp800, "over_50": 1.0},
        600: {"under_25": 1.0 + (sp800 - 1.0) * 0.7,
              "25_to_50": 1.0 + (sp800 - 1.0) * 0.7, "over_50": 1.0},
        0: {"under_25": 1.0, "25_to_50": 1.0, "over_50": 1.0}})
    jobs = generate_trace(TraceConfig(job_count=250, total_nodes=48))
    conv = SystemSimulator(Cluster(48)).run(jobs)
    fast = SystemSimulator(Cluster(48),
                           EasyBackfillScheduler(
                               MarginAwareAllocationPolicy()),
                           pm).run(jobs)
    assert fast.mean_turnaround_s() <= conv.mean_turnaround_s()


# -- effective-cell dedup ----------------------------------------------------

def _result_fields(r):
    """All outcome fields (config excluded) for equality comparison."""
    return (r.time_ns, r.instructions, r.dram_reads, r.dram_writes,
            r.dram_write_bursts, r.cleaning_writes, r.cleaned_rewrites,
            r.write_mode_entries, r.mean_read_latency_ns,
            r.bus_utilization, r.row_hit_rate, r.llc_miss_rate,
            r.activates, r.refreshes, r.transitions,
            r.self_refresh_rank_ns, r.effective_design,
            r.failed_transitions, r.read_retries)


def test_margin_knobs_inert_for_spec_only_designs():
    # The dedup cache assumes margin/fault knobs cannot change the
    # outcome of designs that never leave spec timing; verify on real
    # simulations, field by field.
    from repro.sim.node import NodeConfig, simulate_node
    hier = tiny_hierarchy()
    for design in ("baseline", "fmr"):
        a = simulate_node(NodeConfig(
            suite="hpcg", hierarchy=hier, design=design,
            margin_mts=800, use_latency_margin=True,
            read_error_rate=0.0, transition_fault_rate=0.0,
            memory_utilization=0.15, refs_per_core=500))
        b = simulate_node(NodeConfig(
            suite="hpcg", hierarchy=hier, design=design,
            margin_mts=600, use_latency_margin=False,
            read_error_rate=1e-4, transition_fault_rate=0.5,
            memory_utilization=0.15, refs_per_core=500))
        assert _result_fields(a) == _result_fields(b)


def test_utilization_only_selects_effective_design():
    from repro.sim.node import NodeConfig, effective_design, simulate_node
    hier = tiny_hierarchy()
    # Two utils inside the same bucket of the effective-design mapping.
    assert (effective_design("hetero-dmr", 0.10) ==
            effective_design("hetero-dmr", 0.20) == "hetero-dmr")
    a = simulate_node(NodeConfig(suite="linpack", hierarchy=hier,
                                 design="hetero-dmr",
                                 memory_utilization=0.10,
                                 refs_per_core=500))
    b = simulate_node(NodeConfig(suite="linpack", hierarchy=hier,
                                 design="hetero-dmr",
                                 memory_utilization=0.20,
                                 refs_per_core=500))
    assert _result_fields(a) == _result_fields(b)


def test_runner_dedups_regressed_cells():
    runner = ExperimentRunner(refs_per_core=400)
    hier = tiny_hierarchy()
    base = runner.baseline("linpack", hier)
    # High utilization regresses fmr to baseline: same cache entry.
    regressed = runner.run("linpack", hier, "fmr", margin_mts=600,
                           memory_utilization=0.90)
    assert regressed is base
    assert len(runner._cache) == 1
    # Margin-inert spec-only cells collapse too.
    runner.run("linpack", hier, "fmr", margin_mts=800,
               memory_utilization=0.15)
    runner.run("linpack", hier, "fmr", margin_mts=600,
               memory_utilization=0.15)
    assert len(runner._cache) == 2
    # Hetero cells keep their margin in the key.
    runner.run("linpack", hier, "hetero-dmr", margin_mts=800,
               memory_utilization=0.15)
    runner.run("linpack", hier, "hetero-dmr", margin_mts=600,
               memory_utilization=0.15)
    assert len(runner._cache) == 4
