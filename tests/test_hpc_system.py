"""Tests for jobs, traces, cluster, schedulers, and the system sim."""

import pytest

from repro.hpc import (AllocationPolicy, CONVENTIONAL_MODEL, Cluster,
                       EasyBackfillScheduler, Job,
                       MarginAwareAllocationPolicy, PerformanceModel,
                       SystemSimulator, TraceConfig, bucket_fractions,
                       generate_trace, memory_bucket)
from repro.hpc.traces import MEMORY_BUCKET_FRACTIONS
from tests.conftest import policy_select


def test_job_validation():
    with pytest.raises(ValueError):
        Job(0, 0.0, 0, 100.0, 0.1)
    with pytest.raises(ValueError):
        Job(0, 0.0, 1, -1.0, 0.1)
    with pytest.raises(ValueError):
        Job(0, 0.0, 1, 100.0, 2.0)


def test_job_metrics_require_scheduling():
    j = Job(0, 0.0, 1, 100.0, 0.1)
    with pytest.raises(ValueError):
        j.queue_delay_s
    j.start_s = 5.0
    assert j.queue_delay_s == 5.0


def test_memory_bucket():
    assert memory_bucket(0.1) == "under_25"
    assert memory_bucket(0.3) == "25_to_50"
    assert memory_bucket(0.7) == "over_50"


def test_trace_is_deterministic():
    cfg = TraceConfig(job_count=50, seed=7)
    a = generate_trace(cfg)
    b = generate_trace(cfg)
    assert [(j.submit_s, j.nodes_requested) for j in a] == \
        [(j.submit_s, j.nodes_requested) for j in b]


def test_trace_submit_ordered():
    jobs = generate_trace(TraceConfig(job_count=100))
    times = [j.submit_s for j in jobs]
    assert times == sorted(times)


def test_trace_bucket_fractions_match_fig1():
    jobs = generate_trace(TraceConfig(job_count=4000))
    frac = bucket_fractions(jobs)
    for k, target in MEMORY_BUCKET_FRACTIONS.items():
        assert frac[k] == pytest.approx(target, abs=0.04)


def test_trace_widths_fit_cluster():
    cfg = TraceConfig(job_count=500, total_nodes=128)
    for j in generate_trace(cfg):
        assert 1 <= j.nodes_requested <= 128


def test_cluster_group_fractions():
    c = Cluster(1000)
    counts = c.group_counts()
    assert counts[800] == pytest.approx(620, abs=5)
    assert counts[600] == pytest.approx(360, abs=5)
    assert sum(counts.values()) == 1000


def test_cluster_validates_fractions():
    with pytest.raises(ValueError):
        Cluster(10, group_fractions={800: 0.5})


def test_default_policy_takes_first_free():
    c = Cluster(10)
    out = policy_select(AllocationPolicy(), c.nodes, 3)
    assert out == c.nodes[:3]
    assert policy_select(AllocationPolicy(), c.nodes, 11) is None


def test_margin_aware_prefers_uniform_fast_group():
    c = Cluster(100, group_fractions={800: 0.5, 600: 0.5, 0: 0.0})
    out = policy_select(MarginAwareAllocationPolicy(), c.nodes, 10)
    assert all(n.margin_mts == 800 for n in out)


def test_margin_aware_falls_back_to_fastest():
    c = Cluster(20, group_fractions={800: 0.5, 600: 0.5, 0: 0.0})
    out = policy_select(MarginAwareAllocationPolicy(), c.nodes, 15)
    assert len(out) == 15
    assert sum(1 for n in out if n.margin_mts == 800) == 10


def test_performance_model_lookup():
    pm = PerformanceModel()
    assert pm.speedup(800, 0.1) > pm.speedup(600, 0.1) > 1.0
    assert pm.speedup(800, 0.7) == 1.0
    assert pm.speedup(0, 0.1) == 1.0


def test_simulator_all_jobs_finish():
    jobs = generate_trace(TraceConfig(job_count=200, total_nodes=64))
    res = SystemSimulator(Cluster(64)).run(jobs)
    assert len(res.jobs) == 200
    assert all(j.finish_s is not None for j in res.jobs)


def test_simulator_rejects_oversized_job():
    sim = SystemSimulator(Cluster(4))
    with pytest.raises(ValueError):
        sim.run([Job(0, 0.0, 5, 100.0, 0.1)])


def test_no_node_double_booked():
    """Invariant: at any instant a node runs at most one job."""
    jobs = generate_trace(TraceConfig(job_count=150, total_nodes=32))
    res = SystemSimulator(Cluster(32)).run(jobs)
    intervals = []
    for j in res.jobs:
        for n in j.allocated_nodes:
            intervals.append((n.index, j.start_s, j.finish_s))
    by_node = {}
    for idx, s, f in intervals:
        by_node.setdefault(idx, []).append((s, f))
    for spans in by_node.values():
        spans.sort()
        for (s1, f1), (s2, f2) in zip(spans, spans[1:]):
            assert s2 >= f1 - 1e-6


def test_fcfs_head_not_overtaken_without_backfill_rule():
    """A backfilled job must not delay the queue head (EASY)."""
    cluster = Cluster(4, group_fractions={800: 1.0, 600: 0.0, 0: 0.0})
    jobs = [
        Job(0, 0.0, 3, 100.0, 0.1),     # occupies 3 of 4 nodes
        Job(1, 1.0, 4, 50.0, 0.1),      # head of queue, needs all
        Job(2, 2.0, 1, 40.0, 0.1),      # short: backfills the idle node
    ]
    res = SystemSimulator(cluster).run(jobs)
    j1 = next(j for j in res.jobs if j.job_id == 1)
    j2 = next(j for j in res.jobs if j.job_id == 2)
    assert j2.start_s < j1.start_s        # backfilled
    assert j1.start_s == pytest.approx(100.0, abs=1.0)   # not delayed


def test_hetero_dmr_speeds_up_eligible_jobs():
    cluster = Cluster(16, group_fractions={800: 1.0, 600: 0.0, 0: 0.0})
    jobs = [Job(0, 0.0, 2, 1000.0, 0.1), Job(1, 0.0, 2, 1000.0, 0.8)]
    res = SystemSimulator(cluster, performance=PerformanceModel()).run(jobs)
    eligible = next(j for j in res.jobs if j.job_id == 0)
    ineligible = next(j for j in res.jobs if j.job_id == 1)
    assert eligible.runtime_s < 1000.0
    assert ineligible.runtime_s == pytest.approx(1000.0)


def test_job_scaled_by_slowest_node():
    cluster = Cluster(4, group_fractions={800: 0.5, 600: 0.5, 0: 0.0})
    pm = PerformanceModel()
    res = SystemSimulator(cluster, performance=pm).run(
        [Job(0, 0.0, 4, 1000.0, 0.1)])
    job = res.jobs[0]
    assert job.runtime_s == pytest.approx(1000.0 / pm.speedup(600, 0.1))


def test_turnaround_exceeds_execution():
    jobs = generate_trace(TraceConfig(job_count=300, total_nodes=32))
    res = SystemSimulator(Cluster(32)).run(jobs)
    assert res.mean_turnaround_s() >= res.mean_execution_s()
    assert res.mean_queue_delay_s() >= 0.0


def test_faster_system_cuts_queueing():
    """The paper's amplification: node speedup shrinks queues more."""
    jobs = generate_trace(TraceConfig(job_count=800, total_nodes=64))
    conv = SystemSimulator(Cluster(64), performance=CONVENTIONAL_MODEL)
    fast = SystemSimulator(
        Cluster(64),
        EasyBackfillScheduler(MarginAwareAllocationPolicy()),
        PerformanceModel())
    r_conv, r_fast = conv.run(jobs), fast.run(jobs)
    exec_speedup = r_conv.mean_execution_s() / r_fast.mean_execution_s()
    queue_cut = 1 - r_fast.mean_queue_delay_s() / r_conv.mean_queue_delay_s()
    assert exec_speedup > 1.02
    assert queue_cut > (exec_speedup - 1)   # amplification


def test_more_nodes_cut_queueing_like_speedup():
    """Sanity check from Section IV-C: +17% nodes ~ 17% faster nodes."""
    jobs = generate_trace(TraceConfig(job_count=500, total_nodes=64))
    base = SystemSimulator(Cluster(64)).run(jobs)
    bigger = SystemSimulator(Cluster(75)).run(jobs)
    assert bigger.mean_queue_delay_s() < base.mean_queue_delay_s()


def test_cloud_fractions_shift_eligibility():
    """Section III-F: Cloud utilization (50-60%) leaves fewer jobs
    eligible for replication, so Hetero-DMR's system win shrinks but
    does not vanish."""
    from repro.hpc import CLOUD_BUCKET_FRACTIONS
    hpc_jobs = generate_trace(TraceConfig(job_count=600, total_nodes=64))
    cloud_jobs = generate_trace(TraceConfig(
        job_count=600, total_nodes=64,
        memory_fractions=CLOUD_BUCKET_FRACTIONS))
    pm = PerformanceModel()
    def turnaround_gain(jobs):
        conv = SystemSimulator(Cluster(64)).run(jobs)
        fast = SystemSimulator(
            Cluster(64),
            EasyBackfillScheduler(MarginAwareAllocationPolicy()),
            pm).run(jobs)
        return conv.mean_turnaround_s() / fast.mean_turnaround_s()
    hpc_gain = turnaround_gain(hpc_jobs)
    cloud_gain = turnaround_gain(cloud_jobs)
    assert cloud_gain > 0.95
    assert hpc_gain > cloud_gain - 0.05


def test_walltime_limit_property():
    j = Job(0, 0.0, 1, 100.0, 0.1)
    assert j.walltime_limit_s == 100.0
    j2 = Job(0, 0.0, 1, 100.0, 0.1, requested_walltime_s=250.0)
    assert j2.walltime_limit_s == 250.0


def test_walltime_overestimation_damps_backfill():
    """Pessimistic user walltime requests reduce backfill and hence
    the queueing benefit — the oracle default matches the paper."""
    oracle = generate_trace(TraceConfig(job_count=500, total_nodes=48,
                                        walltime_overestimate=0.0))
    pessim = generate_trace(TraceConfig(job_count=500, total_nodes=48,
                                        walltime_overestimate=3.0))
    r_oracle = SystemSimulator(Cluster(48)).run(oracle)
    r_pessim = SystemSimulator(Cluster(48)).run(pessim)
    assert r_pessim.mean_queue_delay_s() >= \
        r_oracle.mean_queue_delay_s() * 0.9


def test_percentile_and_slowdown_metrics():
    jobs = generate_trace(TraceConfig(job_count=200, total_nodes=32))
    res = SystemSimulator(Cluster(32)).run(jobs)
    assert res.percentile_turnaround_s(0.95) >= \
        res.percentile_turnaround_s(0.50)
    assert res.mean_bounded_slowdown() >= 1.0
    with pytest.raises(ValueError):
        res.percentile_turnaround_s(1.5)
