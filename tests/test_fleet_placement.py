"""Tests for the placement service, registry-backed clusters, and the
degradation-ladder ingestion hooks (the PR's acceptance criteria)."""

import pytest

from repro.fleet import (FleetConfig, FleetIngest, FleetProfiler,
                        MarginRegistry, PlacementService)
from repro.hpc import (Cluster, EasyBackfillScheduler, Job,
                       MarginAwareAllocationPolicy, PerformanceModel,
                       SystemSimulator, TraceConfig, generate_trace)
from repro.resilience import build_ladder


def _profiled_registry(nodes=24, **overrides):
    registry = MarginRegistry()
    FleetProfiler(FleetConfig(**dict({"nodes": nodes, "workers": 0},
                                     **overrides)), registry).run()
    return registry


def _mixed_registry():
    """A hand-built fleet with all three margin classes."""
    registry = MarginRegistry()
    for i, margin in enumerate([800, 800, 800, 600, 600, 0, 800, 600]):
        registry.record_profile(i, margin)
    return registry


# -- placement matches the paper's policy -------------------------------------


def test_place_matches_policy_run_directly():
    registry = _profiled_registry()
    service = PlacementService(registry)
    widths = [4, 8, 2, 6, 1, 3]
    assignments = service.place(widths)

    policy = MarginAwareAllocationPolicy()
    free = list(Cluster.from_registry(registry).nodes)
    for width, assignment in zip(widths, assignments):
        chosen = policy.select(free, width)
        if chosen is None:
            assert assignment is None
            continue
        free = [n for n in free if n not in chosen]
        assert assignment.nodes == tuple(n.index for n in chosen)


def test_place_and_counts_use_the_policys_mrdimm_buckets():
    """A policy built with MRDIMM classes places and reports in those
    classes, not DDR4's (where 1000 MT/s and up is all class 800)."""
    registry = MarginRegistry()
    margins = [2400, 1600, 2200, 1800, 0, 2200, 1000, 2600, 1600]
    for i, margin in enumerate(margins):
        registry.record_profile(i, margin)
    buckets = (2200, 1600, 0)
    policy = MarginAwareAllocationPolicy(buckets=buckets)
    service = PlacementService(registry, policy)
    widths = [3, 2, 3, 1]
    assignments = service.place(widths)
    free = list(Cluster.from_registry(registry).nodes)
    for width, assignment in zip(widths, assignments):
        chosen = policy.select(free, width)
        free = [n for n in free if n not in chosen]
        assert assignment.nodes == tuple(n.index for n in chosen)
    assert [a.margin_bucket for a in assignments] == [2200, 1600, 0, 0]
    assert service.bucket_counts() == {2200: 4, 1600: 3, 0: 2}


def test_place_prefers_uniform_fast_group():
    service = PlacementService(_mixed_registry())
    (assignment,) = service.place([3])
    assert assignment.margin_bucket == 800
    assert len(assignment.nodes) == 3


def test_oversized_job_yields_none_without_blocking_later_jobs():
    service = PlacementService(_mixed_registry())
    huge, small = service.place([99, 2])
    assert huge is None
    assert small is not None


def test_place_accepts_jobs_tuples_and_ints():
    service = PlacementService(_mixed_registry())
    job = Job(job_id=7, submit_s=0.0, nodes_requested=2,
              base_runtime_s=10.0, memory_utilization=0.2)
    by_job, by_tuple, by_int = service.place([job, (9, 2), 2])
    assert by_job.job_id == 7
    assert by_tuple.job_id == 9
    assert by_int.job_id == 2        # positional id
    with pytest.raises(ValueError):
        service.place([0])


# -- the TTL'd cache ----------------------------------------------------------


def test_cache_hits_within_ttl_and_seq():
    service = PlacementService(_mixed_registry(), cache_ttl_s=100.0)
    service.place([2], now_s=0.0)
    service.place([2], now_s=50.0)
    assert service.cache_hits == 1
    assert service.cache_misses == 1


def test_cache_expires_after_ttl():
    service = PlacementService(_mixed_registry(), cache_ttl_s=100.0)
    service.place([2], now_s=0.0)
    service.place([2], now_s=100.0)
    assert service.cache_misses == 2


def test_registry_event_invalidates_cache_immediately():
    registry = _mixed_registry()
    service = PlacementService(registry, cache_ttl_s=1e9)
    service.place([2], now_s=0.0)
    registry.record_demotion(0, 0)
    service.place([2], now_s=1.0)
    assert service.cache_misses == 2


def test_cache_ttl_validation():
    with pytest.raises(ValueError):
        PlacementService(_mixed_registry(), cache_ttl_s=0.0)


def test_cache_age_survives_clock_step_backwards():
    """NTP-step regression: the injectable clock jumping backwards
    (or a caller passing a smaller now_s) must not make the cached
    view look younger — the high-water clamp freezes time instead."""
    ticks = iter([100.0, 20.0, 150.0])
    service = PlacementService(_mixed_registry(), cache_ttl_s=100.0,
                               clock=lambda: next(ticks))
    service.place([2])                    # miss at t=100
    service.place([2])                    # clock stepped back to 20
    assert service.cache_hits == 1        # clamped to 100: still fresh
    service.place([2])                    # t=150: age 50 < ttl
    assert service.cache_hits == 2
    assert service.cache_misses == 1


def test_explicit_now_s_backwards_is_clamped():
    service = PlacementService(_mixed_registry(), cache_ttl_s=50.0)
    service.place([2], now_s=100.0)
    service.place([2], now_s=0.0)         # stale caller clock
    assert service.cache_hits == 1
    # Time stays at the high-water mark, so the TTL still expires
    # relative to it rather than to the bogus earlier value.
    service.place([2], now_s=160.0)
    assert service.cache_misses == 2


# -- acceptance: a demotion changes the next placement ------------------------


def test_demotion_event_changes_next_placement():
    registry = _mixed_registry()
    service = PlacementService(registry)
    (before,) = service.place([3])
    assert before.margin_bucket == 800
    # Demote one of the fast nodes the first answer used.
    victim = before.nodes[0]
    registry.record_demotion(victim, 0, reason="epoch trip")
    (after,) = service.place([3])
    assert victim not in after.nodes
    assert after != before


# -- registry-backed clusters -------------------------------------------------


def test_cluster_from_registry_margins_and_demotions():
    registry = _mixed_registry()
    registry.record_demotion(1, 200)
    registry.record_retirement(5)
    cluster = Cluster.from_registry(registry)
    assert len(cluster) == 8
    assert cluster.nodes[0].effective_margin_mts == 800
    assert cluster.nodes[1].effective_margin_mts == 200
    assert cluster.nodes[5].effective_margin_mts == 0
    # Later operational overrides still compose.
    cluster.restore_node(1)
    assert cluster.nodes[1].effective_margin_mts == 800


def test_cluster_from_registry_rejects_empty():
    with pytest.raises(ValueError):
        Cluster.from_registry(MarginRegistry())


def test_cluster_from_margins():
    cluster = Cluster.from_margins([800, 600, 0])
    assert [n.effective_margin_mts for n in cluster.nodes] == \
        [800, 600, 0]
    with pytest.raises(ValueError):
        Cluster.from_margins([])


def test_registry_cluster_drives_system_sim():
    registry = _profiled_registry(nodes=32)
    cluster = Cluster.from_registry(registry)
    jobs = generate_trace(TraceConfig(job_count=80, total_nodes=32))
    result = SystemSimulator(
        cluster, EasyBackfillScheduler(MarginAwareAllocationPolicy()),
        PerformanceModel()).run(jobs)
    assert len(result.jobs) == 80
    assert any(j.runtime_s < j.base_runtime_s - 1e-9
               for j in result.jobs)


# -- ingestion hooks ----------------------------------------------------------


def test_rung_hook_records_demote_and_promote():
    registry = _mixed_registry()
    ingest = FleetIngest(registry)
    hook = ingest.rung_hook(0)
    ladder = build_ladder(800)
    hook(ladder[0])                 # freq+lat@800: no effective change
    assert registry.last_seq == _mixed_registry().last_seq
    ingest.now_s = 5.0
    hook(ladder[2])                 # freq@600
    assert registry.node(0).effective_margin_mts == 600
    ingest.now_s = 9.0
    hook(ladder[1])                 # back up to freq@800
    assert registry.node(0).demoted_margin_mts is None
    assert registry.node(0).last_seq == registry.last_seq


def test_rung_hook_with_retired_controller_records_retirement():
    registry = _mixed_registry()
    ingest = FleetIngest(registry)

    class FakeController:
        retired = True

    hook = ingest.rung_hook(3, controller=FakeController())
    hook(build_ladder(600)[-1])     # spec while retired
    assert registry.node(3).retired
    # A second call does not duplicate the retirement event.
    seq = registry.last_seq
    hook(build_ladder(600)[-1])
    assert registry.last_seq == seq


def test_ingest_folds_into_attached_cluster():
    registry = _mixed_registry()
    cluster = Cluster.from_registry(registry)
    ingest = FleetIngest(registry, cluster=cluster)
    hook = ingest.rung_hook(0)
    hook(build_ladder(800)[-1])     # demote straight to spec
    assert cluster.nodes[0].effective_margin_mts == 0
    hook(build_ladder(800)[1])      # promoted back to freq@800
    assert cluster.nodes[0].effective_margin_mts == 800


def test_apply_to_cluster_syncs_loaded_registry():
    registry = _mixed_registry()
    registry.record_demotion(2, 200)
    registry.record_retirement(4)
    cluster = Cluster(8, seed=3)
    FleetIngest(registry).apply_to_cluster(cluster)
    assert cluster.nodes[2].effective_margin_mts <= 200
    assert cluster.nodes[4].effective_margin_mts == 0
    with pytest.raises(ValueError):
        FleetIngest(registry).apply_to_cluster()
