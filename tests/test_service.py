"""Tests for the live placement service: sharded registry, placement
daemon (admission control, backpressure, deadlines, lifecycle), and
the integrations ISSUE'd with it (ingest routing, recovery via the
owning shard, placement over a sharded fleet)."""

import asyncio

import pytest

from repro.core.margin_selection import bucket_node_margin
from repro.fleet import (FleetIngest, MarginRegistry, PlacementService,
                        RegistryError)
from repro.hpc import Cluster, MarginAwareAllocationPolicy
from repro.recovery import CheckpointStore, RecoveryManager
from repro.resilience import build_ladder
from repro.service import (DaemonConfig, PlaceRequest, PlacementDaemon,
                           RegistryWrite, ReleaseRequest,
                           ShardedRegistry, shard_for_node)

#: An unclosed file (a leaked WAL append handle) fails the test.
pytestmark = [
    pytest.mark.filterwarnings("error::ResourceWarning"),
    pytest.mark.filterwarnings(
        "error::pytest.PytestUnraisableExceptionWarning"),
    pytest.mark.usefixtures("collect_cycles")]

#: Margins with sub-bucket spread (400/200 both bucket to 0) so the
#: fastest-first fallback ordering is actually exercised.
MARGINS = [800, 800, 600, 600, 400, 200, 800, 600, 0, 800,
           600, 400, 800, 200, 600, 800]


def _sharded(margins=MARGINS, path=None, shards=4, **kwargs):
    """A seeded registry with its append handles closed (the next
    record reopens one)."""
    registry = ShardedRegistry(path, shards=shards, **kwargs)
    for i, margin in enumerate(margins):
        registry.record_profile(i, margin)
    registry.close()
    return registry


def _plain(margins=MARGINS):
    registry = MarginRegistry()
    for i, margin in enumerate(margins):
        registry.record_profile(i, margin)
    return registry


# -- shard hashing and routing -------------------------------------------------


def test_shard_hash_is_deterministic_and_versionless():
    # FNV-1a is fixed arithmetic: this vector must never change, or
    # every existing sharded registry directory mis-routes on reload.
    assert [shard_for_node(n, 16) for n in range(8)] == \
        [5, 4, 7, 6, 1, 0, 3, 2]
    assert shard_for_node(1489, 16) == 3
    assert shard_for_node(1489, 7) == 1


def test_shard_hash_rejects_bad_input():
    with pytest.raises(ValueError):
        shard_for_node(-1, 16)
    with pytest.raises(ValueError):
        shard_for_node(0, 0)


@pytest.mark.parametrize("count", [1, 7, 16])
def test_routing_table_matches_the_hash(count):
    registry = ShardedRegistry(shards=count)
    for _ in range(2):                 # first fills the table, then hits
        assert all(registry.shard_id(n) == shard_for_node(n, count)
                   for n in range(20_001))
    for _ in range(2):                 # a bad id is never memoised
        with pytest.raises(ValueError):
            registry.shard_id(-1)


def test_shard_hash_spreads_a_fleet():
    counts = [0] * 16
    for node in range(1490):
        counts[shard_for_node(node, 16)] += 1
    assert min(counts) > 0
    assert max(counts) < 2 * (1490 // 16)


def test_record_routes_to_owning_shard():
    registry = _sharded()
    for i in range(len(MARGINS)):
        sid = registry.shard_id(i)
        assert registry.shard(sid).has_node(i)
        assert registry.shard_for(i) is registry.shard(sid)
        for other in range(registry.shard_count):
            if other != sid:
                assert not registry.shard(other).has_node(i)


def test_facade_queries_match_plain_registry():
    sharded, plain = _sharded(), _plain()
    assert sharded.effective_margins() == plain.effective_margins()
    assert sharded.bucket_counts() == plain.bucket_counts()
    assert len(sharded) == len(plain)
    assert [r.node for r in sharded.nodes()] == \
        [r.node for r in plain.nodes()]
    assert sharded.node(4).effective_margin_mts == 400
    # last_seq is a version counter: every write changes it.
    before = sharded.last_seq
    sharded.record_demotion(0, 200)
    assert sharded.last_seq == before + 1


def test_events_since_requires_node():
    registry = _sharded()
    with pytest.raises(ValueError):
        registry.events_since(0)
    events, complete = registry.events_since(0, node=5)
    assert complete
    assert [e.node for e in events] == [5]


# -- persistence: manifest, reload, compaction ---------------------------------


def test_reload_adopts_manifest_shard_count(tmp_path):
    _sharded(path=tmp_path / "fleet", shards=4)
    reloaded = ShardedRegistry(tmp_path / "fleet")
    assert reloaded.shard_count == 4
    assert reloaded.effective_margins() == _plain().effective_margins()


def test_torn_manifest_falls_back_to_bak_and_heals(tmp_path):
    registry = _sharded(path=tmp_path / "fleet", shards=4)
    registry.manifest_path.write_text('{"format": 1, "sha')   # torn
    reloaded = ShardedRegistry(tmp_path / "fleet")
    assert reloaded.shard_count == 4
    assert reloaded.manifest_fallbacks == 1
    # The fallback heals the primary: the next reload is clean.
    healed = ShardedRegistry(tmp_path / "fleet")
    assert healed.shard_count == 4
    assert healed.manifest_fallbacks == 0


def test_both_manifests_torn_raises(tmp_path):
    _sharded(path=tmp_path / "fleet", shards=4)
    (tmp_path / "fleet" / "shards.json").write_text("{")
    (tmp_path / "fleet" / "shards.json.bak").write_text("")
    with pytest.raises(RegistryError):
        ShardedRegistry(tmp_path / "fleet")


def test_conflicting_shard_count_raises(tmp_path):
    _sharded(path=tmp_path / "fleet", shards=4)
    with pytest.raises(RegistryError):
        ShardedRegistry(tmp_path / "fleet", shards=8)


def test_create_false_requires_existing_directory(tmp_path):
    with pytest.raises(RegistryError):
        ShardedRegistry(tmp_path / "missing", create=False)
    _sharded(path=tmp_path / "fleet")
    reloaded = ShardedRegistry(tmp_path / "fleet", create=False)
    assert len(reloaded) == len(MARGINS)


def test_fingerprint_stable_across_reload(tmp_path):
    registry = _sharded(path=tmp_path / "fleet")
    registry.record_demotion(3, 200)
    fingerprint = registry.fingerprint()
    assert ShardedRegistry(tmp_path / "fleet").fingerprint() == \
        fingerprint
    registry.record_promotion(3, 600)
    registry.close()
    assert registry.fingerprint() != fingerprint


def test_auto_compaction_truncates_shard_logs(tmp_path):
    registry = _sharded(path=tmp_path / "fleet", shards=2,
                        compact_every=4)
    for _ in range(3):
        for i in range(len(MARGINS)):
            registry.record_demotion(i, 400)
    registry.close()
    assert registry.compactions > 0
    # Logs stay bounded and a reload agrees with the live registry.
    for sid in range(registry.shard_count):
        lines = [l for l in registry.shard(sid).events_path
                 .read_text().splitlines() if l.strip()]
        assert len(lines) < 4
    reloaded = ShardedRegistry(tmp_path / "fleet")
    assert reloaded.fingerprint() == registry.fingerprint()


def test_kill_between_snapshot_and_truncate_is_restorable(tmp_path):
    """The PR-3 kill-point drill, at compaction's widest crash window:
    snapshot written, log not yet truncated."""
    registry = _sharded(path=tmp_path / "fleet")
    registry.record_demotion(5, 0)
    registry.close()

    class Killed(RuntimeError):
        pass

    def kill(sid):
        raise Killed(sid)

    registry.kill_hook = kill
    expected = registry.fingerprint()
    for sid in range(registry.shard_count):
        with pytest.raises(Killed):
            registry.compact_shard(sid)
        # The crashed shard's log still holds already-folded events.
        assert registry.shard(sid).events_path.read_text() != ""
    survivor = ShardedRegistry(tmp_path / "fleet")
    assert survivor.fingerprint() == expected
    # And the survivor can keep appending + compacting cleanly
    # (promotion past the profiled margin just clears the cap).
    survivor.record_promotion(5, 400)
    for sid in range(survivor.shard_count):
        survivor.compact_shard(sid)
    reloaded = ShardedRegistry(tmp_path / "fleet").node(5)
    assert reloaded.demoted_margin_mts is None
    assert reloaded.effective_margin_mts == 200


def test_append_after_compact_shard_lands_in_live_file(tmp_path):
    registry = _sharded(path=tmp_path / "fleet")
    for sid in range(registry.shard_count):
        registry.compact_shard(sid)
    for node in range(len(MARGINS)):
        shard = registry.shard_for(node)
        event = registry.record_demotion(node, 0)
        assert shard.events_path.read_text().endswith(
            event.to_json() + "\n")
    registry.close()
    reloaded = ShardedRegistry(tmp_path / "fleet")
    assert [reloaded.shard(sid).last_seq
            for sid in range(reloaded.shard_count)] == \
        [registry.shard(sid).last_seq
         for sid in range(registry.shard_count)]
    assert reloaded.fingerprint() == registry.fingerprint()


def test_appends_after_a_killed_compaction_reload_identically(tmp_path):
    """A crash between the snapshot and the truncate leaves the append
    handle on the still-live log; writes that follow it land there, and
    a fresh load reaches the live registry's fingerprint."""
    registry = _sharded(path=tmp_path / "fleet")
    registry.record_demotion(5, 0)

    class Killed(RuntimeError):
        pass

    def kill(sid):
        raise Killed(sid)

    registry.kill_hook = kill
    sid = registry.shard_id(5)
    with pytest.raises(Killed):
        registry.compact_shard(sid)
    registry.kill_hook = None
    registry.record_promotion(5, 400)
    registry.record_demotion(5, 200)
    registry.close()
    assert ShardedRegistry(tmp_path / "fleet").fingerprint() == \
        registry.fingerprint()


# -- integrations --------------------------------------------------------------


def test_ingest_routes_rung_moves_to_owning_shard():
    registry = _sharded()
    ingest = FleetIngest(registry)
    hook = ingest.rung_hook(2)
    ingest.now_s = 5.0
    hook(build_ladder(600)[-1])       # demote node 2 to spec
    assert registry.node(2).effective_margin_mts == 0
    shard = registry.shard_for(2)
    events, complete = shard.events_since(0, node=2)
    assert complete
    assert events[-1].kind == "demote"


def test_cluster_and_placement_service_over_sharded_fleet():
    registry = _sharded()
    cluster = Cluster.from_registry(registry)
    assert [n.effective_margin_mts for n in cluster.nodes] == \
        registry.effective_margins()
    service = PlacementService(registry, cache_ttl_s=1e9)
    (first,) = service.place([2], now_s=0.0)
    assert first.margin_bucket == 800
    # A write through the facade bumps the version counter and
    # invalidates the cached view immediately.
    registry.record_demotion(first.nodes[0], 0)
    service.place([2], now_s=1.0)
    assert service.cache_misses == 2


def test_recovery_manager_uses_owning_shard(tmp_path):
    registry = _sharded(path=tmp_path / "fleet")
    node = 5
    shard = registry.shard_for(node)
    store = CheckpointStore(tmp_path / "ckpt")
    manager = RecoveryManager(store, shard, node=node)
    manager.checkpoint_state(
        {"node_record": registry.node(node).to_dict()}, now_ns=0.0)
    registry.record_demotion(node, 0, time_s=1.0)
    registry.close()
    recovered = RecoveryManager(CheckpointStore(tmp_path / "ckpt"),
                                shard, node=node).recover()
    assert recovered.checkpoint is not None
    assert recovered.checkpoint.seq < shard.last_seq
    assert recovered.replayed_events >= 1


# -- daemon: decisions ---------------------------------------------------------


def _run(coro):
    return asyncio.run(coro)


def test_daemon_matches_batch_policy_exactly():
    """The daemon's incremental bucket pool must order nodes exactly
    like MarginAwareAllocationPolicy over the same fleet."""
    registry = _sharded()
    widths = [3, 5, 2, 4, 1, 6, 2]

    async def daemon_pass():
        async with PlacementDaemon(_sharded()) as daemon:
            futures = [daemon.submit(PlaceRequest(i, w))
                       for i, w in enumerate(widths)]
            return [d for d in await asyncio.gather(*futures)]

    decisions = _run(daemon_pass())
    policy = MarginAwareAllocationPolicy()
    free = list(Cluster.from_registry(registry).nodes)
    for width, decision in zip(widths, decisions):
        chosen = policy.select(free, width)
        if chosen is None:
            assert decision.status == "unsatisfiable"
            continue
        free = [n for n in free if n not in chosen]
        assert decision.status == "placed"
        assert decision.nodes == tuple(n.index for n in chosen)


#: An MRDIMM fleet: the 2200/1600 MT/s rungs plus off-rung margins.
#: Under DDR4's buckets every node from 1000 up would share class 800.
MRDIMM_MARGINS = [2400, 1600, 2200, 1800, 0, 2200, 1000, 2600, 1600,
                  2200, 400, 1700]


def test_daemon_buckets_an_mrdimm_fleet_like_backend_compare(
        monkeypatch):
    """With REPRO_BACKEND=mrdimm the daemon groups nodes into the
    backend's classes and decides exactly like the policy `repro
    backend compare` places an MRDIMM fleet with."""
    monkeypatch.setenv("REPRO_BACKEND", "mrdimm")
    widths = [3, 2, 4, 1, 2]

    async def daemon_pass():
        async with PlacementDaemon(_sharded(MRDIMM_MARGINS)) as daemon:
            futures = [daemon.submit(PlaceRequest(i, w))
                       for i, w in enumerate(widths)]
            return await asyncio.gather(*futures)

    decisions = _run(daemon_pass())
    buckets = (2200, 1600, 0)
    policy = MarginAwareAllocationPolicy(buckets=buckets)
    free = list(Cluster.from_registry(_sharded(MRDIMM_MARGINS)).nodes)
    for width, decision in zip(widths, decisions):
        chosen = policy.select(free, width)
        free = [n for n in free if n not in chosen]
        assert decision.status == "placed"
        assert decision.nodes == tuple(n.index for n in chosen)
        assert decision.margin_bucket == bucket_node_margin(
            min(n.effective_margin_mts for n in chosen), buckets)
    assert decisions[0].nodes == (0, 2, 5)
    assert decisions[0].margin_bucket == 2200


def test_daemon_sub_bucket_fallback_prefers_faster_margins():
    # 3 x 800, then only sub-bucket-0 nodes: a width-5 job must take
    # the 400s before the 200s even though they share bucket 0.
    margins = [800, 800, 800, 200, 400, 200, 400]

    async def main():
        async with PlacementDaemon(_sharded(margins)) as daemon:
            return await daemon.submit(PlaceRequest(1, 5))

    decision = _run(main())
    assert decision.status == "placed"
    assert decision.nodes == (0, 1, 2, 4, 6)
    assert decision.margin_bucket == 0


def test_write_then_place_sees_the_write_in_fifo_order():
    async def main():
        async with PlacementDaemon(_sharded()) as daemon:
            await daemon.submit_write(RegistryWrite(
                "retire", 0, {"reason": "test"}))
            return await daemon.submit(PlaceRequest(1, 4))

    decision = _run(main())
    assert 0 not in decision.nodes


def test_release_returns_nodes_to_the_pool():
    async def main():
        async with PlacementDaemon(_sharded()) as daemon:
            placed = await daemon.submit(PlaceRequest(1, 4))
            released = await (await daemon.submit_release(
                ReleaseRequest(1)))
            again = await daemon.submit(PlaceRequest(2, 4))
            missing = await (await daemon.submit_release(
                ReleaseRequest(99)))
            return placed, released, again, missing

    placed, released, again, missing = _run(main())
    assert released.status == "released"
    assert set(released.nodes) == set(placed.nodes)
    assert again.nodes == placed.nodes
    assert missing.status == "unknown-job"


def test_duplicate_job_id_is_rejected_without_allocation():
    async def main():
        async with PlacementDaemon(_sharded()) as daemon:
            first = await daemon.submit(PlaceRequest(1, 2))
            second = await daemon.submit(PlaceRequest(1, 2))
            return first, second, daemon.stats.placed

    first, second, placed = _run(main())
    assert first.status == "placed"
    assert second.status == "duplicate"
    assert placed == 1


def test_deadline_expires_on_virtual_clock():
    async def main():
        async with PlacementDaemon(_sharded()) as daemon:
            await daemon.submit_tick(10.0)
            stale = await daemon.submit(PlaceRequest(
                1, 2, deadline_s=5.0))
            fresh = await daemon.submit(PlaceRequest(
                2, 2, deadline_s=20.0))
            # The virtual clock is monotonic: a backwards tick is
            # clamped, so the stale deadline stays expired.
            await daemon.submit_tick(3.0)
            still = await daemon.submit(PlaceRequest(
                3, 2, deadline_s=5.0))
            return stale, fresh, still, daemon.now_s

    stale, fresh, still, now_s = _run(main())
    assert stale.status == "expired"
    assert fresh.status == "placed"
    assert still.status == "expired"
    assert now_s == 10.0


# -- daemon: admission control and backpressure --------------------------------


def test_storm_past_watermark_is_shed_with_explicit_status():
    config = DaemonConfig(queue_limit=4, event_queue_limit=64)

    async def main():
        async with PlacementDaemon(_sharded(), config) as daemon:
            futures = [daemon.submit(PlaceRequest(i, 1))
                       for i in range(10)]
            return await asyncio.gather(*futures)

    decisions = _run(main())
    shed = [d for d in decisions if d.status == "shed"]
    assert len(shed) == 6          # watermark 4, submitted 10
    # Shed decisions resolve immediately and still get log seqs.
    assert sorted(d.seq for d in decisions) == list(range(1, 11))


def test_registry_writes_block_instead_of_shedding():
    config = DaemonConfig(queue_limit=4, event_queue_limit=8)

    async def main():
        async with PlacementDaemon(_sharded(), config) as daemon:
            for i in range(40):
                await daemon.submit_write(RegistryWrite(
                    "demote", i % len(MARGINS),
                    {"margin_mts": 400, "reason": "flood"}))
            return daemon

    daemon = _run(main())
    assert daemon.stats.writes == 40          # nothing shed
    assert daemon.stats.backpressure_waits >= 1


def test_view_cache_hits_and_external_write_invalidation():
    registry = _sharded()
    config = DaemonConfig(queue_limit=8, event_queue_limit=64,
                          cache_ttl_s=1e9)

    async def main():
        async with PlacementDaemon(registry, config) as daemon:
            await daemon.submit(PlaceRequest(1, 1))
            misses_cold = daemon.stats.cache_misses
            await daemon.submit(PlaceRequest(2, 1))
            hits_warm = daemon.stats.cache_hits
            # An out-of-band write (not through the daemon) must be
            # picked up via the seq check before the next placement.
            registry.record_retirement(9)
            decision = await daemon.submit(PlaceRequest(3, 10))
            return misses_cold, hits_warm, daemon.stats, decision

    misses_cold, hits_warm, stats, decision = _run(main())
    assert misses_cold == registry.shard_count    # cold rebuild
    assert hits_warm == registry.shard_count      # all fresh
    assert stats.cache_misses == registry.shard_count + 1
    assert 9 not in decision.nodes


# -- daemon: lifecycle ---------------------------------------------------------


def test_stop_drains_every_pending_future():
    config = DaemonConfig(queue_limit=64, event_queue_limit=256)

    async def main():
        daemon = PlacementDaemon(_sharded(), config)
        await daemon.start()
        futures = [daemon.submit(PlaceRequest(i, 1)) for i in range(20)]
        await daemon.stop()            # no gather before the stop
        return [f.result() for f in futures], daemon

    decisions, daemon = _run(main())
    assert all(d.status in ("placed", "unsatisfiable")
               for d in decisions)
    assert daemon._task is None


def test_submissions_after_stop_are_rejected():
    async def main():
        daemon = PlacementDaemon(_sharded())
        await daemon.start()
        await daemon.stop()
        closed = daemon.submit(PlaceRequest(1, 1)).result()
        with pytest.raises(RuntimeError):
            await daemon.submit_write(RegistryWrite(
                "demote", 0, {"margin_mts": 0}))
        return closed

    assert _run(main()).status == "closed"


def test_sigterm_mid_compaction_leaves_every_shard_restorable(tmp_path):
    """Daemon-lifecycle crash drill: the process dies (simulated via
    the kill hook) while an auto-compaction triggered by daemon write
    traffic is mid-flight; every shard must reload to the same state
    the daemon saw."""
    registry = _sharded(path=tmp_path / "fleet", shards=2,
                        compact_every=6)

    class Sigterm(Exception):
        pass

    def kill(sid):
        registry.kill_hook = None      # die once
        raise Sigterm(sid)

    registry.kill_hook = kill

    async def main():
        daemon = PlacementDaemon(registry)
        await daemon.start()
        for i in range(48):
            await daemon.submit_write(RegistryWrite(
                "demote", i % len(MARGINS),
                {"margin_mts": 200, "reason": "drill"}))
        # The controller dies mid-compaction (snapshot written, log
        # not truncated); no clean stop happens.
        with pytest.raises(Sigterm):
            await daemon._task

    _run(main())
    registry.close()
    survivor = ShardedRegistry(tmp_path / "fleet")
    assert survivor.fingerprint() == registry.fingerprint()
    assert survivor.effective_margins() == registry.effective_margins()


# -- config validation ---------------------------------------------------------


def test_daemon_config_validation():
    with pytest.raises(ValueError):
        DaemonConfig(queue_limit=0).validate()
    with pytest.raises(ValueError):
        DaemonConfig(queue_limit=8, event_queue_limit=8).validate()
    with pytest.raises(ValueError):
        DaemonConfig(batch_max=0).validate()
    with pytest.raises(ValueError):
        DaemonConfig(cache_ttl_s=0.0).validate()
    with pytest.raises(ValueError):
        ShardedRegistry(shards=0)
    with pytest.raises(ValueError):
        ShardedRegistry(compact_every=-1)


def test_place_request_needs_positive_width():
    async def main():
        async with PlacementDaemon(_sharded()) as daemon:
            with pytest.raises(ValueError):
                daemon.submit(PlaceRequest(1, 0))
            with pytest.raises(ValueError):
                await daemon.submit_write(RegistryWrite("reboot", 0))

    _run(main())
