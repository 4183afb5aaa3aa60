"""Tests for the live placement service: sharded registry, placement
daemon (admission control, backpressure, deadlines, lifecycle), and
the integrations ISSUE'd with it (ingest routing, recovery via the
owning shard, placement over a sharded fleet)."""

import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.margin_selection import bucket_node_margin
from repro.fleet import (FleetIngest, MarginRegistry, PlacementService,
                        RegistryError)
from repro.hpc import Cluster, MarginAwareAllocationPolicy
from repro.obs import MemoryTraceSink, Recorder, recording
from repro.recovery import CheckpointStore, RecoveryManager
from repro.resilience import build_ladder
from repro.service import (DaemonConfig, HAConfig, HAControlPlane,
                           PlacementDaemon, RegistryWrite, ShardedRegistry,
                           seed_fleet, shard_for_node)
from repro.service.soak import random_registry_write
from tests.conftest import metric, policy_select

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
    # Every named recorder (all seven kinds) folds the same way on both.
    plain.record_demotion(0, 200)
    for registry in (sharded, plain):
        registry.record_profile(1, 600, time_s=1.0,
                                channel_margins=(600, 800), attempts=2)
        registry.record_promotion(2, 800, time_s=2.0, reason="probe")
        registry.record_retirement(3, time_s=3.0, reason="dead")
        registry.record_advisory(4, time_s=4.0, reason="hot")
        registry.record_drift(5, time_s=5.0, ambient_c=30.0,
                              dimm_c=55.0, reason="band")
        registry.record_adapt(6, 400, time_s=6.0, direction="down",
                              reason="guard")

    def state(registry):
        # A record's last_seq is its shard's seq on the sharded side.
        return [dict(r.to_dict(), last_seq=None) for r in registry.nodes()]

    assert state(sharded) == state(plain)
    assert sharded.effective_margins() == plain.effective_margins()
    assert sharded.bucket_counts() == plain.bucket_counts()


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
    service = PlacementService(registry)
    (first,) = service.place([2])
    assert first.margin_bucket == 800
    # A write through the facade changes the next placement.
    registry.record_demotion(first.nodes[0], 0)
    (second,) = service.place([2])
    assert first.nodes[0] not in second.nodes


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


def _daemon(registry=None, config=None):
    """A daemon over ``registry`` (the default fleet when None) and the
    list its decisions go to, in emission order."""
    decisions = []
    daemon = PlacementDaemon(registry if registry is not None
                             else _sharded(), config,
                             decision_sink=decisions.append)
    return daemon, decisions


#: One request of a random stream: a placement width, a release of a
#: job id, a write (the generators' mix, over twice the fleet's node
#: ids), or a clock step.
_REQUESTS = st.one_of(
    st.tuples(st.just("place"), st.integers(1, 6)),
    st.tuples(st.just("release"), st.integers(0, 30)),
    st.tuples(st.just("write"), st.integers(0, 2 ** 32)),
    st.tuples(st.just("tick"), st.floats(0.0, 5.0)))


@settings(max_examples=30, deadline=None)
@given(requests=st.lists(_REQUESTS, max_size=40),
       daemons=st.sampled_from([1, 2]))
def test_no_decision_names_a_node_outside_the_seeded_fleet(requests,
                                                           daemons):
    """A write that names a node the fleet was not seeded with is
    refused before it is queued, whatever its kind, so no decision of
    either service ever places such a node."""
    nodes = 12
    decisions = []
    if daemons == 1:
        registry = ShardedRegistry(shards=4)
        seed_fleet(registry, nodes, seed=3)
        target = PlacementDaemon(registry,
                                 decision_sink=decisions.append)
    else:
        target = HAControlPlane(HAConfig(nodes=nodes, shards=4, seed=3),
                                decision_sink=decisions.append)
    now = job = 0
    for op, arg in requests:
        if op == "place":
            job += 1
            target.submit_place(job, arg)
        elif op == "release":
            target.submit_release(arg)
        elif op == "write":
            write = random_registry_write(random.Random(arg), 2 * nodes,
                                          "property")
            if write.node < nodes:
                target.submit_write(write)
            else:
                with pytest.raises(ValueError, match="not in the fleet"):
                    target.submit_write(write)
        else:
            now += arg
            target.drain()
            target.tick(now)
    if daemons > 1:
        target.settle()
    target.stop()
    assert all(0 <= n < nodes for d in decisions for n in d.nodes)


def test_daemon_matches_batch_policy_exactly():
    """The daemon's incremental bucket pool must order nodes exactly
    like MarginAwareAllocationPolicy over the same fleet."""
    registry = _sharded()
    widths = [3, 5, 2, 4, 1, 6, 2]

    daemon, decisions = _daemon()
    for i, w in enumerate(widths):
        daemon.submit_place(i, w)
    daemon.stop()
    policy = MarginAwareAllocationPolicy()
    free = list(Cluster.from_registry(registry).nodes)
    for width, decision in zip(widths, decisions):
        chosen = policy_select(policy, free, width)
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

    daemon, decisions = _daemon(_sharded(MRDIMM_MARGINS))
    for i, w in enumerate(widths):
        daemon.submit_place(i, w)
    daemon.stop()
    buckets = (2200, 1600, 0)
    policy = MarginAwareAllocationPolicy(buckets=buckets)
    free = list(Cluster.from_registry(_sharded(MRDIMM_MARGINS)).nodes)
    for width, decision in zip(widths, decisions):
        chosen = policy_select(policy, free, width)
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

    daemon, decisions = _daemon(_sharded(margins))
    daemon.submit_place(1, 5)
    daemon.stop()
    [decision] = decisions
    assert decision.status == "placed"
    assert decision.nodes == (0, 1, 2, 4, 6)
    assert decision.margin_bucket == 0


def test_write_then_place_sees_the_write_in_fifo_order():
    daemon, decisions = _daemon()
    daemon.submit_write(RegistryWrite("retire", 0, {"reason": "test"}))
    daemon.submit_place(1, 4)
    daemon.stop()
    [decision] = decisions
    assert 0 not in decision.nodes


def test_release_returns_nodes_to_the_pool():
    daemon, decisions = _daemon()
    daemon.submit_place(1, 4)
    daemon.submit_release(1)
    daemon.submit_place(2, 4)
    daemon.submit_release(99)
    daemon.stop()
    placed, released, again, missing = decisions
    assert released.status == "released"
    assert set(released.nodes) == set(placed.nodes)
    assert again.nodes == placed.nodes
    assert missing.status == "unknown-job"


def test_duplicate_job_id_is_rejected_without_allocation():
    daemon, decisions = _daemon()
    daemon.submit_place(1, 2)
    daemon.submit_place(1, 2)
    daemon.stop()
    first, second = decisions
    assert first.status == "placed"
    assert second.status == "duplicate"
    assert daemon.stats.placed == 1


def test_deadline_expires_on_virtual_clock():
    daemon, decisions = _daemon()
    daemon.tick(10.0)
    daemon.submit_place(1, 2, deadline_s=5.0)
    daemon.submit_place(2, 2, deadline_s=20.0)
    # The virtual clock is monotonic: a backwards tick is clamped, so
    # the stale deadline stays expired.
    daemon.tick(3.0)
    daemon.submit_place(3, 2, deadline_s=5.0)
    daemon.stop()
    stale, fresh, still = decisions
    assert stale.status == "expired"
    assert fresh.status == "placed"
    assert still.status == "expired"
    assert daemon.now_s == 10.0


# -- daemon: admission control and backpressure --------------------------------


def test_storm_past_watermark_is_shed_with_explicit_status():
    config = DaemonConfig(queue_limit=4, event_queue_limit=64)

    daemon, decisions = _daemon(config=config)
    for i in range(10):
        daemon.submit_place(i, 1)
    # Shed decisions are answered at once, before any queued message.
    assert [d.status for d in decisions] == ["shed"] * 6
    daemon.stop()
    shed = [d for d in decisions if d.status == "shed"]
    assert len(shed) == 6          # watermark 4, submitted 10
    # Shed decisions still get log seqs.
    assert sorted(d.seq for d in decisions) == list(range(1, 11))


def test_registry_writes_block_instead_of_shedding():
    config = DaemonConfig(queue_limit=4, event_queue_limit=8)

    daemon, _ = _daemon(config=config)
    for i in range(40):
        daemon.submit_write(RegistryWrite(
            "demote", i % len(MARGINS),
            {"margin_mts": 400, "reason": "flood"}))
    daemon.stop()
    assert daemon.stats.writes == 40          # nothing shed
    assert daemon.stats.queue_peak == 8       # the hard bound held
    assert daemon.stats.backpressure_waits >= 1


def test_view_cache_hits_and_external_write_invalidation():
    registry = _sharded()
    config = DaemonConfig(queue_limit=8, event_queue_limit=64)

    daemon, decisions = _daemon(registry, config)
    daemon.submit_place(1, 1)
    daemon.drain()
    misses_cold = daemon.stats.cache_misses
    daemon.submit_place(2, 1)
    daemon.drain()
    hits_warm = daemon.stats.cache_hits
    # An out-of-band write (not through the daemon) must be picked up
    # via the seq check before the next placement.
    registry.record_retirement(9)
    daemon.submit_place(3, 10)
    daemon.stop()
    assert misses_cold == registry.shard_count    # cold rebuild
    assert hits_warm == registry.shard_count      # all fresh
    assert daemon.stats.cache_misses == registry.shard_count + 1
    assert 9 not in decisions[-1].nodes


# -- daemon: lifecycle ---------------------------------------------------------


def test_stop_drains_every_pending_future():
    config = DaemonConfig(queue_limit=64, event_queue_limit=256)

    daemon, decisions = _daemon(config=config)
    for i in range(20):
        daemon.submit_place(i, 1)
    assert decisions == []         # queued, not yet answered
    daemon.stop()                  # no drain before the stop
    assert [d.job_id for d in decisions] == list(range(20))
    assert all(d.status in ("placed", "unsatisfiable")
               for d in decisions)


def test_submissions_after_stop_are_rejected():
    daemon, decisions = _daemon()
    daemon.stop()
    daemon.submit_place(1, 1)
    with pytest.raises(RuntimeError):
        daemon.submit_write(RegistryWrite("demote", 0, {"margin_mts": 0}))
    assert [d.status for d in decisions] == ["closed"]


def _catalog_service_rows():
    """The DESIGN.md §12 catalog's daemon rows: ``{(kind, metric)}``
    from the metric table, ``{span: {fields}}`` from the span table."""
    metrics, spans = set(), {}
    design = Path(__file__).resolve().parents[1] / "DESIGN.md"
    for line in design.read_text().splitlines():
        if not line.startswith("| `service` |"):
            continue
        cells = line.strip().strip("|").split(" | ")
        names = re.findall(r"`([a-z_]+)", cells[1])
        if len(cells) == 4:
            if "PlacementDaemon" in cells[3]:
                metrics |= {(cells[2].split()[0], n) for n in names}
        else:
            spans[names[0]] = set(re.findall(r"`([a-z_]+)`", cells[2]))
    return metrics, spans


def test_daemon_emits_exactly_its_catalog_rows():
    """Queue depth is sampled at each drain, the peak and the cache
    totals at stop, and the lifecycle spans at construction and stop;
    the DESIGN.md §12 rows name exactly these."""
    trace = MemoryTraceSink()
    with recording(Recorder(trace=trace)) as rec:
        daemon, _ = _daemon(
            config=DaemonConfig(queue_limit=4, event_queue_limit=8))
        for i in range(3):
            daemon.submit_place(i, 1)
        daemon.drain()
        assert metric(rec, "gauges", "service", "queue_depth") == 3
        for i in range(10):        # the ninth write drains 8 messages
            daemon.submit_write(RegistryWrite(
                "demote", i, {"margin_mts": 400, "reason": "obs"}))
        assert metric(rec, "gauges", "service", "queue_depth") == 8
        daemon.stop()
    assert metric(rec, "gauges", "service", "queue_depth") == 2
    assert metric(rec, "gauges", "service", "queue_peak") == 8
    assert metric(rec, "counters", "service", "cache_checks",
                  result="miss") == 4
    assert metric(rec, "counters", "service", "cache_checks",
                  result="hit") == 8
    assert rec.histogram_stats("service", "place_latency_s")["count"] == 3
    snapshot = rec.snapshot()
    emitted = {(kind, row["name"])
               for kind in ("counter", "gauge", "histogram")
               for row in snapshot[kind + "s"]
               if row["subsystem"] == "service"}
    spans = {e["event"]: set(e["fields"]) for e in trace.events
             if e["subsystem"] == "service"}
    assert [e["event"] for e in trace.events] == ["daemon_start",
                                                  "daemon_stop"]
    assert trace.events[1]["fields"] == {"decisions": 3, "placed": 3,
                                         "shed": 0}
    assert (emitted, spans) == _catalog_service_rows()


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

    daemon = PlacementDaemon(registry)
    for i in range(48):
        daemon.submit_write(RegistryWrite(
            "demote", i % len(MARGINS),
            {"margin_mts": 200, "reason": "drill"}))
    # The daemon dies mid-compaction (snapshot written, log not
    # truncated); no clean stop happens.
    with pytest.raises(Sigterm):
        daemon.drain()
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
        ShardedRegistry(shards=0)
    with pytest.raises(ValueError):
        ShardedRegistry(compact_every=-1)


def test_place_request_needs_positive_width():
    daemon, _ = _daemon()
    with pytest.raises(ValueError):
        daemon.submit_place(1, 0)
    with pytest.raises(ValueError):
        daemon.submit_write(RegistryWrite("reboot", 0))
    daemon.stop()
