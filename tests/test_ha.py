"""HA control plane: leases, fencing, arbitration, failover.

Covers the lease protocol (monotonic fencing tokens, clock-skew and
expiry rejection, torn-tail control WAL, checkpoint restore), the
two-phase cross-shard arbiter (token-priority livelock breaking,
per-phase deadlines, shutdown release), the multi-daemon plane's
failover and dual-owner fencing, the shutdown races (SIGTERM between
a lease renewal and a shard compaction; stop() with an outstanding
arbitration reserve), and the failover drill's headline gate: same
seed, byte-identical report, decision stream equal to a never-crashed
single-daemon run.
"""

import pytest

from repro.recovery import Checkpoint, CheckpointStore
from repro.resilience import SurvivabilityReport
from repro.service import (BucketPool, ControlLog, CrossShardArbiter,
                           HAConfig, HAControlPlane, HAFailoverDrill,
                           LeaseError, LeaseTable, RegistryWrite,
                           ShardGroups, ShardedRegistry,
                           verify_control_log)
from repro.service.lease import CONTROL_LOG_FILE

#: An unclosed file (a leaked WAL append handle) fails the test.
pytestmark = [
    pytest.mark.filterwarnings("error::ResourceWarning"),
    pytest.mark.filterwarnings(
        "error::pytest.PytestUnraisableExceptionWarning"),
    pytest.mark.usefixtures("collect_cycles")]


# ---------------------------------------------------------------- leases

def test_acquire_assigns_globally_monotonic_fencing_tokens():
    table = LeaseTable(duration_s=10.0)
    first = table.acquire(0, owner=0, now_s=0.0)
    second = table.acquire(1, owner=1, now_s=0.0)
    assert (first.token, second.token) == (1, 2)
    # A held lease cannot be stolen...
    assert table.acquire(0, owner=1, now_s=5.0) is None
    # ...but an expired one can, and the token keeps climbing.
    taken = table.acquire(0, owner=1, now_s=10.0)
    assert taken.token == 3
    assert table.stats.acquire_rejects == 1


def test_renew_rejects_clock_skewed_reading():
    table = LeaseTable(duration_s=10.0)
    lease = table.acquire(0, owner=0, now_s=0.0)
    assert table.renew(0, 0, lease.token, now_s=4.0)
    # A renewal stamped *before* the last renewal means the clock ran
    # backwards: it must not stretch the lease.
    assert not table.renew(0, 0, lease.token, now_s=3.0)
    assert table.stats.renewals_rejected_skew == 1
    assert table.lease(0).expires_s == 14.0


def test_renew_rejects_stale_token_and_expired_lease():
    table = LeaseTable(duration_s=10.0)
    lease = table.acquire(0, owner=0, now_s=0.0)
    assert not table.renew(0, 0, lease.token + 7, now_s=1.0)
    assert table.stats.renewals_rejected_fenced == 1
    assert not table.renew(0, 0, lease.token, now_s=10.0)
    assert table.stats.renewals_rejected_expired == 1


def test_commit_fenced_for_deposed_owner():
    """The fencing argument end to end: a deposed daemon's in-flight
    commit carries a stale token and is rejected, never logged."""
    table = LeaseTable(duration_s=10.0)
    old = table.acquire(0, owner=0, now_s=0.0)
    new = table.acquire(0, owner=1, now_s=10.0)   # old expired
    payload = {"job": 7, "status": "placed", "nodes": [1], "bucket": 0}
    assert table.commit(0, 0, old.token, 11.0, payload) is None
    assert table.stats.fenced_writes == 1
    event = table.commit(0, 1, new.token, 11.0, payload)
    assert event is not None and event.kind == "commit"
    # An expired (but not deposed) owner is fenced too.
    assert table.commit(0, 1, new.token, 20.0, payload) is None
    assert table.stats.fenced_writes == 2


def test_control_log_opens_lazily_and_appends_after_tear_tail(
        tmp_path):
    path = tmp_path / CONTROL_LOG_FILE
    log = ControlLog(path)
    assert not path.exists()             # no append yet, no handle
    log.append("acquire", 0, 0, 1, 0.0, expires_s=10.0)
    log.append("renew", 0, 0, 1, 5.0, expires_s=15.0)
    assert log.tear_tail().kind == "renew"
    event = log.append("renew", 0, 0, 1, 6.0, expires_s=16.0)
    assert path.read_text().splitlines()[-1] == event.to_json()
    log.close()
    reloaded = ControlLog(path)
    assert reloaded.events == log.events
    assert reloaded.events[-1] == event


def test_control_log_drops_torn_tail_on_load(tmp_path):
    path = tmp_path / CONTROL_LOG_FILE
    log = ControlLog(path)
    log.append("acquire", 0, 0, 1, 0.0, expires_s=10.0)
    log.append("renew", 0, 0, 1, 5.0, expires_s=15.0)
    log.close()
    with open(path, "a") as fh:
        fh.write('{"seq": 3, "kind": "renew", "gro')   # torn append
    reloaded = ControlLog(path)
    assert [e.kind for e in reloaded.events] == ["acquire", "renew"]
    assert reloaded.torn_bytes_dropped > 0
    # The healed file round-trips cleanly.
    again = ControlLog(path)
    assert again.torn_bytes_dropped == 0
    assert again.last_seq == 2


def test_control_log_rejects_mid_file_corruption(tmp_path):
    path = tmp_path / CONTROL_LOG_FILE
    log = ControlLog(path)
    for i in range(3):
        log.append("renew", 0, 0, 1, float(i), expires_s=10.0)
    log.close()
    lines = path.read_text().splitlines()
    lines[1] = '{"broken'
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(LeaseError):
        ControlLog(path)


def test_lease_table_replay_and_checkpoint_restore():
    table = LeaseTable(duration_s=10.0)
    a = table.acquire(0, owner=0, now_s=0.0)
    table.acquire(1, owner=1, now_s=0.0)
    state = table.to_state()                 # checkpoint here
    table.renew(0, 0, a.token, 4.0)          # tail past checkpoint
    b = table.acquire(0, owner=1, now_s=14.0)

    restored = LeaseTable(duration_s=10.0, log=table.log)
    replayed = restored.restore(state)
    assert replayed == 2                     # renew + acquire tail
    assert restored.lease(0).token == b.token
    assert restored.lease(0).owner == 1
    # Token counter survives: the next acquire is strictly newer.
    fresh = restored.acquire(5, owner=0, now_s=20.0)
    assert fresh.token > b.token


def test_verify_control_log_flags_double_commit_and_expired():
    table = LeaseTable(duration_s=10.0)
    lease = table.acquire(0, owner=0, now_s=0.0)
    good = {"job": 1, "status": "placed", "nodes": [0], "bucket": 0}
    table.commit(0, 0, lease.token, 1.0, good)
    assert verify_control_log(table.log.events) == (0, 0)
    # Forge a second placed commit for the same job, and one stamped
    # after expiry: the independent auditor catches both.
    table.log.append("commit", 0, 0, lease.token, 2.0,
                     payload=dict(good))
    table.log.append("commit", 0, 0, lease.token, 99.0,
                     payload={"job": 2, "status": "placed",
                              "nodes": [1], "bucket": 0})
    double, expired = verify_control_log(table.log.events)
    assert (double, expired) == (1, 1)


# ----------------------------------------------------------- arbitration

def _vouch_all(group):
    return True


def test_reserve_conflict_broken_by_fencing_token_priority():
    arb = CrossShardArbiter()
    young = arb.reserve(1, token=5, nodes=(1, 2), groups=(0,),
                        now_s=0.0, group_vouched=_vouch_all)
    assert young is not None
    # A younger token loses against the standing reservation...
    assert arb.reserve(2, token=9, nodes=(2, 3), groups=(0, 1),
                       now_s=0.0, group_vouched=_vouch_all) is None
    # ...an older token preempts it (livelock broken, deterministic).
    old = arb.reserve(0, token=2, nodes=(2, 3), groups=(0, 1),
                      now_s=0.0, group_vouched=_vouch_all)
    assert old is not None
    assert arb.stats.preemptions == 1
    assert young.state == "aborted"
    assert arb.commit(old.arb_id, now_s=1.0)


def test_commit_past_deadline_times_out_and_releases():
    arb = CrossShardArbiter(reserve_timeout_s=2.0)
    res = arb.reserve(0, token=1, nodes=(4, 5), groups=(0,),
                      now_s=0.0, group_vouched=_vouch_all)
    assert not arb.commit(res.arb_id, now_s=2.5)   # past deadline
    assert arb.stats.timeouts == 1
    assert arb.reserved_nodes() == ()
    retry = arb.reserve(0, token=1, nodes=(4, 5), groups=(0,),
                        now_s=3.0, group_vouched=_vouch_all)
    assert arb.commit(retry.arb_id, now_s=3.5)


def test_reserve_requires_every_group_vouched():
    arb = CrossShardArbiter()
    assert arb.reserve(0, token=1, nodes=(1,), groups=(0, 1),
                       now_s=0.0,
                       group_vouched=lambda g: g == 0) is None
    assert arb.stats.reserve_unleased == 1


def test_release_all_frees_reserved_capacity():
    arb = CrossShardArbiter()
    arb.reserve(0, token=1, nodes=(1, 2), groups=(0,), now_s=0.0,
                group_vouched=_vouch_all)
    arb.reserve(1, token=2, nodes=(3,), groups=(1,), now_s=0.0,
                group_vouched=_vouch_all)
    assert arb.release_all() == 2
    assert arb.outstanding() == []
    assert arb.reserved_nodes() == ()


# ------------------------------------------------------------- the plane

def _plane(daemons=2, path=None, **overrides):
    cfg = HAConfig.smoke()
    cfg.nodes = 24
    cfg.shards = 4
    for attr, value in overrides.items():
        setattr(cfg, attr, value)
    return HAControlPlane(cfg.validate(), daemons=daemons,
                          registry_path=path)


def test_shard_groups_partition_is_contiguous_and_total():
    groups = ShardGroups(16, 3)
    seen = [groups.of_shard(s) for s in range(16)]
    assert seen == sorted(seen)              # contiguous
    assert set(seen) == {0, 1, 2}
    assert sum(len(groups.shards_of(g)) for g in range(3)) == 16


def test_plane_places_and_releases_like_a_single_daemon():
    plane = _plane(daemons=2)
    decisions = []
    plane._sink = decisions.append
    plane.tick(1.0)
    plane.submit_place(1, 4)
    plane.submit_release(1)
    plane.submit_release(99)
    assert [d.status for d in decisions] == ["placed", "released",
                                             "unknown-job"]
    assert decisions[0].nodes == decisions[1].nodes


def test_plane_buckets_an_mrdimm_fleet_by_its_backend(monkeypatch):
    """Every replica groups nodes into REPRO_BACKEND's classes, and a
    placement is the MRDIMM policy's choice, in its class."""
    monkeypatch.setenv("REPRO_BACKEND", "mrdimm")
    plane = _plane(daemons=2)
    decisions = []
    plane._sink = decisions.append
    plane.tick(1.0)
    margins = {0: 2400, 3: 2200, 5: 1600, 9: 2200, 11: 1800}
    for node in range(24):
        plane.submit_write(RegistryWrite(
            "profile", node, {"margin_mts": margins.get(node, 1000),
                              "channel_margins": [], "attempts": 1}))
    plane.submit_place(1, 3)
    assert [d.pool.buckets for d in plane.daemons] == [(2200, 1600, 0)] * 2
    assert decisions[-1].status == "placed"
    assert decisions[-1].nodes == (0, 3, 9)
    assert decisions[-1].margin_bucket == 2200


def test_failover_reacquires_orphaned_groups_after_kill():
    plane = _plane(daemons=2)
    plane.tick(1.0)
    before = dict(plane.daemons[0].tokens)
    assert before                              # daemon 0 owns a group
    plane.kill_daemon(0)
    now = 1.0
    while plane.failover.failovers < len(before) and now < 60.0:
        now += 0.25
        plane.tick(now)
    assert plane.failover.failovers == len(before)
    assert plane.failover.giveups == 0
    for group, old_token in before.items():
        lease = plane.table.lease(group)
        assert lease.owner == 1
        assert lease.token > old_token         # fresh fencing token
    # The survivor still serves placements.
    decisions = []
    plane._sink = decisions.append
    plane.submit_place(7, 2)
    assert decisions and decisions[0].status == "placed"


def test_deposed_daemon_write_is_fenced_after_partition():
    """Dual-owner window: the partitioned daemon keeps a stale token;
    its buffered write is rejected at heal, and the control log shows
    no double commit."""
    plane = _plane(daemons=2)
    plane.tick(1.0)
    owned = dict(plane.daemons[1].tokens)
    assert owned
    plane.partition_daemon(1)
    now = 1.0
    while plane.failover.failovers < len(owned) and now < 60.0:
        now += 0.25
        plane.tick(now)
    # Both daemons believed they owned the group for a while; heal
    # flushes the stale write into the fencing gate.
    assert plane.daemons[1].tokens == owned
    fenced_before = plane.table.stats.fenced_writes
    plane.heal_daemon(1)
    assert plane.table.stats.fenced_writes > fenced_before
    assert plane.daemons[1].tokens == {}
    assert verify_control_log(plane.table.log.events) == (0, 0)


def test_clock_skewed_renewal_is_rejected_then_recovers():
    plane = _plane(daemons=2)
    plane.tick(1.0)
    plane.inject_clock_skew(1, -100.0)
    rejected = plane.table.stats.renewals_rejected_skew
    now = 1.0
    while plane.table.stats.renewals_rejected_skew == rejected and \
            now < 30.0:
        now += 0.25
        plane.tick(now)
    assert plane.table.stats.renewals_rejected_skew == rejected + 1
    assert plane.daemons[1].clock_skew_s == 0.0    # resynced
    # The lease survived (the skewed renewal never stretched it, the
    # healthy retry did).
    group = sorted(plane.daemons[1].tokens)[0]
    assert plane.table.lease(group).owner == 1


def test_torn_lease_record_shortens_never_stretches(tmp_path):
    plane = _plane(daemons=2, path=tmp_path)
    plane.tick(1.0)
    group = sorted(plane.daemons[0].tokens)[0]
    before = plane.table.lease(group)
    assert plane.tear_lease_record()
    after = plane.table.lease(group)
    assert after.token == before.token
    assert after.expires_s <= before.expires_s     # conservative
    assert plane.stats.torn_lease_records == 1
    # Ownership still validates; service continues.
    decisions = []
    plane._sink = decisions.append
    plane.submit_place(3, 2)
    plane.stop()
    assert decisions[0].status == "placed"


# -------------------------------------------------------- shutdown races

class Sigterm(BaseException):
    pass


def test_sigterm_between_renewal_and_compaction_is_restorable(
        tmp_path):
    """Satellite drill: the daemon renews, then dies mid-compaction
    (between snapshot and truncate).  Registry, control WAL, and
    lease table must all reload to a consistent, serving state."""
    plane = _plane(daemons=2, path=tmp_path)
    plane.tick(1.0)
    plane.submit_place(1, 3)
    plane.submit_write(RegistryWrite("demote", 2,
                                     {"margin_mts": 200,
                                      "reason": "race"}))
    group = sorted(plane.daemons[0].tokens)[0]
    plane.table.renew(group, 0, plane.daemons[0].tokens[group], 1.5)
    plane.checkpoint()
    fingerprint = plane.registry.fingerprint()

    def kill(sid):
        raise Sigterm(sid)

    plane.registry.kill_hook = kill
    with pytest.raises(Sigterm):
        plane.registry.compact_shard(0)
    plane.registry.kill_hook = None
    plane.registry.close()
    plane.table.log.close()

    # Cold restart: every store reloads from disk.
    registry = ShardedRegistry(tmp_path, create=False)
    assert registry.fingerprint() == fingerprint
    log = ControlLog(tmp_path / CONTROL_LOG_FILE)
    table = LeaseTable(plane.config.lease_duration_s, log)
    ckpt, _ = CheckpointStore(tmp_path / "control-ckpt").load_latest()
    assert ckpt is not None
    table.restore(dict(ckpt.state["lease_table"]))
    lease = table.lease(group)
    assert lease is not None and lease.owner == 0
    assert table.validate(group, 0, lease.token, 2.0)
    assert verify_control_log(log.events) == (0, 0)


def test_stop_with_outstanding_reserve_releases_capacity():
    """Satellite drill: stop() while an arbitration reserve is in
    flight and the queue is stalled — reserved nodes return, queued
    operations resolve as ``closed``, and the lease log closes with
    every lease released."""
    plane = _plane(daemons=2)
    decisions = []
    plane._sink = decisions.append
    plane.tick(1.0)
    token = sorted(plane.daemons[0].tokens.values())[0]
    reservation = plane.arbiter.reserve(
        0, token, nodes=(1, 2, 3), groups=(0,), now_s=1.0,
        group_vouched=_vouch_all)
    assert reservation is not None
    # Stall the queue: no serviceable coordinator.
    plane.kill_daemon(0)
    plane.partition_daemon(1)
    plane.submit_place(42, 2)
    plane.submit_release(41)
    assert plane.pending == 2
    closed = plane.stop()
    assert closed == 2
    assert [d.status for d in decisions[-2:]] == ["closed", "closed"]
    assert plane.arbiter.outstanding() == []
    assert plane.arbiter.reserved_nodes() == ()
    assert plane.pending == 0


# -------------------------------------------------------------- the gate

def test_survivability_report_gates_ha_invariants():
    bad = SurvivabilityReport(seed=1, duration_hours=0.1,
                              ha_scenario="failover-drill")
    failures = bad.failures()
    assert any("prefix-consistent" in f for f in failures)
    assert any("crashed mid-lease" in f for f in failures)
    # Classic fault-class gates stay out of the HA verdict...
    assert not any("copy corruption" in f for f in failures)
    # ...and violations of the zero-invariants are fatal.
    bad.double_commits = 1
    assert any("double-committed" in f for f in bad.failures())


def test_ha_fields_keep_classic_report_byte_identical():
    classic = SurvivabilityReport(seed=1, duration_hours=0.1)
    assert "HA control plane" not in classic.render()
    assert any("copy corruption" in f for f in classic.failures())


def test_failover_drill_smoke_is_deterministic_and_passes():
    config = HAConfig.smoke()
    config.events = 2500
    first = HAFailoverDrill(config).run()
    second = HAFailoverDrill(config).run()
    assert first.passed(), first.report.failures()
    assert first.report.prefix_consistent
    assert first.report.double_commits == 0
    assert first.report.expired_lease_decisions == 0
    assert first.report.daemon_crashes == 1
    assert first.report.failovers >= 2
    assert first.digest == first.reference_digest
    assert first.report.render() == second.report.render()
    assert first.digest == second.digest
