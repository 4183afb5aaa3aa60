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

import gc
import hashlib
import tempfile
import weakref
from dataclasses import replace

import pytest

from repro.recovery import CheckpointStore
from repro.resilience import SurvivabilityReport
from repro.service import (ControlLog, CrossShardArbiter, Decision,
                           DecisionStream, HAConfig, HAControlPlane,
                           HAFailoverDrill, LeaseError, LeaseTable,
                           RegistryWrite, ShardGroups, ShardedRegistry,
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
    assert list(reloaded.events_since(0)) == log.events
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
    assert [e.kind for e in reloaded.events_since(0)] == ["acquire",
                                                          "renew"]
    assert reloaded.torn_bytes_dropped > 0
    # The healed file round-trips cleanly.
    again = ControlLog(path)
    assert again.torn_bytes_dropped == 0
    assert again.last_seq == 2


@pytest.mark.parametrize("torn", [
    b'{"seq": 4, "kind": "renew", "gro',           # no newline
    b'{"seq": 4, "kind": "renew", "gro\n',         # stray newline
    b'{"seq": 4, "kind": "renew", "gro\n{"se',     # both
])
def test_control_log_repairs_torn_tail_in_place(tmp_path, monkeypatch,
                                                torn):
    """The repair truncates the file at its last complete line; it
    never rewrites the log, so a crash mid-repair cannot lose the
    complete prefix."""
    path = tmp_path / CONTROL_LOG_FILE
    log = ControlLog(path)
    for i in range(3):
        log.append("renew", 0, 0, 1, float(i), expires_s=10.0)
    log.close()
    prefix = path.read_bytes()
    with open(path, "ab") as fh:
        fh.write(torn)

    def refuse(self, data):
        raise OSError("the log must not be rewritten")

    monkeypatch.setattr(type(path), "write_bytes", refuse)
    reloaded = ControlLog(path)
    assert list(reloaded.events_since(0)) == log.events
    assert reloaded.torn_bytes_dropped == len(torn) - torn.count(b"\n")
    assert path.read_bytes() == prefix
    assert ControlLog(path).torn_bytes_dropped == 0


def test_reopened_log_retains_one_event_and_reads_the_rest_back(
        tmp_path):
    path = tmp_path / CONTROL_LOG_FILE
    table = LeaseTable(duration_s=10.0, log=ControlLog(path))
    lease = table.acquire(0, owner=0, now_s=0.0)
    for job in range(1, 40):
        table.renew(0, 0, lease.token, job / 10)
        table.commit(0, 0, lease.token, job / 10,
                     {"job": job, "status": "placed", "nodes": [job],
                      "bucket": 0})
    table.log.append("commit", 0, 0, lease.token, 5.0,     # forged
                     payload={"job": 1, "status": "placed",
                              "nodes": [1], "bucket": 0})
    written = list(table.log.events)
    table.log.close()
    reopened = ControlLog(path)
    assert reopened.events == written[-1:]
    assert reopened.last_seq == len(written)
    assert list(reopened.events_since(0)) == written
    assert list(reopened.events_since(30)) == written[30:]
    assert reopened.audit() == verify_control_log(written) == (1, 0)
    replayed = LeaseTable(10.0, reopened)
    replayed.replay()
    assert replayed.to_state() == table.to_state()
    lines = path.read_bytes().splitlines(keepends=True)
    assert reopened.tear_tail() == written[-1]
    assert path.read_bytes() == b"".join(lines[:-1])
    assert list(reopened.events_since(0)) == written[:-1]
    assert reopened.audit() == (0, 0)


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


def test_online_audit_matches_a_post_hoc_pass_over_the_file(tmp_path):
    path = tmp_path / CONTROL_LOG_FILE
    table = LeaseTable(duration_s=10.0, log=ControlLog(path))
    lease = table.acquire(0, owner=0, now_s=0.0)
    good = {"job": 1, "status": "placed", "nodes": [0], "bucket": 0}
    table.commit(0, 0, lease.token, 1.0, good)
    # Forge a double commit, then a commit stamped past expiry.  The
    # latter is the newest, not yet fed to the auditor: the verdict
    # still counts it.
    table.log.append("commit", 0, 0, lease.token, 2.0,
                     payload=dict(good))
    table.log.append("commit", 0, 0, lease.token, 99.0,
                     payload={"job": 2, "status": "placed",
                              "nodes": [1], "bucket": 0})
    assert table.log.audit() == (1, 1)
    table.log.close()
    reread = ControlLog(path)
    assert verify_control_log(reread.events_since(0)) == (1, 1)
    assert reread.audit() == (1, 1)


def test_torn_tail_is_never_audited(tmp_path):
    path = tmp_path / CONTROL_LOG_FILE
    table = LeaseTable(duration_s=10.0, log=ControlLog(path))
    lease = table.acquire(0, owner=0, now_s=0.0)
    good = {"job": 1, "status": "placed", "nodes": [0], "bucket": 0}
    table.commit(0, 0, lease.token, 1.0, good)
    # A forged double commit, lost to a crash mid-append.
    table.log.append("commit", 0, 0, lease.token, 2.0,
                     payload=dict(good))
    assert table.log.tear_tail().payload == good
    assert table.log.audit() == (0, 0)
    # The record before the torn one was audited: it cannot be torn.
    with pytest.raises(LeaseError, match="already audited"):
        table.log.tear_tail()
    assert table.log.last_seq == 2
    table.log.close()
    assert verify_control_log(ControlLog(path).events_since(0)) == (0, 0)
    assert len(path.read_text().splitlines()) == 2


def test_file_backed_log_forgets_only_what_no_checkpoint_replays(
        tmp_path):
    plane = _plane(daemons=2, path=tmp_path)
    store = plane._ckpt
    now, job = 1.0, 0
    for burst in range(40):
        now += 0.3
        plane.tick(now)
        for _ in range(6):
            job += 1
            plane.submit_place(job, 1 + job % 3)
            if job % 2:
                plane.submit_release(job - 1)
        if burst % 4 == 3:
            plane.checkpoint()
    log = plane.table.log
    checkpoints = [ckpt for _, ckpt, _ in store.entries()]
    assert plane.stats.checkpoints == 10 > len(checkpoints) == store.keep
    oldest = min(ckpt.seq for ckpt in checkpoints)
    # Exactly the events a retained checkpoint's restore replays.
    assert 0 < len(log.events) == log.last_seq - oldest
    assert log.events[0].seq == oldest + 1
    log.close()
    replayed = LeaseTable(plane.config.lease_duration_s,
                          ControlLog(tmp_path / CONTROL_LOG_FILE))
    replayed.replay()
    # Restore from every retained checkpoint in turn (newest first,
    # each newer one made unreadable), then from none at all: the
    # table equals a full replay of the file each time.
    for name in [name for name, _, _ in store.entries()][::-1]:
        plane.reload_control_state()
        assert plane.table.to_state() == replayed.to_state()
        (tmp_path / "control-ckpt" / name).write_text("{")
    restores = plane.stats.restores
    plane.reload_control_state()
    assert plane.stats.restores == restores     # full replay
    assert plane.table.to_state() == replayed.to_state()
    plane.stop()
    assert plane.table.log.audit() == verify_control_log(
        ControlLog(tmp_path / CONTROL_LOG_FILE).events_since(0)) == (0, 0)


# ----------------------------------------------------------- arbitration

def _vouch_all(group):
    return True


def _unreserved(arb, nodes):
    """True iff no reservation still pins any of ``nodes``: the
    youngest possible token reserves them without a conflict."""
    conflicts = arb.stats.reserve_conflicts
    probe = arb.reserve(99, token=10 ** 9, nodes=nodes, groups=(),
                        now_s=0.0, group_vouched=_vouch_all)
    return probe is not None and arb.stats.reserve_conflicts == conflicts


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
    assert arb.outstanding() == []
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
    assert _unreserved(arb, (1, 2, 3))


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
    assert groups.group_count == 3


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


def test_rejected_renewal_tears_nothing(tmp_path):
    """A forced renewal the lease table rejects appends nothing, so the
    torn-record fault must not tear the previous, complete record."""
    plane = _plane(daemons=2, path=tmp_path)
    plane.tick(1.0)
    group = sorted(plane.daemons[0].tokens)[0]
    plane.daemons[0].tokens[group] += 100     # stale: renew is fenced
    log = plane.table.log
    before = (log.last_seq, (tmp_path / CONTROL_LOG_FILE).read_bytes())
    assert not plane.tear_lease_record()
    assert plane.stats.torn_lease_records == 0
    assert plane.table.stats.renewals_rejected_fenced == 1
    assert (log.last_seq,
            (tmp_path / CONTROL_LOG_FILE).read_bytes()) == before
    plane.stop()


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
    assert verify_control_log(log.events_since(0)) == (0, 0)


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
    assert _unreserved(plane.arbiter, (1, 2, 3))
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


def test_failover_drill_online_audit_matches_the_file(tmp_path):
    config = HAConfig.smoke()
    config.events = 2500
    config.registry_dir = tmp_path
    result = HAFailoverDrill(config).run()
    report = result.report
    assert report.torn_lease_records == 1
    for subdir in ("ha", "reference"):
        log = ControlLog(tmp_path / subdir / CONTROL_LOG_FILE)
        assert verify_control_log(log.events_since(0)) == (0, 0)
    assert (report.double_commits,
            report.expired_lease_decisions) == (0, 0)
    in_memory = HAFailoverDrill(replace(config, registry_dir=None)).run()
    assert result.digest == in_memory.digest
    assert result.report.render() == in_memory.report.render()


def _bent_reference(monkeypatch, bend):
    """Route the reference pass's decisions through ``bend(sink,
    decision, index)``; ``bend`` may also emit after the pass."""
    original = HAFailoverDrill._run_plane

    def run_plane(self, daemons, faults, subdir, sink):
        if subdir != "reference":
            return original(self, daemons, faults, subdir, sink)
        seen = []

        def bent(decision):
            seen.append(decision)
            bend(sink, decision, len(seen) - 1)

        out = original(self, daemons, faults, subdir, bent)
        bend(sink, None, len(seen))
        return out

    monkeypatch.setattr(HAFailoverDrill, "_run_plane", run_plane)
    config = HAConfig.smoke()
    config.events = 1500
    return HAFailoverDrill(config).run()


@pytest.mark.parametrize("insert", [False, True])
def test_reference_diverging_at_line_k_counts_an_exact_prefix(
        monkeypatch, insert):
    """Line k differs (replaced, or an extra line inserted before it):
    the prefix stops at k, and the lines that match again after the
    divergence do not count."""
    k = 37

    def bend(sink, decision, index):
        if decision is None:
            return
        if index == k:
            sink(replace(decision, job_id=decision.job_id + 1))
            if not insert:
                return
        sink(decision)

    result = _bent_reference(monkeypatch, bend)
    assert result.report.decision_prefix_len == k
    assert not result.report.prefix_consistent
    assert result.digest != result.reference_digest


def test_reference_one_line_longer_is_not_consistent(monkeypatch):
    def bend(sink, decision, index):
        sink(decision if decision is not None
             else Decision(index + 1, 1, "closed"))

    result = _bent_reference(monkeypatch, bend)
    report = result.report
    assert report.decision_prefix_len == report.ha_decisions > 0
    assert not report.prefix_consistent


def test_decision_stream_digest_matches_joined_lines():
    lines = [Decision(i, i, "placed", (i,)) for i in range(1, 4)]
    text = "\n".join(d.to_json() for d in lines) + "\n"
    with tempfile.TemporaryFile() as spill:
        kept = DecisionStream(spill=spill)
        for decision in lines:
            kept(decision)
        assert kept.hexdigest() == hashlib.sha256(
            text.encode("ascii")).hexdigest()
        assert kept.rewind().read() == text.encode("ascii")
    assert DecisionStream().hexdigest() == hashlib.sha256(
        b"\n").hexdigest()


def _watched_drill(monkeypatch, watch, events=1500, **overrides):
    """Run the smoke drill with ``watch(subdir, sink)`` called as each
    pass starts and ``watch(subdir, sink, decision)`` after each of its
    decisions."""
    original = HAFailoverDrill._run_plane

    def run_plane(self, daemons, faults, subdir, sink):
        watch(subdir, sink)

        def watched(decision):
            sink(decision)
            watch(subdir, sink, decision)

        return original(self, daemons, faults, subdir, watched)

    monkeypatch.setattr(HAFailoverDrill, "_run_plane", run_plane)
    config = replace(HAConfig.smoke(), events=events, **overrides)
    return HAFailoverDrill(config).run()


@pytest.mark.parametrize("file_backed", [False, True])
def test_ha_plane_is_freed_before_the_reference_pass(
        monkeypatch, tmp_path, file_backed):
    """Reference counting alone frees the stopped HA plane (no cycle
    keeps it) before the reference pass builds its own."""
    planes = []
    seen = {}
    original = HAControlPlane.__init__

    def init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        planes.append(weakref.ref(self))

    def watch(subdir, sink, decision=None):
        if subdir == "reference" and decision is None:
            seen["ha plane alive"] = planes[0]() is not None

    monkeypatch.setattr(HAControlPlane, "__init__", init)
    gc.collect()
    gc.disable()
    try:
        result = _watched_drill(
            monkeypatch, watch,
            registry_dir=tmp_path if file_backed else None)
    finally:
        gc.enable()
    assert seen == {"ha plane alive": False}
    assert result.report.prefix_consistent


@pytest.mark.parametrize("events", [2500, 5000])
def test_ha_stream_holds_at_most_one_chunk_in_memory(monkeypatch,
                                                     events):
    peak = {"buffer": 0, "bytes": 0}

    def watch(subdir, sink, decision=None):
        if subdir == "ha" and decision is not None:
            peak["buffer"] = max(peak["buffer"], len(sink.buffer))
            peak["bytes"] += len(decision.to_json()) + 1

    result = _watched_drill(monkeypatch, watch, events=events)
    assert result.report.prefix_consistent
    assert peak["bytes"] > 2 * DecisionStream._CHUNK
    assert 0 < peak["buffer"] <= DecisionStream._CHUNK


def test_a_failing_reference_pass_still_closes_the_spill(monkeypatch,
                                                         tmp_path):
    spills = []
    temporary_file = tempfile.TemporaryFile

    def spy(*args, **kwargs):
        spills.append((temporary_file(*args, **kwargs), kwargs))
        return spills[-1][0]

    def watch(subdir, sink, decision=None):
        # Raise at the reference pass's first decision: its plane and
        # WALs exist, and the unclosed-file check sees any it leaks.
        if subdir == "reference" and decision is not None:
            raise Sigterm("reference pass")

    monkeypatch.setattr(tempfile, "TemporaryFile", spy)
    with pytest.raises(Sigterm):
        _watched_drill(monkeypatch, watch, registry_dir=tmp_path)
    [(spill, kwargs)] = spills
    assert spill.closed
    assert kwargs["dir"] == tmp_path
    # The spill is anonymous: nothing of it is left in the directory.
    assert sorted(p.name for p in tmp_path.iterdir()) == \
        ["ha", "reference"]
