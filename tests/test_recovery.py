"""Tests for ``repro.recovery``: checkpoint round-trips, checkpoint +
WAL-replay restores (with the conservative-restore regression the
acceptance criteria pin), and the node supervisor's restart policy."""

import json

import pytest

from repro.core.config import HeteroDMRConfig
from repro.core.epoch_guard import EpochGuard
from repro.core.replication import HeteroDMRManager
from repro.dram.channel import Channel
from repro.dram.module import Module, ModuleSpec
from repro.errors.telemetry import NS_PER_HOUR, MarginAdvisor
from repro.fleet.registry import MarginRegistry
from repro.recovery import (CHECKPOINT_FORMAT, Checkpoint,
                            CheckpointError, CheckpointStore,
                            NodeSupervisor, RecoveryManager)
from repro.resilience import DegradationController, build_ladder
from repro.resilience.degradation import rung_index_for_margin

#: An unclosed file (a leaked WAL append handle) fails the test.
pytestmark = [
    pytest.mark.filterwarnings("error::ResourceWarning"),
    pytest.mark.filterwarnings(
        "error::pytest.PytestUnraisableExceptionWarning"),
    pytest.mark.usefixtures("collect_cycles")]

H = NS_PER_HOUR


def make_stack(threshold=5):
    ch = Channel(index=0)
    ch.modules = [Module(ModuleSpec(), "M0", true_margin_mts=600),
                  Module(ModuleSpec(), "M1", true_margin_mts=800)]
    advisor = MarginAdvisor(demote_ce_rate=100.0, window_ns=0.1 * H)
    mgr = HeteroDMRManager(
        ch,
        config=HeteroDMRConfig(margin_mts=800, epoch_hours=0.1,
                               epoch_error_threshold=threshold),
        telemetry=advisor)
    for a in range(4):
        mgr.write(a, [a + 1] * 64)
    mgr.observe_utilization(0.2)
    return mgr, advisor


def make_controller(mgr, advisor, **kw):
    kw.setdefault("clean_window_ns", 0.05 * H)
    kw.setdefault("demote_dwell_ns", 0.02 * H)
    kw.setdefault("ladder", build_ladder(800))
    return DegradationController(mgr, advisor, **kw)


# -- state round-trips -------------------------------------------------------


def test_epoch_guard_state_round_trip():
    guard = EpochGuard(epoch_hours=0.1, threshold=5)
    for _ in range(3):
        guard.record_error(0.02 * H)
    restored = EpochGuard.from_state(guard.to_state())
    assert restored.errors_this_epoch == guard.errors_this_epoch
    assert restored.total_errors == guard.total_errors
    assert restored.tripped_epochs == guard.tripped_epochs
    assert restored.to_state() == guard.to_state()


def test_epoch_guard_tripped_epoch_stays_tripped():
    guard = EpochGuard(epoch_hours=0.1, threshold=2)
    for _ in range(3):
        guard.record_error(0.02 * H)
    assert not guard.margin_allowed(0.03 * H)
    restored = EpochGuard.from_state(guard.to_state())
    # Still inside the tripped epoch: margin stays forbidden.
    assert not restored.margin_allowed(0.03 * H)
    # After the epoch boundary the budget re-arms as usual.
    assert restored.margin_allowed(0.15 * H)


def test_advisor_state_round_trip_preserves_advice():
    advisor = MarginAdvisor(demote_ce_rate=100.0, window_ns=0.1 * H)
    for i in range(30):
        advisor.record(0.01 * H, "M1", 0x100 + i, corrected=True)
    restored = MarginAdvisor.from_state(advisor.to_state())
    assert restored.advise("M1", 0.02 * H) == \
        advisor.advise("M1", 0.02 * H)
    assert restored.to_state() == advisor.to_state()


def test_controller_state_round_trip():
    mgr, advisor = make_stack()
    ctl = make_controller(mgr, advisor)
    for _ in range(6):
        mgr.epoch_guard.record_error(0.01 * H)
    ctl.observe(0.01 * H)
    assert ctl.current_rung.name == "freq@800"
    state = ctl.to_state()
    restored = DegradationController.from_state(mgr, advisor, state,
                                                now_ns=0.02 * H)
    assert restored.current_rung.name == "freq@800"
    assert restored.retired == ctl.retired


# -- checkpoint document -----------------------------------------------------


def test_checkpoint_json_round_trip():
    ckpt = Checkpoint(node=3, seq=7, time_ns=1.5e9,
                      state={"epoch_guard": {"total_errors": 9}})
    back = Checkpoint.from_json(ckpt.to_json())
    assert back == ckpt


def test_checkpoint_rejects_corruption_and_bad_format():
    ckpt = Checkpoint(node=0, seq=1, time_ns=0.0, state={})
    text = ckpt.to_json()
    with pytest.raises(CheckpointError):
        Checkpoint.from_json(text[:-10])          # torn write
    raw = json.loads(text)
    raw["body"]["seq"] = 99                       # bit rot
    with pytest.raises(CheckpointError):
        Checkpoint.from_json(json.dumps(raw))
    raw = json.loads(text)
    raw["body"]["format"] = CHECKPOINT_FORMAT + 1
    with pytest.raises(CheckpointError):
        Checkpoint.from_json(json.dumps(raw))


def test_store_keeps_bounded_history(tmp_path):
    store = CheckpointStore(tmp_path / "ck", keep=3)
    for seq in range(6):
        store.write(Checkpoint(node=0, seq=seq, time_ns=0.0, state={}))
    assert len(store) == 3
    latest, fallbacks = store.load_latest()
    assert (latest.seq, fallbacks) == (5, 0)


def test_store_falls_back_past_corrupt_checkpoint(tmp_path):
    store = CheckpointStore(tmp_path / "ck")
    store.write(Checkpoint(node=0, seq=1, time_ns=0.0, state={}))
    store.write(Checkpoint(node=0, seq=2, time_ns=1.0, state={}))
    store.corrupt_latest()
    latest, fallbacks = store.load_latest()
    assert (latest.seq, fallbacks) == (1, 1)


def test_store_in_memory_mode_matches_file_semantics():
    store = CheckpointStore()
    store.write(Checkpoint(node=0, seq=1, time_ns=0.0, state={}))
    store.corrupt_latest()
    latest, fallbacks = store.load_latest()
    assert latest is None and fallbacks == 1


# -- recovery manager --------------------------------------------------------


def test_recover_replays_wal_by_rung_name():
    registry = MarginRegistry()
    registry.record_profile(0, 800, time_s=0.0)
    mgr, advisor = make_stack()
    ctl = make_controller(mgr, advisor)
    recovery = RecoveryManager(CheckpointStore(), registry, node=0)
    recovery.capture(mgr.epoch_guard, ctl, advisor, now_ns=0.0)
    # Durable events after the checkpoint name exact rungs.
    registry.record_demotion(0, 600, reason="freq@600")
    registry.record_demotion(0, 400, reason="freq@400")
    recovered = recovery.recover()
    assert recovered.replayed_events == 2
    assert recovered.wal_complete
    assert recovered.durable_rung().name == "freq@400"


def test_recover_maps_unknown_reason_conservatively():
    registry = MarginRegistry()
    registry.record_profile(0, 800, time_s=0.0)
    mgr, advisor = make_stack()
    ctl = make_controller(mgr, advisor)
    recovery = RecoveryManager(CheckpointStore(), registry, node=0)
    recovery.capture(mgr.epoch_guard, ctl, advisor, now_ns=0.0)
    registry.record_demotion(0, 800, reason="external cap")
    recovered = recovery.recover()
    # Equal margin with no exact rung name: the frequency-only rung,
    # never the latency-margin one.
    rung = recovered.durable_rung()
    assert rung.margin_mts == 800 and not rung.use_latency_margin


def test_recover_retire_event_is_sticky():
    registry = MarginRegistry()
    registry.record_profile(0, 800, time_s=0.0)
    mgr, advisor = make_stack()
    ctl = make_controller(mgr, advisor)
    recovery = RecoveryManager(CheckpointStore(), registry, node=0)
    recovery.capture(mgr.epoch_guard, ctl, advisor, now_ns=0.0)
    registry.record_retirement(0, reason="crash loop")
    registry.record_promotion(0, 800, reason="freq+lat@800")
    recovered = recovery.recover()
    assert recovered.wal_retired
    assert recovered.durable_rung().is_spec


def test_recover_incomplete_wal_falls_back_to_record(tmp_path):
    path = tmp_path / "reg"
    registry = MarginRegistry(path)
    registry.record_profile(0, 800, time_s=0.0)
    store = CheckpointStore()
    mgr, advisor = make_stack()
    ctl = make_controller(mgr, advisor)
    RecoveryManager(store, registry, node=0).capture(
        mgr.epoch_guard, ctl, advisor, now_ns=0.0)
    registry.record_demotion(0, 400, reason="freq@400")
    registry.compact()
    # A fresh process loads the compacted registry: the demote event is
    # folded into the snapshot, so event-by-event replay is impossible
    # and the NodeRecord's net state must cap the rung instead.
    reloaded = MarginRegistry(path)
    recovered = RecoveryManager(store, reloaded, node=0).recover()
    assert not recovered.wal_complete
    assert recovered.durable_rung().name == "freq@400"


def test_recover_without_any_checkpoint_uses_wal_only():
    registry = MarginRegistry()
    registry.record_profile(0, 800, time_s=0.0)
    registry.record_demotion(0, 200, reason="freq@200")
    recovery = RecoveryManager(CheckpointStore(), registry, node=0)
    recovered = recovery.recover()
    assert recovered.checkpoint is None
    assert recovered.durable_rung().name == "freq@200"


def test_rung_index_for_margin_rounds_toward_spec():
    ladder = build_ladder(800)
    names = {i: r.name for i, r in enumerate(ladder)}
    assert names[rung_index_for_margin(ladder, 800)] == "freq@800"
    assert names[rung_index_for_margin(ladder, 700)] == "freq@600"
    assert names[rung_index_for_margin(ladder, 0)] == "spec"
    # Even when latency rungs are eligible, an equal-margin tie goes to
    # the slower frequency-only variant — a margin alone is never
    # evidence the latency rung was in use.
    assert names[rung_index_for_margin(
        ladder, 800, allow_latency_margin=True)] == "freq@800"


# -- conservative-restore regression (acceptance criteria) -------------------


def test_restored_node_never_reports_fewer_epoch_errors():
    registry = MarginRegistry()
    registry.record_profile(0, 800, time_s=0.0)
    mgr, advisor = make_stack(threshold=50)
    ctl = make_controller(mgr, advisor)
    for _ in range(7):
        mgr.epoch_guard.record_error(0.01 * H)
    recovery = RecoveryManager(CheckpointStore(), registry, node=0)
    recovery.capture(mgr.epoch_guard, ctl, advisor, now_ns=0.01 * H)
    durable_errors = mgr.epoch_guard.errors_this_epoch
    durable_total = mgr.epoch_guard.total_errors
    # Errors after the checkpoint die with the crash; the restore must
    # still never report fewer than the durable counts.
    for _ in range(5):
        mgr.epoch_guard.record_error(0.02 * H)
    recovered = recovery.recover()
    restored = recovery.restore_guard(recovered)
    assert restored.errors_this_epoch >= durable_errors
    assert restored.total_errors >= durable_total


def test_restored_rung_never_faster_than_durable_state():
    registry = MarginRegistry()
    registry.record_profile(0, 800, time_s=0.0)
    mgr, advisor = make_stack()
    ctl = make_controller(mgr, advisor)
    recovery = RecoveryManager(CheckpointStore(), registry, node=0)
    recovery.capture(mgr.epoch_guard, ctl, advisor, now_ns=0.0)
    registry.record_demotion(0, 400, reason="freq@400")
    recovered = recovery.recover()
    # The checkpoint says freq+lat@800, but the last durable event says
    # freq@400: the WAL wins and the restore must not be faster.
    mgr2, advisor2 = make_stack()
    restored = recovery.rebuild_controller(mgr2, advisor2, recovered,
                                           now_ns=0.1 * H)
    durable = recovered.durable_rung()
    assert restored.current_rung.margin_mts <= durable.margin_mts
    assert not (restored.current_rung.use_latency_margin and
                not durable.use_latency_margin)


def test_rebuild_controller_honors_wal_retirement():
    registry = MarginRegistry()
    registry.record_profile(0, 800, time_s=0.0)
    mgr, advisor = make_stack()
    ctl = make_controller(mgr, advisor)
    recovery = RecoveryManager(CheckpointStore(), registry, node=0)
    recovery.capture(mgr.epoch_guard, ctl, advisor, now_ns=0.0)
    registry.record_retirement(0, reason="crash loop")
    mgr2, advisor2 = make_stack()
    restored = recovery.rebuild_controller(
        mgr2, advisor2, recovery.recover(), now_ns=0.1 * H)
    assert restored.retired and restored.at_spec


def test_rebuild_without_checkpoint_starts_at_spec():
    registry = MarginRegistry()
    recovery = RecoveryManager(CheckpointStore(), registry, node=0)
    recovered = recovery.recover()
    mgr, advisor = make_stack()
    fired = []
    restored = recovery.rebuild_controller(
        mgr, advisor, recovered, now_ns=0.0,
        ladder=build_ladder(800),
        on_rung_change=lambda rung: fired.append(rung.name))
    assert restored.at_spec
    assert fired == ["spec"]     # hook fired exactly once, post-restore


# -- supervisor --------------------------------------------------------------


def test_supervisor_backoff_grows_and_is_deterministic():
    sup_a = NodeSupervisor(node=3, seed=11, backoff_base_ns=1e9)
    sup_b = NodeSupervisor(node=3, seed=11, backoff_base_ns=1e9)
    backoffs = []
    for i in range(3):
        now = i * 100e9
        da = sup_a.report_crash(now)
        db = sup_b.report_crash(now)
        assert da == db          # same (seed, node, attempt) -> same
        assert da.action == "restart"
        backoffs.append(da.backoff_ns)
        sup_a.restarted(da.restart_at_ns)
        sup_b.restarted(db.restart_at_ns)
    assert backoffs[0] < backoffs[1] < backoffs[2]   # exponential


def test_supervisor_heartbeat_timeout_counts_as_crash():
    sup = NodeSupervisor(heartbeat_timeout_ns=10e9)
    sup.heartbeat(0.0)
    assert sup.check(5e9) is None
    decision = sup.check(20e9)
    assert decision is not None and decision.action == "restart"


def test_supervisor_budget_exhaustion_retires_via_registry():
    registry = MarginRegistry()
    registry.record_profile(4, 800, time_s=0.0)
    sup = NodeSupervisor(node=4, registry=registry, max_restarts=2,
                         budget_window_ns=1e12)
    decisions = [sup.report_crash(i * 1e9) for i in range(3)]
    assert [d.action for d in decisions] == \
        ["restart", "restart", "retire"]
    assert sup.retired
    assert registry.node(4).retired
    assert registry.node(4).effective_margin_mts == 0
    with pytest.raises(RuntimeError):
        sup.restarted(4e9)


def test_supervisor_budget_window_forgets_old_crashes():
    sup = NodeSupervisor(max_restarts=2, budget_window_ns=10e9)
    for i in range(6):
        decision = sup.report_crash(i * 20e9)   # crashes far apart
        assert decision.action == "restart"
        sup.restarted(decision.restart_at_ns)
    assert not sup.retired


def test_supervisor_rejects_bad_parameters():
    with pytest.raises(ValueError):
        NodeSupervisor(heartbeat_timeout_ns=0)
    with pytest.raises(ValueError):
        NodeSupervisor(max_restarts=0)
    with pytest.raises(ValueError):
        NodeSupervisor(jitter_fraction=1.5)
