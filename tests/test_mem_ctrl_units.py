"""Tests for queues, page policy, writeback cache, and FR-FCFS pick."""

import pytest

from repro.dram.bank import Bank
from repro.dram.channel import Channel
from repro.dram.module import Module, ModuleSpec
from repro.dram.timing import manufacturer_spec_3200
from repro.mem_ctrl.address_map import AddressMapping, MemLocation
from repro.mem_ctrl.page_policy import PagePolicy
from repro.mem_ctrl.policy import AccessPolicy
from repro.mem_ctrl.queues import ReadRequest
from repro.mem_ctrl.scheduler import FrFcfsScheduler
from repro.mem_ctrl.writeback_cache import WritebackCache

T = manufacturer_spec_3200()


def test_page_policy_validation():
    with pytest.raises(ValueError):
        PagePolicy(kind="weird")
    with pytest.raises(ValueError):
        PagePolicy(timeout_cycles=0)


def test_hybrid_policy_closes_after_timeout():
    p = PagePolicy(kind="hybrid", timeout_cycles=200)
    b = Bank(0)
    b.access(5, 0.0, T, False)
    p.apply(b, b.last_access_ns + p.timeout_ns + 1)
    assert b.open_row is None


def test_hybrid_policy_keeps_row_within_timeout():
    p = PagePolicy(kind="hybrid", timeout_cycles=200)
    b = Bank(0)
    b.access(5, 0.0, T, False)
    p.apply(b, b.last_access_ns + 1.0)
    assert b.open_row == 5


def test_open_policy_never_closes():
    p = PagePolicy(kind="open")
    b = Bank(0)
    b.access(5, 0.0, T, False)
    p.apply(b, 1e9)
    assert b.open_row == 5


def test_closed_policy_always_closes():
    p = PagePolicy(kind="closed")
    b = Bank(0)
    b.access(5, 0.0, T, False)
    p.apply(b, b.last_access_ns)
    assert b.open_row is None


def test_writeback_cache_geometry():
    wb = WritebackCache()
    assert wb.capacity == 2048
    assert wb.nsets == 32


def test_writeback_cache_insert_and_reject():
    wb = WritebackCache(size_bytes=2 * 2 * 64, assoc=2)  # 2 sets x 2 ways
    assert wb.insert(0)
    assert wb.insert(2 * 64)      # same set (set = line % 2)
    assert not wb.insert(4 * 64)  # set 0 full
    assert wb.stats.rejected == 1


def test_writeback_cache_duplicate_insert():
    wb = WritebackCache()
    wb.insert(0)
    assert wb.insert(0)
    assert len(wb) == 1


def test_writeback_cache_contains_and_remove():
    wb = WritebackCache()
    wb.insert(64)
    assert wb.contains(64)
    assert wb.remove(64)
    assert not wb.contains(64)
    assert not wb.remove(64)


def test_writeback_cache_drain():
    wb = WritebackCache()
    for i in range(5):
        wb.insert(i * 64)
    out = wb.drain_all()
    assert sorted(out) == [i * 64 for i in range(5)]
    assert len(wb) == 0
    assert wb.stats.drained == 5


def _channel_with_open_row(bank, row):
    ch = Channel(index=0)
    ch.modules = [Module(ModuleSpec(), "M0")]
    ch.modules[0].ranks[0].banks[bank].open_row = row
    ch.modules[0].ranks[0].banks[bank].last_access_ns = 0.0
    return ch


def _req(rank, bank, row, arrival, prefetch=False):
    return ReadRequest(MemLocation(0, rank, bank, row, 0), arrival,
                       lambda t: None, is_prefetch=prefetch)


def _on(ch, queue):
    """Attach each request's baseline replica banks, as the controller
    does at submission."""
    for req in queue:
        req.candidates = AccessPolicy().replica_banks(
            ch, req.location.rank, req.location.bank)
    return queue


def test_frfcfs_prefers_row_hit():
    ch = _channel_with_open_row(3, 7)
    sched = FrFcfsScheduler()
    queue = _on(ch, [_req(0, 1, 5, 0.0), _req(0, 3, 7, 1.0)])
    assert sched.pick(queue, ch, 10.0) == 1
    assert sched.stats.row_hit_picks == 1


def test_frfcfs_falls_back_to_oldest():
    ch = _channel_with_open_row(3, 7)
    sched = FrFcfsScheduler()
    queue = _on(ch, [_req(0, 1, 5, 0.0), _req(0, 2, 6, 1.0)])
    assert sched.pick(queue, ch, 10.0) == 0
    assert sched.stats.oldest_picks == 1


def test_frfcfs_empty_queue():
    ch = _channel_with_open_row(0, 0)
    assert FrFcfsScheduler().pick([], ch, 0.0) is None


def test_frfcfs_fairness_cap():
    ch = _channel_with_open_row(3, 7)
    sched = FrFcfsScheduler(fairness_cap=2)
    queue = _on(ch, [_req(0, 1, 5, 0.0)] +
                [_req(0, 3, 7, float(i)) for i in range(5)])
    picks = []
    for _ in range(3):
        idx = sched.pick(queue, ch, 10.0)
        picks.append(queue.pop(idx).location.bank)
    # After two consecutive bank-3 hits the oldest (bank 1) is forced.
    assert picks[:2] == [3, 3]
    assert picks[2] == 1
    assert sched.stats.fairness_overrides == 1


def test_frfcfs_demand_hit_beats_prefetch_hit():
    ch = _channel_with_open_row(3, 7)
    sched = FrFcfsScheduler()
    queue = _on(ch, [_req(0, 3, 7, 0.0, prefetch=True), _req(0, 3, 7, 1.0)])
    assert sched.pick(queue, ch, 10.0) == 1


def test_frfcfs_prefetch_hit_over_oldest_miss():
    ch = _channel_with_open_row(3, 7)
    sched = FrFcfsScheduler()
    queue = _on(ch, [_req(0, 1, 5, 0.0), _req(0, 3, 7, 1.0, prefetch=True)])
    assert sched.pick(queue, ch, 10.0) == 1
