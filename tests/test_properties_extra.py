"""Additional property-based tests on cross-cutting invariants."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.epoch_guard import EpochGuard, NS_PER_HOUR
from repro.core.margin_selection import (bucket_node_margin,
                                         channel_margin, node_margin,
                                         snap_to_step)
from repro.dram.bank import Bank
from repro.dram.frequency import FrequencyMachine, FrequencyState
from repro.dram.timing import manufacturer_spec_3200
from repro.mem_ctrl.address_map import AddressMapping

T = manufacturer_spec_3200()


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 9), st.booleans()),
                min_size=1, max_size=60))
def test_bank_time_never_goes_backwards(ops):
    """Data-at times are non-decreasing when requests are issued in
    non-decreasing time order."""
    b = Bank(0)
    now = 0.0
    last = 0.0
    for row, is_write in ops:
        t = b.access(row, now, T, is_write)
        assert t >= now
        assert t >= last - 1e-9
        last = t
        now = t


@settings(max_examples=40, deadline=None)
@given(st.lists(st.booleans(), min_size=1, max_size=30))
def test_frequency_machine_always_stable_between_calls(directions):
    m = FrequencyMachine()
    now = 0.0
    for up in directions:
        now = m.speed_up(now) if up else m.slow_down(now)
        assert m.state in (FrequencyState.SAFE, FrequencyState.FAST)
    # Time accounting: completed transitions each took exactly 1 us.
    assert now == pytest.approx(
        sum(r.end_ns - r.start_ns for r in m.history))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(0, 2000), min_size=1, max_size=6))
def test_channel_margin_bounds(margins):
    aware = channel_margin(margins, True)
    unaware = channel_margin(margins, False)
    assert aware >= unaware
    assert aware <= max(margins)
    assert aware % 200 == 0


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(0, 2000), min_size=1, max_size=16))
def test_node_margin_never_exceeds_any_channel(channels):
    nm = node_margin(channels)
    assert all(nm <= snap_to_step(c) for c in channels)


@given(st.integers(0, 3000))
def test_bucket_is_idempotent(margin):
    b = bucket_node_margin(margin)
    assert bucket_node_margin(b) == b
    assert b in (800, 600, 0)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 10_000_000), st.integers(0, 200))
def test_epoch_guard_threshold_boundary(threshold, extra):
    g = EpochGuard(threshold=threshold)
    g.record_error(0.0, count=threshold)
    assert g.margin_allowed(0.0)        # at the threshold: still OK
    if extra:
        g.record_error(0.0, count=extra)
        assert not g.margin_allowed(0.0)
        # A fresh epoch always re-arms.
        assert g.margin_allowed(NS_PER_HOUR * 1.001)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**40))
def test_address_roundtrip_uniqueness_within_row(addr):
    """Two addresses in the same decoded (channel,rank,bank,row) differ
    only in column; same column -> same line address."""
    m = AddressMapping(channels=2, ranks_per_channel=4)
    line = (addr // 64) * 64
    a = m.decode(line)
    b = m.decode(line + 64 * m.channels)   # next line on same channel
    if a.column + 1 < m.columns_per_row:
        assert (a.channel, a.rank, a.bank, a.row) == \
            (b.channel, b.rank, b.bank, b.row)
