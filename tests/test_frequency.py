"""Tests for the frequency-transition state machine (Figures 9/10)."""

import pytest

from repro.dram.frequency import (FrequencyMachine, FrequencyState,
                                  IllegalTransition, TRANSITION_NS)


def test_initial_state_safe():
    assert FrequencyMachine().state is FrequencyState.SAFE


def test_speed_up_takes_one_microsecond():
    m = FrequencyMachine()
    end = m.speed_up(0.0)
    assert end == pytest.approx(TRANSITION_NS)
    assert m.state is FrequencyState.FAST


def test_slow_down_takes_one_microsecond():
    m = FrequencyMachine()
    m.speed_up(0.0)
    end = m.slow_down(2000.0)
    assert end == pytest.approx(2000.0 + TRANSITION_NS)
    assert m.state is FrequencyState.SAFE


def test_speed_up_noop_when_fast():
    m = FrequencyMachine()
    t = m.speed_up(0.0)
    assert m.speed_up(t) == t
    assert m.transitions_to_fast == 1


def test_slow_down_noop_when_safe():
    m = FrequencyMachine()
    assert m.slow_down(5.0) == 5.0
    assert m.transitions_to_safe == 0


def test_walk_records_three_steps():
    m = FrequencyMachine()
    m.speed_up(0.0)
    rec = m.history[0]
    assert len(rec.steps) == 3
    assert [s for s, _ in rec.steps] == [FrequencyState.PREPARE,
                                         FrequencyState.CHANGE,
                                         FrequencyState.SYNC]
    # Step times are monotonically increasing up to the total.
    times = [t for _, t in rec.steps]
    assert times == sorted(times)
    assert times[-1] == pytest.approx(TRANSITION_NS)


def test_total_transition_time():
    m = FrequencyMachine()
    t = m.speed_up(0.0)
    m.slow_down(t)
    assert sum(r.end_ns - r.start_ns for r in m.history) == \
        pytest.approx(2 * TRANSITION_NS)


def test_is_stable():
    assert FrequencyMachine().state in (FrequencyState.SAFE,
                                        FrequencyState.FAST)


def test_illegal_transition_from_transient():
    m = FrequencyMachine()
    m.state = FrequencyState.PREPARE
    with pytest.raises(IllegalTransition):
        m.speed_up(0.0)


def test_custom_transition_length():
    m = FrequencyMachine(transition_ns=500.0)
    assert m.speed_up(0.0) == pytest.approx(500.0)
