"""Tests for rank-level constraints and self-refresh."""

import pytest

from repro.dram.rank import (BANKS_PER_RANK, Rank, SELF_REFRESH_EXIT_NS,
                             SelfRefreshViolation)
from repro.dram.timing import manufacturer_spec_3200

T = manufacturer_spec_3200()


def test_rank_has_16_banks():
    assert len(Rank(0).banks) == BANKS_PER_RANK


def test_access_counts_reads_and_writes():
    r = Rank(0)
    r.access(0, 1, 0.0, T, is_write=False)
    r.access(1, 1, 0.0, T, is_write=True)
    assert (r.reads, r.writes) == (1, 1)


def test_trrd_spaces_activates():
    r = Rank(0)
    r.access(0, 1, 0.0, T, False)
    t2 = r.access(1, 1, 0.0, T, False)
    # Second activate begins no earlier than tRRD after the first.
    assert t2 >= T.tRRD_ns + T.tRCD_ns + T.tCAS_ns - 1e-9


def test_tfaw_limits_burst_of_activates():
    r = Rank(0)
    times = [r.access(b, 1, 0.0, T, False) for b in range(5)]
    # Fifth activate must start no earlier than first + tFAW.
    first_act = times[0] - T.tRCD_ns - T.tCAS_ns
    fifth_act = times[4] - T.tRCD_ns - T.tCAS_ns
    assert fifth_act >= first_act + T.tFAW_ns - 1e-9


def test_self_refresh_blocks_access():
    r = Rank(0)
    r.enter_self_refresh(0.0)
    with pytest.raises(SelfRefreshViolation):
        r.access(0, 1, 100.0, T, False)


def test_self_refresh_blocks_external_refresh():
    r = Rank(0)
    r.enter_self_refresh(0.0)
    with pytest.raises(SelfRefreshViolation):
        r.refresh(100.0, T)


def test_self_refresh_enter_idempotent():
    r = Rank(0)
    t1 = r.enter_self_refresh(0.0)
    assert r.enter_self_refresh(t1) == t1


def test_self_refresh_exit_latency():
    r = Rank(0)
    r.enter_self_refresh(0.0)
    ready = r.exit_self_refresh(100.0)
    assert ready == pytest.approx(100.0 + SELF_REFRESH_EXIT_NS)
    assert not r.in_self_refresh
    # Banks cannot activate before the exit completes.
    assert all(b.activate_ready_ns >= ready for b in r.banks)


def test_exit_without_enter_noop():
    r = Rank(0)
    assert r.exit_self_refresh(50.0) == 50.0


def test_refresh_blocks_banks_for_trfc():
    r = Rank(0)
    end = r.refresh(0.0, T)
    assert end == pytest.approx(T.tRFC_ns)
    assert all(b.activate_ready_ns >= end for b in r.banks)


def test_refresh_closes_open_rows():
    r = Rank(0)
    r.access(0, 7, 0.0, T, False)
    r.refresh(1000.0, T)
    assert r.banks[0].open_row is None
