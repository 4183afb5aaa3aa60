"""Tests for the XOR-hashed address interleaving."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.cache import LINE_BYTES
from repro.mem_ctrl.address_map import AddressMapping


def test_power_of_two_validation():
    with pytest.raises(ValueError):
        AddressMapping(channels=3)
    with pytest.raises(ValueError):
        AddressMapping(ranks_per_channel=0)


def test_channel_interleaves_at_line_granularity():
    m = AddressMapping(channels=4)
    locs = [m.decode(i * LINE_BYTES) for i in range(4)]
    assert [l.channel for l in locs] == [0, 1, 2, 3]


def test_consecutive_lines_same_row():
    m = AddressMapping(channels=1)
    a = m.decode(0)
    b = m.decode(LINE_BYTES)
    assert (a.rank, a.bank, a.row) == (b.rank, b.bank, b.row)
    assert b.column == a.column + 1


def test_row_crossing_changes_bank():
    m = AddressMapping(channels=1)
    a = m.decode(0)
    b = m.decode(m.columns_per_row * LINE_BYTES)
    assert (a.rank, a.row) == (b.rank, b.row)
    assert a.bank != b.bank


def test_xor_hash_spreads_rows():
    m = AddressMapping(channels=1, xor_bank_hash=True)
    stride = (m.columns_per_row * LINE_BYTES * m.banks_per_rank *
              m.ranks_per_channel)
    banks = {m.decode(i * stride).bank for i in range(16)}
    assert len(banks) > 1   # same raw bank bits, different hashed banks


def test_no_xor_hash_keeps_bank():
    m = AddressMapping(channels=1, xor_bank_hash=False)
    stride = (m.columns_per_row * LINE_BYTES * m.banks_per_rank *
              m.ranks_per_channel)
    banks = {m.decode(i * stride).bank for i in range(16)}
    assert banks == {0}


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**36), st.sampled_from([1, 2, 4]),
       st.sampled_from([2, 4]))
def test_decode_fields_in_range(addr, channels, ranks):
    m = AddressMapping(channels=channels, ranks_per_channel=ranks)
    loc = m.decode(addr)
    assert 0 <= loc.channel < channels
    assert 0 <= loc.rank < ranks
    assert 0 <= loc.bank < m.banks_per_rank
    assert 0 <= loc.column < m.columns_per_row
    assert loc.row >= 0


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**30), st.integers(0, 2**30))
def test_decode_injective_per_line(a, b):
    """Distinct lines never collide on the full coordinate."""
    m = AddressMapping(channels=2, ranks_per_channel=4)
    la = m.decode(a * LINE_BYTES)
    lb = m.decode(b * LINE_BYTES)
    if a != b:
        assert (la.channel, la.rank, la.bank, la.row, la.column) != \
            (lb.channel, lb.rank, lb.bank, lb.row, lb.column)
