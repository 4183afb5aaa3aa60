"""Tests for modules, channels, frequency safety, and broadcast writes."""

import pytest

from repro.dram import (Channel, FrequencyState, Module, ModuleSpec,
                        SafetyViolation, exploit_freq_lat_margins,
                        manufacturer_spec_3200)
from repro.ecc.bamboo import BambooCodec


def _channel():
    ch = Channel(index=0, fast_timing=exploit_freq_lat_margins())
    ch.modules = [Module(ModuleSpec(), "M0"),
                  Module(ModuleSpec(), "M1", holds_copies=True)]
    return ch


def test_module_capacity():
    spec = ModuleSpec(chips_per_rank=9, chip_density_gbit=16,
                      ranks_per_module=2)
    assert spec.total_chips == 18


def test_module_storage_roundtrip():
    m = Module(ModuleSpec(), "M")
    blk = BambooCodec().encode(list(range(64)), 0x40)
    m.write_block(0x40, blk)
    assert m.read_block(0x40) == blk
    assert m.read_block(0x80) is None


def test_module_corrupt_requires_existing():
    m = Module(ModuleSpec(), "M")
    with pytest.raises(KeyError):
        m.corrupt_block(0x40, [0] * 72)


def test_module_scrub():
    m = Module(ModuleSpec(), "M")
    m.write_block(0, BambooCodec().encode([0] * 64, 0))
    m.scrub()
    assert m.read_block(0) is None


def test_module_self_refresh_roundtrip():
    m = Module(ModuleSpec(), "M")
    m.enter_self_refresh(0.0)
    assert m.in_self_refresh
    m.exit_self_refresh(100.0)
    assert not m.in_self_refresh


def test_channel_rank_flattening():
    ch = _channel()
    assert ch.rank_count() == 4
    mod, rank = ch.locate_rank(2)
    assert mod.module_id == "M1"
    assert rank.index == 0


def test_locate_rank_out_of_range():
    with pytest.raises(IndexError):
        _channel().locate_rank(9)


def test_channel_timing_follows_state():
    ch = _channel()
    assert ch.timing.data_rate_mts == 3200
    ch.to_fast(0.0)
    assert ch.timing.data_rate_mts == 4000
    ch.to_safe(ch.bus_free_ns)
    assert ch.timing.data_rate_mts == 3200


def test_to_fast_self_refreshes_originals():
    ch = _channel()
    ch.to_fast(0.0)
    assert ch.modules[0].in_self_refresh
    assert not ch.modules[1].in_self_refresh


def test_to_safe_wakes_originals():
    ch = _channel()
    t = ch.to_fast(0.0)
    ch.to_safe(t)
    assert not ch.modules[0].in_self_refresh


def test_safety_violation_on_fast_original_access():
    ch = _channel()
    t = ch.to_fast(0.0)
    ch.modules[0].ranks[0].in_self_refresh = False   # simulate a bug
    with pytest.raises(SafetyViolation):
        ch.access(0, 0, 1, t, is_write=False)


def test_fast_copy_access_allowed():
    ch = _channel()
    t = ch.to_fast(0.0)
    finish = ch.access(2, 0, 1, t, is_write=False)
    assert finish > t


def test_broadcast_write_hits_one_rank_per_module():
    ch = _channel()
    ch.access(0, 3, 7, 0.0, is_write=True, broadcast=True)
    assert ch.modules[0].ranks[0].writes == 1
    assert ch.modules[1].ranks[0].writes == 1
    assert ch.modules[0].ranks[1].writes == 0
    assert ch.stats.broadcast_writes == 1


def test_broadcast_read_rejected():
    ch = _channel()
    with pytest.raises(ValueError):
        ch.access(0, 0, 1, 0.0, is_write=False, broadcast=True)


def test_bus_serializes_bursts():
    ch = _channel()
    t1 = ch.access(0, 0, 1, 0.0, False)
    t2 = ch.access(1, 0, 1, 0.0, False)
    assert t2 >= t1 + ch.timing.burst_time_ns - 1e9 * 0  # serialized
    assert ch.stats.bus_busy_ns == pytest.approx(
        2 * ch.timing.burst_time_ns)


def test_rank_switch_penalty_counted():
    ch = _channel()
    ch.access(0, 0, 1, 0.0, False)
    ch.access(1, 0, 1, 0.0, False)   # different rank -> switch
    ch.access(1, 0, 1, 0.0, False)   # same rank -> no switch
    assert ch.stats.rank_switches == 1


def test_to_fast_requires_fast_timing():
    ch = Channel(index=0)
    ch.modules = [Module(ModuleSpec(), "M0", holds_copies=True)]
    with pytest.raises(ValueError):
        ch.to_fast(0.0)
