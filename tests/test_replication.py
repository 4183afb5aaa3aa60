"""Reliability-invariant tests for the functional Hetero-DMR datapath
(DESIGN.md Section 6)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (HeteroDMRConfig, HeteroDMRManager,
                        ReplicationError, TransientBusFault,
                        UncorrectableError)
from repro.dram import (Channel, FrequencyState, Module, ModuleSpec,
                        SafetyViolation)
from repro.errors.models import ERROR_PATTERNS


def _manager(margins=(600, 800), config=None):
    ch = Channel(index=0)
    ch.modules = [Module(ModuleSpec(), "M0", true_margin_mts=margins[0]),
                  Module(ModuleSpec(), "M1", true_margin_mts=margins[1])]
    return HeteroDMRManager(ch, config=config)


def _filled(n=16, **kw):
    mgr = _manager(**kw)
    data = {}
    for i in range(n):
        addr = i * 64
        payload = [(i * 7 + j) % 256 for j in range(64)]
        mgr.write(addr, payload)
        data[addr] = payload
    return mgr, data


def test_needs_two_modules():
    ch = Channel(index=0)
    ch.modules = [Module(ModuleSpec(), "M0")]
    with pytest.raises(ValueError):
        HeteroDMRManager(ch)


def test_activation_below_half_utilization():
    mgr, _ = _filled()
    assert mgr.observe_utilization(0.49)
    assert mgr.replication_active


def test_no_activation_at_half_utilization():
    mgr, _ = _filled()
    assert not mgr.observe_utilization(0.50)


def test_utilization_validation():
    mgr, _ = _filled()
    with pytest.raises(ValueError):
        mgr.observe_utilization(1.5)


def test_margin_aware_free_module_choice():
    mgr, _ = _filled()
    mgr.observe_utilization(0.2)
    assert mgr.free_module_index == 1    # the 800 MT/s module runs fast


def test_replication_preserves_contents():
    """Invariant 7: activation/deactivation keeps visible data."""
    mgr, data = _filled()
    mgr.observe_utilization(0.2)
    mgr.enter_read_mode()
    for addr, payload in data.items():
        assert list(mgr.read(addr)) == payload
    mgr.observe_utilization(0.8)    # deactivate
    for addr, payload in data.items():
        assert list(mgr.read(addr)) == payload


def test_reads_in_read_mode_use_copies():
    mgr, data = _filled()
    mgr.observe_utilization(0.2)
    mgr.enter_read_mode()
    mgr.read(0)
    assert mgr.stats.reads_from_copy == 1
    assert mgr.channel.frequency.state is FrequencyState.FAST


def test_originals_sleep_during_read_mode():
    """Invariant 3: originals in self-refresh whenever the bus is fast."""
    mgr, _ = _filled()
    mgr.observe_utilization(0.2)
    mgr.enter_read_mode()
    original = mgr.channel.modules[0]
    assert original.in_self_refresh


def test_write_requires_write_mode():
    mgr, _ = _filled()
    mgr.observe_utilization(0.2)
    mgr.enter_read_mode()
    with pytest.raises(ReplicationError):
        mgr.write(0, [0] * 64)


def test_broadcast_write_keeps_copies_identical():
    """Invariant 6: original == copy after every write."""
    mgr, _ = _filled()
    mgr.observe_utilization(0.2)
    payload = list(range(64))
    mgr.write(0x100 * 64, payload)
    orig = mgr.channel.modules[0].read_block(0x100 * 64)
    copy = mgr.channel.modules[1].read_block(0x100 * 64)
    assert orig == copy
    assert mgr.stats.broadcast_writes >= 1


def test_every_error_pattern_recovered():
    """Invariant 4: no injected pattern ever reaches the consumer."""
    rng = random.Random(5)
    mgr, data = _filled(n=8)
    mgr.observe_utilization(0.2)
    mgr.enter_read_mode()
    for name, pattern in ERROR_PATTERNS.items():
        addr = 64 * 3
        block = mgr.channel.modules[1].read_block(addr)
        mgr.corrupt_copy(addr, pattern(block.stored_bytes(), rng))
        assert list(mgr.read(addr)) == data[addr], name
        if mgr.in_write_mode:
            mgr.enter_read_mode()


def test_total_corruption_of_all_copies_survived():
    mgr, data = _filled(n=8)
    mgr.observe_utilization(0.2)
    mgr.enter_read_mode()
    for addr in data:
        mgr.corrupt_copy(addr, [0xFF] * 72)
    for addr, payload in data.items():
        assert list(mgr.read(addr)) == payload
        if mgr.in_write_mode:
            mgr.enter_read_mode()
    assert mgr.stats.corrections == len(data)


def test_correction_rewrites_copy():
    mgr, data = _filled(n=4)
    mgr.observe_utilization(0.2)
    mgr.enter_read_mode()
    mgr.corrupt_copy(0, [0xAA] * 72)
    mgr.read(0)
    # Second read hits the repaired copy without another correction.
    corrections = mgr.stats.corrections
    mgr.enter_read_mode()
    mgr.read(0)
    assert mgr.stats.corrections == corrections


def test_small_error_in_original_ecc_corrected():
    mgr, data = _filled(n=4)
    block = mgr.channel.modules[0].read_block(64)
    raw = block.stored_bytes()
    raw[10] ^= 0x08
    mgr.channel.modules[0].corrupt_block(64, raw)
    assert list(mgr.read(64)) == data[64]


def test_uncorrectable_original_raises():
    mgr, _ = _filled(n=4)
    mgr.channel.modules[0].corrupt_block(64, [0x55] * 72)
    with pytest.raises(UncorrectableError):
        mgr.read(64)


def test_epoch_guard_disables_margin():
    cfg = HeteroDMRConfig(epoch_error_threshold=2)
    mgr, data = _filled(n=8, config=cfg)
    mgr.observe_utilization(0.2)
    mgr.enter_read_mode()
    for i in range(4):
        mgr.corrupt_copy(i * 64, [0xFF] * 72)
        mgr.read(i * 64)
        if mgr.epoch_guard.margin_allowed(mgr.now_ns) and mgr.in_write_mode:
            mgr.enter_read_mode()
    # Budget exhausted: the channel stays at specification.
    assert not mgr.epoch_guard.margin_allowed(mgr.now_ns)
    assert mgr.channel.frequency.state is FrequencyState.SAFE


def test_corrupt_copy_requires_replication():
    mgr, _ = _filled()
    with pytest.raises(ReplicationError):
        mgr.corrupt_copy(0, [0] * 72)


def test_read_unknown_address_raises():
    mgr, _ = _filled()
    with pytest.raises(KeyError):
        mgr.read(999 * 64)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(1, 72))
def test_random_corruption_never_escapes(seed, nbytes):
    """Invariant 4, property form: arbitrary byte corruption of a copy
    is always detected and transparently corrected."""
    rng = random.Random(seed)
    mgr, data = _filled(n=4)
    mgr.observe_utilization(0.2)
    mgr.enter_read_mode()
    addr = 64 * rng.randrange(4)
    block = mgr.channel.modules[1].read_block(addr)
    raw = block.stored_bytes()
    for p in rng.sample(range(72), nbytes):
        raw[p] ^= rng.randrange(1, 256)
    if raw == block.stored_bytes():
        return
    mgr.corrupt_copy(addr, raw)
    assert list(mgr.read(addr)) == data[addr]


# -- correction-path retry hardening (bounded backoff, PR 3) ----------------------


def _corrupted_in_read_mode(addr=0, **kw):
    mgr, data = _filled(n=4, **kw)
    mgr.observe_utilization(0.2)
    mgr.enter_read_mode()
    mgr.corrupt_copy(addr, [0xAA] * 72)
    return mgr, data


def test_correction_retry_recovers_from_transient_faults():
    """A bus glitch on the safe re-read is retried, not escalated: the
    read still returns the written payload and the retry counter
    records exactly the failed attempts."""
    mgr, data = _corrupted_in_read_mode()
    faults = []
    mgr.bus_fault_hook = lambda addr, attempt: \
        faults.append((addr, attempt)) or attempt < 2
    before = mgr.now_ns
    assert list(mgr.read(0)) == data[0]
    assert mgr.stats.corrections == 1
    assert mgr.stats.correction_retries == 2
    assert faults == [(0, 0), (0, 1), (0, 2)]
    # Backoff really advanced simulated time (exponential, jittered).
    assert mgr.now_ns > before + mgr.correction_backoff_ns * (1 + 2)


def test_correction_retry_exhaustion_raises():
    """A fault persisting past correction_max_retries propagates as
    TransientBusFault after exactly max_retries backoffs."""
    mgr, _ = _corrupted_in_read_mode()
    mgr.bus_fault_hook = lambda addr, attempt: True
    with pytest.raises(TransientBusFault):
        mgr.read(0)
    assert mgr.stats.correction_retries == mgr.correction_max_retries
    assert mgr.stats.corrections == 0


def test_correction_retry_backoff_is_deterministic():
    """Same (retry_seed, address, attempt) → identical jittered
    backoff: two managers walking the same fault sequence land on the
    same simulated clock."""
    clocks = []
    for _ in range(2):
        mgr, _ = _corrupted_in_read_mode()
        mgr.bus_fault_hook = lambda addr, attempt: attempt < 3
        mgr.read(0)
        clocks.append(mgr.now_ns)
    assert clocks[0] == clocks[1]
    # A different retry seed draws different jitter.
    mgr, _ = _corrupted_in_read_mode()
    mgr.retry_seed = 99
    mgr.bus_fault_hook = lambda addr, attempt: attempt < 3
    mgr.read(0)
    assert mgr.now_ns != clocks[0]


def test_correction_retry_counter_spans_multiple_corrections():
    mgr, data = _filled(n=4)
    mgr.observe_utilization(0.2)
    mgr.enter_read_mode()
    for addr in (0, 64):
        mgr.corrupt_copy(addr, [0x55] * 72)
    mgr.bus_fault_hook = lambda addr, attempt: attempt == 0
    for addr in (0, 64):
        if mgr.in_write_mode:
            mgr.enter_read_mode()
        assert list(mgr.read(addr)) == data[addr]
    assert mgr.stats.corrections == 2
    assert mgr.stats.correction_retries == 2
