"""Tests for margin profiling and permanent-fault remapping (III-E)."""

import pytest

from repro.characterization import ModulePopulation, TestMachine
from repro.core import (HeteroDMRManager, NodeMarginProfiler, NodeProfile)
from repro.dram import Channel, FrequencyState, Module, ModuleSpec

POP = ModulePopulation()


def _channels(n=3, per=2):
    mods = [m for m in POP.major_brands()]
    return [mods[i * per:(i + 1) * per] for i in range(n)]


def test_profile_measures_every_module():
    prof = NodeMarginProfiler().profile(_channels(), now_s=0.0)
    assert len(prof.per_module_margins) == 6
    assert len(prof.channel_margins) == 3


def test_node_margin_is_min_of_channels():
    prof = NodeMarginProfiler().profile(_channels(), now_s=0.0)
    assert prof.node_margin_mts == min(prof.channel_margins)


def test_guard_band_derates():
    channels = _channels()
    plain = NodeMarginProfiler().profile(channels, now_s=0.0)
    banded = NodeMarginProfiler(guard_band_mts=200).profile(
        channels, now_s=0.0)
    assert banded.node_margin_mts <= plain.node_margin_mts - 200 + 1e-9


def test_guard_band_validation():
    with pytest.raises(ValueError):
        NodeMarginProfiler(guard_band_mts=-1)


def test_profile_stamp_source_is_monotonic_clock():
    """Regression: ``profiled_at_s`` used wall-clock ``time.time()``,
    so an NTP step backwards between profiles could order a newer
    profile *before* an older one (confusing registry freshness).  The default stamp source is now the
    monotonic clock."""
    import time
    p = NodeMarginProfiler()
    assert p._clock is time.monotonic


def test_profile_stamps_never_go_backwards():
    """Even with a time source that steps backwards (or explicit
    ``now_s`` values arriving out of order), stamps are clamped to the
    high-water mark so profile ordering cannot invert."""
    steps = iter([100.0, 40.0, 120.0])     # simulated backwards step
    p = NodeMarginProfiler(clock=lambda: next(steps))
    channels = _channels()
    first = p.profile(channels)
    second = p.profile(channels)           # clock stepped back to 40
    third = p.profile(channels)
    assert first.profiled_at_s == 100.0
    assert second.profiled_at_s == 100.0   # clamped, not 40
    assert third.profiled_at_s == 120.0
    # Explicit now_s is clamped the same way.
    backwards = p.profile(channels, now_s=10.0)
    assert backwards.profiled_at_s == 120.0


def test_profile_with_retry_exhaustion():
    """Regression: after ``max_retries`` retries the sequence gives up
    with ``profile=None``, and the elapsed time accounts for every
    exponential-backoff wait (60 + 120 for two retries)."""
    from repro.resilience import FlakyTestMachine
    profiler = NodeMarginProfiler(FlakyTestMachine(fail_calls=99))
    outcome = profiler.profile_with_retry(
        _channels(), now_s=1000.0, max_retries=2, backoff_s=60.0)
    assert not outcome.succeeded
    assert outcome.profile is None
    assert outcome.attempts == 3          # initial try + 2 retries
    assert outcome.elapsed_s == 180.0
    assert profiler.failed_attempts == 3
    assert profiler.last_profile is None


def test_profile_with_retry_zero_retries_single_attempt():
    from repro.resilience import FlakyTestMachine
    profiler = NodeMarginProfiler(FlakyTestMachine(fail_calls=99))
    outcome = profiler.profile_with_retry(
        _channels(), now_s=0.0, max_retries=0, backoff_s=60.0)
    assert outcome.attempts == 1
    assert outcome.elapsed_s == 0.0
    assert not outcome.succeeded


def test_profile_with_retry_recovers_after_backoff():
    from repro.resilience import FlakyTestMachine
    profiler = NodeMarginProfiler(FlakyTestMachine(fail_calls=1))
    outcome = profiler.profile_with_retry(
        _channels(), now_s=0.0, max_retries=3, backoff_s=30.0)
    assert outcome.succeeded
    assert outcome.attempts == 2
    # The successful profile is stamped after the backoff wait.
    assert outcome.profile.profiled_at_s == 30.0


def test_profile_with_retry_parameter_validation():
    profiler = NodeMarginProfiler()
    with pytest.raises(ValueError):
        profiler.profile_with_retry(_channels(), now_s=0.0,
                                    max_retries=-1)
    with pytest.raises(ValueError):
        profiler.profile_with_retry(_channels(), now_s=0.0,
                                    backoff_s=0.0)


def test_margin_bucket_on_profile():
    prof = NodeMarginProfiler().profile(_channels(), now_s=0.0)
    assert prof.margin_bucket in (800, 600, 0)


def _manager_with_data():
    ch = Channel(index=0)
    ch.modules = [Module(ModuleSpec(), "M0", true_margin_mts=600),
                  Module(ModuleSpec(), "M1", true_margin_mts=800)]
    mgr = HeteroDMRManager(ch)
    data = {}
    for i in range(12):
        payload = [(3 * i + j) % 256 for j in range(64)]
        mgr.write(i * 64, payload)
        data[i * 64] = payload
    mgr.observe_utilization(0.2)
    return mgr, data


def test_fault_swap_moves_copies_to_good_module():
    mgr, data = _manager_with_data()
    old_free = mgr.free_module_index
    assert mgr.report_permanent_fault(old_free)
    assert mgr.free_module_index != old_free
    faulty = mgr.channel.modules[old_free]
    assert not faulty.holds_copies


def test_fault_swap_preserves_data():
    mgr, data = _manager_with_data()
    mgr.enter_read_mode()
    mgr.report_permanent_fault(mgr.free_module_index)
    for addr, payload in data.items():
        assert list(mgr.read(addr)) == payload


def test_fault_swap_resumes_read_mode():
    mgr, _ = _manager_with_data()
    mgr.enter_read_mode()
    mgr.report_permanent_fault(mgr.free_module_index)
    assert mgr.channel.frequency.state is FrequencyState.FAST


def test_fault_in_original_module_is_noop():
    mgr, _ = _manager_with_data()
    original_index = 1 - mgr.free_module_index
    assert not mgr.report_permanent_fault(original_index)


def test_fault_without_replication_is_noop():
    ch = Channel(index=0)
    ch.modules = [Module(ModuleSpec(), "M0"), Module(ModuleSpec(), "M1")]
    mgr = HeteroDMRManager(ch)
    assert not mgr.report_permanent_fault(1)


def test_fault_index_validation():
    mgr, _ = _manager_with_data()
    with pytest.raises(IndexError):
        mgr.report_permanent_fault(7)
