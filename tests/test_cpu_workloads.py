"""Tests for the core model and the workload trace generators."""

import pytest

from repro.cpu.core import Core
from repro.cpu.trace import COMPUTE_IPC, TraceRecord, instructions_of
from repro.workloads import (PROFILES, TraceGenerator, get_profile,
                             suite_names)


def _core(records, mlp=2):
    return Core(0, iter(records), mlp_limit=mlp)


def test_instructions_of():
    rec = TraceRecord(0, False, 10, False)
    assert instructions_of(rec) == 1 + 10 * COMPUTE_IPC


def test_core_consumes_trace():
    c = _core([TraceRecord(0, False, 1, False)])
    assert c.next_record() is not None
    assert c.next_record() is None
    assert c.done


def test_core_pending_record_replayed():
    rec = TraceRecord(0, False, 0, False)
    c = _core([rec])
    got = c.next_record()
    c.block(got)
    assert c.pending is got
    assert c.next_record() is got


def test_core_mlp_limit_blocks():
    c = _core([], mlp=2)
    c.outstanding = 2
    rec = TraceRecord(0, False, 0, False)
    assert not c.can_issue(rec)
    c.block(rec)
    assert c.blocked_on_mlp


def test_core_dependent_blocks_on_outstanding():
    c = _core([], mlp=8)
    c.outstanding = 1
    rec = TraceRecord(0, False, 0, True)
    assert not c.can_issue(rec)
    c.block(rec)
    assert c.blocked_on_dependency


def test_miss_return_unblocks_mlp():
    c = _core([], mlp=1)
    c.outstanding = 1
    c.block(TraceRecord(0, False, 0, False))
    c.miss_returned(100.0)
    assert not c.blocked_on_mlp
    assert c.time_ns == 100.0
    assert c.stats.mlp_stall_ns == 100.0


def test_dependency_unblocks_only_at_zero():
    c = _core([], mlp=8)
    c.outstanding = 2
    c.block(TraceRecord(0, False, 0, True))
    c.miss_returned(50.0)
    assert c.blocked_on_dependency
    c.miss_returned(80.0)
    assert not c.blocked_on_dependency


def test_miss_return_without_outstanding_raises():
    with pytest.raises(RuntimeError):
        _core([]).miss_returned(0.0)


def test_invalid_mlp():
    with pytest.raises(ValueError):
        Core(0, iter([]), mlp_limit=0)


def test_all_six_suites_registered():
    assert suite_names() == ["linpack", "hpcg", "graph500", "coral2",
                             "lulesh", "npb"]


def test_unknown_suite_raises():
    with pytest.raises(KeyError):
        get_profile("spec2017")


def test_traces_are_deterministic():
    a = list(TraceGenerator(get_profile("hpcg"), 0, 42).records(200))
    b = list(TraceGenerator(get_profile("hpcg"), 0, 42).records(200))
    assert a == b


def test_traces_differ_by_core():
    a = list(TraceGenerator(get_profile("hpcg"), 0).records(200))
    b = list(TraceGenerator(get_profile("hpcg"), 1).records(200))
    assert a != b


def test_traces_differ_by_seed():
    a = list(TraceGenerator(get_profile("hpcg"), 0, 1).records(200))
    b = list(TraceGenerator(get_profile("hpcg"), 0, 2).records(200))
    assert a != b


def test_trace_count():
    gen = TraceGenerator(get_profile("linpack"), 0)
    assert len(list(gen.records(123))) == 123


def test_addresses_within_footprint():
    prof = get_profile("lulesh")
    for rec in TraceGenerator(prof, 3).records(500):
        assert 0 <= rec.address < prof.footprint_bytes
        assert rec.address % 64 == 0


def test_write_fraction_approximates_profile():
    prof = get_profile("linpack")
    recs = list(TraceGenerator(get_profile("linpack"), 0).records(8000))
    frac = sum(r.is_write for r in recs) / len(recs)
    assert abs(frac - prof.write_fraction) < 0.03


def test_graph500_has_more_dependent_loads():
    g = sum(r.dependent for r in
            TraceGenerator(get_profile("graph500"), 0).records(5000))
    l = sum(r.dependent for r in
            TraceGenerator(get_profile("linpack"), 0).records(5000))
    assert g > 3 * max(1, l)


def test_stream_suite_has_sequential_runs():
    recs = list(TraceGenerator(get_profile("linpack"), 0).records(2000))
    seq = sum(1 for a, b in zip(recs, recs[1:])
              if b.address - a.address == 64)
    assert seq > len(recs) * 0.2


def test_profiles_validate():
    from repro.workloads.base import WorkloadProfile
    with pytest.raises(ValueError):
        WorkloadProfile(name="x", footprint_bytes=1, stream_fraction=0.5,
                        stream_run_lines=8, nstreams=1, write_fraction=0.1,
                        dependent_fraction=0.1, gap_cycles_mean=1.0,
                        mpi_fraction=0.1)
    with pytest.raises(ValueError):
        WorkloadProfile(name="x", footprint_bytes=2 << 20,
                        stream_fraction=1.5, stream_run_lines=8,
                        nstreams=1, write_fraction=0.1,
                        dependent_fraction=0.1, gap_cycles_mean=1.0,
                        mpi_fraction=0.1)


def test_mpi_fraction_inflates_gaps():
    from dataclasses import replace
    prof = get_profile("linpack")
    no_mpi = replace(prof, mpi_fraction=0.0)
    with_mpi = replace(prof, mpi_fraction=0.5)
    g0 = sum(r.gap_cycles for r in
             TraceGenerator(no_mpi, 0, 7).records(4000))
    g1 = sum(r.gap_cycles for r in
             TraceGenerator(with_mpi, 0, 7).records(4000))
    assert g1 > g0 * 1.3
