"""Tests for the unified observability layer (``repro.obs``)."""

import dataclasses
import json

import pytest

from repro.cli import main
from repro.obs import (DEFAULT_BUCKETS, JsonlTraceSink, MemoryTraceSink,
                       NullRecorder, Recorder, get_recorder, read_trace,
                       recording, set_recorder, to_json, to_prometheus)
from repro.obs.recorder import metric_key
from tests.conftest import metric


# -- recorder ----------------------------------------------------------------------


def test_counter_accumulates_by_series():
    rec = Recorder()
    rec.counter("freq", "transitions", direction="fast")
    rec.counter("freq", "transitions", 2, direction="fast")
    rec.counter("freq", "transitions", direction="safe")
    assert metric(rec, "counters", "freq", "transitions",
                  direction="fast") == 3
    assert metric(rec, "counters", "freq", "transitions",
                  direction="safe") == 1
    assert metric(rec, "counters", "freq", "missing") is None


def test_counter_rejects_negative():
    with pytest.raises(ValueError):
        Recorder().counter("a", "b", -1)


def test_gauge_latest_value_wins():
    rec = Recorder()
    rec.gauge("sim", "row_hit_rate", 0.5)
    rec.gauge("sim", "row_hit_rate", 0.8)
    assert metric(rec, "gauges", "sim", "row_hit_rate") == 0.8
    assert metric(rec, "gauges", "sim", "missing") is None


def test_label_order_does_not_split_series():
    rec = Recorder()
    rec.counter("s", "n", a=1, b=2)
    rec.counter("s", "n", b=2, a=1)
    assert metric(rec, "counters", "s", "n", a=1, b=2) == 2
    assert len(rec.snapshot()["counters"]) == 1


@pytest.mark.parametrize("labels", [
    {}, {"result": "ok"}, {"zone": 3, "area": "b", "mode": None}])
def test_metric_key_equals_the_sorted_tuple_form(labels):
    assert metric_key("s", "n", labels) == (
        "s", "n", tuple(sorted((k, str(v)) for k, v in labels.items())))


def test_one_label_counter_merges_with_its_sorted_form_series():
    rec = Recorder()
    rec.counter("ha", "lease_renewals", result="ok")
    # The series as the sorted-tuple form keys it.
    rec._counters[("ha", "lease_renewals", (("result", "ok"),))] += 4
    rec.counter("x", "y", shard=1)
    rec.counter("x", "y", shard="1")
    assert metric(rec, "counters", "ha", "lease_renewals",
                  result="ok") == 5
    assert metric(rec, "counters", "x", "y", shard=1) == 2
    assert [row["labels"] for row in rec.snapshot()["counters"]] == [
        {"result": "ok"}, {"shard": "1"}]


def test_histogram_buckets_are_cumulative():
    rec = Recorder(buckets=(1.0, 10.0, 100.0))
    for v in (0.5, 5.0, 50.0, 500.0):
        rec.observe("x", "lat", v)
    [hist] = rec.snapshot()["histograms"]
    assert hist["count"] == 4
    assert hist["sum"] == 555.5
    assert hist["min"] == 0.5
    assert hist["max"] == 500.0
    assert hist["buckets"] == [[1.0, 1], [10.0, 2], [100.0, 3]]


def test_timer_uses_injected_clock():
    ticks = iter([10.0, 13.5])
    rec = Recorder(clock=lambda: next(ticks))
    with rec.timer("recovery", "restore_s"):
        pass
    [hist] = rec.snapshot()["histograms"]
    assert hist["count"] == 1
    assert hist["sum"] == 3.5


def test_bucket_validation():
    with pytest.raises(ValueError):
        Recorder(buckets=())
    with pytest.raises(ValueError):
        Recorder(buckets=(10.0, 1.0))


def test_histogram_quantiles_are_exact_nearest_rank():
    rec = Recorder()
    values = list(range(1, 1001))        # 1..1000
    # Insertion order must not matter: quantiles sort the samples.
    for v in reversed(values):
        rec.observe("svc", "lat", float(v))
    [hist] = rec.snapshot()["histograms"]
    assert hist["p50"] == 500.0          # ceil(0.5 * 1000) = rank 500
    assert hist["p99"] == 990.0
    assert hist["p999"] == 999.0
    assert hist["max"] == 1000.0


def test_histogram_quantiles_single_sample_and_clamping():
    rec = Recorder()
    rec.observe("svc", "lat", 0.25)
    [hist] = rec.snapshot()["histograms"]
    # With one sample every quantile is that sample (rank clamps to 1).
    assert hist["p50"] == hist["p99"] == hist["p999"] == 0.25


def test_histogram_quantiles_deterministic_across_recorders():
    def build(order):
        rec = Recorder()
        for v in order:
            rec.observe("svc", "lat", v)
        return rec.histogram_stats("svc", "lat")

    values = [0.5, 0.1, 0.9, 0.3, 0.7]
    assert build(values) == build(list(reversed(values)))


def test_histogram_stats_accessor():
    rec = Recorder()
    assert rec.histogram_stats("svc", "lat") is None
    rec.observe("svc", "lat", 1.5, shard="003")
    stats = rec.histogram_stats("svc", "lat", shard="003")
    assert stats["count"] == 1
    assert stats["p999"] == 1.5


def test_snapshot_sorted_and_json_plain():
    rec = Recorder()
    rec.counter("z", "last")
    rec.counter("a", "first")
    snap = rec.snapshot()
    assert [c["subsystem"] for c in snap["counters"]] == ["a", "z"]
    json.dumps(snap)   # everything JSON-serializable


def test_null_recorder_is_inert_default():
    rec = get_recorder()
    assert isinstance(rec, NullRecorder)
    assert not rec.enabled
    rec.counter("a", "b")
    rec.gauge("a", "b", 1.0)
    rec.observe("a", "b", 1.0)
    rec.event("a", "b", 0.0)
    with rec.timer("a", "b"):
        pass
    assert rec.snapshot() == {"counters": [], "gauges": [],
                              "histograms": []}


def test_set_recorder_returns_previous():
    live = Recorder()
    previous = set_recorder(live)
    try:
        assert get_recorder() is live
    finally:
        set_recorder(previous)
    assert not get_recorder().enabled


def test_recording_restores_on_exit():
    live = Recorder()
    with recording(live) as rec:
        assert rec is live
        assert get_recorder() is live
    assert not get_recorder().enabled


def test_recording_restores_after_exception():
    with pytest.raises(RuntimeError):
        with recording(Recorder()):
            raise RuntimeError("boom")
    assert not get_recorder().enabled


# -- trace sinks -------------------------------------------------------------------


def test_jsonl_sink_round_trip(tmp_path):
    path = tmp_path / "trace.jsonl"
    with JsonlTraceSink(path) as sink:
        sink.emit("freq", "transition", 10.0, {"to_state": "fast"})
        sink.emit("epoch", "epoch_roll", 20.0)
    events = read_trace(path)
    assert events == [
        {"seq": 0, "t_ns": 10.0, "subsystem": "freq",
         "event": "transition", "fields": {"to_state": "fast"}},
        {"seq": 1, "t_ns": 20.0, "subsystem": "epoch",
         "event": "epoch_roll", "fields": {}},
    ]
    assert sink.events_emitted == 2


def test_trace_lines_are_canonical(tmp_path):
    path = tmp_path / "trace.jsonl"
    with JsonlTraceSink(path) as sink:
        sink.emit("a", "b", 1.0, {"z": 1, "a": 2})
    line = path.read_text().strip()
    assert line == json.dumps(json.loads(line), sort_keys=True,
                              separators=(",", ":"))


def test_read_trace_rejects_corrupt_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"seq":0}\nnot json\n')
    with pytest.raises(ValueError, match="line 2"):
        read_trace(path)


def test_memory_sink_matches_file_shape(tmp_path):
    mem = MemoryTraceSink()
    path = tmp_path / "trace.jsonl"
    with JsonlTraceSink(path) as disk:
        for sink in (mem, disk):
            sink.emit("a", "b", 1.0, {"k": "v"})
    assert mem.events == read_trace(path)


def test_recorder_forwards_events_to_sink():
    sink = MemoryTraceSink()
    rec = Recorder(trace=sink)
    rec.event("chaos", "chaos_inject", 5.0, count=3)
    assert sink.events == [{"seq": 0, "t_ns": 5.0, "subsystem": "chaos",
                            "event": "chaos_inject",
                            "fields": {"count": 3}}]


# -- exporters ---------------------------------------------------------------------


def _sample_snapshot():
    rec = Recorder(buckets=(1.0, 10.0))
    rec.counter("freq", "transitions", 3, direction="fast")
    rec.gauge("sim", "row_hit_rate", 0.75, suite="linpack")
    rec.observe("fleet", "profile_latency_s", 0.5)
    rec.observe("fleet", "profile_latency_s", 5.0)
    return rec.snapshot()


def test_prometheus_counters_and_gauges():
    text = to_prometheus(_sample_snapshot())
    assert "# TYPE repro_freq_transitions_total counter" in text
    assert 'repro_freq_transitions_total{direction="fast"} 3' in text
    assert "# TYPE repro_sim_row_hit_rate gauge" in text
    assert 'repro_sim_row_hit_rate{suite="linpack"} 0.75' in text


def test_prometheus_histogram_series():
    text = to_prometheus(_sample_snapshot())
    assert 'repro_fleet_profile_latency_s_bucket{le="1"} 1' in text
    assert 'repro_fleet_profile_latency_s_bucket{le="10"} 2' in text
    assert 'repro_fleet_profile_latency_s_bucket{le="+Inf"} 2' in text
    assert "repro_fleet_profile_latency_s_sum 5.5" in text
    assert "repro_fleet_profile_latency_s_count 2" in text
    assert "repro_fleet_profile_latency_s_min 0.5" in text
    assert "repro_fleet_profile_latency_s_max 5.0" in text


def test_prometheus_exports_exact_quantiles():
    text = to_prometheus(_sample_snapshot())
    assert "repro_fleet_profile_latency_s_p50 0.5" in text
    assert "repro_fleet_profile_latency_s_p99 5.0" in text
    assert "repro_fleet_profile_latency_s_p999 5.0" in text


def test_json_export_carries_exact_quantiles():
    doc = json.loads(to_json(_sample_snapshot()))
    [hist] = doc["histograms"]
    assert hist["p50"] == 0.5
    assert hist["p99"] == 5.0
    assert hist["p999"] == 5.0


def test_exporters_tolerate_quantile_free_snapshots():
    # Hand-built or pre-upgrade snapshots may lack the quantile keys;
    # the exporters must skip them, not crash.
    snapshot = {"counters": [], "gauges": [], "histograms": [{
        "subsystem": "fleet", "name": "lat", "labels": {},
        "count": 1, "sum": 1.0, "min": 1.0, "max": 1.0,
        "buckets": [[1.0, 1]]}]}
    text = to_prometheus(snapshot)
    assert "repro_fleet_lat_min 1.0" in text
    assert "_p999" not in text


def test_prometheus_escapes_label_values():
    rec = Recorder()
    rec.counter("a", "b", reason='say "hi"\\now')
    text = to_prometheus(rec.snapshot())
    assert 'reason="say \\"hi\\"\\\\now"' in text


def test_json_export_is_canonical():
    text = to_json(_sample_snapshot())
    assert text.endswith("\n")
    doc = json.loads(text)
    assert text == json.dumps(doc, sort_keys=True,
                              separators=(",", ":")) + "\n"


def test_exports_deterministic_across_recorders():
    assert to_prometheus(_sample_snapshot()) == \
        to_prometheus(_sample_snapshot())
    assert to_json(_sample_snapshot()) == to_json(_sample_snapshot())


# -- instrumented subsystems -------------------------------------------------------


def test_frequency_machine_emits_transitions():
    from repro.dram.frequency import FrequencyMachine
    sink = MemoryTraceSink()
    with recording(Recorder(trace=sink)) as rec:
        machine = FrequencyMachine()
        machine.speed_up(0.0)
        machine.slow_down(2000.0)
    assert metric(rec, "counters", "freq", "transitions",
                  direction="fast") == 1
    assert metric(rec, "counters", "freq", "transitions",
                  direction="safe") == 1
    assert [e["event"] for e in sink.events] == ["transition",
                                                 "transition"]
    assert sink.events[0]["fields"]["to_state"] == "fast"


def test_epoch_guard_emits_trips_and_rolls():
    from repro.core.epoch_guard import NS_PER_HOUR, EpochGuard
    sink = MemoryTraceSink()
    with recording(Recorder(trace=sink)) as rec:
        guard = EpochGuard(threshold=5)
        guard.record_error(0.0, count=6)          # trip
        guard.record_error(1.5 * NS_PER_HOUR)     # roll re-arms
    assert metric(rec, "counters", "epoch", "trips") == 1
    assert metric(rec, "counters", "epoch", "rolls") == 1
    kinds = [e["event"] for e in sink.events]
    assert kinds == ["epoch_trip", "epoch_roll"]


def test_registry_records_event_counters():
    from repro.fleet.registry import MarginRegistry
    with recording(Recorder()) as rec:
        registry = MarginRegistry()
        registry.record_profile(0, 800, time_s=1.0)
        registry.record_demotion(0, 600, time_s=2.0)
    for kind in ("profile", "demote"):
        assert metric(rec, "counters", "registry", "events",
                      kind=kind) == 1
    assert metric(rec, "gauges", "registry", "last_seq") == 2


def test_uninstrumented_run_identical_under_null_recorder():
    """The NullRecorder default must not perturb simulation output:
    a traced run and a bare run produce identical results."""
    from repro.sim import NodeConfig, simulate_node

    def run():
        return simulate_node(NodeConfig(
            suite="linpack", refs_per_core=800,
            memory_utilization=0.15, seed=5))

    bare = run()
    with recording(Recorder(trace=MemoryTraceSink())):
        traced = run()
    assert dataclasses.asdict(bare) == dataclasses.asdict(traced)


# -- CLI ---------------------------------------------------------------------------


def test_obs_trace_chaos_smoke_deterministic(tmp_path, capsys):
    paths = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
    for path in paths:
        assert main(["obs", "trace", "--scenario", "chaos-smoke",
                     "--seed", "2026", "--out", str(path)]) == 0
    capsys.readouterr()
    first, second = (p.read_bytes() for p in paths)
    assert first == second
    assert first   # non-empty trace


def test_obs_summary_of_trace_file(tmp_path, capsys):
    path = tmp_path / "trace.jsonl"
    assert main(["obs", "trace", "--scenario", "chaos-smoke",
                 "--seed", "2026", "--out", str(path)]) == 0
    assert main(["obs", "summary", "--trace-file", str(path)]) == 0
    out = capsys.readouterr().out
    assert "trace summary" in out
    assert "freq" in out


def test_obs_summary_empty_trace_is_domain_failure(tmp_path, capsys):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    assert main(["obs", "summary", "--trace-file", str(path)]) == 1


def test_obs_summary_unreadable_trace_is_io_error(tmp_path, capsys):
    missing = tmp_path / "nope" / "trace.jsonl"
    assert main(["obs", "summary", "--trace-file", str(missing)]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_obs_summary_corrupt_trace_is_io_error(tmp_path, capsys):
    path = tmp_path / "bad.jsonl"
    path.write_text("not json\n")
    assert main(["obs", "summary", "--trace-file", str(path)]) == 2
    assert "corrupt" in capsys.readouterr().err


def test_obs_summary_requires_source(capsys):
    assert main(["obs", "summary"]) == 1
    assert "--trace-file or --scenario" in capsys.readouterr().err


def test_obs_trace_unwritable_out_is_io_error(tmp_path, capsys):
    out = tmp_path / "missing-dir" / "trace.jsonl"
    assert main(["obs", "trace", "--scenario", "chaos-smoke",
                 "--out", str(out)]) == 2
    assert "cannot open" in capsys.readouterr().err


def test_obs_export_json_to_file(tmp_path, capsys):
    out = tmp_path / "metrics.json"
    assert main(["obs", "export", "--scenario", "chaos-smoke",
                 "--seed", "2026", "--format", "json",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    doc = json.loads(out.read_text())
    assert doc["counters"]
    subsystems = {c["subsystem"] for c in doc["counters"]}
    assert {"freq", "epoch", "chaos", "recovery"} <= subsystems


def test_obs_export_prometheus_stdout(capsys):
    assert main(["obs", "export", "--scenario", "chaos-smoke",
                 "--seed", "2026"]) == 0
    out = capsys.readouterr().out
    assert "# TYPE repro_freq_transitions_total counter" in out
    assert "repro_chaos_crash_restarts_total" in out


def test_obs_export_unwritable_out_is_io_error(tmp_path, capsys):
    out = tmp_path / "missing-dir" / "metrics.txt"
    assert main(["obs", "export", "--scenario", "chaos-smoke",
                 "--out", str(out)]) == 2
    assert "cannot write" in capsys.readouterr().err


def test_obs_leaves_null_recorder_installed(tmp_path, capsys):
    assert main(["obs", "export", "--scenario", "chaos-smoke",
                 "--seed", "2026"]) == 0
    capsys.readouterr()
    assert not get_recorder().enabled


def test_default_buckets_ascending():
    assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)
