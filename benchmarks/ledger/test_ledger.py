"""Tests for the performance ledger.

Run with ``PYTHONPATH=src python -m pytest -q benchmarks/ledger``.
"""

import json
import re
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import hostprobe  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from sampler import LayerMap, StackSampler  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
REPRO = "/checkout/src/repro"
ASYNCIO = "/usr/lib/python3.11/asyncio"
STDLIB = "/usr/lib/python3.11/heapq.py"


def _benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _ledger_json() -> dict:
    return json.loads((HERE / "ledger.json").read_text())


def _declared() -> set:
    bench = _benchmark_json()
    return {m["name"] for m in bench["end_to_end"] + bench["per_layer"]}


# -- metric declarations ------------------------------------------------------

def test_metric_names_are_valid_and_unique():
    names = [m[0] for m in run.E2E_METRICS + run.PER_LAYER_METRICS]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(set(names)) == len(names)


def test_benchmark_json_declares_exactly_the_ledger_metrics():
    bench = _benchmark_json()
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in bench["end_to_end"]] == list(run.E2E_METRICS)
    assert [(m["name"], m["unit"], m["better"])
            for m in bench["per_layer"]] == list(run.PER_LAYER_METRICS)
    assert [w["name"] for w in bench["workloads"]] == list(
        workloads.WORKLOADS)
    assert bench["paths"] == ["benchmarks/ledger"]


def test_layer_map_names_declared_metrics_and_workloads():
    declared = _declared()
    for entry in _ledger_json()["layer_map"]:
        for metric in entry["layers"] + entry["moves"] + entry["unmoved"]:
            assert metric in declared, metric
        for name in entry["on"] + entry["little_on"]:
            assert name in workloads.WORKLOADS, name


def _fake_run(counts, trace=None, wall_s=2.0):
    doc = {"setup_s": 0.2, "norm_setup_s": 0.2, "wall_s": wall_s,
           "norm_wall_s": wall_s,
           "probe_s": 0.02, "peak_rss_mb": 50.0,
           "outcome": {"attempted": 10, "failed": 0, "ops": 100.0,
                       "digest": "d", "counts": counts, "failures": []}}
    if trace is not None:
        doc["trace"] = trace
    return doc


def test_result_line_carries_every_declared_metric():
    trace = {"samples": 100, "span_samples": 0,
             "self": {"cache": 60, "dram": 40},
             "busy": {"cache": 100, "dram": 40}}
    runs = {"plain": [_fake_run({}), _fake_run({}, wall_s=2.2)],
            "traced": [_fake_run({}, trace, wall_s=2.1)]}
    summary = run.summarize("node-long", 1, runs)
    bench = _benchmark_json()
    assert set(run.contract_metrics(summary, trace=False)) == {
        m["name"] for m in bench["end_to_end"]}
    layer = run.contract_metrics(summary, trace=True)
    assert set(layer) == {m["name"] for m in bench["per_layer"]}
    assert layer["cache.self_s"]["value"] == pytest.approx(0.6 * 2.1)
    assert layer["trace.overhead"]["value"] == pytest.approx(2.1 / 2.0)
    assert summary["trace_checks"]["self_share"] == pytest.approx(1.0)


def test_undeclared_count_is_refused():
    runs = {"plain": [_fake_run({"made.up": 1})], "traced": []}
    with pytest.raises(ValueError):
        run.summarize("soak", 1, runs)


def test_repeats_that_disagree_fail_their_operations():
    other = _fake_run({})
    other["outcome"]["digest"] = "e"
    summary = run.summarize("soak", 1, {"plain": [_fake_run({}), other],
                                        "traced": []})
    assert not summary["correct"]
    assert (summary["attempted"], summary["failed"]) == (20, 10)


def test_outputs_changed_at_the_recorded_seed_is_incorrect():
    recorded = _ledger_json()["digests"]["soak"]
    runs = {"plain": [_fake_run({})], "traced": []}
    summary = run.summarize("soak", recorded["seed"], runs)
    assert summary["outputs_changed"] is True
    assert not summary["correct"]
    other_seed = run.summarize("soak", recorded["seed"] + 1, runs)
    assert other_seed["outputs_changed"] is None
    assert other_seed["correct"]
    runs["plain"][0]["outcome"]["digest"] = recorded["digest"]
    same = run.summarize("soak", recorded["seed"], runs)
    assert same["outputs_changed"] is False and same["correct"]


def test_set_up_probes_count_toward_setup_s():
    runs = {"plain": [_fake_run({})], "traced": [],
            "setups": [{"setup_s": v, "norm_setup_s": v}
                       for v in (0.1, 0.3, 0.4, 0.5)]}
    summary = run.summarize("soak", 1, runs)
    assert summary["end_to_end"]["setup_s"]["n"] == 5
    assert summary["end_to_end"]["setup_s"]["median"] == pytest.approx(0.3)
    assert summary["end_to_end"]["wall_s"]["n"] == 1
    runs["setups"].append({"error": "boom"})
    assert not run.summarize("soak", 1, runs)["correct"]


def test_overhead_is_checked_only_over_enough_pairs():
    trace = {"samples": 100, "span_samples": 0, "self": {"cache": 100},
             "busy": {"cache": 100}}
    for pairs, expected in ((1, None), (run.TRACE_CHECK_PAIRS, True)):
        runs = {"plain": [_fake_run({}) for _ in range(pairs)],
                "traced": [_fake_run({}, trace) for _ in range(pairs)]}
        checks = run.summarize("soak", 1, runs)["trace_checks"]
        assert checks["pairs"] == pairs and checks["ok"] is expected


def test_missing_sources_exit_2_without_a_result(tmp_path, capsys):
    assert run.main(["--src", str(tmp_path), "--workload", "soak"]) == 2
    assert capsys.readouterr().out == ""


# -- sampler attribution ------------------------------------------------------

class _Code:
    def __init__(self, filename):
        self.co_filename = filename


class _Frame:
    def __init__(self, code, back):
        self.f_code = code
        self.f_back = back


def _stack(*filenames):
    """A fake frame chain, innermost file first."""
    frame = None
    for filename in reversed(filenames):
        frame = _Frame(_Code(filename), frame)
    return frame


def _sampler():
    return StackSampler(LayerMap(REPRO, ASYNCIO))


def test_stdlib_frames_charge_the_nearest_repro_frame():
    sampler = _sampler()
    sampler.record(_stack(STDLIB, REPRO + "/sim/engine.py",
                          REPRO + "/sim/node.py"))
    assert sampler.self_counts == {"sim.engine": 1}
    assert sampler.busy_counts == {"sim.engine": 1, "sim.node": 1}


def test_asyncio_frames_charge_asyncio():
    sampler = _sampler()
    sampler.record(_stack(STDLIB, ASYNCIO + "/queues.py",
                          REPRO + "/service/soak.py",
                          ASYNCIO + "/base_events.py"))
    assert sampler.self_counts == {"asyncio": 1}
    assert sampler.busy_counts == {"asyncio": 1, "service.soak": 1}


def test_repro_modules_outside_every_layer_charge_their_caller():
    sampler = _sampler()
    sampler.record(_stack(REPRO + "/hpc/cluster.py",
                          REPRO + "/hpc/scheduler.py",
                          REPRO + "/hpc/simulator.py"))
    assert sampler.self_counts == {"hpc.scheduler": 1}
    assert set(sampler.busy_counts) == {"hpc.scheduler", "hpc.simulator"}
    assert LayerMap(REPRO, ASYNCIO).layer_of(
        REPRO + "/cache/cache.py") == "cache"


def test_samples_outside_every_layer_stay_unattributed():
    sampler = _sampler()
    sampler.record(_stack(STDLIB, str(HERE / "worker.py")))
    assert sampler.samples == 1
    assert not sampler.self_counts and not sampler.busy_counts


def test_span_counts_samples_under_its_code():
    span = _Code(REPRO + "/sim/node.py")
    sampler = StackSampler(LayerMap(REPRO, ASYNCIO), span_code=span)
    inner = _stack(REPRO + "/cache/cache.py")
    inner.f_back = _Frame(span, None)
    sampler.record(inner)
    sampler.record(_stack(REPRO + "/dram/bank.py"))
    assert (sampler.samples, sampler.span_samples) == (2, 1)
    assert sampler.busy_counts == {"cache": 1, "sim.node": 1, "dram": 1}


def test_signal_sampler_sees_a_busy_layer(tmp_path):
    filename = str(tmp_path / "repro" / "cache" / "spin.py")
    code = compile("def spin(until):\n"
                   "    n = 0\n"
                   "    while clock() < until:\n"
                   "        n += 1\n", filename, "exec")
    scope = {"clock": time.process_time}
    exec(code, scope)
    sampler = StackSampler(LayerMap(str(tmp_path / "repro"), ASYNCIO))
    sampler.start()
    try:
        scope["spin"](time.process_time() + 0.2)
    finally:
        sampler.stop()
    assert sampler.samples > 0
    assert sampler.self_counts["cache"] >= 0.9 * sampler.samples


# -- host probe ---------------------------------------------------------------

def test_normalize_rescales_each_segment_by_the_probes_around_it():
    nominal = hostprobe.NOMINAL_S
    probes = [nominal, 2 * nominal, nominal, nominal]
    assert hostprobe.normalize([3.0, 1.0, 2.0], probes) == pytest.approx(
        3.0 * 0.75 + 1.0 * 0.75 + 2.0)
    with pytest.raises(ValueError):
        hostprobe.normalize([1.0], [nominal])


def test_host_probe_interleaves_the_timed_call():
    probe = hostprobe.HostProbe(period_s=0.05, iterations=2000)
    started = time.perf_counter()
    probe.start()
    timed_from = time.perf_counter()
    while time.perf_counter() < started + 0.3:
        pass
    elapsed = time.perf_counter() - timed_from
    probe.stop()
    assert len(probe.segments) >= 3
    assert len(probe.probes) == len(probe.segments) + 1
    assert probe.wall_s + sum(probe.probes[1:-1]) == pytest.approx(
        elapsed, abs=0.01)
    assert probe.norm_wall_s > 0


# -- workloads at reduced size ----------------------------------------------

REDUCED = {
    "fig12-short": lambda seed, tmp: workloads.fig12_short(
        seed, suites=("graph500",), hierarchies=("Hierarchy1",),
        refs_per_core=20),
    "node-long": lambda seed, tmp: workloads.node_long(
        seed, suites=("linpack",), refs_per_core=60),
    "soak": lambda seed, tmp: workloads.soak(
        seed, registry_dir=tmp, events=4000, verify_events=1000),
    # The fault plan needs 20k events: with fewer the partition ends
    # before the lease does, and no write gets fenced.
    "ha-drill": lambda seed, tmp: workloads.ha_drill(
        seed, registry_dir=tmp, events=20_000),
    "cluster-fast": lambda seed, tmp: workloads.cluster_fast(
        seed, total_nodes=400, job_count=120),
}


@pytest.fixture(scope="module")
def reduced_outcomes(tmp_path_factory):
    out = {}
    for name, prepare in REDUCED.items():
        pair = []
        for attempt in range(2):
            tmp = tmp_path_factory.mktemp("{}-{}".format(name, attempt))
            call, outcome = prepare(7, str(tmp))
            pair.append(outcome(call()))
        out[name] = pair
    return out


@pytest.mark.parametrize("name", list(REDUCED))
def test_reduced_workload_repeats_identically(reduced_outcomes, name):
    first, second = reduced_outcomes[name]
    assert first.failures == [] and first.failed == 0
    assert first.attempted > 0 and first.ops > 0
    assert first.digest == second.digest


def test_workloads_emit_every_declared_count(reduced_outcomes):
    declared = {name for name, _, _ in workloads.COUNT_METRICS}
    emitted = set()
    for pair in reduced_outcomes.values():
        assert set(pair[0].counts) <= declared
        emitted |= set(pair[0].counts)
    assert emitted == declared


# -- compare verdicts --------------------------------------------------------

PARENT = [10.0, 10.1, 10.2, 10.0, 10.3, 10.1, 10.2, 10.0, 10.1, 10.2]


def test_clear_gain_is_improved():
    change = [v * 0.8 for v in PARENT]
    assert compare.verdict(PARENT, change, "lower", 0.1) == "improved"
    assert compare.verdict(PARENT, change, "higher", 0.1) == "worse"


def test_gain_needs_nine_wins_in_ten():
    change = [v * 0.8 for v in PARENT]
    change[0] = change[1] = 10.5
    assert compare.verdict(PARENT, change, "lower", 0.2) == "unchanged"


def test_gain_must_exceed_the_parent_spread():
    change = [v - 0.01 for v in PARENT]
    assert compare.verdict(PARENT, change, "lower", 0.1) == "unchanged"


def test_wide_spread_is_unresolved_unless_every_run_wins():
    parent = [10.0, 14.0, 9.0, 15.0, 10.0, 14.0, 9.0, 15.0, 10.0, 14.0]
    change = [v * 1.02 for v in parent]
    assert compare.verdict(parent, change, "lower", 0.1) == "unresolved"
    faster = [v * 0.5 for v in parent]
    assert compare.verdict(parent, faster, "lower", 0.1) == "improved"


def test_small_worsening_within_the_bound_is_unchanged():
    change = [v * 1.05 for v in PARENT]
    assert compare.verdict(PARENT, change, "lower", 0.1) == "unchanged"
    assert compare.verdict(PARENT, change, "lower", 0.03) == "worse"


def test_failed_share():
    runs = [{"attempted": 10, "failed": 1}, {"attempted": 30, "failed": 0}]
    assert compare.failed_share(runs) == pytest.approx(0.025)


def test_change_side_without_metrics_is_failed_not_a_crash(monkeypatch):
    def fake_side(tree, workload, seed):
        if tree.name == "change":
            return {"attempted": 10, "failed": 10, "correct": False,
                    "metrics": {}}
        return {"attempted": 10, "failed": 0, "correct": True,
                "metrics": {name: 1.0 for name, _, _, _
                            in run.E2E_METRICS}}

    monkeypatch.setattr(compare, "run_side", fake_side)
    report = compare.compare_workload(Path("parent"), Path("change"),
                                      "soak", 3, None)
    assert report["failed_share"] == {"parent": 0.0, "change": 1.0}
    assert report["failed_share_up"] and not report["correct"]
    for row in report["metrics"].values():
        assert row["verdict"] == "failed" and row["change"] is None
    compare.print_report("soak", report)
