"""Tests for the performance harness (repro.perf)."""

import json

import pytest

from repro.perf import (BenchReport, SweepConfig, SweepRunner, cell_key,
                        load_baseline)

#: A small grid that still exercises every dedup case: a spec-only
#: design (fmr), margin-sensitive designs, and the >=50% bucket where
#: everything collapses to the baseline.
_SMALL = dict(suites=("linpack",), hierarchies=("Hierarchy1",),
              refs_per_core=60)


def _run(workers, cap_to_cpus=True):
    return SweepRunner(SweepConfig(workers=workers,
                                   cap_to_cpus=cap_to_cpus,
                                   **_SMALL)).run()


def test_sweep_worker_count_invariance():
    """1, 2, and 8 workers produce byte-identical cell results
    (wall-time fields aside).  cap_to_cpus=False forces the pool path
    even on single-core hosts."""
    serial = _run(1)
    views = [json.dumps(serial.deterministic_view(), sort_keys=True)]
    for workers in (2, 8):
        r = _run(workers, cap_to_cpus=False)
        views.append(json.dumps(r.deterministic_view(), sort_keys=True))
        assert r.unique_simulations == serial.unique_simulations
    assert views[0] == views[1] == views[2]


def test_sweep_dedups_effective_cells():
    result = _run(1)
    assert len(result.cells) == 19       # 1 baseline + 3 designs x 2 x 3
    assert result.unique_simulations < len(result.cells)
    assert result.events_processed > 0
    assert result.events_per_second > 0
    # Aliased cells carry the shared simulation's outcome: the >=50%
    # bucket collapses every design onto the baseline cell.
    by_cell = {(c["design"], c["margin_mts"], c["bucket"]): c
               for c in result.cells}
    base = by_cell[("baseline", 800, "0-25")]
    collapsed = by_cell[("hetero-dmr", 800, "50-100")]
    assert collapsed["effective_design"] == "baseline"
    assert collapsed["time_ns"] == base["time_ns"]
    assert collapsed["dram_reads"] == base["dram_reads"]


def test_cell_key_normalizes_inert_knobs():
    fmr_800 = dict(suite="linpack", hierarchy="Hierarchy1",
                   design="fmr", margin_mts=800, bucket="0-25",
                   seed=1)
    fmr_600 = dict(fmr_800, margin_mts=600)
    assert cell_key(fmr_800) == cell_key(fmr_600)
    hdmr_800 = dict(fmr_800, design="hetero-dmr")
    hdmr_600 = dict(hdmr_800, margin_mts=600)
    assert cell_key(hdmr_800) != cell_key(hdmr_600)
    # Utilization only matters through the effective design.
    collapsed = dict(hdmr_800, bucket="50-100")
    base = dict(fmr_800, design="baseline")
    assert cell_key(collapsed) == cell_key(base)


def test_sweep_config_validation():
    with pytest.raises(ValueError):
        SweepConfig(refs_per_core=0)
    with pytest.raises(ValueError):
        SweepConfig(hierarchies=("Hierarchy9",))
    with pytest.raises(ValueError):
        SweepConfig(buckets=("0-99",))


def test_reference_pass_simulates_every_cell():
    from repro.perf.bench import _reference_pass
    config = SweepConfig(designs=("baseline", "fmr"), **_SMALL)
    wall_s, n_cells = _reference_pass(config)
    assert n_cells == len(config.cells()) == 7
    assert wall_s > 0


def test_load_baseline_missing_file(tmp_path):
    assert load_baseline(tmp_path / "nope.json") is None


def test_bench_report_roundtrip(tmp_path):
    report = BenchReport(
        refs_per_core=60, n_cells=19, unique_simulations=7,
        workers_requested=8, workers_used=1, cpu_capacity=1,
        cap_reason="cpu-capacity",
        fast_wall_s=1.5, events_processed=1000,
        events_per_second=666.0)
    path = report.write(tmp_path / "BENCH_speedup.json")
    data = json.loads(path.read_text())
    assert data["bench"] == "fig12_sweep"
    assert data["unique_simulations"] == 7
    # A requested/used gap must always carry its explanation.
    assert data["workers"] == {"requested": 8, "used": 1,
                               "cpu_capacity": 1,
                               "cap_reason": "cpu-capacity"}
    assert data["regressed"] is False


def test_sweep_explains_worker_cap():
    """A sweep that cannot fan out must say why: on any host,
    requesting more workers than the affinity mask allows either caps
    to capacity or runs at full request — never a silent serial run."""
    from repro.perf.sweep import available_cpus
    capacity = available_cpus()
    assert capacity >= 1
    result = _run(workers=capacity + 7)
    assert result.cpu_capacity == capacity
    if result.workers_used < capacity + 7:
        assert result.cap_reason in ("cpu-capacity", "single-task",
                                     "pool-unavailable", "pool-broken")
    # An uncapped pool run (or serial request) reports no reason.
    serial = _run(workers=1)
    assert serial.workers_used == 1
    assert serial.cap_reason == ""


def test_sweep_survives_broken_pool(monkeypatch):
    """Workers dying mid-sweep must degrade to a serial rerun with
    identical results, not crash the bench."""
    from concurrent.futures.process import BrokenProcessPool
    import concurrent.futures as cf
    from repro.perf import sweep as sweep_mod

    class _BrokenPool:
        def __init__(self, max_workers=None):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            raise BrokenProcessPool("worker died")

    monkeypatch.setattr(cf, "ProcessPoolExecutor", _BrokenPool)
    result = SweepRunner(SweepConfig(workers=4, cap_to_cpus=False,
                                     **_SMALL)).run()
    assert result.workers_used == 1
    assert result.cap_reason == "pool-broken"
    clean = _run(1)
    assert json.dumps(result.deterministic_view(), sort_keys=True) == \
        json.dumps(clean.deterministic_view(), sort_keys=True)


def test_committed_baseline_is_loadable():
    baseline = load_baseline()
    assert baseline is not None
    assert baseline["refs_per_core"] > 0
    assert baseline["seed_serial_wall_s"] > 0
    assert baseline["events_per_second"] > 0
