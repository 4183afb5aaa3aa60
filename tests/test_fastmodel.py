"""Fast fidelity tier: fidelity knob, calibration artifact,
closed-form model, cross-check gate, and sweep integration."""

import dataclasses
import json

import pytest

from repro.cache.hierarchy import HIERARCHIES
from repro.fastmodel import (Calibration, CalibrationError,
                             CalibrationMissingError,
                             CorruptCalibrationError, FastModelError,
                             StaleCalibrationError, grid_hash,
                             load_default_calibration,
                             performance_model_from_calibration,
                             predict_cell, run_calibration,
                             run_crosscheck, simulate_node_fast,
                             simulate_nodes_fast)
from repro.sim.fidelity import (FIDELITY_ENV_VAR, VALID_FIDELITIES,
                                resolve_fidelity)
from repro.sim.node import NodeConfig, simulate_node

pytestmark = pytest.mark.filterwarnings("error")


def _config(**kw):
    base = dict(suite="linpack", hierarchy=HIERARCHIES["Hierarchy1"](),
                design="hetero-dmr", margin_mts=800,
                memory_utilization=0.15, refs_per_core=3000,
                seed=12345, fidelity="fast")
    base.update(kw)
    return NodeConfig(**base)


# -- fidelity knob ----------------------------------------------------------------------


def test_resolve_fidelity_defaults_to_cycle(monkeypatch):
    monkeypatch.delenv(FIDELITY_ENV_VAR, raising=False)
    assert resolve_fidelity() == "cycle"
    assert resolve_fidelity("fast") == "fast"


def test_resolve_fidelity_env_normalized(monkeypatch):
    monkeypatch.setenv(FIDELITY_ENV_VAR, "  FAST ")
    assert resolve_fidelity() == "fast"


def test_resolve_fidelity_unknown_kind_lists_tiers():
    with pytest.raises(ValueError) as err:
        resolve_fidelity("warp")
    for tier in VALID_FIDELITIES:
        assert tier in str(err.value)


def test_resolve_fidelity_env_typo_raises_with_source(monkeypatch):
    monkeypatch.setenv(FIDELITY_ENV_VAR, "fastt")
    with pytest.raises(ValueError) as err:
        resolve_fidelity()
    assert FIDELITY_ENV_VAR in str(err.value)
    # An explicit kind must win over a broken environment.
    assert resolve_fidelity("cycle") == "cycle"


def test_node_config_rejects_unknown_fidelity():
    with pytest.raises(ValueError):
        _config(fidelity="warp")


# -- calibration artifact ---------------------------------------------------------------


@pytest.fixture(scope="module")
def tiny_calibration():
    """A real (cycle-engine) calibration on a reduced grid: one suite,
    one hierarchy, short traces."""
    return run_calibration(suites=("linpack",),
                           hierarchies=("Hierarchy1",),
                           refs_per_core=40)


def test_calibration_roundtrip(tiny_calibration, tmp_path):
    path = tiny_calibration.save(tmp_path / "cal.json")
    loaded = Calibration.load(path)
    assert loaded.to_dict() == tiny_calibration.to_dict()
    assert loaded.slopes == tiny_calibration.slopes
    assert loaded.intercepts == tiny_calibration.intercepts


def test_calibration_checksum_detects_corruption(tiny_calibration,
                                                 tmp_path):
    path = tiny_calibration.save(tmp_path / "cal.json")
    data = json.loads(path.read_text())
    key = next(iter(data["payload"]["cells"]))
    data["payload"]["cells"][key]["t_norm_cycle"] += 1.0
    path.write_text(json.dumps(data))
    with pytest.raises(CorruptCalibrationError):
        Calibration.load(path)


@pytest.mark.parametrize("cut", [0.5, 0.0])
def test_calibration_truncated_artifact_is_corrupt(tiny_calibration,
                                                   tmp_path, cut):
    """A truncated (or emptied) artifact is a named corruption, not a
    JSON decode traceback."""
    path = tiny_calibration.save(tmp_path / "cal.json")
    text = path.read_text()
    path.write_text(text[:int(len(text) * cut)])
    with pytest.raises(CorruptCalibrationError) as err:
        Calibration.load(path)
    assert str(path) in str(err.value)


def test_calibration_refuses_stale_grid(tiny_calibration, tmp_path):
    """An artifact whose grid no longer matches what the current code
    would calibrate against must be refused, not silently served."""
    data = tiny_calibration.to_dict()
    data["grid"]["refs_per_core"] += 1     # grid drifted, hash did not
    path = tmp_path / "cal.json"
    path.write_text(json.dumps(data))
    with pytest.raises(StaleCalibrationError):
        Calibration.load(path)


def test_calibration_refuses_version_mismatch(tiny_calibration,
                                              tmp_path):
    data = tiny_calibration.to_dict()
    data["version"] += 1
    path = tmp_path / "cal.json"
    path.write_text(json.dumps(data))
    with pytest.raises(StaleCalibrationError):
        Calibration.load(path)


def test_calibration_missing_artifact_message(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CALIBRATION",
                       str(tmp_path / "missing.json"))
    with pytest.raises(CalibrationError) as err:
        load_default_calibration()
    assert "calibrate" in str(err.value)


def test_committed_artifact_loads_and_matches_current_grid():
    """The committed artifact must verify against the current code's
    grid spec — a timing-constant change without recalibration fails
    here."""
    calibration = load_default_calibration()
    assert calibration.to_dict()["grid_hash"] == \
        grid_hash(calibration.grid)
    assert len(calibration.cells) == 72
    assert set(calibration.grid["suites"]) == {
        "linpack", "hpcg", "graph500", "coral2", "lulesh", "npb"}


def test_lookup_cell_snaps_margin(tiny_calibration):
    cell_700 = tiny_calibration.lookup_cell(
        "linpack", "Hierarchy1", "hetero-dmr", 700)
    cell_600 = tiny_calibration.lookup_cell(
        "linpack", "Hierarchy1", "hetero-dmr", 600)
    assert cell_700 == cell_600          # snapped at-or-below
    with pytest.raises(CalibrationMissingError):
        tiny_calibration.lookup_cell("hpcg", "Hierarchy1",
                                     "baseline", 800)


# -- closed-form model ------------------------------------------------------------------


def test_fast_node_runs_no_event_loop():
    result = simulate_node(_config())
    assert result.events_processed == 0
    assert result.time_ns > 0
    assert result.effective_design == "hetero-dmr"
    # Counts scale with the trace length.
    half = simulate_node(_config(refs_per_core=1500))
    assert result.dram_reads == pytest.approx(2 * half.dram_reads,
                                              rel=0.01)


def test_fast_tier_orders_margins_by_physics():
    """Within a margin design the 800 MT/s cell must never be slower
    than 600 MT/s: the ordering comes from the timing features, not a
    per-margin lookup."""
    calibration = load_default_calibration()
    hier = HIERARCHIES["Hierarchy1"]()
    for suite in calibration.grid["suites"]:
        t800 = predict_cell(calibration, suite, hier, "hetero-dmr",
                            800)["t_norm"]
        t600 = predict_cell(calibration, suite, hier, "hetero-dmr",
                            600)["t_norm"]
        assert t800 <= t600


def test_fast_tier_rejects_fault_injection():
    """Every unsupported-knob combination dies as one typed
    FidelityError at config validation, naming the offending knob."""
    from repro.sim.fidelity import FidelityError
    with pytest.raises(FidelityError) as err:
        _config(read_error_rate=0.01)
    assert "read_error_rate=0.01" in str(err.value)
    assert "fidelity='cycle'" in str(err.value)
    with pytest.raises(FidelityError) as err:
        _config(transition_fault_rate=0.01)
    assert "transition_fault_rate" in str(err.value)
    with pytest.raises(FidelityError):
        _config(channel_margins=(800,))


def test_fast_tier_env_resolution_still_refuses_faults(monkeypatch):
    """A config that defers fidelity to the environment passes
    construction but is refused at simulate time — same typed error."""
    from repro.sim.fidelity import FidelityError
    monkeypatch.setenv(FIDELITY_ENV_VAR, "fast")
    config = _config(fidelity=None, read_error_rate=0.01)
    with pytest.raises(FidelityError) as err:
        simulate_node(config)
    assert "read_error_rate" in str(err.value)


def test_fast_matches_cycle_within_tolerance():
    """One spot cell: the fast prediction sits within the documented
    tolerance of the stored cycle runtime."""
    calibration = load_default_calibration()
    hier = HIERARCHIES["Hierarchy1"]()
    cell = calibration.lookup_cell("linpack", "Hierarchy1",
                                   "hetero-dmr", 800)
    predicted = predict_cell(calibration, "linpack", hier,
                             "hetero-dmr", 800)["t_norm"]
    assert predicted == pytest.approx(cell["t_norm_cycle"], rel=0.02)


def test_batch_matches_single_evaluation():
    """simulate_nodes_fast (the sweep's batched path) must reproduce
    per-config simulate_node_fast bit for bit."""
    configs = [_config(suite=s, design=d, margin_mts=m)
               for s in ("linpack", "hpcg", "graph500")
               for d in ("baseline", "hetero-dmr")
               for m in (800, 600)]
    batched = simulate_nodes_fast(configs)
    for config, result in zip(configs, batched):
        assert result.time_ns == simulate_node_fast(config).time_ns


def test_fast_tier_never_imports_numpy():
    """The cross-check and a fast sweep run on the standard library
    alone: numpy is not imported, in a fresh interpreter."""
    import os
    import subprocess
    import sys

    import repro
    src = os.path.dirname(os.path.dirname(repro.__file__))
    code = ("import sys\n"
            "from repro.fastmodel import run_crosscheck\n"
            "from repro.perf.sweep import SweepConfig, SweepRunner\n"
            "assert run_crosscheck()['passed']\n"
            "SweepRunner(SweepConfig(refs_per_core=3000,"
            " fidelity='fast')).run()\n"
            "print('numpy' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


# -- cross-check gate -------------------------------------------------------------------


def test_crosscheck_passes_on_committed_artifact():
    report = run_crosscheck()
    assert report["passed"] is True
    for hier in report["hierarchies"].values():
        assert hier["rankings_match"] is True
        assert hier["within_tolerance"] is True


def test_crosscheck_report_deterministic():
    assert run_crosscheck() == run_crosscheck()


def test_crosscheck_rejects_unknown_suite():
    with pytest.raises(ValueError):
        run_crosscheck(suites=("not-a-suite",))


# -- sweep / runner / cluster integration -----------------------------------------------


def test_sweep_fast_fidelity_skips_pool():
    from repro.perf.sweep import SweepConfig, SweepRunner
    config = SweepConfig(suites=("linpack", "hpcg"),
                         hierarchies=("Hierarchy1",),
                         refs_per_core=3000, workers=8,
                         fidelity="fast")
    result = SweepRunner(config).run()
    assert result.cap_reason == "fast-fidelity"
    assert result.workers_used == 1
    assert result.events_processed == 0
    repeat = SweepRunner(config).run()
    assert result.deterministic_view() == repeat.deterministic_view()


def test_sweep_config_rejects_unknown_fidelity():
    from repro.perf.sweep import SweepConfig
    with pytest.raises(ValueError):
        SweepConfig(fidelity="warp")


def test_experiment_runner_fast_tier():
    from repro.sim.runner import ExperimentRunner
    runner = ExperimentRunner(refs_per_core=3000, fidelity="fast")
    hier = HIERARCHIES["Hierarchy1"]()
    speedup = runner.baseline("linpack", hier).time_ns / runner.run(
        "linpack", hier, "hetero-dmr", margin_mts=800).time_ns
    assert 1.0 < speedup < 2.0


def test_performance_model_from_calibration():
    model = performance_model_from_calibration()
    for margin in (800, 600):
        table = model.speedups[margin]
        # Replication is infeasible at >=50% utilization, so the high
        # bucket collapses to parity on its own.
        assert table["over_50"] == 1.0
        assert table["under_25"] >= 1.0
    assert model.speedups[800]["under_25"] >= \
        model.speedups[600]["under_25"]
    assert model.speedups[0] == {"under_25": 1.0, "25_to_50": 1.0,
                                 "over_50": 1.0}


def test_chaos_config_fast_fidelity_guard():
    """A fast-fidelity chaos campaign must zero its node fault knobs
    explicitly; anything else dies at construction with a typed
    FidelityError naming the knob."""
    from repro.resilience.campaign import ChaosConfig
    from repro.sim.fidelity import FidelityError
    with pytest.raises(ValueError):
        dataclasses.replace(ChaosConfig.smoke(), fidelity="warp")
    with pytest.raises(FidelityError) as err:
        dataclasses.replace(ChaosConfig.smoke(), fidelity="fast")
    assert "node_read_error_rate" in str(err.value)
    assert "ChaosConfig" in str(err.value)
    cfg = dataclasses.replace(ChaosConfig.smoke(), fidelity="fast",
                              node_read_error_rate=0.0,
                              node_transition_fault_rate=0.0)
    assert resolve_fidelity(cfg.fidelity) == "fast"
