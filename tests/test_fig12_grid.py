"""The Figure 12 grid (paper Section IV-A): pinned outputs of every
consumer, and the backend's margin rungs on every path.

The pins are the SHA-256 of the canonical JSON of each output,
recorded when each consumer still carried its own copy of the grid
recipe; one shared aggregator must reproduce them bit for bit.  The
fast-tier pins read the committed calibration artifact, so a
recalibration re-records them (and says so in CHANGES.md).
"""

import hashlib
import json
from types import SimpleNamespace

import pytest

from repro.analysis.stats import weighted_mean
from repro.characterization.crosstech import backend_performance_model
from repro.dram.backend import BACKEND_ENV_VAR
from repro.fastmodel import (performance_model_from_calibration,
                             run_crosscheck)
from repro.perf.sweep import SweepConfig, SweepRunner
from repro.sim.node import effective_design
from repro.sim.runner import (BUCKET_UTILIZATION, ExperimentRunner,
                              USAGE_WEIGHTS)
from tests.conftest import tiny_hierarchy

_SUITES = ("linpack", "lulesh")


def _digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.fixture
def no_env_backend(monkeypatch):
    monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)


# -- golden pins ------------------------------------------------------------------------


def test_crosscheck_report_is_pinned():
    assert _digest(run_crosscheck()) == (
        "e72cceae235c2be5ec9cc6cf1344ffc096076655e50731a1504b5f67d3639e55")


def test_fast_performance_model_is_pinned():
    assert _digest(performance_model_from_calibration().speedups) == (
        "090cedf4ee36bbad6a25566148eefd2c3ab306bfe11315f957424c77f53648fb")


def test_fast_sweep_view_is_pinned(no_env_backend):
    view = SweepRunner(SweepConfig(fidelity="fast")).run() \
        .deterministic_view()
    assert _digest(view) == (
        "363bdd3f02faf3d8ed24e3fbb24faf23b51b0a50db45839015a7b75c8b93019b")


def test_fast_tier_headlines_are_pinned():
    runner = ExperimentRunner(refs_per_core=3000, fidelity="fast",
                              backend="ddr4")
    headlines = {design: runner.fig12_bars().headline(design)
                 for design in ("fmr", "hetero-dmr", "hetero-dmr+fmr")}
    assert _digest(headlines) == (
        "9ea81508a47e42bb7552334041239f8f3111459796c6515dacd651edf73be230")


@pytest.mark.parametrize("backend,faults,pin", [
    ("ddr4", 0.0,
     "a26ee0780e3275e24f1801e575339216fabb9d5d579cc058b568ee8542acb105"),
    ("ddr4", 0.01,
     "f79516776ba5e992a71048f05a18c4f44ebcb0aeca889758e13e15571f1122a4"),
    ("mrdimm", 0.0,
     "710fffc01586c8079a76c290029585b42a57ad80e41b0a84e06e65be3629afa9"),
])
def test_cycle_backend_model_is_pinned(backend, faults, pin):
    model = backend_performance_model(
        backend, refs_per_core=60, suites=_SUITES,
        read_error_rate=faults, transition_fault_rate=faults)
    assert _digest(model.speedups) == pin


# -- the backend axis -------------------------------------------------------------------


def test_sweep_margins_follow_the_backend(no_env_backend, monkeypatch):
    assert SweepConfig().margins == (800, 600)
    assert {c["margin_mts"] for c in SweepConfig().cells()} == {800, 600}
    mrdimm = SweepConfig(backend="mrdimm")
    assert mrdimm.margins == (2200, 1600)
    assert {c["margin_mts"] for c in mrdimm.cells()} == {2200, 1600}
    monkeypatch.setenv(BACKEND_ENV_VAR, "mrdimm")
    assert {c["margin_mts"] for c in SweepConfig().cells()} == {2200,
                                                                1600}
    # An explicit margin list still wins over the backend's rungs.
    assert SweepConfig(margins=(600,)).margins == (600,)


def _fake_time_ns(design: str, margin_mts: int,
                  memory_utilization: float) -> float:
    """A runtime that rewards margin on every non-baseline cell."""
    if effective_design(design, memory_utilization) == "baseline":
        return 1000.0
    return 1000.0 / (1.0 + margin_mts / 10_000.0)


@pytest.mark.parametrize("backend,rungs", [("ddr4", (800, 600)),
                                           ("mrdimm", (2200, 1600))])
def test_runner_bars_use_the_backend_rungs_by_rank(backend, rungs):
    runner = ExperimentRunner(refs_per_core=60, backend=backend)
    requested = set()

    def fake_run(suite, hierarchy, design="baseline", timing=None,
                 margin_mts=800, memory_utilization=0.15, **knobs):
        if effective_design(design, memory_utilization) != "baseline":
            requested.add(margin_mts)
        return SimpleNamespace(time_ns=_fake_time_ns(
            design, margin_mts, memory_utilization))

    runner.run = fake_run
    headline = runner.fig12_bars([tiny_hierarchy()]).headline("hetero-dmr")
    assert requested == set(rungs)
    per_margin = []
    for margin in rungs:
        per_margin.append(weighted_mean(
            [1000.0 / _fake_time_ns("hetero-dmr", margin, util)
             for util in (BUCKET_UTILIZATION[b] for b in USAGE_WEIGHTS)],
            list(USAGE_WEIGHTS.values())))
    # The 62/36 node-group split applies by rung rank, fastest first.
    assert headline == weighted_mean(per_margin, [0.62, 0.36])
