"""The CI ledger gate (``.github/scripts/ledger_gate.py``) on synthetic
``benchmarks/ledger/compare.py`` reports: which A/B outcomes fail the
build and which pass it."""

import importlib.util
import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "ledger_gate", ROOT / ".github" / "scripts" / "ledger_gate.py")
gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gate)


def _row(parent, change, verdict, bound=0.10):
    side = lambda m: {"q1": m * 0.97, "median": m, "q3": m * 1.03}
    return {"unit": "s", "bound": bound, "pairs": 10, "wins": 5,
            "parent_runs": [parent] * 10, "change_runs": [change] * 10,
            "parent": side(parent), "change": side(change),
            "verdict": verdict}


def _report(wall=(3.39, 3.26, "unchanged"), ops=(33.0, 33.0, "unchanged"),
            failed_share_up=False, correct=True):
    metrics = {"wall_s": _row(*wall),
               "setup_s": _row(0.5, 0.5, "unchanged", bound=0.25),
               "peak_rss_mb": _row(84.0, 84.0, "unchanged"),
               "ops_per_s": _row(*ops)}
    return {"fig12-short": {
        "metrics": metrics,
        "failed_share": {"parent": 0.0, "change": 0.0},
        "failed_share_up": failed_share_up, "correct": correct}}


def _gate(report, tmp_path):
    path = tmp_path / "gate.json"
    path.write_text(json.dumps(report))
    return gate.main([str(path)])


@pytest.mark.parametrize("report", [
    _report(wall=(3.63, 4.32, "worse")),
    _report(wall=(3.0, 3.45, "unresolved")),         # 15 % slower
    _report(wall=(3.39, 3.26, "failed")),
    _report(failed_share_up=True),
    _report(correct=False),
    _report(ops=(33.0, 28.05, "unresolved")),        # higher is better
], ids=["worse", "unresolved-15pct-worse", "failed", "failed-share-up",
        "incorrect", "ops-per-s-dropped-15pct"])
def test_gate_trips(report, tmp_path, capsys):
    assert _gate(report, tmp_path) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 and lines[0].startswith("ledger gate: ")
    assert "pass" not in lines[0]


@pytest.mark.parametrize("report", [
    _report(),
    _report(wall=(3.4, 2.9, "improved"), ops=(33.0, 38.0, "improved")),
    _report(wall=(3.39, 3.26, "unresolved")),         # 4 % better
], ids=["unchanged", "improved", "unresolved-4pct-better"])
def test_gate_passes(report, tmp_path, capsys):
    assert _gate(report, tmp_path) == 0
    assert capsys.readouterr().out == "ledger gate: pass\n"


def test_gate_names_every_cause(tmp_path, capsys):
    report = _report(wall=(3.0, 3.45, "unresolved"), correct=False,
                     failed_share_up=True)
    assert _gate(report, tmp_path) == 1
    out = capsys.readouterr().out
    assert len(out.splitlines()) == 3
    assert "fig12-short wall_s: median 3 -> 3.45, 15.0% worse" in out
