"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main

#: An unclosed file (a leaked WAL append handle) fails the test.
pytestmark = [
    pytest.mark.filterwarnings("error::ResourceWarning"),
    pytest.mark.filterwarnings(
        "error::pytest.PytestUnraisableExceptionWarning"),
    pytest.mark.usefixtures("collect_cycles")]


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_settings_command(capsys):
    assert main(["settings"]) == 0
    out = capsys.readouterr().out
    assert "Table II" in out
    assert "4000" in out


def test_suites_command(capsys):
    assert main(["suites"]) == 0
    out = capsys.readouterr().out
    for suite in ("linpack", "graph500", "npb"):
        assert suite in out


def test_characterize_command(capsys):
    assert main(["characterize"]) == 0
    out = capsys.readouterr().out
    assert "brands A-C" in out
    assert "119 modules" in out


def test_montecarlo_command(capsys):
    assert main(["--seed", "11", "montecarlo", "--trials", "2000"]) == 0
    out = capsys.readouterr().out
    assert "node (aware)" in out


def test_node_command(capsys):
    assert main(["node", "--suite", "linpack", "--refs", "400"]) == 0
    out = capsys.readouterr().out
    assert "hetero-dmr" in out
    assert "speedup" in out


def test_node_rejects_bad_hierarchy():
    with pytest.raises(SystemExit):
        main(["node", "--hierarchy", "Hierarchy9"])


def test_hpc_command(capsys):
    assert main(["hpc", "--nodes", "48", "--jobs", "150"]) == 0
    out = capsys.readouterr().out
    assert "turnaround speedup" in out


def test_chaos_smoke_command(capsys, tmp_path):
    report = tmp_path / "chaos.txt"
    assert main(["--seed", "2026", "chaos", "--smoke",
                 "--report-file", str(report)]) == 0
    out = capsys.readouterr().out
    assert "verdict" in out and "PASS" in out
    assert "Degradation ladder" in out
    assert report.read_text() == out


def test_seed_accepted_after_subcommand(capsys):
    """Shared --seed handling: global and subcommand positions agree."""
    assert main(["montecarlo", "--seed", "11", "--trials", "2000"]) == 0
    after = capsys.readouterr().out
    assert main(["--seed", "11", "montecarlo", "--trials", "2000"]) == 0
    before = capsys.readouterr().out
    assert after == before


def test_subcommand_seed_overrides_global(capsys, tmp_path):
    assert main(["--seed", "1", "fleet", "profile", "--seed", "2",
                 "--nodes", "6",
                 "--registry", str(tmp_path / "a")]) == 0
    assert main(["--seed", "2", "fleet", "profile", "--nodes", "6",
                 "--registry", str(tmp_path / "b")]) == 0
    capsys.readouterr()
    assert (tmp_path / "a" / "snapshot.json").read_bytes() == \
        (tmp_path / "b" / "snapshot.json").read_bytes()


def test_fleet_profile_is_deterministic(capsys, tmp_path):
    argv = ["fleet", "profile", "--nodes", "12", "--registry"]
    assert main(argv + [str(tmp_path / "a")]) == 0
    assert main(argv + [str(tmp_path / "b")]) == 0
    out = capsys.readouterr().out
    assert "fleet profiling summary" in out
    assert (tmp_path / "a" / "snapshot.json").read_bytes() == \
        (tmp_path / "b" / "snapshot.json").read_bytes()


def test_fleet_profile_report_file(capsys, tmp_path):
    report = tmp_path / "fleet.txt"
    assert main(["fleet", "profile", "--nodes", "6",
                 "--registry", str(tmp_path / "reg"),
                 "--report-file", str(report)]) == 0
    out = capsys.readouterr().out
    assert report.read_text() in out


def test_fleet_profile_unwritable_report_is_io_error(capsys, tmp_path):
    assert main(["fleet", "profile", "--nodes", "4",
                 "--registry", str(tmp_path / "reg"),
                 "--report-file", str(tmp_path / "nodir" / "r.txt")]) \
        == 2
    assert "cannot write report" in capsys.readouterr().err


def test_fleet_status_command(capsys, tmp_path):
    reg = tmp_path / "reg"
    assert main(["fleet", "profile", "--nodes", "8",
                 "--registry", str(reg)]) == 0
    capsys.readouterr()
    assert main(["fleet", "status", "--registry", str(reg)]) == 0
    out = capsys.readouterr().out
    assert "fleet registry (8 nodes" in out
    assert "bucket counts:" in out


def test_fleet_place_command(capsys, tmp_path):
    reg = tmp_path / "reg"
    assert main(["fleet", "profile", "--nodes", "8",
                 "--registry", str(reg)]) == 0
    capsys.readouterr()
    assert main(["fleet", "place", "--registry", str(reg),
                 "--widths", "4,2"]) == 0
    out = capsys.readouterr().out
    assert "placed 2/2 jobs" in out


def test_fleet_place_unplaceable_is_domain_failure(capsys, tmp_path):
    reg = tmp_path / "reg"
    assert main(["fleet", "profile", "--nodes", "4",
                 "--registry", str(reg)]) == 0
    capsys.readouterr()
    assert main(["fleet", "place", "--registry", str(reg),
                 "--widths", "99"]) == 1
    assert "UNPLACED" in capsys.readouterr().out
    assert main(["fleet", "place", "--registry", str(reg),
                 "--widths", "nope"]) == 1


def test_fleet_missing_registry_is_io_error(capsys, tmp_path):
    assert main(["fleet", "status",
                 "--registry", str(tmp_path / "missing")]) == 2
    assert "cannot load registry" in capsys.readouterr().err


def test_fleet_requires_subcommand():
    with pytest.raises(SystemExit):
        main(["fleet"])


# -- crash recovery (PR 3) --------------------------------------------------------


def _profiled_registry(tmp_path, nodes=6):
    reg = tmp_path / "reg"
    assert main(["fleet", "profile", "--nodes", str(nodes),
                 "--registry", str(reg)]) == 0
    return reg


def test_recover_status_missing_store_is_io_error(capsys, tmp_path):
    assert main(["recover", "status",
                 "--store", str(tmp_path / "missing")]) == 2
    assert "no checkpoint store" in capsys.readouterr().err


def test_recover_checkpoint_and_status(capsys, tmp_path):
    reg = _profiled_registry(tmp_path)
    store = tmp_path / "ckpts"
    capsys.readouterr()
    assert main(["recover", "checkpoint", "--store", str(store),
                 "--registry", str(reg), "--node", "3"]) == 0
    out = capsys.readouterr().out
    assert "recover checkpoint" in out
    assert main(["recover", "status", "--store", str(store)]) == 0
    out = capsys.readouterr().out
    assert "1 valid of 1" in out
    assert "node_record" in out


def test_recover_status_flags_corrupt_checkpoints(capsys, tmp_path):
    from repro.recovery import CheckpointStore
    reg = _profiled_registry(tmp_path)
    store = tmp_path / "ckpts"
    assert main(["recover", "checkpoint", "--store", str(store),
                 "--registry", str(reg), "--node", "0"]) == 0
    assert main(["recover", "checkpoint", "--store", str(store),
                 "--registry", str(reg), "--node", "0"]) == 0
    CheckpointStore(store).corrupt_latest()
    capsys.readouterr()
    assert main(["recover", "status", "--store", str(store)]) == 0
    assert "1 valid of 2" in capsys.readouterr().out


def test_recover_status_all_corrupt_is_domain_failure(capsys, tmp_path):
    from repro.recovery import CheckpointStore
    reg = _profiled_registry(tmp_path)
    store = tmp_path / "ckpts"
    assert main(["recover", "checkpoint", "--store", str(store),
                 "--registry", str(reg), "--node", "0"]) == 0
    CheckpointStore(store).corrupt_latest()
    capsys.readouterr()
    assert main(["recover", "status", "--store", str(store)]) == 1


def test_recover_checkpoint_unknown_node_is_domain_failure(
        capsys, tmp_path):
    reg = _profiled_registry(tmp_path, nodes=4)
    capsys.readouterr()
    assert main(["recover", "checkpoint",
                 "--store", str(tmp_path / "ckpts"),
                 "--registry", str(reg), "--node", "99"]) == 1
    assert "unknown to the registry" in capsys.readouterr().err


def test_recover_restore_missing_registry_is_io_error(capsys, tmp_path):
    assert main(["recover", "restore",
                 "--registry", str(tmp_path / "missing")]) == 2
    assert "cannot load registry" in capsys.readouterr().err


def test_recover_restore_repairs_torn_log(capsys, tmp_path):
    reg = _profiled_registry(tmp_path)
    torn = '{"seq":7,"time_s":'
    with open(reg / "events.jsonl", "a") as fh:
        fh.write(torn)
    capsys.readouterr()
    assert main(["recover", "restore", "--registry", str(reg)]) == 0
    out = capsys.readouterr().out
    assert "torn log bytes dropped" in out
    assert str(len(torn)) in out
    # Idempotent: a second restore has nothing to drop.
    assert main(["recover", "restore", "--registry", str(reg)]) == 0
    second = capsys.readouterr().out
    assert "torn log bytes dropped" in second
    assert str(len(torn)) not in second
    # Registry loads cleanly and profiling can resume.
    assert main(["fleet", "status", "--registry", str(reg)]) == 0


def test_recover_restore_reports_durable_rung(capsys, tmp_path):
    reg = _profiled_registry(tmp_path)
    store = tmp_path / "ckpts"
    assert main(["recover", "checkpoint", "--store", str(store),
                 "--registry", str(reg), "--node", "2"]) == 0
    capsys.readouterr()
    assert main(["recover", "restore", "--registry", str(reg),
                 "--store", str(store), "--node", "2"]) == 0
    out = capsys.readouterr().out
    assert "durable rung" in out
    assert "wal events replayed" in out


def test_fleet_profile_resume_flag(capsys, tmp_path):
    reg = tmp_path / "reg"
    assert main(["fleet", "profile", "--nodes", "5",
                 "--registry", str(reg)]) == 0
    capsys.readouterr()
    # Resuming with a larger fleet profiles only the new nodes and
    # matches the uninterrupted run byte for byte.
    assert main(["fleet", "profile", "--nodes", "8", "--resume",
                 "--registry", str(reg)]) == 0
    out = capsys.readouterr().out
    assert "skipped (already profiled)" in out
    assert main(["fleet", "profile", "--nodes", "8",
                 "--registry", str(tmp_path / "ref")]) == 0
    assert (reg / "snapshot.json").read_bytes() == \
        (tmp_path / "ref" / "snapshot.json").read_bytes()
    assert (reg / "events.jsonl").read_bytes() == \
        (tmp_path / "ref" / "events.jsonl").read_bytes()


def test_recover_requires_subcommand():
    with pytest.raises(SystemExit):
        main(["recover"])


def test_fleet_profile_crash_after_then_recover(tmp_path):
    """End-to-end crash drill through the real CLI: SIGKILL mid-run,
    repair, resume, and compare against an uninterrupted run."""
    import subprocess
    import sys as _sys

    def run(*argv):
        return subprocess.run([_sys.executable, "-m", "repro", *argv],
                              capture_output=True, text=True)

    reg = tmp_path / "reg"
    crashed = run("fleet", "profile", "--nodes", "8",
                  "--registry", str(reg), "--crash-after", "3")
    assert crashed.returncode != 0          # SIGKILL: -9 or 137
    assert (reg / "events.jsonl").exists()
    # The kill left a torn final event line behind.
    assert not (reg / "events.jsonl").read_text().endswith("\n")

    restored = run("recover", "restore", "--registry", str(reg))
    assert restored.returncode == 0, restored.stderr
    assert "torn log bytes dropped" in restored.stdout

    resumed = run("fleet", "profile", "--nodes", "8", "--resume",
                  "--registry", str(reg))
    assert resumed.returncode == 0, resumed.stderr
    assert "skipped (already profiled)" in resumed.stdout

    ref = run("fleet", "profile", "--nodes", "8",
              "--registry", str(tmp_path / "ref"))
    assert ref.returncode == 0, ref.stderr
    assert (reg / "snapshot.json").read_bytes() == \
        (tmp_path / "ref" / "snapshot.json").read_bytes()
    assert (reg / "events.jsonl").read_bytes() == \
        (tmp_path / "ref" / "events.jsonl").read_bytes()


def test_perf_requires_subcommand():
    """The ``perf`` command group is retired (the performance ledger
    under ``benchmarks/ledger`` times the workloads); the name is an
    unknown command, a usage error."""
    with pytest.raises(SystemExit) as exc:
        main(["perf"])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", [["node", "--refs", "20"],
                                     ["sweep", "--refs", "20"]])
@pytest.mark.parametrize("env_var", ["REPRO_FIDELITY", "REPRO_BACKEND"])
def test_bad_knob_env_var_is_a_usage_error(monkeypatch, capsys, env_var,
                                           command):
    monkeypatch.setenv(env_var, "bogus")
    assert main(command) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("repro: ")
    assert env_var in lines[0] and "bogus" in lines[0]
    assert captured.out == ""
