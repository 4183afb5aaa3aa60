"""Bad input against every subcommand: an unwritable output, a corrupt
or truncated input or artifact, a bad knob environment variable, and
an out-of-range number each end in the documented exit code with one
``repro`` line on stderr, never a traceback.  Plus the ``repro smoke``
runner and its sync with the CI workflow."""

import json
import pathlib
import re
import subprocess
import sys

import pytest

from repro.cli import main
from repro.fastmodel.calibration import (ARTIFACT_ENV_VAR,
                                         default_artifact_path)
from repro.smoke import SCENARIOS, Scenario, Step, run_scenario

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.fixture
def paths(tmp_path, monkeypatch):
    """Bad inputs on disk, by name, for the argv templates below."""
    monkeypatch.delenv("REPRO_FIDELITY", raising=False)
    monkeypatch.delenv("REPRO_BACKEND", raising=False)
    monkeypatch.delenv(ARTIFACT_ENV_VAR, raising=False)
    afile = tmp_path / "afile"
    afile.write_text("")
    corrupt_reg = tmp_path / "corrupt-reg"
    corrupt_reg.mkdir()
    (corrupt_reg / "snapshot.json").write_text('{"format": 1, "last_')
    trace = tmp_path / "trace.jsonl"
    trace.write_text('{"event":"x","seq":1,"subsystem":"freq","t_ns":1}\n'
                     '{"event":"x","se')
    not_events = tmp_path / "not-events.jsonl"
    not_events.write_text("[1, 2]\n")
    keyless = tmp_path / "keyless.jsonl"
    keyless.write_text('{"seq": 0}\n')
    calibration = tmp_path / "calibration.json"
    text = default_artifact_path().read_text()
    calibration.write_text(text[:len(text) // 2])
    requests = tmp_path / "requests.jsonl"
    requests.write_text('{"op": "place", "job": 1, "nodes": 2}\n')
    assert main(["fleet", "profile", "--nodes", "2",
                 "--registry", str(tmp_path / "reg")]) == 0
    return {"out": str(afile / "out"), "corrupt_reg": str(corrupt_reg),
            "reg": str(tmp_path / "reg"), "trace": str(trace),
            "not_events": str(not_events), "keyless": str(keyless),
            "calibration": str(calibration), "requests": str(requests),
            "missing": str(tmp_path / "missing" / "file")}


UNWRITABLE_OUTPUT = [
    "sweep --fidelity fast --refs 50 --out {out}",
    "fastmodel calibrate --suites linpack --refs 20 --out {out}",
    "fastmodel check --suites linpack --out {out}",
    "fastmodel cluster --nodes 20 --jobs 10 --out {out}",
    "backend characterize --trials 50 --out {out}",
    "chaos --smoke --report-file {out}",
    "adapt --smoke --no-baseline --report-file {out}",
    "fleet profile --nodes 2 --report-file {out}",
    "fleet profile --nodes 2 --registry {out}",
    "recover checkpoint --registry {reg} --store {out}",
    "obs trace --out {out}",
    "obs export --scenario chaos-smoke --out {out}",
    "serve --nodes 4 --requests {requests} --out {out}",
    "soak --smoke --events 200 --nodes 8 --report-file {out}",
    "soak --smoke --events 200 --nodes 8 --decisions {out}",
    "soak --smoke --events 200 --nodes 8 --registry /proc/x",
    "soak --failover --smoke --events 200 --nodes 8 --decisions {out}",
    "soak --failover --smoke --events 200 --nodes 8 --report-file {out}",
    "smoke chaos-smoke --out-dir {out}",
]

CORRUPT_INPUT = [
    ("fleet profile --nodes 2 --registry {corrupt_reg}", {}, 2),
    ("fleet status --registry {corrupt_reg}", {}, 2),
    ("fleet place --registry {corrupt_reg}", {}, 2),
    ("recover checkpoint --registry {corrupt_reg} --store {missing}",
     {}, 2),
    ("recover restore --registry {corrupt_reg}", {}, 2),
    ("recover status --store {missing}", {}, 2),
    ("obs summary --trace-file {trace}", {}, 2),
    ("obs summary --trace-file {not_events}", {}, 2),
    ("obs summary --trace-file {keyless}", {}, 2),
    ("obs summary --trace-file {missing}", {}, 2),
    ("serve --registry {corrupt_reg}", {}, 2),
    ("serve --nodes 4 --requests {missing}", {}, 2),
    ("obs summary --trace-file {corrupt_reg}", {}, 2),   # a directory
    ("hpc --nodes 8 --jobs 10 --fidelity fast",
     {ARTIFACT_ENV_VAR: "{calibration}"}, 1),
    ("fastmodel cluster --nodes 20 --jobs 10",
     {ARTIFACT_ENV_VAR: "{calibration}"}, 1),
    ("fastmodel check --suites linpack",
     {ARTIFACT_ENV_VAR: "{calibration}"}, 1),
    ("sweep --fidelity fast --refs 50",
     {ARTIFACT_ENV_VAR: "{calibration}"}, 1),
    ("node --refs 20 --fidelity fast",
     {ARTIFACT_ENV_VAR: "{calibration}"}, 1),
    ("hpc --nodes 8 --jobs 10 --fidelity fast",
     {ARTIFACT_ENV_VAR: "{missing}"}, 1),
]

BAD_ENV = [
    ("node --refs 20", "REPRO_FIDELITY"),
    ("sweep --refs 20", "REPRO_FIDELITY"),
    ("hpc --nodes 8 --jobs 10", "REPRO_FIDELITY"),
    ("node --refs 20", "REPRO_BACKEND"),
    ("sweep --refs 20", "REPRO_BACKEND"),
    ("backend characterize --trials 50", "REPRO_BACKEND"),
    ("fastmodel calibrate --suites linpack --refs 20 --out {missing}",
     "REPRO_BACKEND"),
]

OUT_OF_RANGE = [
    "hpc --nodes 0", "hpc --jobs 0", "hpc --nodes -5",
    "hpc --read-error-rate 2", "hpc --model-refs 0",
    "fastmodel cluster --nodes 0", "fastmodel calibrate --refs 0",
    "fastmodel check --suites nosuch",
    "sweep --refs 0", "node --refs 0", "node --suite nosuch",
    "node --utilization 5", "node --margin -1",
    "fleet profile --nodes 0", "fleet profile --flaky-rate 2",
    "montecarlo --trials 0", "montecarlo --trials x",
    "backend characterize --trials 0",
    "backend compare --backends ddr4,ddr4",
    "backend compare --backends ddr4,nosuch",
    "recover restore --registry {reg} --node -1",
    "serve --daemons 0", "serve --nodes 0", "serve --queue-limit 0",
    "soak --events 0", "soak --nodes 0", "soak --p999-budget -1",
    "smoke nosuch",
]


def _run(template, paths, capsys):
    """``main`` on the formatted argv: (exit code, stderr lines that
    start with ``repro``).  An argparse usage error exits through
    ``SystemExit``; any other exception fails the test."""
    capsys.readouterr()
    try:
        code = main(template.format(**paths).split())
    except SystemExit as exc:
        code = exc.code
    assert sys.getprofile() is None     # no cProfile left running
    err = capsys.readouterr().err
    return code, [l for l in err.splitlines() if l.startswith("repro")]


@pytest.mark.parametrize("template", UNWRITABLE_OUTPUT)
def test_unwritable_output_is_io_error(template, paths, capsys):
    code, lines = _run(template, paths, capsys)
    assert code == 2
    assert len(lines) == 1, lines


def test_backend_compare_unwritable_output_is_io_error(paths, capsys,
                                                     monkeypatch):
    """The study's cycle passes cost seconds of cache warm-up whatever
    the arguments; the output path is what is under test."""
    from repro.characterization import crosstech
    monkeypatch.setattr(crosstech, "compare_backends",
                        lambda **kw: {"backends": {}, "comparison": {}})
    code, lines = _run("backend compare --out {out}", paths, capsys)
    assert code == 2
    assert len(lines) == 1 and "cannot write report" in lines[0], lines


@pytest.mark.parametrize("template,env,expected", CORRUPT_INPUT)
def test_corrupt_input_names_its_cause(template, env, expected, paths,
                                       capsys, monkeypatch):
    for name, value in env.items():
        monkeypatch.setenv(name, value.format(**paths))
    code, lines = _run(template, paths, capsys)
    assert code == expected
    assert len(lines) == 1, lines


@pytest.mark.parametrize("line", [
    '{"kind":"bogus","node":0,"payload":{},"seq":3,"time_s":0.0}',
    '{"kind":"thermal","node":-1,"payload":{},"seq":3,"time_s":0.0}',
    '{"kind":"demote","node":0,"payload":{},"seq":3,"time_s":0.0}',
    '{"kind":"adapt","node":0,"payload":{"margin_mts":[1]},"seq":3,'
    '"time_s":0.0}',
])
@pytest.mark.parametrize("command", ["fleet status", "fleet place",
                                     "recover restore"])
def test_schema_invalid_registry_line_is_io_error(command, line, paths,
                                                  capsys):
    """A whole registry line ``record`` would have refused is
    corruption, not a torn append: exit 2 naming the line."""
    with open(pathlib.Path(paths["reg"]) / "events.jsonl", "a") as fh:
        fh.write(line + "\n")
    code, lines = _run(command + " --registry {reg}", paths, capsys)
    assert code == 2
    assert len(lines) == 1 and "corrupt event at line 3" in lines[0], \
        lines


@pytest.mark.parametrize("template,env_var", BAD_ENV)
def test_bad_knob_env_var_is_usage_error(template, env_var, paths,
                                         capsys, monkeypatch):
    monkeypatch.setenv(env_var, "bogus")
    code, lines = _run(template, paths, capsys)
    assert code == 2
    assert lines == [l for l in lines if l.startswith("repro: ")]
    assert len(lines) == 1 and "bogus" in lines[0], lines


@pytest.mark.parametrize("template", OUT_OF_RANGE)
def test_out_of_range_argument_is_usage_error(template, paths, capsys):
    code, lines = _run(template, paths, capsys)
    assert code == 2
    assert len(lines) == 1 and ": error: " in lines[0], lines


def test_fleet_place_bad_widths_is_domain_failure(paths, capsys):
    code, lines = _run("fleet place --registry {reg} --widths 0,x",
                       paths, capsys)
    assert code == 1
    assert lines == ["repro fleet: --widths must be comma-separated "
                     "positive integers"]


# -- repro hpc honours REPRO_FIDELITY ---------------------------------------------


def test_hpc_env_fast_takes_the_fast_path(paths, capsys, monkeypatch):
    argv = "hpc --nodes 16 --jobs 40"
    main(argv.split())
    cycle = capsys.readouterr().out
    monkeypatch.setenv("REPRO_FIDELITY", "fast")
    main(argv.split())
    env_fast = capsys.readouterr().out
    main((argv + " --fidelity fast").split())
    flag_fast = capsys.readouterr().out
    assert env_fast == flag_fast
    assert env_fast != cycle


def test_hpc_env_fast_refuses_fault_knobs(paths, capsys, monkeypatch):
    monkeypatch.setenv("REPRO_FIDELITY", "fast")
    code, lines = _run("hpc --nodes 8 --jobs 10 --read-error-rate 0.01",
                       paths, capsys)
    assert code == 1
    assert len(lines) == 1 and "read_error_rate" in lines[0]


def test_hpc_bogus_env_fidelity_is_usage_error(paths, capsys,
                                               monkeypatch):
    monkeypatch.setenv("REPRO_FIDELITY", "bogus")
    code, lines = _run("hpc --nodes 8 --jobs 10", paths, capsys)
    assert code == 2
    assert len(lines) == 1
    assert lines[0].startswith("repro: unknown fidelity 'bogus'")


# -- repro sweep reports the tier and backend that ran ----------------------------


def test_sweep_records_the_tier_that_ran(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("REPRO_BACKEND", raising=False)
    monkeypatch.delenv(ARTIFACT_ENV_VAR, raising=False)
    monkeypatch.setenv("REPRO_FIDELITY", "fast")
    out = tmp_path / "f.json"
    assert main(["sweep", "--refs", "3000", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert re.search(r"^fidelity\s.*\bfast$", printed, re.MULTILINE)
    assert re.search(r"^backend\s.*\bddr4$", printed, re.MULTILINE)
    record = json.loads(out.read_text())
    assert (record["fidelity"], record["backend"]) == ("fast", "ddr4")


# -- repro serve: a malformed write is a bad request line -------------------------


@pytest.mark.parametrize("daemons", ["1", "2"])
def test_serve_rejects_malformed_write_at_parse_time(tmp_path, capsys,
                                                     daemons):
    requests = tmp_path / "requests.jsonl"
    requests.write_text("\n".join([
        '{"op": "place", "job": 1, "nodes": 2}',
        '{"op":"write","kind":"demote","node":3,'
        '"payload":{"margin_mts":"x"}}',
        '{"op":"write","kind":"demote","node":-1,'
        '"payload":{"margin_mts":0}}',
        '{"op":"write","kind":"demote","node":3,"payload":[]}',
        '{"op": "place", "job": 2, "nodes": 0}',
        '{"op": "place", "job": 3, "nodes": 1}',
    ]) + "\n")
    out = tmp_path / "decisions.jsonl"
    code = main(["serve", "--nodes", "8", "--daemons", daemons,
                 "--requests", str(requests), "--out", str(out)])
    err = capsys.readouterr().err.splitlines()
    assert code == 1
    assert [l.split(":")[1] for l in err[:-1]] == \
        [" bad request line {}".format(n) for n in (2, 3, 4, 5)]
    assert "margin_mts" not in err[-1] and "decisions" in err[-1]
    statuses = [json.loads(l)["status"] for l in
                out.read_text().splitlines()]
    assert statuses == ["placed", "placed"]


# -- repro smoke -------------------------------------------------------------------


def _montecarlo(seeds):
    return Scenario(
        steps=(Step("--seed {seed} montecarlo --trials 40",
                    stdout="mc-{p}.txt"),),
        across=("mc-{p}.txt",),
        passes=tuple({"p": p, "seed": s} for p, s in zip("ab", seeds)))


def test_smoke_runner_passes_identical_passes(tmp_path, capsys):
    assert run_scenario(_montecarlo(["7", "7"]), tmp_path) is None
    assert (tmp_path / "mc-a.txt").read_bytes() == \
        (tmp_path / "mc-b.txt").read_bytes()


def test_smoke_runner_names_the_differing_file(tmp_path, capsys):
    failure = run_scenario(_montecarlo(["7", "8"]), tmp_path)
    assert failure is not None
    assert "mc-a.txt and mc-b.txt differ" in failure


def test_smoke_runner_checks_exit_status(tmp_path, capsys):
    scenario = Scenario(steps=(Step("settings", status=1),),
                        passes=({"p": "a"},))
    failure = run_scenario(scenario, tmp_path)
    assert failure == "`repro settings` exited 0, expected 1"


def test_smoke_command_refuses_a_used_directory(tmp_path, capsys):
    (tmp_path / "old.txt").write_text("")
    assert main(["smoke", "chaos-smoke", "--out-dir", str(tmp_path)]) == 2
    assert "is not empty" in capsys.readouterr().err


def test_ci_smoke_matrix_matches_the_table():
    ci = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
    (matrix,) = re.findall(r"^\s+smoke: \[(.*)\]\s*$", ci, re.MULTILINE)
    assert [s.strip() for s in matrix.split(",")] == list(SCENARIOS)
    assert "repro smoke ${{ matrix.smoke }}" in ci


def test_ci_gates_on_the_ledger_ab(tmp_path):
    ci = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
    assert "benchmarks/ledger/compare.py" in ci
    assert "python3 .github/scripts/ledger_gate.py" in ci
    assert "repro perf" not in ci
    # Every A/B job picks its parent commit through one script...
    assert ci.count('compare.py "$PARENT"') == \
        ci.count("bash .github/scripts/ab_parent.sh") > 0
    # ...which, run in a two-commit repository with the event's commit
    # as $1, maps an all-zero or unknown commit to HEAD^.
    script = ROOT / ".github" / "scripts" / "ab_parent.sh"

    def run(*argv):
        return subprocess.run(argv, cwd=tmp_path, capture_output=True,
                              text=True, check=True)

    git = ("git", "-c", "user.name=ci", "-c", "user.email=ci@example.com")
    run(*git, "init", "-q")
    run(*git, "commit", "-q", "--allow-empty", "-m", "first")
    run(*git, "commit", "-q", "--allow-empty", "-m", "second")
    first, second = run("git", "rev-parse", "HEAD^", "HEAD").stdout.split()
    for unusable in ("0" * 40, "1" * 40, ""):
        picked = run("bash", str(script), unusable)
        assert picked.stdout.strip() == first
        assert picked.stderr.startswith(
            "A/B parent: HEAD^ ({})".format(first))
    picked = run("bash", str(script), second)
    assert picked.stdout.strip() == second
    assert picked.stderr.strip() == "A/B parent: " + second
