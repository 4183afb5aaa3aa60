"""Tests for the soak harness: determinism, backpressure engagement,
the report gate, and the CLI verbs riding on it."""

import dataclasses
import hashlib
import io
import json

import pytest

from repro.cli import main
from repro.service import SoakConfig, SoakReport, SoakScenario

#: An unclosed file (a leaked WAL append handle) fails the test.
pytestmark = [
    pytest.mark.filterwarnings("error::ResourceWarning"),
    pytest.mark.filterwarnings(
        "error::pytest.PytestUnraisableExceptionWarning"),
    pytest.mark.usefixtures("collect_cycles")]


def _tiny(**overrides):
    """A seconds-scale config still hitting storms, floods, expiry."""
    base = dict(nodes=64, shards=4, events=4000, seed=11,
                queue_limit=32, event_queue_limit=256,
                compact_every=128, snapshot_every_bursts=16,
                verify=False, verify_events=1000)
    base.update(overrides)
    return SoakConfig(**base)


def test_tiny_soak_passes_with_verification(tmp_path):
    config = _tiny(verify=True, registry_dir=tmp_path / "soak")
    report = SoakScenario(config).run()
    assert report.passed(), report.failures()
    assert report.verified and report.verify_match is True
    assert report.events >= config.events
    assert report.compactions > 0
    assert report.fingerprint is not None
    stats = report.stats
    assert stats["shed"] > 0                 # storms engaged admission
    assert stats["backpressure_waits"] > 0   # floods blocked producer
    assert stats["expired"] > 0              # stale deadlines expired
    assert stats["placed"] > 0 and stats["released"] > 0
    assert report.p999_s is not None


def test_same_seed_same_digest_across_persistence_modes(tmp_path):
    # Decisions live entirely in the virtual-clock world: the digest
    # must not depend on whether shards persist (or compact) at all.
    in_memory = SoakScenario(_tiny()).run()
    again = SoakScenario(_tiny()).run()
    on_disk = SoakScenario(
        _tiny(registry_dir=tmp_path / "soak")).run()
    assert in_memory.digest == again.digest == on_disk.digest
    assert in_memory.decisions == on_disk.decisions
    assert in_memory.compactions == 0
    assert on_disk.compactions > 0


def test_different_seed_different_digest():
    assert SoakScenario(_tiny()).run().digest != \
        SoakScenario(_tiny(seed=12)).run().digest


def test_decision_stream_is_canonical_and_matches_digest():
    stream = io.StringIO()
    report = SoakScenario(_tiny(events=1500)).run(stream=stream)
    lines = stream.getvalue().splitlines()
    assert len(lines) == report.decisions
    digest = hashlib.sha256()
    seqs = []
    for line in lines:
        doc = json.loads(line)
        assert list(doc) == sorted(doc)      # canonical key order
        seqs.append(doc["seq"])
        digest.update(line.encode("ascii"))
        digest.update(b"\n")
    assert seqs == list(range(1, len(lines) + 1))
    assert digest.hexdigest() == report.digest


def test_report_gate_failures():
    report = SoakScenario(_tiny(events=1500, verify=True)).run()
    assert report.passed()
    late = dataclasses.replace(report, p999_s=report.p999_budget_s * 2)
    assert any("p999" in f for f in late.failures())
    short = dataclasses.replace(report, events=report.events - 1,
                                target_events=report.events)
    assert any("events" in f for f in short.failures())
    diverged = dataclasses.replace(report, verify_match=False)
    assert any("determinism" in f for f in diverged.failures())
    idle = dataclasses.replace(
        report, stats=dict(report.stats, shed=0,
                           backpressure_waits=0))
    assert any("backpressure" in f for f in idle.failures())
    doc = report.to_dict()
    assert doc["passed"] is True and doc["failures"] == []


def test_soak_config_validation():
    with pytest.raises(ValueError):
        SoakConfig(nodes=0).validate()
    with pytest.raises(ValueError):
        SoakConfig(events=0).validate()
    with pytest.raises(ValueError):
        SoakConfig(verify=True, verify_events=0).validate()
    with pytest.raises(ValueError):
        SoakConfig(queue_limit=512,
                   event_queue_limit=512).validate()
    assert SoakConfig.smoke().validate() is not None


# -- CLI ----------------------------------------------------------------------


def test_cli_soak_smoke_writes_report_and_decisions(tmp_path, capsys):
    rc = main(["soak", "--smoke", "--seed", "5",
               "--events", "3000", "--nodes", "64",
               "--queue-limit", "32",
               "--registry", str(tmp_path / "soak"),
               "--decisions", str(tmp_path / "decisions.jsonl"),
               "--report-file", str(tmp_path / "report.json")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "verdict: PASSED" in out
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["passed"] is True
    lines = (tmp_path / "decisions.jsonl").read_text().splitlines()
    assert len(lines) == report["decisions"]


def test_cli_soak_unwritable_report_is_io_error(tmp_path, capsys):
    rc = main(["soak", "--smoke", "--events", "1500",
               "--nodes", "64", "--queue-limit", "32",
               "--report-file", str(tmp_path / "nope" / "r.json")])
    capsys.readouterr()
    assert rc == 2


def test_cli_serve_round_trip(tmp_path, capsys):
    requests = tmp_path / "requests.jsonl"
    requests.write_text("\n".join([
        '{"op": "tick", "now_s": 1.0}',
        '{"op": "place", "job": 1, "nodes": 2}',
        '{"op": "write", "kind": "demote", "node": 0, '
        '"payload": {"margin_mts": 0, "reason": "cli"}}',
        '{"op": "place", "job": 2, "nodes": 2, "deadline_s": 0.5}',
        '{"op": "release", "job": 1}',
    ]) + "\n")
    out_file = tmp_path / "decisions.jsonl"
    rc = main(["serve", "--nodes", "8", "--shards", "2",
               "--requests", str(requests), "--out", str(out_file)])
    capsys.readouterr()
    assert rc == 0
    decisions = [json.loads(l) for l in
                 out_file.read_text().splitlines()]
    assert [d["status"] for d in decisions] == \
        ["placed", "expired", "released"]
    assert decisions[2]["nodes"] == decisions[0]["nodes"]


def test_cli_serve_bad_request_is_domain_failure(tmp_path, capsys):
    requests = tmp_path / "requests.jsonl"
    requests.write_text('{"op": "reboot"}\n')
    rc = main(["serve", "--nodes", "8",
               "--requests", str(requests),
               "--out", str(tmp_path / "out.jsonl")])
    capsys.readouterr()
    assert rc == 1


def test_cli_serve_missing_registry_is_io_error(tmp_path, capsys):
    rc = main(["serve", "--registry", str(tmp_path / "missing")])
    capsys.readouterr()
    assert rc == 2


def test_cli_serve_loads_sharded_registry(tmp_path, capsys):
    from repro.service import ShardedRegistry
    registry = ShardedRegistry(tmp_path / "fleet", shards=2)
    for i in range(6):
        registry.record_profile(i, 800)
    registry.close()
    requests = tmp_path / "requests.jsonl"
    requests.write_text('{"op": "place", "job": 1, "nodes": 3}\n')
    out_file = tmp_path / "decisions.jsonl"
    rc = main(["serve", "--registry", str(tmp_path / "fleet"),
               "--requests", str(requests), "--out", str(out_file)])
    capsys.readouterr()
    assert rc == 0
    (decision,) = [json.loads(l) for l in
                   out_file.read_text().splitlines()]
    assert decision["status"] == "placed"
    assert decision["bucket"] == 800


def test_report_rejects_empty_run():
    report = SoakReport(events=0, decisions=0, nodes=1, shards=1,
                        seed=0, target_events=100, stats={},
                        compactions=0, digest="")
    assert not report.passed()
