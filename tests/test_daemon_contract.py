"""Behaviour-contract pins for the placement daemon: the soak's decision
digest and counters, and the SHA-256 of a ``repro serve`` decision
stream that crosses every admission path (a storm past the watermark,
write floods past the hard queue bound, stale deadlines and a
backwards clock tick).  Any change to admission, expiry, queue order
or pool selection moves one of these."""

import hashlib
import json
import os
import random
import subprocess
import sys

import pytest

from repro.cli import main
from repro.service import SoakConfig, SoakScenario

#: An unclosed file (a leaked WAL append handle) fails the test.
pytestmark = [
    pytest.mark.filterwarnings("error::ResourceWarning"),
    pytest.mark.filterwarnings(
        "error::pytest.PytestUnraisableExceptionWarning"),
    pytest.mark.usefixtures("collect_cycles")]


def _flooding():
    """Queue bounds small enough that write floods and storms overrun
    them mid-burst, many times per run."""
    return SoakConfig(nodes=200, shards=4, events=20_000,
                      queue_limit=16, event_queue_limit=40,
                      compact_every=256, snapshot_every_bursts=32,
                      verify_events=5_000)


#: Digest and counters per config.  The cache counters are the seq-only
#: view's: a 60 s view TTL used to add one rebuild per shard (4 more
#: misses, 4 fewer hits) that re-folded margins the pool already held,
#: so it never moved a decision.
SOAK_PINS = {
    "smoke": (SoakConfig.smoke, (
        "12b59d2df03395cfa52d8bdf5fae12df4c63ad1540146a4a9d41b7f35c593ada"
    ), dict(placed=4980, unsatisfiable=304, shed=2355, expired=129,
            duplicate=0, released=4938, unknown_releases=0,
            writes=5993, ticks=1351, closed_rejects=0, decisions=12706,
            queue_peak=512, backpressure_waits=5, cache_hits=21132,
            cache_misses=4)),
    "flooding": (_flooding, (
        "e8fc1a163cb3ec0a393fb9bc67c266c423653e575eecd204abc58fcb5e950e26"
    ), dict(placed=2667, unsatisfiable=0, shed=6737, expired=77,
            duplicate=0, released=2652, unknown_releases=0,
            writes=6236, ticks=1661, closed_rejects=0, decisions=12133,
            queue_peak=40, backpressure_waits=182, cache_hits=10664,
            cache_misses=4)),
}


@pytest.mark.parametrize("name", sorted(SOAK_PINS))
def test_soak_digest_and_stats_are_pinned(name):
    make, digest, stats = SOAK_PINS[name]
    report = SoakScenario(make()).run()
    assert report.digest == digest
    assert report.verify_match is True
    got = {k: report.stats[k] for k in stats}
    assert got == stats
    checks = stats["cache_hits"] + stats["cache_misses"]
    assert report.stats["cache_hit_ratio"] == stats["cache_hits"] / checks


def _serve_request_lines():
    """A ``repro serve`` request stream for ``--queue-limit 64`` (hard
    queue bound 4096) that reaches every admission path."""
    lines = []

    def op(**doc):
        lines.append(json.dumps(doc, sort_keys=True))

    def flood(to_drain, queued):
        # Enough writes to overrun the 4096-message bound once, leaving
        # ``to_drain`` - 1 of them queued behind the drain.
        for i in range(4096 - queued + to_drain):
            op(op="write", kind=("demote", "promote")[i % 2],
               node=(7 * i) % 64,
               payload={"margin_mts": (0, 200, 400, 600, 800)[i % 5],
                        "reason": "flood"})

    op(op="tick", now_s=1.0)
    for job in range(1, 21):
        # Every fifth deadline is already stale.
        op(op="place", job=job, nodes=1 + job % 4,
           deadline_s=0.5 if job % 5 == 0 else 30.0)
    op(op="release", job=3)
    op(op="release", job=999)              # never placed
    flood(8, len(lines))
    op(op="tick", now_s=40.0)
    for job in range(21, 121):             # storm past the watermark
        op(op="place", job=job, nodes=1 + job % 3, deadline_s=60.0)
    op(op="tick", now_s=10.0)              # backwards: clamped at 40
    flood(4, 1)                            # the tick drained the storm
    op(op="place", job=200, nodes=1, deadline_s=20.0)   # stale at 40
    op(op="place", job=1, nodes=1)         # duplicate of a live lease
    for job in (1, 2, 4, 21, 22, 23):
        op(op="release", job=job)
    for job in range(201, 211):
        op(op="place", job=job, nodes=1 + job % 5)
    return lines


#: SHA-256 of the decision JSONL ``repro serve`` writes for
#: :func:`_serve_request_lines` (each tick drains the requests queued
#: before it).
SERVE_DIGEST = (
    "173fe30c7b88da9d088b80bc7b54028011dac4a64ee58e5db5a2b8abe5325c58")


def test_serve_decision_stream_is_pinned(tmp_path, capsys):
    requests = tmp_path / "requests.jsonl"
    requests.write_text("\n".join(_serve_request_lines()) + "\n")
    out = tmp_path / "decisions.jsonl"
    rc = main(["serve", "--seed", "26", "--nodes", "64", "--shards", "4",
               "--queue-limit", "64", "--requests", str(requests),
               "--out", str(out)])
    summary = capsys.readouterr().err
    assert rc == 0
    data = out.read_bytes()
    statuses = [json.loads(line)["status"]
                for line in data.decode().splitlines()]
    for status in ("placed", "shed", "expired", "duplicate", "released",
                   "unknown-job"):
        assert status in statuses, status
    assert summary.strip() == (
        "repro serve: 140 decisions (placed 36, shed 37, expired 5, "
        "released 7), 8180 writes, queue peak 4096")
    assert hashlib.sha256(data).hexdigest() == SERVE_DIGEST


def test_serve_answers_a_paced_request_stream(tmp_path, capsys):
    """Each tick drains the requests before it: 300 one-node jobs, each
    after a 1 s tick with the job two back released, on 64 nodes with
    ``--queue-limit 64``, are all placed and every release finds its
    job."""
    lines = []
    for job in range(1, 301):
        lines.append({"op": "tick", "now_s": float(job)})
        lines.append({"op": "place", "job": job, "nodes": 1})
        if job > 2:
            lines.append({"op": "release", "job": job - 2})
    requests = tmp_path / "requests.jsonl"
    requests.write_text("".join(json.dumps(doc) + "\n" for doc in lines))
    out = tmp_path / "decisions.jsonl"
    rc = main(["serve", "--seed", "26", "--nodes", "64", "--queue-limit",
               "64", "--requests", str(requests), "--out", str(out)])
    capsys.readouterr()
    assert rc == 0
    statuses = [json.loads(line)["status"]
                for line in out.read_text().splitlines()]
    assert "shed" not in statuses
    assert "unknown-job" not in statuses
    assert statuses.count("placed") == 300
    assert statuses.count("released") == 298


#: SHA-256 of the decision JSONL ``repro serve`` writes for the paced
#: stream below, whatever the daemon count (797 decisions).
PACED_DIGEST = (
    "82b4d4d9b470be05f6ce115c5460c9528f3c945ea8938d77e2b26cde317e860c")


def test_serve_is_one_loop_for_every_daemon_count(tmp_path, capsys):
    """One daemon and the HA plane of two or three answer a paced
    stream (a tick before each placement, ~30 % demote writes, the job
    three back released) with byte-identical decisions."""
    rng = random.Random(30)
    lines = []
    for job in range(1, 401):
        lines.append({"op": "tick", "now_s": float(job)})
        lines.append({"op": "place", "job": job, "nodes": 1 + job % 4})
        if rng.random() < 0.3:
            lines.append({"op": "write", "kind": "demote",
                          "node": rng.randrange(64),
                          "payload": {"margin_mts": rng.choice(
                              (0, 200, 400, 600, 800)),
                              "reason": "paced"}})
        if job > 3:
            lines.append({"op": "release", "job": job - 3})
    requests = tmp_path / "requests.jsonl"
    requests.write_text("".join(json.dumps(doc) + "\n" for doc in lines))
    for daemons in ("1", "2", "3"):
        out = tmp_path / "decisions-{}.jsonl".format(daemons)
        assert main(["serve", "--seed", "26", "--nodes", "64",
                     "--daemons", daemons, "--requests", str(requests),
                     "--out", str(out)]) == 0
        assert "797 decisions (placed 400" in capsys.readouterr().err
        assert hashlib.sha256(out.read_bytes()).hexdigest() == \
            PACED_DIGEST, daemons


def test_soak_and_serve_never_import_asyncio(tmp_path):
    """The daemon is synchronous: a tiny soak and ``repro serve`` run
    without ``asyncio`` ever entering ``sys.modules``, in a fresh
    interpreter."""
    import repro
    src = os.path.dirname(os.path.dirname(repro.__file__))
    requests = tmp_path / "requests.jsonl"
    requests.write_text('{"op": "tick", "now_s": 1.0}\n'
                        '{"op": "place", "job": 1, "nodes": 2}\n'
                        '{"op": "release", "job": 1}\n')
    code = ("import sys\n"
            "from repro.cli import main\n"
            "from repro.service import SoakConfig, SoakScenario\n"
            "report = SoakScenario(SoakConfig(nodes=64, shards=2,"
            " events=1500, queue_limit=16, event_queue_limit=64,"
            " verify_events=500)).run()\n"
            "assert report.passed(), report.failures()\n"
            "assert main(['serve', '--nodes', '8', '--requests', {!r},"
            " '--out', {!r}]) == 0\n"
            "print('asyncio' in sys.modules)\n").format(
                str(requests), str(tmp_path / "out.jsonl"))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip().splitlines()[-1] == "False"
