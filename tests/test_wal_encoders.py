"""Byte identity of the direct encoders for the three fixed-schema log
lines — ``RegistryEvent``, ``ControlEvent`` (with its commit payload)
and the daemon's ``Decision`` — against ``canonical_json`` of the same
fields, the encoder they replace on the append path."""

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.fleet import EVENT_KINDS, RegistryEvent, canonical_json
from repro.fleet.registry import json_number
from repro.service import ControlEvent, Decision
from repro.service.daemon import STATUSES
from repro.service.lease import (CONTROL_KINDS, ControlLog, LeaseTable,
                                 commit_payload_json)

#: Times as callers pass them: ints and floats, the float spellings
#: ``repr`` and JSON disagree on, and the edge values spelled out.
_times = (st.integers() |
          st.floats(allow_nan=True, allow_infinity=True) |
          st.sampled_from([0, 0.0, -0.0, 1e-07, 1e16, 2.5e-308,
                           float("nan"), float("inf"), float("-inf")]))

_ids = st.integers(min_value=0, max_value=2 ** 63)

_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() |
    st.floats(allow_nan=True, allow_infinity=True) | st.text(),
    lambda children: st.lists(children, max_size=4) |
    st.dictionaries(st.text(), children, max_size=4),
    max_leaves=12)

#: Free-form payloads: a non-ASCII ``reason`` and nested lists
#: alongside arbitrary keys.
_payloads = st.fixed_dictionaries(
    {}, optional={"reason": st.text(),
                  "channel_margins": st.lists(
                      st.lists(st.integers(), max_size=3), max_size=3),
                  "margin_mts": st.integers()}) | \
    st.dictionaries(st.text(), _json_values, max_size=4)


@pytest.mark.parametrize("value", [0, -3, 2 ** 70, 0.0, -0.0, 1e-07,
                                   1.5, 1e300, float("nan"),
                                   float("inf"), float("-inf")])
def test_json_number_matches_canonical_json(value):
    assert json_number(value) == canonical_json(value)


@pytest.mark.parametrize("kind", EVENT_KINDS)
@settings(max_examples=60, deadline=None)
@given(seq=_ids, time_s=_times, node=_ids, payload=_payloads)
def test_registry_event_encoder_is_canonical(kind, seq, time_s, node,
                                             payload):
    event = RegistryEvent(seq=seq, time_s=time_s, node=node, kind=kind,
                          payload=payload)
    assert event.to_json() == canonical_json(
        {"seq": seq, "time_s": time_s, "node": node, "kind": kind,
         "payload": payload})


@pytest.mark.parametrize("kind", CONTROL_KINDS)
@settings(max_examples=60, deadline=None)
@given(seq=_ids, group=_ids, owner=_ids, token=_ids, time_s=_times,
       expires_s=_times, payload=_payloads)
def test_control_event_encoder_is_canonical(kind, seq, group, owner,
                                            token, time_s, expires_s,
                                            payload):
    event = ControlEvent(seq=seq, kind=kind, group=group, owner=owner,
                         token=token, time_s=time_s,
                         expires_s=expires_s, payload=payload)
    assert event.to_json() == canonical_json(
        {"seq": seq, "kind": kind, "group": group, "owner": owner,
         "token": token, "time_s": time_s, "expires_s": expires_s,
         "payload": payload})


@pytest.mark.parametrize("status", STATUSES)
@settings(max_examples=60, deadline=None)
@given(seq=_ids, job=st.integers(), nodes=st.lists(_ids, max_size=8),
       bucket=st.integers())
def test_decision_encoder_is_canonical(status, seq, job, nodes, bucket):
    decision = Decision(seq, job, status, tuple(nodes), bucket)
    assert decision.to_json() == canonical_json(
        {"seq": seq, "job": job, "status": status, "nodes": nodes,
         "bucket": bucket})


def _commit_line(payload, seq=7):
    event = ControlEvent(seq=seq, kind="commit", group=3, owner=1,
                         token=9, time_s=12.5, expires_s=30.0,
                         payload=payload)
    expected = canonical_json(
        {"seq": seq, "kind": "commit", "group": 3, "owner": 1,
         "token": 9, "time_s": 12.5, "expires_s": 30.0,
         "payload": payload})
    return event, expected


@pytest.mark.parametrize("status", STATUSES + ("buffered-write",))
@settings(max_examples=60, deadline=None)
@given(job=st.integers(), bucket=st.integers(),
       nodes=st.lists(_ids, max_size=8))
def test_commit_payload_encoder_is_canonical(status, job, bucket, nodes):
    """The commit shape the HA plane writes, every status, and the same
    line again after a replay through ``from_doc`` (JSON key order,
    not insertion order)."""
    event, expected = _commit_line({"job": job, "status": status,
                                    "nodes": nodes, "bucket": bucket})
    assert event.to_json() == expected
    replayed = ControlEvent.from_doc(json.loads(expected))
    assert replayed.to_json() == expected


@pytest.mark.parametrize("payload", [
    {"bucket": True, "job": 1, "nodes": [2], "status": "placed"},
    {"bucket": 800, "job": 1.0, "nodes": [2], "status": "placed"},
    {"bucket": 800, "job": 1, "nodes": (2, 3), "status": "placed"},
    {"bucket": 800, "job": 1, "nodes": [2, False], "status": "placed"},
    {"bucket": 800, "job": 1, "nodes": [2.5], "status": "placed"},
    {"bucket": 800, "job": 1, "nodes": [2], "status": 'pl"aced\n'},
    {"bucket": 800, "job": 1, "nodes": [2], "status": "pläced"},
    {"bucket": 800, "job": 1, "nodes": [2], "status": None},
    {"bucket": 800, "job": 1, "nodes": [2], "status": ["placed"]},
    {"bucket": 800, "job": 1, "nodes": [2]},
    {"bucket": 800, "job": 1, "nodes": [2], "status": "placed",
     "extra": 0},
    {"reason": "ha-drill"},
    {},
])
def test_non_commit_payload_falls_back_to_canonical(payload):
    event, expected = _commit_line(payload)
    assert event.to_json() == expected


#: Clock readings whose spellings a memo keyed by value would confuse:
#: ``0.0``/``-0.0`` and ``1``/``1.0`` compare equal, NaN never does.
#: Sampled from one list, so repeats hand the log the same objects.
_memo_times = st.sampled_from([0.0, -0.0, 1, 1.0, 2.5, float("nan"),
                               float("inf"), float("-inf")])

_commits = st.tuples(st.sampled_from(STATUSES), st.integers(),
                     st.lists(_ids, max_size=4),
                     st.integers(min_value=0, max_value=2400))

#: One append: kind, group, time_s, expires_s, and for a commit either a
#: typed decision payload or a free-form one.
_appends = st.tuples(st.sampled_from(CONTROL_KINDS),
                     st.integers(min_value=0, max_value=2),
                     _memo_times, _memo_times,
                     st.one_of(_commits, _payloads))


@settings(max_examples=80, deadline=None)
@given(appends=st.lists(_appends, min_size=1, max_size=24))
def test_control_log_lines_are_canonical_across_a_sequence(appends):
    """Every line one ``ControlLog`` writes equals ``canonical_json`` of
    its fields, whatever clock readings came before it (the log keeps
    the last spellings between appends)."""
    expected = []
    with tempfile.TemporaryDirectory() as tmp:
        log = ControlLog(Path(tmp) / "control.jsonl")
        for seq, (kind, group, time_s, expires_s, body) in enumerate(
                appends, 1):
            payload_json = None
            if kind != "commit":
                payload = {}
            elif isinstance(body, tuple):
                status, job, nodes, bucket = body
                payload = {"job": job, "status": status, "nodes": nodes,
                           "bucket": bucket}
                payload_json = commit_payload_json(job, status, nodes,
                                                   bucket)
            else:
                payload = body
            log.append(kind, group, 1, 9, time_s, expires_s, payload,
                       payload_json)
            expected.append(canonical_json(
                {"seq": seq, "kind": kind, "group": group, "owner": 1,
                 "token": 9, "time_s": time_s, "expires_s": expires_s,
                 "payload": payload}))
        log.close()
        written = (Path(tmp) / "control.jsonl").read_text()
    assert written.splitlines() == expected


@pytest.mark.parametrize("status", STATUSES)
@settings(max_examples=40, deadline=None)
@given(job=st.integers(), nodes=st.lists(_ids, max_size=8),
       bucket=st.integers())
def test_typed_commit_payload_is_canonical(status, job, nodes, bucket):
    for nodes_, bucket_ in ((nodes, bucket), ([], 0)):
        assert commit_payload_json(job, status, nodes_, bucket_) == \
            canonical_json({"job": job, "status": status,
                            "nodes": nodes_, "bucket": bucket_})


@pytest.mark.parametrize("status", STATUSES)
def test_typed_commit_line_through_the_lease_table(tmp_path, status):
    """A typed commit's line, with an empty node list and bucket 0 and
    with nodes, equals ``canonical_json`` of its fields."""
    table = LeaseTable(30.0, ControlLog(tmp_path / "control.jsonl"))
    lease = table.acquire(0, 0, 0.0)
    for job, nodes, bucket in ((5, (), 0), (6, (3, 1, 2), 800)):
        payload = {"job": job, "status": status, "nodes": list(nodes),
                   "bucket": bucket}
        event = table.commit(0, 0, lease.token, 1.5, payload,
                             commit_payload_json(job, status, nodes,
                                                 bucket))
        assert event.payload is payload
    table.log.close()
    lines = (tmp_path / "control.jsonl").read_text().splitlines()
    assert lines[1:] == [canonical_json(
        {"seq": seq, "kind": "commit", "group": 0, "owner": 0,
         "token": lease.token, "time_s": 1.5, "expires_s": 30.0,
         "payload": {"job": job, "status": status, "nodes": list(nodes),
                     "bucket": bucket}})
        for seq, job, nodes, bucket in ((2, 5, (), 0),
                                        (3, 6, (3, 1, 2), 800))]


def test_buffered_write_payload_goes_through_canonical_json(
        tmp_path, monkeypatch):
    """``heal_daemon``'s buffered write is not a decision status, so it
    reaches the lease table with no typed JSON and, when it lands, is
    written by ``canonical_json``."""
    from repro.service import lease as lease_module
    from repro.service.ha import HAConfig, HAControlPlane

    commits = []
    original = LeaseTable.commit

    def spy_commit(self, group, owner, token, now_s, payload,
                   payload_json=None):
        commits.append((dict(payload), payload_json))
        return original(self, group, owner, token, now_s, payload,
                        payload_json)

    monkeypatch.setattr(LeaseTable, "commit", spy_commit)
    config = HAConfig(nodes=40, shards=4, daemons=2, events=10,
                      lease_duration_s=3.0, renew_every_s=0.75,
                      heartbeat_timeout_s=1.5)
    plane = HAControlPlane(config)
    plane.partition_daemon(1)
    plane.tick(10.0)                # daemon 1's group fails over
    plane.heal_daemon(1)
    plane.stop()
    buffered = {"job": -1, "status": "buffered-write", "nodes": [],
                "bucket": 0}
    assert (buffered, None) in commits
    assert plane.table.stats.fenced_writes == 1

    encoded = []
    monkeypatch.setattr(lease_module, "canonical_json",
                        lambda obj: encoded.append(obj) or
                        canonical_json(obj))
    table = LeaseTable(30.0, ControlLog(tmp_path / "control.jsonl"))
    lease = table.acquire(0, 0, 0.0)
    table.commit(0, 0, lease.token, 2.0, dict(buffered))
    table.log.close()
    assert encoded[-1] == buffered
    assert (tmp_path / "control.jsonl").read_text().splitlines()[-1] == \
        canonical_json({"seq": 2, "kind": "commit", "group": 0,
                        "owner": 0, "token": lease.token, "time_s": 2.0,
                        "expires_s": 30.0, "payload": buffered})
