"""Byte identity of the direct encoders for the three fixed-schema log
lines — ``RegistryEvent``, ``ControlEvent`` (with its commit payload)
and the daemon's ``Decision`` — against ``canonical_json`` of the same
fields, the encoder they replace on the append path."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.fleet import EVENT_KINDS, RegistryEvent, canonical_json
from repro.fleet.registry import json_number
from repro.service import ControlEvent, Decision
from repro.service.daemon import STATUSES
from repro.service.lease import CONTROL_KINDS

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
