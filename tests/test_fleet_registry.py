"""Tests for the fleet margin registry: event log, replay, snapshots,
compaction, and crash-safety."""

import json
import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.fleet import (EVENT_KINDS, MarginRegistry, NodeRecord,
                        RegistryError, RegistryEvent, canonical_json)

#: An unclosed file (a leaked WAL append handle) fails the test.
pytestmark = [
    pytest.mark.filterwarnings("error::ResourceWarning"),
    pytest.mark.filterwarnings(
        "error::pytest.PytestUnraisableExceptionWarning"),
    pytest.mark.usefixtures("collect_cycles")]


def test_event_kinds_cover_the_design():
    assert set(EVENT_KINDS) == {"profile", "demote", "promote",
                                "retire", "thermal", "drift", "adapt"}


def test_sequence_numbers_are_monotonic():
    reg = MarginRegistry()
    events = [reg.record_profile(i, 800) for i in range(5)]
    assert [e.seq for e in events] == [1, 2, 3, 4, 5]
    assert reg.last_seq == 5


def test_profile_sets_margin_and_clears_demotion():
    reg = MarginRegistry()
    reg.record_profile(0, 800, channel_margins=(800, 1000))
    reg.record_demotion(0, 400, reason="epoch trip")
    assert reg.node(0).effective_margin_mts == 400
    reg.record_profile(0, 600, time_s=10.0)
    rec = reg.node(0)
    assert rec.demoted_margin_mts is None
    assert rec.effective_margin_mts == 600
    assert rec.profiled_at_s == 10.0


def test_promotion_back_to_profile_clears_cap():
    reg = MarginRegistry()
    reg.record_profile(0, 800)
    reg.record_demotion(0, 400)
    reg.record_promotion(0, 600)
    assert reg.node(0).effective_margin_mts == 600
    reg.record_promotion(0, 800)
    assert reg.node(0).demoted_margin_mts is None
    assert reg.node(0).effective_margin_mts == 800


def test_retirement_is_sticky():
    reg = MarginRegistry()
    reg.record_profile(0, 800)
    reg.record_retirement(0, reason="out of healthy modules")
    assert reg.node(0).effective_margin_mts == 0
    # Even a later profile cannot resurrect a retired node.
    reg.record_profile(0, 800)
    assert reg.node(0).effective_margin_mts == 0
    assert reg.node(0).margin_bucket == 0


def test_unprofiled_node_is_at_spec():
    reg = MarginRegistry()
    reg.record_advisory(3, reason="profiling failed")
    rec = reg.node(3)
    assert rec.effective_margin_mts == 0
    assert rec.advisories == 1


def test_unknown_kind_and_bad_node_rejected():
    reg = MarginRegistry()
    with pytest.raises(ValueError):
        reg.record("reboot", 0)
    with pytest.raises(ValueError):
        reg.record_profile(-1, 800)


def test_roundtrip_through_event_log(tmp_path):
    reg = MarginRegistry(tmp_path / "fleet")
    reg.record_profile(0, 800, time_s=1.0, channel_margins=(900, 800))
    reg.record_profile(1, 600, time_s=1.0)
    reg.record_demotion(1, 200, time_s=2.0, reason="CE rate")
    reg.close()
    reloaded = MarginRegistry(tmp_path / "fleet")
    assert reloaded.last_seq == 3
    assert reloaded.effective_margins() == [800, 200]
    assert reloaded.node(0).channel_margins == (900, 800)


def test_snapshot_plus_tail_replay(tmp_path):
    reg = MarginRegistry(tmp_path / "fleet")
    reg.record_profile(0, 800)
    reg.write_snapshot()
    reg.record_demotion(0, 400)          # after the snapshot
    reg.close()
    reloaded = MarginRegistry(tmp_path / "fleet")
    assert reloaded.effective_margins() == [400]
    assert reloaded.last_seq == 2


def test_compaction_preserves_state_and_truncates_log(tmp_path):
    reg = MarginRegistry(tmp_path / "fleet")
    for i in range(4):
        reg.record_profile(i, 800)
    reg.record_retirement(2)
    before = reg.snapshot_bytes()
    assert reg.compact() == 5
    assert (tmp_path / "fleet" / "events.jsonl").read_text() == ""
    reloaded = MarginRegistry(tmp_path / "fleet")
    assert reloaded.snapshot_bytes() == before
    # Events keep sequencing from where compaction left off.
    event = reloaded.record_demotion(0, 200)
    reloaded.close()
    assert event.seq == 6


def test_truncated_final_line_is_tolerated(tmp_path):
    reg = MarginRegistry(tmp_path / "fleet")
    reg.record_profile(0, 800)
    reg.record_profile(1, 600)
    reg.close()
    events = tmp_path / "fleet" / "events.jsonl"
    with open(events, "a") as fh:
        fh.write('{"seq":3,"time_s":0.0,"node":2,"ki')   # crash mid-append
    reloaded = MarginRegistry(tmp_path / "fleet")
    assert reloaded.last_seq == 2
    assert not reloaded.has_node(2)


def test_corruption_before_the_tail_raises(tmp_path):
    reg = MarginRegistry(tmp_path / "fleet")
    reg.record_profile(0, 800)
    reg.record_profile(1, 600)
    reg.close()
    events = tmp_path / "fleet" / "events.jsonl"
    lines = events.read_text().splitlines()
    lines[0] = lines[0][:20]
    events.write_text("\n".join(lines) + "\n")
    with pytest.raises(RegistryError):
        MarginRegistry(tmp_path / "fleet")


def test_sequence_gap_raises(tmp_path):
    reg = MarginRegistry(tmp_path / "fleet")
    reg.record_profile(0, 800)
    reg.close()
    event = RegistryEvent(seq=5, time_s=0.0, node=1, kind="profile",
                          payload={"margin_mts": 600})
    with open(tmp_path / "fleet" / "events.jsonl", "a") as fh:
        fh.write(event.to_json() + "\n")
    with pytest.raises(RegistryError):
        MarginRegistry(tmp_path / "fleet")


def test_snapshot_write_is_atomic_replace(tmp_path):
    reg = MarginRegistry(tmp_path / "fleet")
    reg.record_profile(0, 800)
    path = reg.write_snapshot()
    first = path.read_bytes()
    reg.record_demotion(0, 0)
    reg.write_snapshot()
    reg.close()
    assert path.read_bytes() != first
    assert not list((tmp_path / "fleet").glob("*.tmp"))
    # The snapshot is valid canonical JSON with sorted keys.
    doc = json.loads(path.read_text())
    assert doc["format"] == 1
    assert doc["last_seq"] == 2


def test_create_false_requires_existing_registry(tmp_path):
    with pytest.raises(RegistryError):
        MarginRegistry(tmp_path / "missing", create=False)
    reg = MarginRegistry(tmp_path / "fleet")
    reg.record_profile(0, 800)
    reg.close()
    reloaded = MarginRegistry(tmp_path / "fleet", create=False)
    assert reloaded.effective_margins() == [800]


def test_in_memory_registry_has_no_snapshot_file():
    reg = MarginRegistry()
    reg.record_profile(0, 800)
    with pytest.raises(RegistryError):
        reg.write_snapshot()
    assert reg.snapshot_bytes().endswith(b"\n")


def test_bucket_counts_ordered_fastest_first():
    reg = MarginRegistry()
    reg.record_profile(0, 600)
    reg.record_profile(1, 800)
    reg.record_profile(2, 0)
    assert list(reg.bucket_counts().items()) == [(800, 1), (600, 1),
                                                 (0, 1)]


def test_node_record_roundtrip():
    rec = NodeRecord(node=3, margin_mts=600, channel_margins=(600, 800),
                     profiled_at_s=1.5, demoted_margin_mts=200,
                     retired=False, advisories=2, last_seq=9)
    assert NodeRecord.from_dict(rec.to_dict()) == rec


# -- crash repair + WAL windows (PR 3 recovery support) ---------------------------


def test_repair_log_drops_torn_tail(tmp_path):
    reg = MarginRegistry(tmp_path / "fleet")
    reg.record_profile(0, 800)
    reg.record_profile(1, 600)
    reg.close()
    torn = '{"seq":3,"time_s":'
    with open(reg.events_path, "a") as fh:
        fh.write(torn)
    dropped = MarginRegistry(tmp_path / "fleet").repair_log()
    assert dropped == len(torn)
    # The repaired log appends cleanly from the surviving sequence.
    reloaded = MarginRegistry(tmp_path / "fleet")
    assert reloaded.last_seq == 2
    event = reloaded.record_profile(2, 400)
    reloaded.close()
    assert event.seq == 3
    assert MarginRegistry(tmp_path / "fleet").last_seq == 3


def test_repair_log_is_noop_when_clean(tmp_path):
    reg = MarginRegistry(tmp_path / "fleet")
    reg.record_profile(0, 800)
    before = reg.events_path.read_bytes()
    assert reg.repair_log() == 0
    reg.close()
    assert reg.events_path.read_bytes() == before


def test_repair_log_noop_in_memory():
    assert MarginRegistry().repair_log() == 0


def test_repair_log_rejects_mid_file_corruption(tmp_path):
    reg = MarginRegistry(tmp_path / "fleet")
    reg.record_profile(0, 800)
    reg.record_profile(1, 600)
    reg.close()
    lines = reg.events_path.read_text().splitlines()
    lines[0] = lines[0][:15]
    reg.events_path.write_text("\n".join(lines) + "\n")
    with pytest.raises(RegistryError):
        reg.repair_log()


def test_events_since_filters_seq_and_node(tmp_path):
    reg = MarginRegistry(tmp_path / "fleet")
    reg.record_profile(0, 800)               # seq 1
    reg.record_profile(1, 600)               # seq 2
    reg.record_demotion(0, 400)              # seq 3
    reg.record_demotion(1, 200)              # seq 4
    reg.close()
    events, complete = reg.events_since(2)
    assert complete
    assert [e.seq for e in events] == [3, 4]
    events, complete = reg.events_since(1, node=0)
    assert complete
    assert [e.seq for e in events] == [3]
    events, complete = reg.events_since(4)
    assert complete and events == []


def test_concurrent_readers_see_clean_prefix(tmp_path):
    """The single-writer-per-shard contract's reader half: while one
    writer appends, a reader loading the directory sees a clean prefix
    of the log (at worst one torn tail line, which the load path
    drops) — never a sequence gap or a RegistryError."""
    import threading

    total = 300
    writer = MarginRegistry(tmp_path / "fleet")
    errors = []
    observed = []

    def write():
        for i in range(total):
            writer.record_profile(i % 8, 800 if i % 2 else 600,
                                  time_s=float(i))

    thread = threading.Thread(target=write)
    thread.start()
    try:
        while thread.is_alive():
            try:
                observed.append(
                    MarginRegistry(tmp_path / "fleet").last_seq)
            except RegistryError as exc:    # pragma: no cover
                errors.append(exc)
                break
    finally:
        thread.join()
        writer.close()
    assert not errors
    # Each loaded prefix is consistent and progress is monotone.
    assert observed == sorted(observed)
    assert MarginRegistry(tmp_path / "fleet").last_seq == total


def test_events_since_incomplete_past_retention_horizon(tmp_path):
    reg = MarginRegistry(tmp_path / "fleet")
    reg.record_profile(0, 800)               # seq 1
    reg.record_demotion(0, 400)              # seq 2
    reg.compact()                            # folds 1-2 into snapshot
    reg.record_demotion(0, 200)              # seq 3
    reg.close()
    # Compaction drops the folded events from memory too (a
    # long-running daemon would otherwise retain every event forever),
    # so the compacting process and a fresh load agree: seq 0 predates
    # the retention horizon and event-by-event replay is impossible.
    events, complete = reg.events_since(0)
    assert not complete
    assert [e.seq for e in events] == [3]
    reloaded = MarginRegistry(tmp_path / "fleet")
    events, complete = reloaded.events_since(0)
    assert not complete
    # From the horizon on, the tail is fully retained.
    events, complete = reloaded.events_since(2)
    assert complete
    assert [e.seq for e in events] == [3]


#: Complete (newline-terminated) event lines that parse as JSON but
#: fail the check ``record`` applies: an unknown kind, a negative node,
#: a margin kind without ``margin_mts``, a non-numeric margin.
SCHEMA_INVALID_LINES = [
    '{"kind":"bogus","node":0,"payload":{},"seq":2,"time_s":0.0}',
    '{"kind":"thermal","node":-1,"payload":{},"seq":2,"time_s":0.0}',
    '{"kind":"demote","node":0,"payload":{},"seq":2,"time_s":0.0}',
    '{"kind":"promote","node":0,"payload":{"margin_mts":"fast"},'
    '"seq":2,"time_s":0.0}',
]


@pytest.mark.parametrize("line", SCHEMA_INVALID_LINES)
def test_schema_invalid_line_is_corrupt_on_load_and_repair(tmp_path,
                                                           line):
    reg = MarginRegistry(tmp_path / "fleet")
    reg.record_profile(0, 800)
    reg.close()
    with open(reg.events_path, "a") as fh:
        fh.write(line + "\n")
    # Even as the final line: it is whole JSON, so not a torn append.
    with pytest.raises(RegistryError, match="corrupt event at line 2"):
        MarginRegistry(tmp_path / "fleet")
    with pytest.raises(RegistryError, match="corrupt event at line 2"):
        reg.repair_log()


def test_loaded_margin_is_coerced_like_a_recorded_one(tmp_path):
    reg = MarginRegistry(tmp_path / "fleet")
    reg.close()
    with open(reg.events_path, "a") as fh:
        fh.write('{"kind":"profile","node":3,"payload":'
                 '{"margin_mts":600.0},"seq":1,"time_s":0}\n')
    (event,), complete = MarginRegistry(tmp_path / "fleet").events_since(0)
    assert complete and event.payload["margin_mts"] == 600
    assert isinstance(event.payload["margin_mts"], int)


def _append_lands_in_live_log(path, reg):
    """Record once more; the line must be on disk in the file the
    directory now names (not a replaced inode), and a fresh load must
    replay it."""
    event = reg.record_demotion(0, 200, reason="after")
    assert reg.events_path.read_text().endswith(event.to_json() + "\n")
    fresh = MarginRegistry(path)
    assert fresh.last_seq == event.seq
    assert fresh.node(0).effective_margin_mts == 200
    reg.close()


def test_append_after_truncate_log_lands_in_live_file(tmp_path):
    reg = MarginRegistry(tmp_path / "fleet")
    reg.record_profile(0, 800)
    inode = os.stat(reg.events_path).st_ino
    reg.write_snapshot()
    assert reg.truncate_log() == 1
    assert os.stat(reg.events_path).st_ino != inode
    _append_lands_in_live_log(tmp_path / "fleet", reg)


def test_append_after_compact_lands_in_live_file(tmp_path):
    reg = MarginRegistry(tmp_path / "fleet")
    reg.record_profile(0, 800)
    reg.record_profile(1, 600)
    assert reg.compact() == 2
    _append_lands_in_live_log(tmp_path / "fleet", reg)


def test_append_after_repair_log_lands_in_live_file(tmp_path):
    reg = MarginRegistry(tmp_path / "fleet")
    reg.record_profile(0, 800)
    with open(reg.events_path, "a") as fh:
        fh.write('{"seq":2,"time_s":')       # torn, handle still open
    inode = os.stat(reg.events_path).st_ino
    assert reg.repair_log() > 0
    assert os.stat(reg.events_path).st_ino != inode
    _append_lands_in_live_log(tmp_path / "fleet", reg)


def test_every_record_is_on_disk_when_it_returns(tmp_path):
    reg = MarginRegistry(tmp_path / "fleet")
    for i in range(3):
        event = reg.record_profile(i, 800)
        assert reg.events_path.read_text().splitlines()[-1] == \
            event.to_json()
    reg.close()
    reg.close()                               # idempotent
    # A closed registry reopens its handle on the next record.
    _append_lands_in_live_log(tmp_path / "fleet", reg)


_json_docs = st.recursive(
    st.none() | st.booleans() | st.integers() |
    st.floats(allow_nan=True, allow_infinity=True) | st.text(),
    lambda children: st.lists(children, max_size=4) |
    st.dictionaries(st.text(), children, max_size=4),
    max_leaves=20)


@settings(max_examples=200, deadline=None)
@given(_json_docs)
def test_canonical_json_equals_sorted_compact_dumps(doc):
    """The shared encoder writes exactly what ``json.dumps`` with the
    same options does, for non-ASCII text, floats and NaN too."""
    assert canonical_json(doc) == json.dumps(doc, sort_keys=True,
                                             separators=(",", ":"))


def test_canonical_json_escapes_non_ascii_and_writes_nan():
    assert canonical_json({"b": float("nan"), "a": "\u00e9"}) == \
        '{"a":"\\u00e9","b":NaN}'
