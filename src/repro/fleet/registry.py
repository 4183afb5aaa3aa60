"""Fleet margin registry: the persistent source of truth for margins.

Exploiting frequency margin safely at fleet scale is a bookkeeping
problem (AL-DRAM made the same observation for timing margins): someone
must profile every node, remember the results, and keep them current as
modules age, heat up, and get demoted.  :class:`MarginRegistry` is that
memory — an append-only JSONL event log plus a periodically compacted
snapshot, replayable into per-node :class:`NodeRecord` state that the
scheduler, simulator, and resilience ladder all consume instead of
ad-hoc margin lists.

Event kinds (the full schema is documented in DESIGN.md §8):

``profile``
    A completed :class:`~repro.core.profiling.NodeMarginProfiler` pass;
    payload carries the node margin, per-channel margins, and attempt
    count.  A fresh profile clears any operational demotion.
``demote`` / ``promote``
    Degradation-ladder rung changes (operational caps below the
    profiled margin); a promotion back to the profiled margin clears
    the cap.
``retire``
    The node is permanently out of margin exploitation (out of healthy
    modules); its effective margin is 0 from then on, regardless of
    later events.
``thermal``
    An advisory (e.g. a profiling pass aborted by boot failures during
    a thermal excursion); it does not change the effective margin but
    is counted per node.
``drift``
    An environment observation from a drift scenario (ambient and
    on-DIMM temperature band changes seen by
    :mod:`repro.adaptive`); like ``thermal`` it changes no margin,
    but it is counted separately so adaptive runs can report how much
    environment churn the controller was exposed to.
``adapt``
    A rung change decided by the adaptive controller
    (:class:`repro.adaptive.AdaptiveMarginController`) rather than the
    reactive ladder — proactive demotion ahead of faults or a
    probe-budgeted re-promotion.  The payload mirrors
    ``demote``/``promote`` (``margin_mts`` + a rung-name ``reason``)
    and the margin semantics are identical, so recovery replay and
    cluster folding treat it exactly like a ladder rung change.

Durability contract: events are appended one canonical-JSON line at a
time through one lazily opened append handle, flushed after every line
and closed before every ``os.replace`` of the log (the next append
reopens it on the new file); snapshots are written atomically (temp
file + ``os.replace``) so a crash can at worst lose the tail of the
event log, never corrupt a snapshot.  A partially-written *final*
event line (one that is not even JSON) is tolerated and dropped at
load time; any other line that fails the checks
:meth:`MarginRegistry.record` applies raises :class:`RegistryError`.
Canonical serialization (sorted keys, fixed separators) makes
snapshots byte-comparable: the same fleet seed produces byte-identical
snapshot files, which CI asserts.

Concurrency contract — **single writer per registry (per shard)**:
appends are unlocked, so exactly one process may ``record`` into a
given registry directory at a time (the sharded service holds one
writer per shard; see ``repro.service``).  Concurrent *readers* are
always safe: an append is a single sequential write, so a reader can
at worst observe a clean prefix of the log plus one torn final line —
exactly the shape the load path already tolerates — and never a
sequence gap, because seqs are assigned and written in order by the
one writer.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..core.margin_selection import bucket_node_margin
from ..obs import get_recorder

#: Allowed event kinds, in documentation order.
EVENT_KINDS = ("profile", "demote", "promote", "retire", "thermal",
               "drift", "adapt")

#: Kinds whose payload carries the ``margin_mts`` replay folds in.
_MARGIN_KINDS = ("profile", "demote", "promote", "adapt")

#: Snapshot schema version (bumped on incompatible changes).
SNAPSHOT_FORMAT = 1

EVENTS_FILE = "events.jsonl"
SNAPSHOT_FILE = "snapshot.json"


class RegistryError(Exception):
    """The registry is missing, corrupt, or was used incorrectly."""


def coerce_event(kind: str, node: int,
                 payload: Mapping[str, object]) -> Dict[str, object]:
    """Check one event the way :meth:`MarginRegistry.record` accepts
    it and return its payload with the margin fields replay reads
    coerced to ``int``.

    Raises ``ValueError`` for an unknown kind, a negative node or a
    non-numeric margin, ``KeyError`` when a margin-carrying kind has
    no ``margin_mts``, and ``TypeError`` for a payload that is not a
    mapping of the right shape — so a caller can reject a bad write
    before it is queued.
    """
    if kind not in EVENT_KINDS:
        raise ValueError("unknown event kind {!r}".format(kind))
    if node < 0:
        raise ValueError("node index must be non-negative")
    out = dict(payload)
    if kind in _MARGIN_KINDS:
        out["margin_mts"] = int(out["margin_mts"])
    if "channel_margins" in out:
        out["channel_margins"] = [int(m) for m in out["channel_margins"]]
    return out


#: One encoder for every :func:`canonical_json` call; ``json.dumps``
#: with these options would build a new one each time.
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def canonical_json(obj: object) -> str:
    """Deterministic JSON: sorted keys, no whitespace variance."""
    return _CANONICAL.encode(obj)


#: JSON's spelling of the floats ``float.__repr__`` writes otherwise.
_JSON_FLOAT_SPECIAL = {"nan": "NaN", "inf": "Infinity",
                       "-inf": "-Infinity"}


def json_number(value: float) -> str:
    """One int or float exactly as :func:`canonical_json` writes it —
    for the direct encoders of the fixed-schema log lines."""
    if isinstance(value, float):
        text = float.__repr__(value)
        return _JSON_FLOAT_SPECIAL.get(text, text)
    return int.__repr__(value)


def fsync_dir(path: Path) -> None:
    """fsync a directory so a just-completed ``os.replace`` inside it
    survives power loss — fsyncing the file alone persists the *data*,
    but the rename itself lives in the directory entry.  Platforms
    whose directories cannot be opened or fsynced (some network
    filesystems, Windows) degrade to a no-op."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


@dataclass(frozen=True)
class RegistryEvent:
    """One append-only log entry (see module docstring for kinds)."""
    seq: int
    time_s: float
    node: int
    kind: str
    payload: Dict[str, object] = field(default_factory=dict)

    def to_json(self) -> str:
        """One canonical JSONL line, byte-identical to
        :func:`canonical_json` of the five fields but written directly.
        ``kind`` is not escaped: every event passes
        :func:`coerce_event` (on record and on load), so it is one of
        :data:`EVENT_KINDS`."""
        return ('{"kind":"%s","node":%d,"payload":%s,"seq":%d,'
                '"time_s":%s}' % (self.kind, self.node,
                                  canonical_json(self.payload), self.seq,
                                  json_number(self.time_s)))

    @classmethod
    def from_doc(cls, raw: Dict[str, object]) -> "RegistryEvent":
        """One parsed log line, checked by :func:`coerce_event`
        (raises ``ValueError``, ``KeyError`` or ``TypeError``)."""
        node = int(raw["node"])
        kind = str(raw["kind"])
        return cls(seq=int(raw["seq"]), time_s=float(raw["time_s"]),
                   node=node, kind=kind,
                   payload=coerce_event(kind, node,
                                        raw.get("payload", {})))


def _parse_log(text: str) -> List[Tuple[str, RegistryEvent]]:
    """Every ``(line, event)`` of an event log's text, blank lines
    skipped.  A final line that is not JSON is a torn append and is
    dropped; any other line that does not parse, or fails the checks
    :meth:`MarginRegistry.record` applies, raises
    :class:`RegistryError` naming its line number."""
    lines = text.splitlines()
    out: List[Tuple[str, RegistryEvent]] = []
    for i, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            raw = json.loads(line)
        except ValueError as exc:
            if i == len(lines) - 1:
                # A crash mid-append can truncate the final line;
                # everything before it is intact.
                break
            raise RegistryError(
                "corrupt event at line {}: {}".format(i + 1, exc))
        try:
            out.append((line, RegistryEvent.from_doc(raw)))
        except KeyError as exc:
            raise RegistryError("corrupt event at line {}: missing {}"
                                .format(i + 1, exc))
        except (ValueError, TypeError) as exc:
            raise RegistryError(
                "corrupt event at line {}: {}".format(i + 1, exc))
    return out


@dataclass
class NodeRecord:
    """Replayed per-node state: what the fleet knows about one node."""
    node: int
    margin_mts: Optional[int] = None       # last profiled margin
    channel_margins: Tuple[int, ...] = ()
    profiled_at_s: Optional[float] = None
    demoted_margin_mts: Optional[int] = None
    retired: bool = False
    advisories: int = 0
    drift_advisories: int = 0
    last_seq: int = 0

    @property
    def effective_margin_mts(self) -> int:
        """The margin placement may rely on right now: 0 for retired or
        never-profiled nodes, else the profiled margin capped by any
        operational demotion."""
        if self.retired or self.margin_mts is None:
            return 0
        if self.demoted_margin_mts is None:
            return self.margin_mts
        return min(self.margin_mts, self.demoted_margin_mts)

    @property
    def margin_bucket(self) -> int:
        return bucket_node_margin(self.effective_margin_mts)

    def to_dict(self) -> Dict[str, object]:
        """Snapshot representation (canonical-JSON friendly)."""
        return {"node": self.node, "margin_mts": self.margin_mts,
                "channel_margins": list(self.channel_margins),
                "profiled_at_s": self.profiled_at_s,
                "demoted_margin_mts": self.demoted_margin_mts,
                "retired": self.retired, "advisories": self.advisories,
                "drift_advisories": self.drift_advisories,
                "last_seq": self.last_seq}

    @classmethod
    def from_dict(cls, raw: Dict[str, object]) -> "NodeRecord":
        """Inverse of :meth:`to_dict`."""
        return cls(node=int(raw["node"]),
                   margin_mts=raw["margin_mts"],
                   channel_margins=tuple(raw.get("channel_margins", ())),
                   profiled_at_s=raw["profiled_at_s"],
                   demoted_margin_mts=raw["demoted_margin_mts"],
                   retired=bool(raw["retired"]),
                   advisories=int(raw.get("advisories", 0)),
                   drift_advisories=int(raw.get("drift_advisories", 0)),
                   last_seq=int(raw.get("last_seq", 0)))


class MarginRegistry:
    """Append-only event log + snapshot of fleet margin knowledge.

    ``path`` is a directory holding ``events.jsonl`` and
    ``snapshot.json``; ``None`` keeps the registry in memory only
    (tests, examples).  With ``create=False`` the directory must
    already contain a registry (the CLI's read-only subcommands use
    this so a typo'd path errors instead of silently creating an empty
    fleet).
    """

    def __init__(self, path: Optional[object] = None,
                 create: bool = True):
        self.path = Path(path) if path is not None else None
        self.last_seq = 0
        self._records: Dict[int, NodeRecord] = {}
        #: Events seen by this process (loaded from the log or recorded
        #: here), for WAL replay by ``repro.recovery``.  Events already
        #: folded into a loaded snapshot are unavailable; the horizon
        #: marks the first seq retained.
        self._retained: List[RegistryEvent] = []
        self.horizon_seq = 0
        #: Append handle on the event log, opened by the first record.
        self._fh = None
        if self.path is not None:
            if create:
                self.path.mkdir(parents=True, exist_ok=True)
            elif not (self.snapshot_path.is_file() or
                      self.events_path.is_file()):
                raise RegistryError(
                    "no registry at {}".format(self.path))
            self._load()

    # -- paths --------------------------------------------------------------------

    @property
    def events_path(self) -> Path:
        """The append-only JSONL event log."""
        return self.path / EVENTS_FILE

    @property
    def snapshot_path(self) -> Path:
        """The atomically-replaced snapshot file."""
        return self.path / SNAPSHOT_FILE

    # -- load / replay ------------------------------------------------------------

    def _load(self) -> None:
        if self.snapshot_path.is_file():
            try:
                raw = json.loads(self.snapshot_path.read_text())
            except ValueError as exc:
                raise RegistryError("corrupt snapshot {}: {}".format(
                    self.snapshot_path, exc))
            if raw.get("format") != SNAPSHOT_FORMAT:
                raise RegistryError("unsupported snapshot format {!r}"
                                    .format(raw.get("format")))
            self.last_seq = int(raw["last_seq"])
            self.horizon_seq = self.last_seq
            self._records = {int(r["node"]): NodeRecord.from_dict(r)
                             for r in raw["nodes"]}
        if not self.events_path.is_file():
            return
        for _, event in _parse_log(self.events_path.read_text()):
            if event.seq <= self.last_seq:
                continue          # already folded into the snapshot
            if event.seq != self.last_seq + 1:
                raise RegistryError(
                    "sequence gap: expected {}, got {}".format(
                        self.last_seq + 1, event.seq))
            self._apply(event)
            self._retained.append(event)
            self.last_seq = event.seq

    def repair_log(self) -> int:
        """Drop a truncated tail line a crash mid-append can leave in
        ``events.jsonl``, rewriting the log atomically.  The load path
        already tolerates (and skips) such a line; appending after it
        would corrupt the log, so any resume *must* repair first.
        Returns the number of bytes dropped (0 when already clean)."""
        if self.path is None or not self.events_path.is_file():
            return 0
        original = self.events_path.read_text()
        repaired = "".join(line + "\n"
                           for line, _ in _parse_log(original))
        if repaired == original:
            return 0
        self.close()
        tmp = self.events_path.with_suffix(".jsonl.tmp")
        with open(tmp, "w") as fh:
            fh.write(repaired)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self.events_path)
        fsync_dir(self.path)
        return len(original) - len(repaired)

    def close(self) -> None:
        """Close the event log's append handle; the next record
        reopens it.  Idempotent."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    # -- recording ----------------------------------------------------------------

    def record(self, kind: str, node: int, time_s: float = 0.0,
               **payload: object) -> RegistryEvent:
        """Append one event, apply it to the replayed state, and
        persist it (when the registry is file-backed)."""
        event = RegistryEvent(seq=self.last_seq + 1,
                              time_s=float(time_s), node=int(node),
                              kind=kind,
                              payload=coerce_event(kind, node, payload))
        self._apply(event)
        self._retained.append(event)
        self.last_seq = event.seq
        if self.path is not None:
            fh = self._fh
            if fh is None:
                fh = self._fh = open(self.events_path, "a")
            fh.write(event.to_json() + "\n")
            fh.flush()
        rec = get_recorder()
        if rec.enabled:
            rec.counter("registry", "events", kind=kind)
            rec.gauge("registry", "last_seq", self.last_seq)
        return event

    def record_profile(self, node: int, margin_mts: int,
                       time_s: float = 0.0,
                       channel_margins: Sequence[int] = (),
                       attempts: int = 1) -> RegistryEvent:
        """A completed profiling pass (clears operational demotions)."""
        return self.record("profile", node, time_s,
                           margin_mts=int(margin_mts),
                           channel_margins=[int(m) for m in
                                            channel_margins],
                           attempts=int(attempts))

    def record_demotion(self, node: int, margin_mts: int,
                        time_s: float = 0.0,
                        reason: str = "") -> RegistryEvent:
        """A degradation-ladder demotion to an operational cap."""
        return self.record("demote", node, time_s,
                           margin_mts=int(margin_mts), reason=reason)

    def record_promotion(self, node: int, margin_mts: int,
                         time_s: float = 0.0,
                         reason: str = "") -> RegistryEvent:
        """A re-promotion rung change (cap raised or cleared)."""
        return self.record("promote", node, time_s,
                           margin_mts=int(margin_mts), reason=reason)

    def record_retirement(self, node: int, time_s: float = 0.0,
                          reason: str = "") -> RegistryEvent:
        """Permanent retirement from margin exploitation."""
        return self.record("retire", node, time_s, reason=reason)

    def record_advisory(self, node: int, time_s: float = 0.0,
                        reason: str = "") -> RegistryEvent:
        """A thermal/profiling advisory (no margin change)."""
        return self.record("thermal", node, time_s, reason=reason)

    def record_drift(self, node: int, time_s: float = 0.0,
                     ambient_c: float = 0.0, dimm_c: float = 0.0,
                     reason: str = "") -> RegistryEvent:
        """A drift-scenario environment observation (no margin change).
        Payload carries only *observable* state — ambient and on-DIMM
        temperatures — never the scenario's hidden true margin."""
        return self.record("drift", node, time_s,
                           ambient_c=float(ambient_c),
                           dimm_c=float(dimm_c), reason=reason)

    def record_adapt(self, node: int, margin_mts: int,
                     time_s: float = 0.0, direction: str = "",
                     reason: str = "") -> RegistryEvent:
        """An adaptive-controller rung change; margin semantics match
        ``demote``/``promote`` so replay stays conservative."""
        return self.record("adapt", node, time_s,
                           margin_mts=int(margin_mts),
                           direction=direction, reason=reason)

    def _apply(self, event: RegistryEvent) -> None:
        rec = self._records.setdefault(event.node,
                                       NodeRecord(event.node))
        payload = event.payload
        if event.kind == "profile":
            rec.margin_mts = int(payload["margin_mts"])
            rec.channel_margins = tuple(
                int(m) for m in payload.get("channel_margins", ()))
            rec.profiled_at_s = event.time_s
            rec.demoted_margin_mts = None
        elif event.kind in ("demote", "promote", "adapt"):
            margin = int(payload["margin_mts"])
            base = rec.margin_mts if rec.margin_mts is not None else 0
            rec.demoted_margin_mts = None if margin >= base else margin
        elif event.kind == "retire":
            rec.retired = True
        elif event.kind == "thermal":
            rec.advisories += 1
        elif event.kind == "drift":
            rec.drift_advisories += 1
        rec.last_seq = event.seq

    # -- queries ------------------------------------------------------------------

    def node(self, index: int) -> NodeRecord:
        """The replayed record for one node (KeyError if unknown)."""
        return self._records[index]

    def has_node(self, index: int) -> bool:
        """Has any event ever mentioned this node?"""
        return index in self._records

    def nodes(self) -> List[NodeRecord]:
        """All node records, ordered by node index."""
        return [self._records[i] for i in sorted(self._records)]

    def events_since(self, seq: int,
                     node: Optional[int] = None
                     ) -> Tuple[List["RegistryEvent"], bool]:
        """Retained events with ``seq`` strictly greater than ``seq``,
        optionally filtered to one node, in seq order.

        The second element reports whether the range is *complete*:
        ``False`` when ``seq`` predates the retention horizon (events
        folded into a snapshot before this process loaded), in which
        case the caller must fall back to the replayed
        :class:`NodeRecord` net state instead of an event-by-event
        replay."""
        complete = seq >= self.horizon_seq
        events = [e for e in self._retained if e.seq > seq and
                  (node is None or e.node == node)]
        return events, complete

    def effective_margins(self) -> List[int]:
        """Effective margins ordered by node index (placement input)."""
        return [rec.effective_margin_mts for rec in self.nodes()]

    def bucket_counts(self) -> Dict[int, int]:
        """Node count per effective-margin bucket, fastest first."""
        counts: Dict[int, int] = {}
        for rec in self.nodes():
            counts[rec.margin_bucket] = counts.get(rec.margin_bucket,
                                                   0) + 1
        return dict(sorted(counts.items(), reverse=True))

    def __len__(self) -> int:
        return len(self._records)

    # -- snapshot / compaction ----------------------------------------------------

    def snapshot_bytes(self) -> bytes:
        """Canonical snapshot serialization (byte-comparable)."""
        doc = {"format": SNAPSHOT_FORMAT, "last_seq": self.last_seq,
               "nodes": [rec.to_dict() for rec in self.nodes()]}
        return (canonical_json(doc) + "\n").encode("ascii")

    def write_snapshot(self) -> Path:
        """Atomically persist the snapshot: write a temp file in the
        registry directory, fsync, then ``os.replace`` over the old
        snapshot, then fsync the directory so the rename itself is
        durable — readers never observe a torn file and a power cut
        right after the replace cannot resurrect the old snapshot."""
        if self.path is None:
            raise RegistryError("in-memory registry has no snapshot "
                                "file; use snapshot_bytes()")
        tmp = self.snapshot_path.with_suffix(".json.tmp")
        with open(tmp, "wb") as fh:
            fh.write(self.snapshot_bytes())
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self.snapshot_path)
        fsync_dir(self.path)
        return self.snapshot_path

    def compact(self) -> int:
        """Fold the event log into the snapshot and truncate it.

        Returns the number of log lines dropped.  Compaction is itself
        crash-safe: the snapshot lands atomically first, and a crash
        before the log truncation only leaves events the next load
        recognizes as already folded (``seq <= snapshot.last_seq``).
        """
        self.write_snapshot()
        return self.truncate_log()

    def truncate_log(self) -> int:
        """Empty the on-disk event log and drop the in-memory retained
        events it covered, advancing the retention horizon.

        Only valid immediately after :meth:`write_snapshot` (the
        snapshot must already hold every event's net effect) —
        :meth:`compact` is the safe pairing; the sharded service calls
        the two halves separately so crash drills can land between
        them.  Dropping the retained list is what keeps a long-running
        daemon's memory bounded: without it every compacted event would
        stay resident forever.  ``events_since`` callers asking for a
        seq older than the new horizon get ``complete=False`` and fall
        back to net state, exactly as after a snapshot load."""
        dropped = 0
        if self.path is not None and self.events_path.is_file():
            dropped = sum(
                1 for line in self.events_path.read_text().splitlines()
                if line.strip())
            self.close()
            tmp = self.events_path.with_suffix(".jsonl.tmp")
            tmp.write_text("")
            os.replace(tmp, self.events_path)
            fsync_dir(self.path)
        self._retained = []
        self.horizon_seq = self.last_seq
        return dropped
