"""Time-bounded shard-group leases with monotonic fencing tokens.

The HA control plane (:mod:`repro.service.ha`) lets several placement
daemons share one fleet by leasing **shard groups**: a daemon may
write to (or commit placements touching) a group only while it holds
that group's lease.  Ownership is made crash-safe by two mechanisms:

* **time-bounded leases** — a lease is valid until ``expires_s`` on
  the virtual clock and must be renewed before then; a daemon that
  stops renewing (crash, partition) loses the group when the lease
  runs out, and a successor can acquire it;
* **fencing tokens** — every successful acquire takes the next value
  of one globally monotonic counter.  Writers present their token on
  every durable operation; a deposed daemon's in-flight writes carry a
  stale token and are *rejected* (``fenced``), never applied — the
  classic fencing argument for why lease-based ownership stays safe
  across partitions where two daemons both believe they own a group.

Every ownership change and every committed placement decision is an
event in the :class:`ControlLog`, an append-only canonical-JSONL WAL
stored alongside the :class:`~repro.service.ShardedRegistry` shards
(same torn-tail tolerance as the margin registry: a crash mid-append
costs at most the final, incomplete line).  The log is the source of
truth: :meth:`LeaseTable.replay` rebuilds the table from it.  A
file-backed log keeps in memory only the events a retained checkpoint
can still need (:meth:`ControlLog.forget_through`), and a reopened one
only its newest event; the file keeps them all.  The log audits itself
as it is written, one event behind (:meth:`ControlLog.audit`): an
auditor that rebuilds lease validity from the ownership events alone,
never from the live table, proves no placement was double-committed
and no decision was committed under an expired or stale lease.
:func:`verify_control_log` runs the same auditor over a list of
events (a reloaded log, a test).
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from ..fleet.registry import canonical_json, fsync_dir, json_number
from ..obs import get_recorder
from .daemon import STATUSES

__all__ = ["CONTROL_LOG_FILE", "ControlEvent", "ControlLog",
           "LeaseError", "LeaseRecord", "LeaseTable",
           "verify_control_log"]

#: Control-WAL file name inside a sharded registry directory.
CONTROL_LOG_FILE = "control.jsonl"

#: Event kinds the control log records.
CONTROL_KINDS = ("acquire", "renew", "release", "commit")

#: Keys of the one payload shape a placement commit carries.
_COMMIT_KEYS = frozenset(("bucket", "job", "nodes", "status"))
_COMMIT_STATUSES = frozenset(STATUSES)


def _payload_json(payload: Dict[str, object]) -> str:
    """:func:`canonical_json` of ``payload``, written directly when it
    is a commit payload of int ``bucket``/``job``, a list of int
    ``nodes`` and a decision status (which needs no escaping); any
    other payload goes through :func:`canonical_json`."""
    if payload.keys() == _COMMIT_KEYS:
        bucket, job = payload["bucket"], payload["job"]
        nodes, status = payload["nodes"], payload["status"]
        if type(bucket) is int and type(job) is int and \
                type(status) is str and status in _COMMIT_STATUSES and \
                type(nodes) is list and \
                all(type(node) is int for node in nodes):
            return '{"bucket":%d,"job":%d,"nodes":[%s],"status":"%s"}' % (
                bucket, job, ",".join(map(str, nodes)), status)
    return canonical_json(payload)


class LeaseError(RuntimeError):
    """Corrupt control log or an operation that violates the lease
    protocol (not mere rejection: rejections return ``False``)."""


@dataclass(frozen=True)
class LeaseRecord:
    """One group's current lease."""
    group: int
    owner: int              # daemon id
    token: int              # fencing token (globally monotonic)
    acquired_s: float
    renewed_s: float        # high-water renewal stamp (skew guard)
    expires_s: float

    def valid_at(self, now_s: float) -> bool:
        return now_s < self.expires_s


@dataclass(frozen=True)
class ControlEvent:
    """One line of the control WAL."""
    seq: int
    kind: str               # acquire | renew | release | commit
    group: int
    owner: int
    token: int
    time_s: float
    expires_s: float = 0.0
    payload: Dict[str, object] = field(default_factory=dict)

    def to_json(self) -> str:
        """One canonical JSONL line, byte-identical to
        :func:`canonical_json` of the eight fields but written directly
        (``kind`` is one of :data:`CONTROL_KINDS`, so needs no
        escaping)."""
        return ('{"expires_s":%s,"group":%d,"kind":"%s","owner":%d,'
                '"payload":%s,"seq":%d,"time_s":%s,"token":%d}' % (
                    json_number(self.expires_s), self.group, self.kind,
                    self.owner, _payload_json(self.payload), self.seq,
                    json_number(self.time_s), self.token))

    @classmethod
    def from_doc(cls, doc: Dict[str, object]) -> "ControlEvent":
        kind = str(doc["kind"])
        if kind not in CONTROL_KINDS:
            raise ValueError("unknown control kind {!r}".format(kind))
        return cls(seq=int(doc["seq"]), kind=kind,
                   group=int(doc["group"]), owner=int(doc["owner"]),
                   token=int(doc["token"]),
                   time_s=float(doc["time_s"]),
                   expires_s=float(doc.get("expires_s", 0.0)),
                   payload=dict(doc.get("payload", {})))


class ControlLog:
    """Append-only control WAL (in-memory when ``path`` is None).

    Inherits the margin registry's durability posture: one canonical
    JSON line per event through one lazily opened append handle,
    flushed on append and closed before the file is rewritten;
    **torn-tail tolerant** on load (an interrupted final line is
    dropped and reported, every complete prefix line must parse and
    the seqs must be contiguous).

    ``events`` holds the newest events: all of them for an in-memory
    log; for a file-backed one, the newest event read back on open plus
    those appended since that :meth:`forget_through` has not dropped
    (the file still has the rest, and :meth:`events_since` reads them
    back from it).  Every event is fed to the log's auditor once the
    next one is written or read back; :meth:`audit` judges the newest
    without feeding it, so a torn tail is never audited.
    ``tear_tail()`` is the chaos seam: it deletes that newest event —
    exactly what a crash mid-append leaves behind."""

    def __init__(self, path: Optional[object] = None):
        self.path = Path(path) if path is not None else None
        self.events: List[ControlEvent] = []
        self.torn_bytes_dropped = 0
        #: Events not in memory: left in the file on open, or dropped
        #: by :meth:`forget_through`.
        self._forgotten = 0
        self._auditor = _Auditor()
        #: The newest event, not yet fed to the auditor.
        self._pending: Optional[ControlEvent] = None
        #: Append handle, opened by the first append.
        self._fh = None
        if self.path is not None:
            self._load()

    # -- persistence --------------------------------------------------------------

    def _load(self) -> None:
        """Read the file back: every event is seq-checked and fed to
        the auditor, but only the newest, unaudited one is retained
        (:meth:`events_since` streams the rest from the file)."""
        if not self.path.exists():
            return
        # Streamed: a corrupt line is fatal only once a complete line
        # follows it; otherwise it is a torn tail, cut off in place.
        keep: Optional[int] = None       # truncation offset, if torn
        corrupt: Optional[Tuple[int, Exception]] = None
        last_seq = 0
        for number, offset, line in _lines(self.path):
            if corrupt is not None and line.endswith(b"\n"):
                raise LeaseError("corrupt control log {} line {}: {}"
                                 .format(self.path, *corrupt))
            if not line.endswith(b"\n"):
                # No trailing newline: the final append was interrupted.
                self.torn_bytes_dropped += len(line)
                if keep is None:
                    keep = offset
                break
            if not line.strip():
                continue
            try:
                event = _parse(line)
            except (ValueError, KeyError, TypeError) as exc:
                # Torn mid-line with a stray newline flushed after:
                # still the tail if nothing complete follows.
                corrupt = (number, exc)
                keep = offset
                self.torn_bytes_dropped += len(line) - 1
                continue
            if event.seq != last_seq + 1:
                raise LeaseError(
                    "control log {} seq gap: expected {}, found {}"
                    .format(self.path, last_seq + 1, event.seq))
            last_seq = event.seq
            self._admit(event)
        if self._pending is not None:
            self.events.append(self._pending)
        self._forgotten = last_seq - len(self.events)
        if keep is not None:
            with open(self.path, "r+b") as fh:
                fh.truncate(keep)

    def _admit(self, event: ControlEvent) -> None:
        """Make ``event`` the pending one and audit the one before."""
        if self._pending is not None:
            self._auditor.feed(self._pending)
        self._pending = event

    def append(self, kind: str, group: int, owner: int, token: int,
               time_s: float, expires_s: float = 0.0,
               payload: Optional[Dict[str, object]] = None
               ) -> ControlEvent:
        event = ControlEvent(seq=self.last_seq + 1, kind=kind,
                             group=group, owner=owner, token=token,
                             time_s=time_s, expires_s=expires_s,
                             payload=dict(payload or {}))
        self._admit(event)
        self.events.append(event)
        if self.path is not None:
            fh = self._fh
            if fh is None:
                fh = self._fh = open(self.path, "a")
            fh.write(event.to_json() + "\n")
            fh.flush()
        return event

    @property
    def last_seq(self) -> int:
        return self._forgotten + len(self.events)

    def events_since(self, seq: int) -> Iterator[ControlEvent]:
        """Events with ``seq`` strictly greater than the given one:
        from memory when they are all retained, else streamed from the
        file."""
        if seq >= self._forgotten:
            return iter(self.events[seq - self._forgotten:])
        return self._stream(seq)

    def _stream(self, seq: int) -> Iterator[ControlEvent]:
        # The handle is line-flushed, so the file holds every event.
        for number, _, line in _lines(self.path):
            if not line.strip():
                continue
            try:
                event = _parse(line)
            except (ValueError, KeyError, TypeError) as exc:
                raise LeaseError("corrupt control log {} line {}: {}"
                                 .format(self.path, number, exc))
            if event.seq > seq:
                yield event

    def forget_through(self, seq: int) -> None:
        """Drop the retained events with seq at or below ``seq`` (the
        oldest checkpoint a restore can still start from).  A no-op
        for an in-memory log, which has no file to read them back
        from."""
        if self.path is None:
            return
        drop = min(seq, self.last_seq) - self._forgotten
        if drop > 0:
            del self.events[:drop]
            self._forgotten += drop

    def audit(self) -> Tuple[int, int]:
        """:func:`verify_control_log`'s verdict over every event
        written so far, newest included."""
        return self._auditor.verdict(self._pending)

    def tear_tail(self) -> Optional[ControlEvent]:
        """Chaos seam: destroy the most recent record, exactly as a
        crash mid-append would (the persisted log loses its last line;
        the in-memory view loses the event).  Returns the casualty, or
        None when the log is empty.  Raises :class:`LeaseError` when
        the most recent record was already audited (it was torn
        before): a crash mid-append can only lose the newest append."""
        victim = self._pending
        if victim is None:
            if self.last_seq == 0:
                return None
            raise LeaseError(
                "control log: record {} was already audited; only the "
                "newest append can be torn".format(self.last_seq))
        self._pending = None
        if self.events:
            self.events.pop()
        else:
            self._forgotten -= 1
        if self.path is not None:
            self.close()
            _drop_last_line(self.path)
            if self.path.parent.is_dir():
                fsync_dir(self.path.parent)
        return victim

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


def _parse(line: bytes) -> ControlEvent:
    return ControlEvent.from_doc(json.loads(line))


def _lines(path: Path) -> Iterator[Tuple[int, int, bytes]]:
    """``(line number, byte offset, line)`` for each line of ``path``,
    read one at a time; a torn final line lacks its newline."""
    offset = 0
    with open(path, "rb") as fh:
        for number, line in enumerate(fh, 1):
            yield number, offset, line
            offset += len(line)


def _drop_last_line(path: Path) -> None:
    """Truncate ``path`` (newline-terminated) before its last line,
    reading only the file's end."""
    with open(path, "r+b") as fh:
        end = fh.seek(0, 2) - 1          # the final newline
        while end > 0:
            start = max(0, end - 4096)
            fh.seek(start)
            cut = fh.read(end - start).rfind(b"\n")
            if cut >= 0:
                fh.truncate(start + cut + 1)
                return
            end = start
        fh.truncate(0)


@dataclass
class LeaseStats:
    """Deterministic lease-protocol counters."""
    acquires: int = 0
    acquire_rejects: int = 0
    renewals: int = 0
    renewals_rejected_skew: int = 0
    renewals_rejected_expired: int = 0
    renewals_rejected_fenced: int = 0
    releases: int = 0
    commits: int = 0
    fenced_writes: int = 0


class LeaseTable:
    """Current lease per shard group + the fencing-token counter.

    All mutations flow through the :class:`ControlLog` so the table is
    always reconstructible (:meth:`replay`).  The token counter is
    **globally monotonic across groups**: tokens double as an
    arbitration priority (older ownership wins a livelock, see
    :mod:`repro.service.arbitration`) and as the total order that
    makes "stale" well-defined for fencing."""

    def __init__(self, duration_s: float,
                 log: Optional[ControlLog] = None):
        if duration_s <= 0:
            raise ValueError("lease duration must be positive")
        self.duration_s = float(duration_s)
        self.log = log if log is not None else ControlLog()
        self.stats = LeaseStats()
        self._leases: Dict[int, LeaseRecord] = {}
        self._next_token = 1

    # -- queries ------------------------------------------------------------------

    def lease(self, group: int) -> Optional[LeaseRecord]:
        return self._leases.get(group)

    def owner_of(self, group: int, now_s: float) -> Optional[int]:
        """The daemon currently holding a *valid* lease, else None."""
        lease = self._leases.get(group)
        if lease is None or not lease.valid_at(now_s):
            return None
        return lease.owner

    def owned_groups(self, owner: int) -> List[int]:
        """Groups whose standing lease names ``owner`` — expired or
        not (failover cares about the claim, not its freshness)."""
        return sorted(g for g, lease in self._leases.items()
                      if lease.owner == owner)

    def validate(self, group: int, owner: int, token: int,
                 now_s: float) -> bool:
        """The fencing check: does ``(owner, token)`` hold a live
        lease on ``group`` right now?  A stale token (the daemon was
        deposed), a foreign owner, or an expired lease all fail."""
        lease = self._leases.get(group)
        return (lease is not None and lease.owner == owner and
                lease.token == token and lease.valid_at(now_s))

    # -- protocol -----------------------------------------------------------------

    def acquire(self, group: int, owner: int,
                now_s: float) -> Optional[LeaseRecord]:
        """Take the group if it is unleased or its lease has expired.
        Returns the new lease (with a fresh fencing token), or None
        while a live lease stands in the way."""
        current = self._leases.get(group)
        if current is not None and current.valid_at(now_s):
            self.stats.acquire_rejects += 1
            return None
        token = self._next_token
        self._next_token += 1
        lease = LeaseRecord(group=group, owner=owner, token=token,
                            acquired_s=now_s, renewed_s=now_s,
                            expires_s=now_s + self.duration_s)
        self._leases[group] = lease
        self.stats.acquires += 1
        self.log.append("acquire", group, owner, token, now_s,
                        expires_s=lease.expires_s)
        rec = get_recorder()
        if rec.enabled:
            rec.counter("ha", "lease_acquires")
        return lease

    def renew(self, group: int, owner: int, token: int,
              now_s: float) -> bool:
        """Extend a held lease.  Rejected when the caller was deposed
        (fencing), when the lease already expired (the caller must
        re-acquire and take a new token), or when the renewal's clock
        reading runs *backwards* past the last renewal — a skewed
        clock must never stretch a lease it could not have observed."""
        lease = self._leases.get(group)
        result = "ok"
        if (lease is None or lease.owner != owner or
                lease.token != token):
            self.stats.renewals_rejected_fenced += 1
            result = "fenced"
        elif now_s < lease.renewed_s:
            self.stats.renewals_rejected_skew += 1
            result = "skew"
        elif not lease.valid_at(now_s):
            self.stats.renewals_rejected_expired += 1
            result = "expired"
        else:
            self._leases[group] = replace(
                lease, renewed_s=now_s,
                expires_s=now_s + self.duration_s)
            self.stats.renewals += 1
            self.log.append("renew", group, owner, token, now_s,
                            expires_s=now_s + self.duration_s)
        rec = get_recorder()
        if rec.enabled:
            rec.counter("ha", "lease_renewals", result=result)
        return result == "ok"

    def release(self, group: int, owner: int, token: int,
                now_s: float) -> bool:
        """Voluntarily give the group up (clean shutdown path)."""
        lease = self._leases.get(group)
        if lease is None or lease.owner != owner or \
                lease.token != token:
            return False
        del self._leases[group]
        self.stats.releases += 1
        self.log.append("release", group, owner, token, now_s)
        return True

    def commit(self, group: int, owner: int, token: int, now_s: float,
               payload: Dict[str, object]) -> Optional[ControlEvent]:
        """Durably commit a decision under the caller's lease.  This
        is the fencing gate on the write path: a stale token or an
        expired lease means the event is **rejected**, not logged —
        the deposed daemon's in-flight write never lands."""
        if not self.validate(group, owner, token, now_s):
            self.stats.fenced_writes += 1
            rec = get_recorder()
            if rec.enabled:
                rec.counter("ha", "fenced_writes")
            return None
        self.stats.commits += 1
        return self.log.append("commit", group, owner, token, now_s,
                               expires_s=self._leases[group].expires_s,
                               payload=payload)

    # -- durability ---------------------------------------------------------------

    def to_state(self) -> Dict[str, object]:
        """Checkpoint section: leases + token counter + the control
        seq the state is current as of (replay resumes past it)."""
        return {
            "next_token": self._next_token,
            "control_seq": self.log.last_seq,
            "leases": [
                {"group": l.group, "owner": l.owner, "token": l.token,
                 "acquired_s": l.acquired_s, "renewed_s": l.renewed_s,
                 "expires_s": l.expires_s}
                for l in sorted(self._leases.values(),
                                key=lambda l: l.group)],
        }

    def restore(self, state: Dict[str, object]) -> int:
        """Conservative restore: adopt a checkpointed state, then
        replay every control event past its ``control_seq``.  Returns
        the number of events replayed.  Ownership is *not* resumed by
        restoring — a restarted daemon must still validate (and on
        failure re-acquire), so an ambiguous crash can only lose a
        lease early, never keep one too long."""
        self._leases = {
            int(doc["group"]): LeaseRecord(
                group=int(doc["group"]), owner=int(doc["owner"]),
                token=int(doc["token"]),
                acquired_s=float(doc["acquired_s"]),
                renewed_s=float(doc["renewed_s"]),
                expires_s=float(doc["expires_s"]))
            for doc in state.get("leases", [])}
        self._next_token = int(state.get("next_token", 1))
        replayed = 0
        for event in self.log.events_since(
                int(state.get("control_seq", 0))):
            self._apply(event)
            replayed += 1
        return replayed

    def replay(self) -> None:
        """Rebuild the whole table from the control log alone."""
        self._leases = {}
        self._next_token = 1
        for event in self.log.events_since(0):
            self._apply(event)

    def _apply(self, event: ControlEvent) -> None:
        _apply_ownership(self._leases, event)
        if event.token >= self._next_token:
            self._next_token = event.token + 1


def _apply_ownership(leases: Dict[int, LeaseRecord],
                     event: ControlEvent) -> None:
    """The replay rule: fold one acquire / renew / release into
    ``leases`` (a commit changes no lease)."""
    if event.kind == "acquire":
        leases[event.group] = LeaseRecord(
            group=event.group, owner=event.owner,
            token=event.token, acquired_s=event.time_s,
            renewed_s=event.time_s, expires_s=event.expires_s)
    elif event.kind == "renew":
        lease = leases.get(event.group)
        if lease is not None and lease.token == event.token:
            leases[event.group] = replace(
                lease, renewed_s=event.time_s,
                expires_s=event.expires_s)
    elif event.kind == "release":
        lease = leases.get(event.group)
        if lease is not None and lease.token == event.token:
            del leases[event.group]


class _Auditor:
    """Incremental safety audit of a control log, fed one event at a
    time.  It re-derives lease validity from the ownership events alone
    (never from a live :class:`LeaseTable`) and checks every
    ``commit`` against it, counting:

    * *double commits*: two ``placed`` commits for the same job id
      with no release in between (the placement was applied twice);
    * *expired-lease commits*: a commit whose ``(owner, token)`` did
      not hold a live lease on the commit's group at the commit's
      timestamp (the runtime fencing gate should have rejected it).
    """

    def __init__(self):
        self._leases: Dict[int, LeaseRecord] = {}
        self._placed: set = set()
        self.double_commits = 0
        self.expired_lease_commits = 0

    def feed(self, event: ControlEvent) -> None:
        if event.kind != "commit":
            _apply_ownership(self._leases, event)
            return
        lease = self._leases.get(event.group)
        if (lease is None or lease.owner != event.owner or
                lease.token != event.token or
                event.time_s >= lease.expires_s):
            self.expired_lease_commits += 1
        status = event.payload.get("status")
        if status == "placed":
            job = event.payload.get("job")
            if job in self._placed:
                self.double_commits += 1
            else:
                self._placed.add(job)
        elif status == "released":
            self._placed.discard(event.payload.get("job"))

    def verdict(self, pending: Optional[ControlEvent] = None
                ) -> Tuple[int, int]:
        """``(double_commits, expired_lease_commits)`` over every event
        fed, and ``pending`` too when given (judged on a copy, so it
        can still be torn)."""
        probe = self
        if pending is not None and pending.kind == "commit":
            # A commit changes the placed set only (not the leases).
            probe = copy.copy(self)
            probe._placed = set(self._placed)
            probe.feed(pending)
        return probe.double_commits, probe.expired_lease_commits


def verify_control_log(events: Iterable[ControlEvent]
                       ) -> Tuple[int, int]:
    """Safety audit of a whole control log: the auditor every
    :class:`ControlLog` runs as it is written, fed ``events``.
    Returns ``(double_commits, expired_lease_commits)``; both must be
    zero (see :class:`_Auditor`)."""
    auditor = _Auditor()
    for event in events:
        auditor.feed(event)
    return auditor.verdict()
