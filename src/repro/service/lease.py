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
truth: :meth:`LeaseTable.replay` rebuilds the table from it, and
:func:`verify_control_log` is the *independent* post-hoc checker the
failover drill uses to prove no placement was double-committed and no
decision was committed under an expired or stale lease.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from ..fleet.registry import canonical_json, fsync_dir, json_number
from ..obs import get_recorder

__all__ = ["CONTROL_LOG_FILE", "ControlEvent", "ControlLog",
           "LeaseError", "LeaseRecord", "LeaseTable",
           "verify_control_log"]

#: Control-WAL file name inside a sharded registry directory.
CONTROL_LOG_FILE = "control.jsonl"

#: Event kinds the control log records.
CONTROL_KINDS = ("acquire", "renew", "release", "commit")


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
                    self.owner, canonical_json(self.payload), self.seq,
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
    ``tear_tail()`` is the chaos seam: it deletes the most recent
    event — exactly what a crash mid-append leaves behind."""

    def __init__(self, path: Optional[object] = None):
        self.path = Path(path) if path is not None else None
        self.events: List[ControlEvent] = []
        self.torn_bytes_dropped = 0
        #: Append handle, opened by the first append.
        self._fh = None
        if self.path is not None:
            self._load()

    # -- persistence --------------------------------------------------------------

    def _load(self) -> None:
        import json
        if not self.path.exists():
            return
        raw = self.path.read_bytes()
        lines = raw.split(b"\n")
        complete, tail = lines[:-1], lines[-1]
        if tail:
            # No trailing newline: the final append was interrupted.
            self.torn_bytes_dropped = len(tail)
            self.path.write_bytes(b"\n".join(complete) + b"\n"
                                  if complete else b"")
        for i, line in enumerate(complete):
            if not line.strip():
                continue
            try:
                event = ControlEvent.from_doc(json.loads(line))
            except (ValueError, KeyError, TypeError) as exc:
                if i == len(complete) - 1:
                    # Torn mid-line with a stray newline flushed after:
                    # still the tail; drop it.
                    self.torn_bytes_dropped += len(line)
                    self.path.write_bytes(
                        b"\n".join(complete[:-1]) + b"\n"
                        if complete[:-1] else b"")
                    break
                raise LeaseError("corrupt control log {} line {}: {}"
                                 .format(self.path, i + 1, exc))
            if event.seq != len(self.events) + 1:
                raise LeaseError(
                    "control log {} seq gap: expected {}, found {}"
                    .format(self.path, len(self.events) + 1, event.seq))
            self.events.append(event)

    def append(self, kind: str, group: int, owner: int, token: int,
               time_s: float, expires_s: float = 0.0,
               payload: Optional[Dict[str, object]] = None
               ) -> ControlEvent:
        event = ControlEvent(seq=len(self.events) + 1, kind=kind,
                             group=group, owner=owner, token=token,
                             time_s=time_s, expires_s=expires_s,
                             payload=dict(payload or {}))
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
        return len(self.events)

    def events_since(self, seq: int) -> List[ControlEvent]:
        """Events with ``seq`` strictly greater than the given one."""
        return self.events[seq:]

    def tear_tail(self) -> Optional[ControlEvent]:
        """Chaos seam: destroy the most recent record, exactly as a
        crash mid-append would (the persisted log loses its last line;
        the in-memory view loses the event).  Returns the casualty."""
        if not self.events:
            return None
        victim = self.events.pop()
        if self.path is not None:
            self.close()
            raw = self.path.read_bytes().splitlines(keepends=True)
            self.path.write_bytes(b"".join(raw[:-1]))
            if self.path.parent.is_dir():
                fsync_dir(self.path.parent)
        return victim

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


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
        tail = self.log.events_since(int(state.get("control_seq", 0)))
        for event in tail:
            self._apply(event)
        return len(tail)

    def replay(self) -> None:
        """Rebuild the whole table from the control log alone."""
        self._leases = {}
        self._next_token = 1
        for event in self.log.events:
            self._apply(event)

    def _apply(self, event: ControlEvent) -> None:
        if event.kind == "acquire":
            self._leases[event.group] = LeaseRecord(
                group=event.group, owner=event.owner,
                token=event.token, acquired_s=event.time_s,
                renewed_s=event.time_s, expires_s=event.expires_s)
        elif event.kind == "renew":
            lease = self._leases.get(event.group)
            if lease is not None and lease.token == event.token:
                self._leases[event.group] = replace(
                    lease, renewed_s=event.time_s,
                    expires_s=event.expires_s)
        elif event.kind == "release":
            lease = self._leases.get(event.group)
            if lease is not None and lease.token == event.token:
                del self._leases[event.group]
        if event.token >= self._next_token:
            self._next_token = event.token + 1


def verify_control_log(events: List[ControlEvent]
                       ) -> Tuple[int, int]:
    """Independent safety audit of a control log.

    Re-derives lease validity from the ownership events alone and
    checks every ``commit`` against it.  Returns
    ``(double_commits, expired_lease_commits)`` — both must be zero:

    * a *double commit* is two ``placed`` commits for the same job id
      with no release in between (the placement was applied twice);
    * an *expired-lease commit* is a commit whose ``(owner, token)``
      did not hold a live lease on the commit's group at the commit's
      timestamp (the runtime fencing gate should have rejected it).
    """
    table = LeaseTable(duration_s=1.0)   # duration comes from events
    double_commits = 0
    expired = 0
    placed_jobs: Dict[object, int] = {}
    for event in events:
        if event.kind != "commit":
            table._apply(event)
            continue
        lease = table._leases.get(event.group)
        if (lease is None or lease.owner != event.owner or
                lease.token != event.token or
                event.time_s >= lease.expires_s):
            expired += 1
        status = event.payload.get("status")
        job = event.payload.get("job")
        if status == "placed":
            if job in placed_jobs:
                double_commits += 1
            placed_jobs[job] = event.seq
        elif status == "released":
            placed_jobs.pop(job, None)
    return double_commits, expired
