"""Multi-daemon HA placement control plane (DESIGN.md §15).

One :class:`~repro.service.PlacementDaemon` (``repro serve``, the
soak) is a single point of failure: kill it and the fleet stops
placing jobs.  This module grows the service into a
**highly-available control plane** of N daemons that share the fleet
without ever disagreeing about it:

* **Shard-group leases** (:mod:`repro.service.lease`) — the registry's
  shards are partitioned into contiguous *groups*; each daemon holds a
  time-bounded lease per group, persisted as control-WAL events with a
  globally monotonic **fencing token**.  Every durable operation — a
  registry write, a committed placement decision — presents its token
  and is rejected (*fenced*) when stale, so a deposed daemon's
  in-flight writes can never land.
* **Failover** (:class:`FailoverManager`) — daemons heartbeat the
  existing :class:`~repro.recovery.NodeSupervisor` machinery; a daemon
  silent past the heartbeat timeout has its groups declared orphaned,
  and a surviving daemon re-acquires each with bounded, seeded-jitter
  retries (the shared :class:`~repro.core.backoff.BackoffPolicy`) —
  succeeding only once the old lease expires, which is what makes the
  handover safe without any distributed consensus.
* **Cross-shard arbitration** (:mod:`repro.service.arbitration`) — a
  placement whose nodes span groups owned by different daemons goes
  through two-phase reserve/commit with per-phase deadlines on the
  virtual clock; timeouts release and retry with backoff, and livelock
  is broken deterministically by fencing-token priority.

:class:`HAControlPlane` is, like the daemon, a *synchronous*
deterministic simulation: one FIFO of operations, here with
head-of-line blocking.  Total order is the property under test, and
keeping it explicit is what lets :class:`HAFailoverDrill` prove the
headline claim — after SIGKILLs, clock skew, torn lease records, and a
dual-owner partition, the committed decision stream is **byte-equal to
a never-crashed single-daemon run**, with zero double commits and zero
decisions under an expired lease (audited as the control WAL is
written, from its ownership events alone:
:meth:`~repro.service.lease.ControlLog.audit`).  A file-backed
drill's memory depends on the fleet size and the checkpoint window,
not on how many events it runs: the WAL keeps in memory only what a
retained checkpoint can replay, the HA decision stream is hashed as it
is produced and spilled to an anonymous file, the stopped HA plane is
freed before the reference pass starts, and that pass compares its
lines with the spill as they are produced.  On a 2-vCPU Linux host
that holds ``ru_maxrss`` to 35.4 / 40.7 / 44.7 / 46.9 MB at 60k /
120k / 240k / 480k events (the registry fills its compaction window
up to ~240k); holding the HA stream and the stopped plane in memory
read 46.2 / 59.5 / 66.3 MB at the first three.  An in-memory drill
(no ``registry_dir``) keeps its whole control WAL and registry
history, so its memory still grows with the run.  Wall-clock time is
confined to the ``ha/place_latency_s`` obs histogram and never enters
the rendered :class:`~repro.resilience.SurvivabilityReport`, so CI can
run the drill twice and ``cmp`` the reports.
"""

from __future__ import annotations

import random
import tempfile
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Deque, Dict, List, Optional, TextIO, Tuple

from ..core.backoff import BackoffPolicy
from ..dram.backend import get_backend
from ..obs import Recorder, get_recorder, recording
from ..recovery import Checkpoint, CheckpointStore, NodeSupervisor
from ..resilience.report import SurvivabilityReport
from .arbitration import CrossShardArbiter
from .daemon import (BucketPool, Decision, DecisionStream, DUPLICATE,
                     PLACED, RELEASED, RegistryWrite, UNKNOWN_JOB,
                     UNSATISFIABLE, CLOSED, check_write)
from .lease import (CONTROL_LOG_FILE, ControlLog, LeaseTable,
                    commit_payload_json)
from .sharding import DEFAULT_SHARDS, ShardedRegistry, seed_fleet
from .soak import random_registry_write

__all__ = ["FailoverManager", "HAConfig", "HAControlPlane",
           "HADaemon", "HADrillResult", "HAFailoverDrill",
           "ShardGroups"]

#: Fault-injection schedule: fraction of the event budget at which
#: each fault class of the drill fires (documentation order).
FAULT_SCHEDULE = (("skew", 0.25), ("torn", 0.40),
                  ("partition", 0.50), ("heal", 0.70),
                  ("kill", 0.78))


@dataclass
class HAConfig:
    """Knobs for the HA plane and its failover drill.

    The lease timings must satisfy ``renew_every_s`` ≪
    ``lease_duration_s`` (a healthy daemon renews many times per
    lease) and ``heartbeat_timeout_s`` < ``lease_duration_s`` (a death
    is detected before the lease runs out, so failover begins with
    bounded retries *against* the expiry rather than after it)."""
    nodes: int = 1490
    shards: int = DEFAULT_SHARDS
    daemons: int = 2
    events: int = 120_000
    seed: int = 2021
    lease_duration_s: float = 30.0
    renew_every_s: float = 5.0
    heartbeat_timeout_s: float = 12.0
    reserve_timeout_s: float = 5.0
    commit_timeout_s: float = 5.0
    retry_base_s: float = 0.1
    retry_cap_s: float = 2.0
    failover_base_s: float = 0.5
    failover_cap_s: float = 8.0
    failover_max_attempts: int = 40
    jitter_fraction: float = 0.25
    compact_every: int = 2048
    checkpoint_every_bursts: int = 64
    p999_budget_s: float = 0.25
    registry_dir: Optional[object] = None

    @classmethod
    def smoke(cls) -> "HAConfig":
        """CI-sized preset: the full fault matrix in seconds.  Lease
        timings shrink with the event budget so partitions outlive the
        lease and failovers complete with traffic to spare."""
        return cls(nodes=200, shards=4, events=6_000,
                   lease_duration_s=3.0, renew_every_s=0.75,
                   heartbeat_timeout_s=1.5, retry_base_s=0.05,
                   retry_cap_s=0.5, failover_base_s=0.05,
                   failover_cap_s=0.5, compact_every=256,
                   checkpoint_every_bursts=16)

    def validate(self) -> "HAConfig":
        if self.nodes <= 0 or self.events <= 0:
            raise ValueError("nodes and events must be positive")
        if self.daemons < 1:
            raise ValueError("need at least one daemon")
        if self.lease_duration_s <= 0:
            raise ValueError("lease_duration_s must be positive")
        if not 0 < self.renew_every_s < self.lease_duration_s:
            raise ValueError("renew_every_s must fall inside the "
                             "lease duration")
        if not 0 < self.heartbeat_timeout_s < self.lease_duration_s:
            raise ValueError("heartbeat_timeout_s must fall inside "
                             "the lease duration")
        if self.failover_max_attempts < 1:
            raise ValueError("failover_max_attempts must be positive")
        return self


class ShardGroups:
    """Contiguous partition of shard ids into lease-able groups."""

    def __init__(self, shard_count: int, group_count: int):
        if shard_count < 1 or group_count < 1:
            raise ValueError("counts must be positive")
        self.group_count = min(group_count, shard_count)
        base = shard_count // self.group_count
        extra = shard_count % self.group_count
        self._of_shard: List[int] = []
        for gid in range(self.group_count):
            self._of_shard.extend([gid] *
                                  (base + (1 if gid < extra else 0)))

    def of_shard(self, shard_id: int) -> int:
        return self._of_shard[shard_id]


class _NodeGroups(dict):
    """node -> shard group, each computed once (a node's shard is a
    pure function of its id)."""

    def __init__(self, registry: ShardedRegistry, groups: ShardGroups):
        super().__init__()
        self._registry = registry
        self._groups = groups

    def __missing__(self, node: int) -> int:
        group = self[node] = self._groups.of_shard(
            self._registry.shard_id(node))
        return group


class HADaemon:
    """One placement daemon's HA state: the shard-group fencing
    tokens it believes it holds, its full-fleet free-pool replica,
    and its fault posture (crashed / partitioned / clock-skewed).

    The *believes* matters: a partitioned daemon keeps stale tokens —
    exactly the dual-owner window the fencing gate exists for."""

    def __init__(self, daemon_id: int, buckets: Tuple[int, ...]):
        self.id = daemon_id
        self.state = "active"            # active | crashed
        self.partitioned = False
        self.clock_skew_s = 0.0
        self.tokens: Dict[int, int] = {}   # group -> fencing token
        self.pool = BucketPool(buckets)
        self.pool_stale = False

    @property
    def serviceable(self) -> bool:
        """Reachable and alive (may still hold zero leases)."""
        return self.state == "active" and not self.partitioned

    def local_now(self, now_s: float) -> float:
        """This daemon's (possibly skewed) clock reading."""
        return now_s + self.clock_skew_s


@dataclass
class _Reacquire:
    attempt: int = 0
    next_at_s: float = 0.0


class FailoverManager:
    """Re-acquires orphaned shard groups after a daemon death.

    Driven by the supervisor's missed-heartbeat verdicts: each
    orphaned group is retried with bounded, seeded-jitter backoff
    until the dead owner's lease expires and a surviving daemon's
    ``acquire`` succeeds (taking a fresh, higher fencing token).  The
    plane is passed to each :meth:`tick` rather than held, so a stopped
    plane is freed by reference counting alone."""

    def __init__(self, policy: BackoffPolicy, max_attempts: int):
        self._policy = policy
        self._max_attempts = max_attempts
        self._pending: Dict[int, _Reacquire] = {}
        self.failovers = 0
        self.giveups = 0

    def orphan(self, group: int, now_s: float) -> None:
        """Mark a group as owner-less; re-acquisition starts now."""
        if group not in self._pending:
            self._pending[group] = _Reacquire(0, now_s)

    @property
    def pending(self) -> Tuple[int, ...]:
        return tuple(sorted(self._pending))

    def tick(self, plane: "HAControlPlane", now_s: float) -> None:
        for group in list(sorted(self._pending)):
            state = self._pending[group]
            if now_s < state.next_at_s:
                continue
            owner = plane.table.owner_of(group, now_s)
            if owner is not None:
                if plane.daemons[owner].serviceable:
                    # Someone reachable holds it again; done.
                    del self._pending[group]
                    continue
                # A live lease held by an unreachable daemon: nothing
                # to do but wait it out (never steal a valid lease).
                lease = None
            else:
                successor = plane.first_serviceable()
                lease = (plane.table.acquire(group, successor.id,
                                             now_s)
                         if successor is not None else None)
            state.attempt += 1
            if lease is not None:
                plane.daemons[lease.owner].tokens[group] = lease.token
                self.failovers += 1
                del self._pending[group]
                rec = get_recorder()
                if rec.enabled:
                    rec.counter("ha", "failovers")
            elif state.attempt >= self._max_attempts:
                del self._pending[group]
                self.giveups += 1
            else:
                state.next_at_s = now_s + self._policy.delay(
                    state.attempt, key=group)


@dataclass
class HAPlaneStats:
    """Deterministic plane-level counters (wall clock never enters)."""
    decisions: int = 0
    placed: int = 0
    unsatisfiable: int = 0
    duplicates: int = 0
    released: int = 0
    unknown_releases: int = 0
    writes: int = 0
    retries: int = 0
    daemon_crashes: int = 0
    daemon_partitions: int = 0
    partitions_healed: int = 0
    torn_lease_records: int = 0
    checkpoints: int = 0
    restores: int = 0
    closed: int = 0


class _Op:
    """One queued operation (FIFO with head-of-line blocking: total
    order *is* the consistency argument, so a blocked head stalls
    everything behind it rather than letting later ops overtake)."""

    __slots__ = ("kind", "job", "width", "write", "t0", "attempt",
                 "next_retry_s")

    def __init__(self, kind: str, job: int = 0, width: int = 0,
                 write: Optional[RegistryWrite] = None, t0: float = 0.0):
        self.kind = kind
        self.job = job
        self.width = width
        self.write = write
        self.t0 = t0        # submission wall clock (placements only)
        self.attempt = 0
        self.next_retry_s = 0.0


class HAControlPlane:
    """N placement daemons sharing one fleet under shard-group
    leases (see module docstring).

    ``decision_sink`` receives every committed :class:`Decision` in
    commit order; the stream is a pure function of the submitted
    operation sequence, independent of faults — the drill's headline
    invariant."""

    def __init__(self, config: Optional[HAConfig] = None,
                 daemons: Optional[int] = None,
                 registry_path: Optional[object] = None,
                 decision_sink: Optional[Callable[[Decision], None]]
                 = None):
        self.config = cfg = (config if config is not None
                             else HAConfig()).validate()
        n = daemons if daemons is not None else cfg.daemons
        if n < 1:
            raise ValueError("need at least one daemon")
        path = Path(registry_path) if registry_path is not None \
            else None
        self.buckets = get_backend().placement_buckets
        self.registry = ShardedRegistry(path, shards=cfg.shards,
                                        compact_every=cfg.compact_every)
        seed_fleet(self.registry, cfg.nodes, cfg.seed)
        self.groups = ShardGroups(cfg.shards, n)
        self._node_groups = _NodeGroups(self.registry, self.groups)
        log = ControlLog(path / CONTROL_LOG_FILE
                         if path is not None else None)
        self.table = LeaseTable(cfg.lease_duration_s, log)
        self.arbiter = CrossShardArbiter(cfg.reserve_timeout_s,
                                         cfg.commit_timeout_s)
        self.stats = HAPlaneStats()
        self.daemons = [HADaemon(i, self.buckets) for i in range(n)]
        self._sups = {
            d.id: NodeSupervisor(
                node=d.id,
                heartbeat_timeout_ns=cfg.heartbeat_timeout_s * 1e9,
                max_restarts=16, seed=cfg.seed)
            for d in self.daemons}
        self._retry = BackoffPolicy(base=cfg.retry_base_s,
                                    cap=cfg.retry_cap_s,
                                    jitter_fraction=cfg.jitter_fraction,
                                    seed=cfg.seed)
        self.failover = FailoverManager(
            BackoffPolicy(base=cfg.failover_base_s,
                          cap=cfg.failover_cap_s,
                          jitter_fraction=cfg.jitter_fraction,
                          seed=cfg.seed + 1),
            cfg.failover_max_attempts)
        self._ckpt = CheckpointStore(path / "control-ckpt"
                                     if path is not None else None)
        self._sink = decision_sink
        self._ops: Deque[_Op] = deque()
        self._placements: Dict[int, Tuple[int, ...]] = {}
        self._decision_seq = 0
        self.now_s = 0.0
        for gid in range(self.groups.group_count):
            owner = gid % n
            lease = self.table.acquire(gid, owner, 0.0)
            self.daemons[owner].tokens[gid] = lease.token
        for daemon in self.daemons:
            self._rebuild_pool(daemon)
            self._sups[daemon.id].heartbeat(0.0)

    # -- submission (enqueue + immediate drain) -----------------------------------

    @property
    def pending(self) -> int:
        """Operations queued behind a blocked head (0 = caught up)."""
        return len(self._ops)

    def submit_place(self, job_id: int, width: int) -> None:
        if width <= 0:
            raise ValueError("jobs need at least one node")
        self._ops.append(_Op("place", job_id, width, None,
                             time.perf_counter()))
        self.drain()

    def submit_release(self, job_id: int) -> None:
        self._ops.append(_Op("release", job_id))
        self.drain()

    def submit_write(self, write: RegistryWrite) -> None:
        """Queue a registry event; raises ``ValueError`` for a write
        :func:`~repro.service.daemon.check_write` refuses."""
        check_write(self.registry, write)
        self._ops.append(_Op("write", 0, 0, write))
        self.drain()

    # -- clock / liveness ----------------------------------------------------------

    def tick(self, now_s: float) -> None:
        """Advance the virtual clock: heartbeats, lease renewals,
        failure detection, failover retries, then drain the queue."""
        if now_s > self.now_s:
            self.now_s = now_s
        now_ns = self.now_s * 1e9
        for daemon in self.daemons:
            if not daemon.serviceable:
                continue
            self._sups[daemon.id].heartbeat(now_ns)
            self._renew(daemon)
        for daemon in self.daemons:
            verdict = self._sups[daemon.id].check(now_ns)
            if verdict is not None:
                # Missed heartbeats: every group this daemon holds a
                # lease on is orphaned; failover takes it from here.
                for group in self.table.owned_groups(daemon.id):
                    self.failover.orphan(group, self.now_s)
        self.failover.tick(self, self.now_s)
        self.drain()

    def _renew(self, daemon: HADaemon) -> None:
        for group in list(sorted(daemon.tokens)):
            token = daemon.tokens[group]
            lease = self.table.lease(group)
            if lease is None or lease.token != token or \
                    lease.owner != daemon.id:
                # Deposed, and reachable enough to observe it: drop
                # the stale claim.
                del daemon.tokens[group]
                continue
            if self.now_s < lease.renewed_s + self.config.renew_every_s:
                continue
            if not self.table.renew(group, daemon.id, token,
                                    daemon.local_now(self.now_s)):
                # Any rejection makes the daemon resync its clock; an
                # *expired* lease additionally forces a re-acquire
                # under a fresh fencing token.
                daemon.clock_skew_s = 0.0
                if not lease.valid_at(self.now_s):
                    fresh = self.table.acquire(group, daemon.id,
                                               self.now_s)
                    if fresh is not None:
                        daemon.tokens[group] = fresh.token
                    else:
                        del daemon.tokens[group]

    # -- the operation queue -------------------------------------------------------

    def drain(self) -> None:
        """Drain the FIFO head-first.  A blocked head (orphaned group,
        unreachable owner, arbitration conflict) schedules a retry
        with seeded backoff and stalls the queue — preserving the
        total order that makes the decision stream fault-independent.
        Each submission and tick drains, so a later call at the same
        virtual time is a no-op: the blocked head's retry is due
        later."""
        ops = self._ops
        while ops:
            op = ops[0]
            if op.next_retry_s > self.now_s:
                break
            kind = op.kind
            if (self._attempt_place(op) if kind == "place" else
                    self._attempt_release(op) if kind == "release" else
                    self._attempt_write(op)):
                ops.popleft()
                continue
            if op.attempt:
                self.stats.retries += 1
            op.attempt += 1
            op.next_retry_s = self.now_s + self._retry.delay(
                min(op.attempt, 12), key=op.job)
            break

    def settle(self) -> None:
        """Tick the clock on in 0.25 s steps until every queued
        operation (stalled behind a failover) has committed, for at
        most 100,000 ticks."""
        guard = 0
        while self._ops and guard < 100_000:
            self.tick(self.now_s + 0.25)
            guard += 1

    def first_serviceable(self) -> Optional[HADaemon]:
        for daemon in self.daemons:
            if daemon.serviceable:
                return daemon
        return None

    def _coordinator(self, job_id: int
                     ) -> Tuple[Optional[HADaemon], int]:
        """A serviceable daemon holding at least one *valid* lease
        (its lowest such group is the commit group), preferring the
        job's home daemon for spread."""
        n = len(self.daemons)
        for offset in range(n):
            daemon = self.daemons[(job_id + offset) % n]
            if not daemon.serviceable:
                continue
            for group in sorted(daemon.tokens):
                if self.table.validate(group, daemon.id,
                                       daemon.tokens[group],
                                       self.now_s):
                    return daemon, group
        return None, -1

    def _vouched(self, group: int) -> bool:
        """Can this group approve a cross-shard reserve?  Yes iff it
        has a live lease held by a reachable daemon."""
        owner = self.table.owner_of(group, self.now_s)
        return owner is not None and self.daemons[owner].serviceable

    def _commit(self, daemon: HADaemon, group: int, job_id: int,
                status: str, nodes: Tuple[int, ...] = (),
                bucket: int = 0) -> Optional[Decision]:
        """Durably commit one decision through the fencing gate; its
        WAL payload is written once, from the typed fields."""
        event = self.table.commit(
            group, daemon.id, daemon.tokens[group], self.now_s,
            {"job": job_id, "status": status, "nodes": list(nodes),
             "bucket": bucket},
            commit_payload_json(job_id, status, nodes, bucket))
        if event is None:
            return None
        return self._emit(job_id, status, tuple(nodes), bucket)

    def _emit(self, job_id: int, status: str, nodes: Tuple[int, ...] = (),
              bucket: int = 0) -> Decision:
        self._decision_seq += 1
        decision = Decision(self._decision_seq, job_id, status, nodes,
                            bucket)
        self.stats.decisions += 1
        if self._sink is not None:
            self._sink(decision)
        return decision

    def _attempt_place(self, op: _Op) -> bool:
        daemon, home = self._coordinator(op.job)
        if daemon is None:
            return False
        if op.job in self._placements:
            if self._commit(daemon, home, op.job, DUPLICATE) is None:
                return False
            self.stats.duplicates += 1
            self._observe_latency(op)
            return True
        pool = daemon.pool
        chosen = pool.pick_margin_aware(op.width)
        if chosen is None:
            if self._commit(daemon, home, op.job,
                            UNSATISFIABLE) is None:
                return False
            self.stats.unsatisfiable += 1
            self._observe_latency(op)
            return True
        bucket = pool.bucket(chosen.min_margin)
        node_groups = self._node_groups
        touched = sorted({node_groups[n] for n in chosen})
        # ``_coordinator`` validated ``home`` at this same ``now_s``.
        foreign = [g for g in touched
                   if g != home and not self.table.validate(
                       g, daemon.id, daemon.tokens.get(g, -1),
                       self.now_s)]
        if foreign:
            # Two-phase reserve/commit across the other owners.
            reservation = self.arbiter.reserve(
                daemon.id, daemon.tokens[home], tuple(chosen),
                tuple(touched), self.now_s, self._vouched)
            if reservation is None:
                return False
            if not self.arbiter.commit(reservation.arb_id,
                                       self.now_s):
                return False
        decision = self._commit(daemon, home, op.job, PLACED,
                                tuple(chosen), bucket)
        if decision is None:
            return False
        self._placements[op.job] = tuple(chosen)
        for peer in self.daemons:
            if peer.serviceable:
                peer.pool.allocate(chosen, op.job)
        self.stats.placed += 1
        self._observe_latency(op)
        return True

    def _attempt_release(self, op: _Op) -> bool:
        daemon, home = self._coordinator(op.job)
        if daemon is None:
            return False
        nodes = self._placements.get(op.job)
        if nodes is None:
            if self._commit(daemon, home, op.job,
                            UNKNOWN_JOB) is None:
                return False
            self.stats.unknown_releases += 1
            return True
        if self._commit(daemon, home, op.job, RELEASED,
                        nodes) is None:
            return False
        del self._placements[op.job]
        for peer in self.daemons:
            if peer.serviceable:
                peer.pool.release(op.job)
        self.stats.released += 1
        return True

    def _attempt_write(self, op: _Op) -> bool:
        write = op.write
        group = self._node_groups[write.node]
        owner = self.table.owner_of(group, self.now_s)
        if owner is None:
            return False
        daemon = self.daemons[owner]
        token = daemon.tokens.get(group)
        if not daemon.serviceable or token is None:
            return False
        if not self.table.validate(group, daemon.id, token,
                                   self.now_s):
            return False
        self.registry.record(write.kind, write.node,
                             time_s=self.now_s, **write.payload)
        margin = self.registry.node(write.node).effective_margin_mts
        for peer in self.daemons:
            if peer.serviceable:
                peer.pool.set_margin(write.node, margin)
        self.stats.writes += 1
        return True

    def _observe_latency(self, op: _Op) -> None:
        rec = get_recorder()
        if rec.enabled:
            rec.observe("ha", "place_latency_s",
                        time.perf_counter() - op.t0)

    # -- durability ----------------------------------------------------------------

    def checkpoint(self) -> None:
        """Persist the lease table (control-WAL seq included, so a
        restore replays only the tail), then let a file-backed control
        WAL forget the events no retained checkpoint replays."""
        log = self.table.log
        self._ckpt.write(Checkpoint(
            node=0, seq=log.last_seq, time_ns=self.now_s * 1e9,
            state={"lease_table": self.table.to_state()}))
        self.stats.checkpoints += 1
        if log.path is not None:
            log.forget_through(min(
                ckpt.seq for _, ckpt, _ in self._ckpt.entries()
                if ckpt is not None))

    def reload_control_state(self) -> None:
        """Crash-reload the lease table: newest verifying checkpoint
        plus control-WAL tail replay; full-WAL replay when no
        checkpoint exists.  Daemons keep only claims that still
        validate (conservative: a lease can be lost early, never kept
        too long)."""
        checkpoint, _ = self._ckpt.load_latest()
        if checkpoint is not None:
            self.table.restore(
                dict(checkpoint.state.get("lease_table", {})))
            self.stats.restores += 1
        else:
            self.table.replay()
        for daemon in self.daemons:
            for group in list(sorted(daemon.tokens)):
                lease = self.table.lease(group)
                if lease is None or lease.owner != daemon.id or \
                        lease.token != daemon.tokens[group]:
                    del daemon.tokens[group]

    # -- fault seams (the chaos campaign drives these) ----------------------------

    def kill_daemon(self, daemon_id: int) -> None:
        """SIGKILL mid-lease: one last renewal lands (the crash falls
        between a renewal and the next compaction), then the daemon
        goes silent — no release, no handover."""
        daemon = self.daemons[daemon_id]
        for group in sorted(daemon.tokens):
            self.table.renew(group, daemon.id, daemon.tokens[group],
                             self.now_s)
        daemon.state = "crashed"
        daemon.pool_stale = True
        self.stats.daemon_crashes += 1

    def partition_daemon(self, daemon_id: int) -> None:
        """Network partition: the daemon keeps running (and keeps its
        stale view of its tokens) but heartbeats and renewals no
        longer reach the control plane."""
        daemon = self.daemons[daemon_id]
        daemon.partitioned = True
        daemon.pool_stale = True
        self.stats.daemon_partitions += 1

    def heal_daemon(self, daemon_id: int) -> None:
        """Partition heals.  The rejoining daemon first flushes the
        writes it buffered while isolated — each carried its stale
        fencing token, so the lease table's commit gate rejects them
        (the dual-owner window closes without a double commit) — then
        rebuilds its pool replica and rejoins as a standby."""
        daemon = self.daemons[daemon_id]
        daemon.partitioned = False
        sup = self._sups[daemon_id]
        if sup.state == "restarting":
            sup.restarted(self.now_s * 1e9)
        else:
            sup.heartbeat(self.now_s * 1e9)
        for group in list(sorted(daemon.tokens)):
            token = daemon.tokens[group]
            if not self.table.validate(group, daemon.id, token,
                                       self.now_s):
                self.table.commit(group, daemon.id, token, self.now_s,
                                  {"job": -1,
                                   "status": "buffered-write",
                                   "nodes": [], "bucket": 0})
                del daemon.tokens[group]
        self._rebuild_pool(daemon)
        self.stats.partitions_healed += 1

    def tear_lease_record(self) -> bool:
        """Torn lease record: force a renewal append, destroy it (the
        crash-mid-append shape), then crash-reload the control state.
        The lease reverts to its pre-renewal expiry — shorter, never
        longer, so safety is preserved conservatively.  A rejected
        renewal appends nothing, so there is nothing to tear: returns
        False and leaves the log alone."""
        target = None
        for group in range(self.groups.group_count):
            owner = self.table.owner_of(group, self.now_s)
            if owner is not None and \
                    self.daemons[owner].serviceable:
                target = (self.daemons[owner], group)
                break
        if target is None:
            return False
        daemon, group = target
        if not self.table.renew(group, daemon.id, daemon.tokens[group],
                                self.now_s):
            return False
        self.table.log.tear_tail()
        self.stats.torn_lease_records += 1
        self.reload_control_state()
        return True

    def inject_clock_skew(self, daemon_id: int,
                          skew_s: float) -> None:
        """The daemon's clock jumps by ``skew_s`` (negative = behind);
        its next renewal carries the skewed reading and, when the
        reading runs backwards past the last renewal, is rejected."""
        self.daemons[daemon_id].clock_skew_s = float(skew_s)

    # -- shutdown ------------------------------------------------------------------

    def stop(self) -> int:
        """Drain what can make progress, answer the rest ``closed``,
        abort outstanding arbitration reserves (reserved capacity
        returns to the pool), release every held lease cleanly, and
        close the two WALs' append handles.  Returns the number of
        operations closed unserved."""
        self.drain()
        closed = 0
        while self._ops:
            op = self._ops.popleft()
            if op.kind in ("place", "release"):
                self._emit(op.job, CLOSED)
                self.stats.closed += 1
                closed += 1
        self.arbiter.release_all()
        for daemon in self.daemons:
            if not daemon.serviceable:
                continue
            for group in list(sorted(daemon.tokens)):
                self.table.release(group, daemon.id,
                                   daemon.tokens.pop(group),
                                   self.now_s)
        self.close()
        return closed

    def close(self) -> None:
        """Close the two WALs' append handles (no decision is
        emitted)."""
        self.table.log.close()
        self.registry.close()

    # -- helpers -------------------------------------------------------------------

    def _rebuild_pool(self, daemon: HADaemon) -> None:
        """Reconstruct a daemon's full-fleet replica from ground
        truth: registry margins plus the committed placement map."""
        pool = BucketPool(self.buckets)
        for sid in range(self.registry.shard_count):
            for record in self.registry.shard(sid).nodes():
                pool.set_margin(record.node,
                                record.effective_margin_mts)
        for job_id in sorted(self._placements):
            pool.allocate(self._placements[job_id], job_id)
        daemon.pool = pool
        daemon.pool_stale = False


@dataclass
class HADrillResult:
    """The failover drill's verdict: the (byte-reproducible)
    survivability report plus wall-clock latency evidence, kept apart
    so CI can ``cmp`` the former."""
    report: SurvivabilityReport
    digest: str
    reference_digest: str
    p50_s: Optional[float] = None
    p99_s: Optional[float] = None
    p999_s: Optional[float] = None
    p999_budget_s: float = 0.25
    wall_s: float = 0.0

    def latency_ok(self) -> bool:
        return self.p999_s is None or self.p999_s <= \
            self.p999_budget_s

    def passed(self) -> bool:
        return self.report.passed() and self.latency_ok()

    def format_summary(self) -> str:
        """Operator-facing text (wall clock included — never ``cmp``
        this; ``report.render()`` is the byte-compared artifact)."""
        r = self.report
        lines = [
            "ha-failover: {} daemons, {} groups, {} decisions, "
            "seed {}".format(r.ha_daemons, r.ha_groups,
                             r.ha_decisions, r.seed),
            "  crashes {}  partitions {}  failovers {}  "
            "fenced writes {}  torn lease records {}".format(
                r.daemon_crashes, r.daemon_partitions, r.failovers,
                r.fenced_writes, r.torn_lease_records),
            "  double commits {}  expired-lease decisions {}  "
            "prefix-consistent {} ({} decisions)".format(
                r.double_commits, r.expired_lease_decisions,
                r.prefix_consistent, r.decision_prefix_len),
            "  decision digest {}".format(self.digest),
            "  reference digest {}".format(self.reference_digest),
        ]
        if self.p999_s is not None:
            lines.append(
                "  place latency p50 {:.6f}s  p99 {:.6f}s  "
                "p999 {:.6f}s (budget {:.6f}s)".format(
                    self.p50_s, self.p99_s, self.p999_s,
                    self.p999_budget_s))
        lines.append("  wall {:.2f}s".format(self.wall_s))
        verdict = "PASSED" if self.passed() else "FAILED"
        lines.append("  verdict: {}".format(verdict))
        for failure in self.report.failures():
            lines.append("    - " + failure)
        if not self.latency_ok():
            lines.append("    - p999 latency over budget")
        return "\n".join(lines)


class HAFailoverDrill:
    """Seeded chaos drill for the HA plane (see module docstring).

    Runs the same seeded operation stream twice — once against N
    daemons with the full fault matrix (SIGKILL mid-lease, skewed
    renewal, torn lease record, dual-owner partition), once against a
    never-crashed single daemon — and demands the committed decision
    streams be byte-equal.  The generator is open-loop with respect to
    decision *timing* (release victims come from the submitted-job
    list), which is what makes the two runs draw identical randomness
    even while the HA run stalls through failovers."""

    def __init__(self, config: Optional[HAConfig] = None):
        self.config = (config if config is not None
                       else HAConfig()).validate()

    def _fault_plan(self) -> Dict[str, int]:
        return {name: int(frac * self.config.events)
                for name, frac in FAULT_SCHEDULE}

    def _inject(self, plan: Dict[str, int], fired: set,
                events_done: int, plane: HAControlPlane) -> None:
        cfg = self.config
        standby = 1 % len(plane.daemons)
        for name, _ in FAULT_SCHEDULE:
            if name in fired or events_done < plan[name]:
                continue
            fired.add(name)
            if name == "skew":
                plane.inject_clock_skew(
                    standby, -(2.0 * cfg.renew_every_s + 1.0))
            elif name == "torn":
                plane.tear_lease_record()
            elif name == "partition" and len(plane.daemons) > 1:
                plane.partition_daemon(standby)
            elif name == "heal" and "partition" in fired and \
                    plane.daemons[standby].partitioned:
                plane.heal_daemon(standby)
            elif name == "kill":
                plane.kill_daemon(0)

    def _run_plane(self, daemons: int, faults: bool, subdir: str,
                   sink: Callable[[Decision], None]
                   ) -> Tuple[HAControlPlane, Optional[dict], float]:
        cfg = self.config
        path = None
        if cfg.registry_dir is not None:
            path = Path(cfg.registry_dir) / subdir
        plane = HAControlPlane(cfg, daemons=daemons,
                               registry_path=path,
                               decision_sink=sink)
        rng = random.Random(cfg.seed)
        plan = self._fault_plan()
        fired: set = set()
        events = 0
        job_id = 0
        now_s = 0.0
        bursts = 0
        active: List[int] = []
        started = time.perf_counter()
        try:
            with recording(Recorder()) as rec:
                while events < cfg.events:
                    bursts += 1
                    now_s += rng.uniform(0.05, 0.5)
                    plane.tick(now_s)
                    if faults:
                        self._inject(plan, fired, events, plane)
                    for _ in range(8 + rng.randrange(24)):
                        roll = rng.random()
                        if roll < 0.40:
                            job_id += 1
                            active.append(job_id)
                            plane.submit_place(job_id,
                                               1 + rng.randrange(8))
                        elif roll < 0.80 and active:
                            victim = active.pop(
                                rng.randrange(len(active)))
                            plane.submit_release(victim)
                        elif roll < 0.83:
                            plane.submit_release(
                                10_000_000 + rng.randrange(1000))
                        else:
                            plane.submit_write(
                                random_registry_write(rng, cfg.nodes,
                                                      "ha-drill"))
                        events += 1
                    if bursts % cfg.checkpoint_every_bursts == 0:
                        plane.checkpoint()
                plane.settle()
                latency = rec.histogram_stats("ha", "place_latency_s")
        except BaseException:
            # A pass that raises answers nothing more: close the WALs'
            # append handles without draining, then re-raise.
            plane.close()
            raise
        wall_s = time.perf_counter() - started
        return plane, latency, wall_s

    def run(self, stream: Optional[TextIO] = None,
            reference_stream: Optional[TextIO] = None
            ) -> HADrillResult:
        """Execute the drill; ``stream`` /``reference_stream`` receive
        the two decision JSONLs (CI compares the files).  The HA pass
        runs and stops first, spilling its stream to an anonymous file
        in ``registry_dir`` (the system's temporary directory when
        unset); the HA plane is freed once its report fields are read.
        The reference pass then checks each of its lines against the
        next line read back from the spill as it is produced.  What
        stays in memory is one plane and one 64 KiB chunk per stream,
        so a file-backed drill's peak is set by the fleet and the
        checkpoint and compaction windows, not by ``events``."""
        cfg = self.config
        spill_dir = None
        if cfg.registry_dir is not None:
            # Made before the registry makes it: the spill comes first.
            spill_dir = Path(cfg.registry_dir)
            spill_dir.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryFile(dir=spill_dir) as spill:
            ha = DecisionStream(stream, spill=spill)
            plane, latency, wall_s = self._run_plane(
                cfg.daemons, faults=True, subdir="ha", sink=ha)
            leftover = plane.stop()
            fields = _report_fields(plane)
            # The reference plane reuses the HA plane's memory.
            del plane
            ref = DecisionStream(reference_stream, against=ha.rewind())
            ref_plane, _, ref_wall = self._run_plane(
                1, faults=False, subdir="reference", sink=ref)
            ref_plane.stop()
        prefix = ref.prefix
        consistent = (leftover == 0 and prefix == ha.count
                      and prefix == ref.count and prefix > 0)
        report = SurvivabilityReport(
            seed=cfg.seed, ha_scenario="failover-drill",
            ha_daemons=cfg.daemons, ha_decisions=ha.count,
            prefix_consistent=consistent, decision_prefix_len=prefix,
            **fields)
        latency = latency or {}
        return HADrillResult(
            report=report, digest=ha.hexdigest(),
            reference_digest=ref.hexdigest(),
            p50_s=latency.get("p50"), p99_s=latency.get("p99"),
            p999_s=latency.get("p999"),
            p999_budget_s=cfg.p999_budget_s,
            wall_s=wall_s + ref_wall)


def _report_fields(plane: HAControlPlane) -> Dict[str, object]:
    """The :class:`SurvivabilityReport` fields a stopped HA plane
    supplies, copied out so the plane can be freed."""
    table, arb, stats = plane.table.stats, plane.arbiter.stats, plane.stats
    double, expired = plane.table.log.audit()
    return dict(
        duration_hours=plane.now_s / 3600.0,
        ha_groups=plane.groups.group_count,
        daemon_crashes=stats.daemon_crashes,
        daemon_partitions=stats.daemon_partitions,
        failovers=plane.failover.failovers,
        failover_giveups=plane.failover.giveups,
        lease_acquires=table.acquires,
        lease_renewals=table.renewals,
        renewals_rejected_skew=table.renewals_rejected_skew,
        renewals_rejected_expired=table.renewals_rejected_expired,
        torn_lease_records=stats.torn_lease_records,
        fenced_writes=table.fenced_writes,
        arb_reserves=arb.reserves,
        arb_commits=arb.commits,
        arb_aborts=arb.aborts,
        arb_preemptions=arb.preemptions,
        arb_retries=stats.retries,
        ha_checkpoints=stats.checkpoints,
        ha_restores=stats.restores,
        double_commits=double,
        expired_lease_decisions=expired)
