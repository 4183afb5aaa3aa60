"""Live margin-aware placement daemon (one synchronous FIFO).

:class:`PlacementDaemon` turns the batch-shaped
:class:`~repro.fleet.PlacementService` into a long-running service: a
single-writer FIFO of messages (the iso-sched shape — one bounded
pending queue feeding one arbitrator) that the producer drains at
fixed points, answering each placement and release with an explicit
:class:`Decision`:

``submit_place``
    Allocate nodes for a job.  Admission-controlled: once the queue
    holds ``queue_limit`` messages the request is **shed** at once
    (status ``shed``) instead of queueing unboundedly — callers get
    explicit backpressure, not silent latency.  Requests carry an
    optional *virtual-clock* deadline; one that expires while queued
    is answered ``expired`` and never placed.
``submit_release``
    Return a placed job's nodes to the free pool.
``submit_write``
    A margin-registry event (demote/promote/adapt/profile/...), routed
    to the owning shard of the :class:`~repro.service.ShardedRegistry`.
    Ground truth is never shed: when the queue is at its hard bound
    (``event_queue_limit``) the producer waits while it drains.
``tick``
    Advances the daemon's virtual clock (monotonic clamp).  All
    decision logic — deadlines — runs on this clock, so a seeded
    message stream produces a byte-identical decision log; wall-clock
    time feeds only the obs latency histograms.

Messages are processed only by :meth:`~PlacementDaemon.drain`: when a
release, write or tick meets a full queue, when the producer asks
(the soak drains after every burst that placed or released;
``repro serve`` before each tick), and in
:meth:`~PlacementDaemon.stop`, which closes admission, drains, and
closes the registry's append handles.

Placement consults a **per-shard cluster view**: the pool reflects
each shard at a registry seq.  Writes routed through the daemon keep
the view coherent incrementally (the common case — no rebuild); an
out-of-band write moves the shard's seq and forces a rebuild of just
that shard before the next placement.  The free pool is a
:class:`~repro.hpc.FreeNodePool` keyed by node index, so its picks are
``MarginAwareAllocationPolicy``'s over an index-ordered free list
(tested), in the classes of the fleet's backend (``REPRO_BACKEND``).
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import (Callable, Deque, Dict, List, Optional, Sequence, Set,
                    Tuple)

from ..dram.backend import get_backend
from ..fleet.registry import EVENT_KINDS
from ..hpc.scheduler import Cuts, FreeNodePool
from ..obs import get_recorder
from .sharding import ShardedRegistry

__all__ = ["BucketPool", "ClockTick", "DaemonConfig", "DaemonStats",
           "Decision", "PlaceRequest", "PlacementDaemon",
           "RegistryWrite", "ReleaseRequest", "STATUSES"]

#: Decision statuses, in documentation order.
PLACED = "placed"
UNSATISFIABLE = "unsatisfiable"
SHED = "shed"
EXPIRED = "expired"
DUPLICATE = "duplicate"
RELEASED = "released"
UNKNOWN_JOB = "unknown-job"
CLOSED = "closed"
STATUSES = (PLACED, UNSATISFIABLE, SHED, EXPIRED, DUPLICATE,
            RELEASED, UNKNOWN_JOB, CLOSED)


@dataclass(frozen=True)
class PlaceRequest:
    """Allocate ``nodes_requested`` nodes for ``job_id``.
    ``deadline_s`` is on the daemon's virtual clock (None = patient)."""
    job_id: int
    nodes_requested: int
    deadline_s: Optional[float] = None


@dataclass(frozen=True)
class ReleaseRequest:
    """Free the nodes held by ``job_id``."""
    job_id: int


@dataclass(frozen=True)
class RegistryWrite:
    """One margin-registry event for the owning shard."""
    kind: str
    node: int
    payload: Dict[str, object] = field(default_factory=dict)


@dataclass(frozen=True)
class ClockTick:
    """Advance the virtual clock to ``now_s`` (monotonic clamp)."""
    now_s: float


@dataclass(frozen=True)
class Decision:
    """One answered message.  ``seq`` is the emission order (the
    decision log is the seq-ordered JSONL of these); wall-clock
    latency deliberately never appears here."""
    seq: int
    job_id: int
    status: str
    nodes: Tuple[int, ...] = ()
    margin_bucket: int = 0

    def to_json(self) -> str:
        """One canonical JSONL line, byte-identical to
        :func:`~repro.fleet.registry.canonical_json` of the five fields
        but written directly (``status`` is one of :data:`STATUSES`,
        so needs no escaping)."""
        return ('{"bucket":%d,"job":%d,"nodes":[%s],"seq":%d,'
                '"status":"%s"}' % (self.margin_bucket, self.job_id,
                                    ",".join(map(str, self.nodes)),
                                    self.seq, self.status))


@dataclass
class DaemonConfig:
    """Queue bounds (see module docstring).

    ``queue_limit`` is the placement admission watermark;
    ``event_queue_limit`` is the hard queue bound (must exceed
    ``queue_limit`` — releases, writes and ticks use the headroom and
    drain the queue instead of shedding)."""
    queue_limit: int = 512
    event_queue_limit: int = 4096

    def validate(self) -> "DaemonConfig":
        if self.queue_limit <= 0:
            raise ValueError("queue_limit must be positive")
        if self.event_queue_limit <= self.queue_limit:
            raise ValueError("event_queue_limit must exceed "
                             "queue_limit")
        return self


@dataclass
class DaemonStats:
    """Deterministic counters (wall clock never enters here)."""
    placed: int = 0
    unsatisfiable: int = 0
    shed: int = 0
    expired: int = 0
    duplicate: int = 0
    released: int = 0
    unknown_releases: int = 0
    writes: int = 0
    ticks: int = 0
    closed_rejects: int = 0
    decisions: int = 0
    queue_peak: int = 0
    backpressure_waits: int = 0
    cache_hits: int = 0
    cache_misses: int = 0

    @property
    def cache_hit_ratio(self) -> float:
        checks = self.cache_hits + self.cache_misses
        return self.cache_hits / checks if checks else 0.0

    def as_dict(self) -> Dict[str, object]:
        doc = dict(self.__dict__)
        doc["cache_hit_ratio"] = self.cache_hit_ratio
        return doc


class BucketPool(FreeNodePool):
    """The daemon's free pool: a :class:`~repro.hpc.FreeNodePool` keyed
    by node index (so its picks are ``MarginAwareAllocationPolicy``'s
    over an index-ordered free list), plus every node's margin and the
    lease map.  The HA plane replicates one per daemon.

    A lease keeps the per-margin blocks its nodes were taken in, and
    its release frees them block by block, unless a node's margin
    changed while it was busy."""

    def __init__(self, buckets: Sequence[int]):
        super().__init__(buckets)
        self._margin: Dict[int, int] = {}
        #: Busy nodes whose margin changed while they were busy.
        self._moved: Set[int] = set()
        self._leases: Dict[int, Tuple[Tuple[int, ...], Cuts,
                                     Tuple[int, ...]]] = {}

    def _margin_of(self, key: int) -> int:
        return self._margin[key]

    def has_lease(self, job_id: int) -> bool:
        return job_id in self._leases

    def set_margin(self, node: int, margin: int) -> None:
        """Fold one node's current effective margin in.  A busy node
        only updates its recorded margin (takes effect on release)."""
        margin = int(margin)
        old = self._margin.get(node)
        if old == margin:
            return
        if old is not None and self._find(node, old)[0] is None:
            self._moved.add(node)               # busy: not in the pool
        else:
            if old is not None:
                self._remove(node, old)
            self.add(node, margin, node)
        self._margin[node] = margin

    # -- leases -------------------------------------------------------------------

    def allocate(self, nodes: Sequence[int], job_id: int) -> None:
        taken = self.take(nodes)
        # Tuples of ints only, which the collector stops tracking.
        self._leases[job_id] = (tuple(nodes), taken.cuts,
                                tuple(taken.block_keys))

    def release(self, job_id: int) -> Optional[Tuple[int, ...]]:
        lease = self._leases.pop(job_id, None)
        if lease is None:
            return None
        nodes, cuts, blocks = lease
        if self._moved.isdisjoint(nodes):
            self.add_blocks(cuts, blocks, blocks)
        else:
            self._moved.difference_update(nodes)
            self.add_all((node, self._margin[node], node)
                         for node in nodes)
        return nodes


class PlacementDaemon:
    """Synchronous margin-aware placement service (see module
    docstring).

    Every :class:`Decision` goes to ``decision_sink`` (optional), in
    seq order, as it is emitted; the daemon keeps none of them.
    """

    def __init__(self, registry: ShardedRegistry,
                 config: Optional[DaemonConfig] = None,
                 decision_sink: Optional[Callable[[Decision], None]]
                 = None):
        self.registry = registry
        self.config = (config if config is not None
                       else DaemonConfig()).validate()
        self.stats = DaemonStats()
        self._sink = decision_sink
        self._pool = BucketPool(get_backend().placement_buckets)
        # Per shard, the registry seq the pool reflects (None: rebuild
        # before the next placement).
        self._view_seqs: List[Optional[int]] = \
            [None] * registry.shard_count
        self._now_s = 0.0
        self._decision_seq = 0
        self._queue: Deque[tuple] = deque()
        self._closed = False
        rec = get_recorder()
        if rec.enabled:
            rec.event("service", "daemon_start", 0.0,
                      shards=registry.shard_count)

    @property
    def now_s(self) -> float:
        """The virtual clock (advanced only by :meth:`tick`)."""
        return self._now_s

    # -- submission ---------------------------------------------------------------

    def submit_place(self, job_id: int, nodes_requested: int,
                     deadline_s: Optional[float] = None) -> None:
        """Queue a placement (admission-controlled; never drains).  It
        is answered ``closed`` at once after :meth:`stop`, and ``shed``
        at once while ``queue_limit`` messages are queued."""
        if nodes_requested <= 0:
            raise ValueError("jobs need at least one node")
        if self._closed:
            self.stats.closed_rejects += 1
            self._emit(job_id, CLOSED)
            return
        if len(self._queue) >= self.config.queue_limit:
            self.stats.shed += 1
            self._emit(job_id, SHED)
            return
        self._enqueue((self._process_place,
                       PlaceRequest(job_id, nodes_requested, deadline_s),
                       time.perf_counter()))

    def submit_release(self, job_id: int) -> None:
        """Queue a lease release (a fact: never shed)."""
        self._put_fact((self._process_release, job_id, 0.0))

    def submit_write(self, write: RegistryWrite) -> None:
        """Queue a registry event (a fact: never shed)."""
        if write.kind not in EVENT_KINDS:
            raise ValueError("unknown event kind {!r}"
                             .format(write.kind))
        self._put_fact((self._process_write, write, 0.0))

    def tick(self, now_s: float) -> None:
        """Queue a virtual-clock advance (processed in arrival order)."""
        self._put_fact((self._process_tick, float(now_s), 0.0))

    def _put_fact(self, item: tuple) -> None:
        """Facts are never shed: at the hard bound the producer waits
        for the queue to drain (counted as a backpressure wait)."""
        if self._closed:
            raise RuntimeError("daemon is closed")
        if len(self._queue) >= self.config.event_queue_limit:
            self.stats.backpressure_waits += 1
            self.drain()
        self._enqueue(item)

    def _enqueue(self, item: tuple) -> None:
        self._queue.append(item)
        if len(self._queue) > self.stats.queue_peak:
            self.stats.queue_peak = len(self._queue)

    # -- processing ---------------------------------------------------------------

    def drain(self) -> None:
        """Process every queued message in FIFO order."""
        queue = self._queue
        rec = get_recorder()
        if rec.enabled:
            rec.gauge("service", "queue_depth", len(queue))
        while queue:
            process, msg, t0 = queue.popleft()
            process(msg, t0, rec)

    def stop(self) -> None:
        """Close admission, drain every queued message, and close the
        registry's append handles."""
        if self._closed:
            return
        self._closed = True
        self.drain()
        self.registry.close()
        rec = get_recorder()
        if rec.enabled:
            for result, count in (("hit", self.stats.cache_hits),
                                  ("miss", self.stats.cache_misses)):
                if count:
                    rec.counter("service", "cache_checks", count,
                                result=result)
            rec.gauge("service", "queue_peak", self.stats.queue_peak)
            rec.event("service", "daemon_stop", self._now_s * 1e9,
                      decisions=self.stats.decisions,
                      placed=self.stats.placed, shed=self.stats.shed)

    def _process_place(self, req: PlaceRequest, t0: float,
                       rec) -> None:
        if (req.deadline_s is not None and
                self._now_s > req.deadline_s):
            self.stats.expired += 1
            self._emit(req.job_id, EXPIRED)
        elif self._pool.has_lease(req.job_id):
            self.stats.duplicate += 1
            self._emit(req.job_id, DUPLICATE)
        else:
            self._refresh_views()
            chosen = self._pool.pick_margin_aware(req.nodes_requested)
            if chosen is None:
                self.stats.unsatisfiable += 1
                self._emit(req.job_id, UNSATISFIABLE)
            else:
                bucket = self._pool.bucket(chosen.min_margin)
                self._pool.allocate(chosen, req.job_id)
                self.stats.placed += 1
                self._emit(req.job_id, PLACED, tuple(chosen), bucket)
        if rec.enabled:
            rec.observe("service", "place_latency_s",
                        time.perf_counter() - t0)

    def _process_release(self, job_id: int, t0: float, rec) -> None:
        nodes = self._pool.release(job_id)
        if nodes is None:
            self.stats.unknown_releases += 1
            self._emit(job_id, UNKNOWN_JOB)
        else:
            self.stats.released += 1
            self._emit(job_id, RELEASED, nodes)

    def _process_write(self, write: RegistryWrite, t0: float,
                       rec) -> None:
        sid = self.registry.shard_id(write.node)
        shard = self.registry.shard(sid)
        pre_seq = shard.last_seq
        self.registry.record(write.kind, write.node,
                             time_s=self._now_s, **write.payload)
        record = self.registry.node(write.node)
        self._pool.set_margin(write.node,
                              record.effective_margin_mts)
        # Fold the increment when the pool was current and this daemon
        # made the only write; otherwise rebuild the shard.
        self._view_seqs[sid] = (shard.last_seq
                                if self._view_seqs[sid] == pre_seq
                                else None)
        self.stats.writes += 1

    def _process_tick(self, now_s: float, t0: float, rec) -> None:
        self.stats.ticks += 1
        if now_s > self._now_s:
            self._now_s = now_s

    # -- cluster view -------------------------------------------------------------

    def _refresh_views(self) -> None:
        """Rebuild into the pool every shard whose seq moved since the
        pool last reflected it (an out-of-band write); the rest are
        cache hits."""
        seqs = self._view_seqs
        for sid, seq in enumerate(seqs):
            shard = self.registry.shard(sid)
            if seq == shard.last_seq:
                self.stats.cache_hits += 1
                continue
            self.stats.cache_misses += 1
            for record in shard.nodes():
                self._pool.set_margin(record.node,
                                      record.effective_margin_mts)
            seqs[sid] = shard.last_seq

    # -- decisions ----------------------------------------------------------------

    def _emit(self, job_id: int, status: str,
              nodes: Tuple[int, ...] = (), bucket: int = 0) -> None:
        self._decision_seq += 1
        self.stats.decisions += 1
        if self._sink is not None:
            self._sink(Decision(self._decision_seq, job_id, status,
                                nodes, bucket))
