"""Live margin-aware placement daemon (asyncio controller loop).

:class:`PlacementDaemon` turns the batch-shaped
:class:`~repro.fleet.PlacementService` into a long-running service: a
single-writer controller loop (the iso-sched shape — one bounded
pending queue feeding one arbitrator) absorbs a firehose of mixed
messages and answers each with an explicit :class:`Decision`:

``PlaceRequest``
    Allocate nodes for a job.  Admission-controlled: once the pending
    queue sits at ``queue_limit`` the request is **shed** immediately
    (status ``shed``) instead of queueing unboundedly — callers get
    explicit backpressure, not silent latency.  Requests carry an
    optional *virtual-clock* deadline; one that expires while queued
    is answered ``expired`` and never placed.
``ReleaseRequest``
    Return a placed job's nodes to the free pool.
``RegistryWrite``
    A margin-registry event (demote/promote/adapt/profile/...), routed
    to the owning shard of the :class:`~repro.service.ShardedRegistry`.
    Ground truth is never shed: when the queue is saturated the
    *producer* blocks (``await``) until there is room.
``ClockTick``
    Advances the daemon's virtual clock (monotonic clamp).  All
    decision logic — deadlines, cache TTL — runs on this clock, so a
    seeded message stream produces a byte-identical decision log;
    wall-clock time feeds only the obs latency histograms.

Placement consults a **per-shard TTL'd cluster-view cache** reusing the
``PlacementService`` invalidation law (fresh ⇔ shard seq unchanged ∧
age < TTL on the monotonic virtual clock).  Writes routed through the
daemon keep the view coherent incrementally (the common case — no
rebuild); any out-of-band divergence (seq mismatch, TTL expiry) forces
a full rebuild of just that shard.  The free pool is a
:class:`~repro.hpc.FreeNodePool` keyed by node index, so its picks are
``MarginAwareAllocationPolicy``'s over an index-ordered free list
(tested), in the classes of the fleet's backend (``REPRO_BACKEND``).

Shutdown drains: ``stop()`` closes admission, then processes every
message already queued before the controller exits, so no submitted
future is left pending (the lifecycle drill in the tests).
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import (Callable, Dict, List, Optional, Sequence, Tuple)

from ..dram.backend import get_backend
from ..fleet.registry import EVENT_KINDS
from ..hpc.scheduler import FreeNodePool
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

_SENTINEL = object()


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
    """Controller-loop knobs (see module docstring).

    ``queue_limit`` is the placement admission watermark;
    ``event_queue_limit`` is the hard queue bound (must exceed
    ``queue_limit`` — registry/control traffic uses the headroom and
    blocks its producer instead of shedding)."""
    queue_limit: int = 512
    event_queue_limit: int = 4096
    batch_max: int = 256
    cache_ttl_s: float = 300.0
    keep_decisions: bool = False

    def validate(self) -> "DaemonConfig":
        if self.queue_limit <= 0:
            raise ValueError("queue_limit must be positive")
        if self.event_queue_limit <= self.queue_limit:
            raise ValueError("event_queue_limit must exceed "
                             "queue_limit")
        if self.batch_max <= 0:
            raise ValueError("batch_max must be positive")
        if self.cache_ttl_s <= 0:
            raise ValueError("cache_ttl_s must be positive")
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
    batches: int = 0

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
    lease map.  The HA plane replicates one per daemon."""

    def __init__(self, buckets: Sequence[int]):
        super().__init__(buckets)
        self._margin: Dict[int, int] = {}
        self._busy: Dict[int, int] = {}
        self._leases: Dict[int, Tuple[int, ...]] = {}

    def margin(self, node: int) -> int:
        return self._margin[node]

    def has_lease(self, job_id: int) -> bool:
        return job_id in self._leases

    def set_margin(self, node: int, margin: int) -> None:
        """Fold one node's current effective margin in.  A busy node
        only updates its recorded margin (takes effect on release)."""
        margin = int(margin)
        old = self._margin.get(node)
        if old == margin:
            return
        self._margin[node] = margin
        if node in self._busy:
            return
        if old is not None:
            self.take((node,))
        self.add(node, margin, node)

    # -- leases -------------------------------------------------------------------

    def allocate(self, nodes: Sequence[int], job_id: int) -> None:
        self.take(nodes)
        for node in nodes:
            self._busy[node] = job_id
        self._leases[job_id] = tuple(nodes)

    def release(self, job_id: int) -> Optional[Tuple[int, ...]]:
        nodes = self._leases.pop(job_id, None)
        if nodes is None:
            return None
        for node in nodes:
            del self._busy[node]
        self.add_all((node, self._margin[node], node) for node in nodes)
        return nodes


class _ShardView:
    """Freshness bookkeeping for one shard's contribution to the pool
    (the pool itself holds the materialized view)."""

    __slots__ = ("seq", "cached_at_s", "dirty")

    def __init__(self):
        self.seq = -1
        self.cached_at_s = float("-inf")
        self.dirty = True


class PlacementDaemon:
    """Async margin-aware placement service (see module docstring).

    ``decision_sink`` (optional) is called with every emitted
    :class:`Decision` in seq order — the soak harness hashes and logs
    decisions through it without the daemon retaining them.
    """

    def __init__(self, registry: ShardedRegistry,
                 config: Optional[DaemonConfig] = None,
                 decision_sink: Optional[Callable[[Decision], None]]
                 = None):
        self.registry = registry
        self.config = (config if config is not None
                       else DaemonConfig()).validate()
        self.stats = DaemonStats()
        self.decisions: List[Decision] = []
        self._sink = decision_sink
        self._pool = BucketPool(get_backend().placement_buckets)
        self._views = [_ShardView()
                       for _ in range(registry.shard_count)]
        self._now_s = 0.0
        self._decision_seq = 0
        self._queue: Optional[asyncio.Queue] = None
        self._task: Optional[asyncio.Task] = None
        self._closed = True

    # -- lifecycle ----------------------------------------------------------------

    @property
    def now_s(self) -> float:
        """The virtual clock (advanced only by :class:`ClockTick`)."""
        return self._now_s

    async def start(self) -> None:
        if self._task is not None:
            raise RuntimeError("daemon already running")
        self._queue = asyncio.Queue(
            maxsize=self.config.event_queue_limit)
        self._closed = False
        self._task = asyncio.get_running_loop().create_task(self._run())
        rec = get_recorder()
        if rec.enabled:
            rec.event("service", "daemon_start", self._now_s * 1e9,
                      shards=self.registry.shard_count)

    async def stop(self) -> None:
        """Close admission, drain every queued message, then stop and
        close the registry's append handles.  Every future handed out
        before the call resolves."""
        if self._task is None:
            return
        self._closed = True
        await self._queue.put(_SENTINEL)
        await self._task
        self._task = None
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

    async def __aenter__(self) -> "PlacementDaemon":
        await self.start()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.stop()

    # -- submission ---------------------------------------------------------------

    def submit(self, request: PlaceRequest) -> "asyncio.Future":
        """Enqueue a placement (admission-controlled; never blocks).
        Returns a future resolving to this request's
        :class:`Decision` — which may already be resolved, with status
        ``shed`` (queue at the watermark) or ``closed`` (daemon
        stopping)."""
        if request.nodes_requested <= 0:
            raise ValueError("jobs need at least one node")
        fut = asyncio.get_running_loop().create_future()
        if self._closed:
            self.stats.closed_rejects += 1
            fut.set_result(self._emit(request.job_id, CLOSED))
            return fut
        if self._queue.qsize() >= self.config.queue_limit:
            self.stats.shed += 1
            fut.set_result(self._emit(request.job_id, SHED))
            return fut
        self._queue.put_nowait(
            ("place", request, fut, time.perf_counter()))
        if self._queue.qsize() > self.stats.queue_peak:
            self.stats.queue_peak = self._queue.qsize()
        return fut

    async def submit_release(self, request: ReleaseRequest
                             ) -> "asyncio.Future":
        """Enqueue a lease release (blocks only when the queue is at
        its hard bound — backpressure, never shedding)."""
        fut = asyncio.get_running_loop().create_future()
        await self._put_event(("release", request, fut,
                               time.perf_counter()))
        return fut

    async def submit_write(self, write: RegistryWrite) -> None:
        """Enqueue a registry event (blocks when saturated)."""
        if write.kind not in EVENT_KINDS:
            raise ValueError("unknown event kind {!r}"
                             .format(write.kind))
        await self._put_event(("write", write, None, 0.0))

    async def submit_tick(self, now_s: float) -> None:
        """Advance the virtual clock (in arrival order)."""
        await self._put_event(("tick", ClockTick(float(now_s)), None,
                               0.0))

    async def _put_event(self, item) -> None:
        if self._closed:
            raise RuntimeError("daemon is closed")
        if self._queue.full():
            self.stats.backpressure_waits += 1
        await self._queue.put(item)
        if self._queue.qsize() > self.stats.queue_peak:
            self.stats.queue_peak = self._queue.qsize()

    # -- controller loop ----------------------------------------------------------

    async def _run(self) -> None:
        rec = get_recorder()
        stopping = False
        while not stopping:
            batch = [await self._queue.get()]
            while len(batch) < self.config.batch_max:
                try:
                    batch.append(self._queue.get_nowait())
                except asyncio.QueueEmpty:
                    break
            self.stats.batches += 1
            if rec.enabled:
                rec.gauge("service", "queue_depth",
                          self._queue.qsize())
            for item in batch:
                if item is _SENTINEL:
                    # Admission is closed; drain what is already
                    # queued, then exit.
                    stopping = True
                    continue
                self._process(item, rec)
            if stopping:
                while True:
                    try:
                        item = self._queue.get_nowait()
                    except asyncio.QueueEmpty:
                        break
                    if item is not _SENTINEL:
                        self._process(item, rec)

    def _process(self, item, rec) -> None:
        kind, msg, fut, t0 = item
        if kind == "place":
            self._process_place(msg, fut, t0, rec)
        elif kind == "release":
            self._process_release(msg, fut, t0, rec)
        elif kind == "write":
            self._process_write(msg)
        elif kind == "tick":
            self.stats.ticks += 1
            if msg.now_s > self._now_s:
                self._now_s = msg.now_s

    def _process_place(self, req: PlaceRequest, fut, t0: float,
                       rec) -> None:
        if (req.deadline_s is not None and
                self._now_s > req.deadline_s):
            self.stats.expired += 1
            decision = self._emit(req.job_id, EXPIRED)
        elif self._pool.has_lease(req.job_id):
            self.stats.duplicate += 1
            decision = self._emit(req.job_id, DUPLICATE)
        else:
            self._refresh_views()
            chosen = self._pool.pick_margin_aware(req.nodes_requested)
            if chosen is None:
                self.stats.unsatisfiable += 1
                decision = self._emit(req.job_id, UNSATISFIABLE)
            else:
                bucket = self._pool.bucket(
                    min(self._pool.margin(n) for n in chosen))
                self._pool.allocate(chosen, req.job_id)
                self.stats.placed += 1
                decision = self._emit(req.job_id, PLACED,
                                      tuple(chosen), bucket)
        if rec.enabled:
            rec.observe("service", "place_latency_s",
                        time.perf_counter() - t0)
        fut.set_result(decision)

    def _process_release(self, req: ReleaseRequest, fut, t0: float,
                         rec) -> None:
        nodes = self._pool.release(req.job_id)
        if nodes is None:
            self.stats.unknown_releases += 1
            decision = self._emit(req.job_id, UNKNOWN_JOB)
        else:
            self.stats.released += 1
            decision = self._emit(req.job_id, RELEASED, nodes)
        fut.set_result(decision)

    def _process_write(self, write: RegistryWrite) -> None:
        sid = self.registry.shard_id(write.node)
        shard = self.registry.shard(sid)
        view = self._views[sid]
        pre_seq = shard.last_seq
        self.registry.record(write.kind, write.node,
                             time_s=self._now_s, **write.payload)
        record = self.registry.node(write.node)
        self._pool.set_margin(write.node,
                              record.effective_margin_mts)
        if not view.dirty and view.seq == pre_seq:
            # The view was coherent and this daemon made the only
            # write: fold the increment, no rebuild.
            view.seq = shard.last_seq
        else:
            view.dirty = True
        self.stats.writes += 1

    # -- cluster view -------------------------------------------------------------

    def _refresh_views(self) -> None:
        """Apply the PlacementService freshness law per shard: fresh ⇔
        seq unchanged ∧ age < TTL (virtual clock).  Stale shards are
        rebuilt into the pool; fresh ones are untouched."""
        now = self._now_s
        ttl = self.config.cache_ttl_s
        for sid, view in enumerate(self._views):
            shard = self.registry.shard(sid)
            if (not view.dirty and view.seq == shard.last_seq and
                    now - view.cached_at_s < ttl):
                self.stats.cache_hits += 1
                continue
            self.stats.cache_misses += 1
            for record in shard.nodes():
                self._pool.set_margin(record.node,
                                      record.effective_margin_mts)
            view.seq = shard.last_seq
            view.cached_at_s = now
            view.dirty = False

    # -- decisions ----------------------------------------------------------------

    def _emit(self, job_id: int, status: str,
              nodes: Tuple[int, ...] = (),
              bucket: int = 0) -> Decision:
        self._decision_seq += 1
        decision = Decision(self._decision_seq, job_id, status, nodes,
                            bucket)
        self.stats.decisions += 1
        if self.config.keep_decisions:
            self.decisions.append(decision)
        if self._sink is not None:
            self._sink(decision)
        return decision
