"""Million-event soak harness for the placement daemon.

:class:`SoakScenario` is a **seeded closed-loop load generator**: one
asyncio driver coroutine feeds the daemon bursts of mixed traffic —
placements (some with stale deadlines), releases of previously placed
jobs, demote/promote/adapt/profile/drift registry writes, virtual-clock
ticks, placement storms sized past the admission watermark (so
shedding *must* engage), and write floods sized past the hard queue
bound (so blocking backpressure *must* engage) — while per-shard
auto-compaction and periodic snapshot writes churn the registry
underneath.  Closed-loop means the generator reacts to decisions: only
jobs that were actually ``placed`` become release candidates, and when
the fleet runs hot it drains leases before submitting more work.

Everything the *decisions* depend on is driven by the seed and the
virtual clock, so the decision log is a pure function of the config —
the harness exploits that twice:

* :class:`SoakReport` carries the SHA-256 of the canonical decision
  log; CI runs the smoke soak twice and compares logs byte-for-byte.
* With ``verify=True`` the scenario first runs a short **prefix pass**
  (same seed, fresh registry), then the full pass, and checks the full
  run's digest *at the prefix's decision count* equals the prefix
  run's digest — same seed ⇒ same decisions, enforced in-process.

Wall-clock time is confined to the obs latency histogram
(``service/place_latency_s``), whose exact p50/p99/p999 feed the
report; ``SoakReport.passed()`` is the gate: event volume reached,
determinism verified, backpressure engaged, tail latency within
budget.
"""

from __future__ import annotations

import asyncio
import hashlib
import random
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, TextIO

from ..hpc.cluster import Cluster
from ..obs import Recorder, recording
from .daemon import (DaemonConfig, DaemonStats, Decision, PLACED,
                     RELEASED, PlaceRequest, PlacementDaemon,
                     ReleaseRequest, RegistryWrite)
from .sharding import DEFAULT_SHARDS, ShardedRegistry

__all__ = ["SoakConfig", "SoakReport", "SoakScenario"]

#: Registry-write kinds the generator mixes in, with weights.
_WRITE_KINDS = ("demote", "promote", "adapt", "profile", "drift",
                "thermal")

#: Margin rungs used for demote/promote/adapt payloads.
_RUNGS = (800, 600, 400, 200, 0)


def random_registry_write(rng: random.Random, nodes: int,
                          reason: str) -> RegistryWrite:
    """One registry write of the generators' mix (the soak's and the
    HA drill's): a node, a kind, then the kind's payload, drawn from
    ``rng`` in that order; ``reason`` tags the payloads that carry
    one."""
    node = rng.randrange(nodes)
    kind = _WRITE_KINDS[rng.randrange(len(_WRITE_KINDS))]
    if kind in ("demote", "promote", "adapt"):
        payload = {"margin_mts": _RUNGS[rng.randrange(len(_RUNGS))],
                   "reason": reason}
        if kind == "adapt":
            payload["direction"] = "down"
    elif kind == "profile":
        payload = {"margin_mts": _RUNGS[rng.randrange(3)],
                   "channel_margins": [], "attempts": 1}
    elif kind == "drift":
        payload = {"ambient_c": 20.0 + rng.random() * 15.0,
                   "dimm_c": 40.0 + rng.random() * 20.0,
                   "reason": reason}
    else:
        payload = {"reason": reason}
    return RegistryWrite(kind, node, payload)


@dataclass
class SoakConfig:
    """Knobs for one soak run.

    ``events`` counts *submitted messages* (placements, releases,
    registry writes, clock ticks); the run stops at the first burst
    boundary at or past it.  ``registry_dir`` of ``None`` keeps every
    shard in memory (no snapshot/compaction churn — fine for unit
    tests, not for the acceptance soak)."""
    nodes: int = 1490
    shards: int = DEFAULT_SHARDS
    events: int = 1_000_000
    seed: int = 2021
    queue_limit: int = 512
    event_queue_limit: int = 4096
    batch_max: int = 256
    cache_ttl_s: float = 60.0
    compact_every: int = 2048
    snapshot_every_bursts: int = 256
    p999_budget_s: float = 0.25
    verify: bool = True
    verify_events: int = 20_000
    registry_dir: Optional[object] = None

    @classmethod
    def smoke(cls) -> "SoakConfig":
        """CI-sized preset: seconds, not minutes, still exercising
        storms, floods, expiry, compaction, and prefix verification."""
        return cls(nodes=200, shards=4, events=20_000, queue_limit=64,
                   event_queue_limit=512, batch_max=128,
                   compact_every=256, snapshot_every_bursts=32,
                   verify_events=5_000)

    def validate(self) -> "SoakConfig":
        if self.nodes <= 0:
            raise ValueError("nodes must be positive")
        if self.events <= 0:
            raise ValueError("events must be positive")
        if self.verify and self.verify_events <= 0:
            raise ValueError("verify_events must be positive")
        DaemonConfig(queue_limit=self.queue_limit,
                     event_queue_limit=self.event_queue_limit,
                     batch_max=self.batch_max,
                     cache_ttl_s=self.cache_ttl_s).validate()
        return self

    def daemon_config(self) -> DaemonConfig:
        return DaemonConfig(queue_limit=self.queue_limit,
                            event_queue_limit=self.event_queue_limit,
                            batch_max=self.batch_max,
                            cache_ttl_s=self.cache_ttl_s,
                            keep_decisions=False)


class _DecisionLog:
    """Decision sink: rolling SHA-256 of the canonical decision log,
    optional JSONL stream, and a digest snapshot at a fixed decision
    count (the prefix-verification probe)."""

    def __init__(self, capture_at: Optional[int] = None,
                 stream: Optional[TextIO] = None):
        self.count = 0
        self.capture_at = capture_at
        self.prefix_digest: Optional[str] = None
        self._sha = hashlib.sha256()
        self._stream = stream

    def __call__(self, decision: Decision) -> None:
        line = decision.to_json()
        self._sha.update(line.encode("ascii"))
        self._sha.update(b"\n")
        if self._stream is not None:
            self._stream.write(line + "\n")
        self.count += 1
        if self.count == self.capture_at:
            self.prefix_digest = self._sha.hexdigest()

    @property
    def digest(self) -> str:
        return self._sha.hexdigest()


@dataclass
class SoakReport:
    """Everything the soak gate needs, JSON-friendly.

    ``digest`` is over decisions only (virtual-clock world); ``wall_s``
    and the latency quantiles are wall-clock evidence and never enter
    the digest."""
    events: int
    decisions: int
    nodes: int
    shards: int
    seed: int
    target_events: int
    stats: Dict[str, object]
    compactions: int
    digest: str
    p50_s: Optional[float] = None
    p99_s: Optional[float] = None
    p999_s: Optional[float] = None
    p999_budget_s: float = 0.25
    wall_s: float = 0.0
    verified: bool = False
    verify_decisions: int = 0
    verify_match: Optional[bool] = None
    fingerprint: Optional[str] = None

    def failures(self) -> List[str]:
        """Every violated acceptance clause (empty ⇒ passed)."""
        out: List[str] = []
        if self.events < self.target_events:
            out.append("only {} of {} events submitted".format(
                self.events, self.target_events))
        shed = int(self.stats.get("shed", 0))
        waits = int(self.stats.get("backpressure_waits", 0))
        if shed + waits == 0:
            out.append("backpressure never engaged "
                       "(no sheds, no blocking waits)")
        if self.verified and self.verify_match is not True:
            out.append("determinism check failed: prefix rerun "
                       "diverged from the full run")
        if self.p999_s is not None and self.p999_s > self.p999_budget_s:
            out.append("p999 placement latency {:.6f}s exceeds "
                       "budget {:.6f}s".format(self.p999_s,
                                               self.p999_budget_s))
        if self.decisions == 0:
            out.append("no decisions were emitted")
        return out

    def passed(self) -> bool:
        return not self.failures()

    def to_dict(self) -> Dict[str, object]:
        return {
            "events": self.events, "decisions": self.decisions,
            "nodes": self.nodes, "shards": self.shards,
            "seed": self.seed, "target_events": self.target_events,
            "stats": dict(self.stats),
            "compactions": self.compactions, "digest": self.digest,
            "p50_s": self.p50_s, "p99_s": self.p99_s,
            "p999_s": self.p999_s,
            "p999_budget_s": self.p999_budget_s,
            "wall_s": self.wall_s, "verified": self.verified,
            "verify_decisions": self.verify_decisions,
            "verify_match": self.verify_match,
            "fingerprint": self.fingerprint,
            "passed": self.passed(), "failures": self.failures(),
        }

    def format_report(self) -> str:
        """Operator-facing text block (the CLI prints this)."""
        stats = self.stats
        lines = [
            "soak: {} events, {} decisions, {} nodes, {} shards, "
            "seed {}".format(self.events, self.decisions, self.nodes,
                             self.shards, self.seed),
            "  placed {}  unsatisfiable {}  shed {}  expired {}  "
            "released {}".format(stats.get("placed", 0),
                                 stats.get("unsatisfiable", 0),
                                 stats.get("shed", 0),
                                 stats.get("expired", 0),
                                 stats.get("released", 0)),
            "  writes {}  ticks {}  compactions {}  queue peak {}  "
            "backpressure waits {}".format(
                stats.get("writes", 0), stats.get("ticks", 0),
                self.compactions, stats.get("queue_peak", 0),
                stats.get("backpressure_waits", 0)),
            "  cache hit ratio {:.4f}".format(
                float(stats.get("cache_hit_ratio", 0.0))),
        ]
        if self.p999_s is not None:
            lines.append(
                "  place latency p50 {:.6f}s  p99 {:.6f}s  "
                "p999 {:.6f}s (budget {:.6f}s)".format(
                    self.p50_s, self.p99_s, self.p999_s,
                    self.p999_budget_s))
        lines.append("  decision digest {}".format(self.digest))
        if self.verified:
            lines.append(
                "  determinism: prefix rerun of {} decisions {}"
                .format(self.verify_decisions,
                        "matched" if self.verify_match else
                        "DIVERGED"))
        lines.append("  wall {:.2f}s".format(self.wall_s))
        verdict = "PASSED" if self.passed() else "FAILED"
        lines.append("  verdict: {}".format(verdict))
        for failure in self.failures():
            lines.append("    - " + failure)
        return "\n".join(lines)


@dataclass
class _RunResult:
    events: int
    stats: DaemonStats
    log: _DecisionLog
    compactions: int
    latency: Optional[dict]
    wall_s: float
    fingerprint: Optional[str]


class SoakScenario:
    """Run the closed-loop soak described in the module docstring."""

    def __init__(self, config: Optional[SoakConfig] = None):
        self.config = (config if config is not None
                       else SoakConfig()).validate()

    # -- registry seeding ----------------------------------------------------------

    def _build_registry(self, subdir: Optional[str]) -> ShardedRegistry:
        cfg = self.config
        path = None
        if cfg.registry_dir is not None:
            path = Path(cfg.registry_dir)
            if subdir is not None:
                path = path / subdir
        registry = ShardedRegistry(path, shards=cfg.shards,
                                   compact_every=cfg.compact_every)
        # Seed the fleet with the paper's margin-group fractions
        # (62% / 36% / 2%), shuffled by the same seed every run.
        cluster = Cluster(cfg.nodes, seed=cfg.seed)
        for node in cluster.nodes:
            registry.record_profile(node.index, node.margin_mts,
                                    time_s=0.0)
        return registry

    # -- load generator ------------------------------------------------------------

    async def _drive(self, daemon: PlacementDaemon, events_target: int,
                     rng) -> int:
        """The closed-loop driver; returns events submitted."""
        cfg = self.config
        events = 0
        now_s = 0.0
        job_id = 0
        active: List[int] = []      # placed, not yet released
        busy_nodes = 0
        bursts = 0
        registry = daemon.registry
        while events < events_target:
            bursts += 1
            now_s += rng.uniform(0.05, 0.5)
            await daemon.submit_tick(now_s)
            events += 1
            futures = []
            hot = busy_nodes > (7 * cfg.nodes) // 10
            roll = rng.random()
            if (hot or roll < 0.08) and active:
                # Drain burst: release about half the leases.
                for _ in range(max(1, len(active) // 2)):
                    victim = active.pop(rng.randrange(len(active)))
                    futures.append(await daemon.submit_release(
                        ReleaseRequest(victim)))
                    events += 1
            elif roll < 0.12:
                # Placement storm: sized past the admission watermark,
                # submitted without yielding, so shedding must engage.
                storm = cfg.queue_limit + cfg.queue_limit // 2 + \
                    rng.randrange(64)
                for _ in range(storm):
                    job_id += 1
                    futures.append(daemon.submit(PlaceRequest(
                        job_id, 1 + rng.randrange(4),
                        deadline_s=now_s + 30.0)))
                    events += 1
            elif roll < 0.15:
                # Write flood: past the hard queue bound, so the
                # producer blocks (backpressure, never shedding).
                flood = cfg.event_queue_limit + 128
                for _ in range(flood):
                    await daemon.submit_write(
                        random_registry_write(rng, cfg.nodes, "soak"))
                    events += 1
            else:
                # Mixed burst: the steady-state traffic shape.
                for _ in range(32 + rng.randrange(96)):
                    kind = rng.random()
                    if kind < 0.50:
                        job_id += 1
                        if rng.random() < 0.03:
                            # Stale deadline (computed from an old
                            # clock reading): expires in the queue.
                            deadline = now_s - rng.uniform(0.1, 5.0)
                        else:
                            deadline = now_s + rng.uniform(5.0, 60.0)
                        futures.append(daemon.submit(PlaceRequest(
                            job_id, 1 + rng.randrange(8), deadline)))
                    elif kind < 0.75 and active:
                        victim = active.pop(
                            rng.randrange(len(active)))
                        futures.append(await daemon.submit_release(
                            ReleaseRequest(victim)))
                    elif kind < 0.92:
                        await daemon.submit_write(
                            random_registry_write(rng, cfg.nodes, "soak"))
                    else:
                        now_s += rng.uniform(0.001, 0.05)
                        await daemon.submit_tick(now_s)
                    events += 1
            # Closed loop: fold this burst's decisions back into the
            # generator's world model.
            for decision in await asyncio.gather(*futures):
                if decision.status == PLACED:
                    active.append(decision.job_id)
                    busy_nodes += len(decision.nodes)
                elif decision.status == RELEASED:
                    busy_nodes -= len(decision.nodes)
            if (cfg.snapshot_every_bursts and registry.path is not None
                    and bursts % cfg.snapshot_every_bursts == 0):
                registry.write_snapshots()
        return events

    # -- passes --------------------------------------------------------------------

    def _run_once(self, events_target: int, subdir: Optional[str],
                  capture_at: Optional[int] = None,
                  stream: Optional[TextIO] = None) -> _RunResult:
        cfg = self.config
        registry = self._build_registry(subdir)
        log = _DecisionLog(capture_at=capture_at, stream=stream)
        daemon = PlacementDaemon(registry, cfg.daemon_config(),
                                 decision_sink=log)
        rng = random.Random(cfg.seed)

        async def main() -> int:
            async with daemon:
                return await self._drive(daemon, events_target, rng)

        started = time.perf_counter()
        try:
            with recording(Recorder()) as rec:
                events = asyncio.run(main())
                latency = rec.histogram_stats("service",
                                              "place_latency_s")
        finally:
            registry.close()
        wall_s = time.perf_counter() - started
        fingerprint = (registry.fingerprint()
                       if registry.path is not None else None)
        return _RunResult(events=events, stats=daemon.stats, log=log,
                          compactions=registry.compactions,
                          latency=latency, wall_s=wall_s,
                          fingerprint=fingerprint)

    def run(self, stream: Optional[TextIO] = None) -> SoakReport:
        """Execute the soak (prefix-verification pass first when
        ``verify`` is on), returning the gate's :class:`SoakReport`.
        ``stream`` receives the full run's decision JSONL."""
        cfg = self.config
        verify_decisions = 0
        prefix_digest = None
        if cfg.verify:
            prefix = self._run_once(min(cfg.events, cfg.verify_events),
                                    subdir="verify")
            verify_decisions = prefix.log.count
            prefix_digest = prefix.log.digest
        capture_at = verify_decisions if cfg.verify else None
        full = self._run_once(cfg.events, subdir="main",
                              capture_at=capture_at, stream=stream)
        verify_match = None
        if cfg.verify:
            verify_match = (full.log.prefix_digest == prefix_digest
                            and prefix_digest is not None)
        latency = full.latency or {}
        return SoakReport(
            events=full.events, decisions=full.log.count,
            nodes=cfg.nodes, shards=cfg.shards, seed=cfg.seed,
            target_events=cfg.events, stats=full.stats.as_dict(),
            compactions=full.compactions, digest=full.log.digest,
            p50_s=latency.get("p50"), p99_s=latency.get("p99"),
            p999_s=latency.get("p999"),
            p999_budget_s=cfg.p999_budget_s, wall_s=full.wall_s,
            verified=cfg.verify, verify_decisions=verify_decisions,
            verify_match=verify_match, fingerprint=full.fingerprint)
