"""Sharded margin registry: N partitions behind one facade.

A single :class:`~repro.fleet.registry.MarginRegistry` serializes every
append through one JSONL log — fine for a 64-node CI fleet, a
bottleneck (and an unbounded compaction stall) for the 1490-node
Grizzly machine and the 10k+ fleets the roadmap targets.
:class:`ShardedRegistry` splits the fleet across ``shards`` independent
registries, each with its own monotonic sequence numbers, snapshot
file, event log, and compaction schedule, under a **deterministic**
node→shard hash (:func:`shard_for_node`): the same node always lands in
the same shard, across processes, restarts, and Python versions.

Contracts inherited per shard from :class:`MarginRegistry`:

* **single writer per shard** — appends are unlocked; the placement
  daemon owns all shards' write paths, concurrent readers only ever
  see a clean prefix (+ possibly one torn tail line);
* **crash-safe compaction** — the snapshot lands atomically *before*
  the log truncates, so a crash between the two halves (the
  ``kill_hook`` test seam simulates exactly that window) leaves the
  shard fully restorable: the next load folds the snapshot and skips
  the already-covered events;
* **per-shard WAL replay** — recovery for one node uses the owning
  shard (:meth:`shard_for`) as its registry, replaying only that
  shard's events past a checkpoint seq; conservative fallback to net
  state applies when the seq predates the shard's retention horizon.

The facade duck-types the :class:`MarginRegistry` recording and query
API (``record_*``, ``node``, ``nodes``, ``effective_margins``,
``bucket_counts``, ``last_seq``), so :class:`~repro.fleet.FleetIngest`,
:class:`~repro.hpc.cluster.Cluster.from_registry`, and
:class:`~repro.fleet.PlacementService` all work unchanged on top of a
sharded fleet.  ``last_seq`` is the *sum* of per-shard seqs — not a
global ordering, but a version counter that changes on every write,
which is all the seq-invalidation cache law needs.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..fleet.registry import (MarginRegistry, NodeRecord, RegistryError,
                              RegistryEvent, canonical_json, fsync_dir)
from ..obs import get_recorder

__all__ = ["ShardedRegistry", "shard_for_node", "DEFAULT_SHARDS"]

#: Default partition count (16 shards keep a 1490-node fleet under ~100
#: nodes per shard and still spread a 10k-node fleet usefully).
DEFAULT_SHARDS = 16

#: Manifest file pinning the shard count of a registry directory.
MANIFEST_FILE = "shards.json"

#: Atomically-maintained duplicate of the manifest: the fallback when
#: the primary is torn by a crash mid-replace (or later corruption).
MANIFEST_BACKUP = "shards.json.bak"

#: Manifest schema version.
MANIFEST_FORMAT = 1

_FNV64_OFFSET = 0xcbf29ce484222325
_FNV64_PRIME = 0x100000001b3
_FNV64_MASK = 0xFFFFFFFFFFFFFFFF


def shard_for_node(node: int, shard_count: int) -> int:
    """Deterministic node→shard map: FNV-1a (64-bit) over the node
    id's 8-byte little-endian encoding, mod ``shard_count``.

    Python's builtin ``hash`` is salted per process for strings and
    implementation-defined in general; FNV-1a is fixed arithmetic, so
    the routing a registry directory was written under is reproducible
    by any later process — the property every reload depends on."""
    if node < 0:
        raise ValueError("node index must be non-negative")
    if shard_count <= 0:
        raise ValueError("shard_count must be positive")
    h = _FNV64_OFFSET
    for byte in int(node).to_bytes(8, "little"):
        h = ((h ^ byte) * _FNV64_PRIME) & _FNV64_MASK
    return h % shard_count


class ShardedRegistry:
    """N independent :class:`MarginRegistry` partitions (module doc).

    ``path`` is a directory holding one ``shard-NNN/`` registry per
    partition plus a ``shards.json`` manifest pinning the partition
    count; ``None`` keeps every shard in memory.  Loading an existing
    directory adopts the manifest's count; passing a conflicting
    ``shards`` raises :class:`RegistryError` rather than silently
    re-routing nodes.

    ``compact_every`` > 0 arms per-shard auto-compaction: after that
    many appends to a shard since its last compaction, the shard is
    compacted inline (snapshot + log truncation) — the steady-state
    log-bounding behavior the soak drives.  In-memory shards cannot
    compact (no snapshot file) and ignore the knob.
    """

    def __init__(self, path: Optional[object] = None,
                 shards: Optional[int] = None, create: bool = True,
                 compact_every: int = 0):
        if compact_every < 0:
            raise ValueError("compact_every must be non-negative")
        self.path = Path(path) if path is not None else None
        self.compact_every = int(compact_every)
        self.compactions = 0
        #: Times a torn primary manifest was recovered from the .bak.
        self.manifest_fallbacks = 0
        #: Test seam for crash drills: when set, called as
        #: ``kill_hook(shard_id)`` *between* the snapshot write and the
        #: log truncation of a compaction — the widest crash window.
        self.kill_hook: Optional[Callable[[int], None]] = None
        self.shard_count = self._resolve_shard_count(shards, create)
        self._pending = [0] * self.shard_count
        #: node -> shard id, filled by :meth:`shard_id`.
        self._routes: Dict[int, int] = {}
        self._shards: List[MarginRegistry] = []
        for sid in range(self.shard_count):
            sub = (self.path / self.shard_dir(sid)
                   if self.path is not None else None)
            self._shards.append(MarginRegistry(sub, create=create))

    # -- layout -------------------------------------------------------------------

    @staticmethod
    def shard_dir(sid: int) -> str:
        """Directory name of one shard, zero-padded for stable sorts."""
        return "shard-{:03d}".format(sid)

    @property
    def manifest_path(self) -> Path:
        return self.path / MANIFEST_FILE

    @property
    def manifest_backup_path(self) -> Path:
        return self.path / MANIFEST_BACKUP

    def _write_manifest_file(self, target: Path, count: int) -> None:
        tmp = target.with_name(target.name + ".tmp")
        tmp.write_text(canonical_json(
            {"format": MANIFEST_FORMAT, "shards": count}) + "\n")
        os.replace(tmp, target)
        fsync_dir(self.path)

    def _read_manifest_file(self, target: Path) -> int:
        """Parse one manifest file; raises :class:`RegistryError` when
        it is torn/corrupt (the caller decides whether a fallback
        exists) or pins an unsupported format version."""
        try:
            raw = json.loads(target.read_text())
            if not isinstance(raw, dict):
                raise ValueError("manifest must be a JSON object")
            count = int(raw["shards"])
        except (ValueError, KeyError, TypeError) as exc:
            raise RegistryError("corrupt shard manifest {}: {}"
                                .format(target, exc))
        if raw.get("format") != MANIFEST_FORMAT:
            raise RegistryError("unsupported manifest format {!r}"
                                .format(raw.get("format")))
        return count

    def _load_manifest(self) -> int:
        """Read the manifest, falling back to the ``.bak`` duplicate
        when the primary is torn (a crash can tear at most one of the
        two files: they are replaced atomically, one at a time).  The
        surviving copy heals the damaged one, so the fallback is
        one-shot, not a permanent degraded mode."""
        try:
            count = self._read_manifest_file(self.manifest_path)
        except RegistryError as primary_exc:
            if not self.manifest_backup_path.is_file():
                raise primary_exc
            try:
                count = self._read_manifest_file(
                    self.manifest_backup_path)
            except RegistryError:
                raise primary_exc       # both damaged: unrecoverable
            self.manifest_fallbacks += 1
            self._write_manifest_file(self.manifest_path, count)
            rec = get_recorder()
            if rec.enabled:
                rec.counter("service", "manifest_fallbacks")
            return count
        if not self.manifest_backup_path.is_file():
            # Registry predates the backup convention: heal forward.
            self._write_manifest_file(self.manifest_backup_path, count)
        return count

    def _resolve_shard_count(self, shards: Optional[int],
                             create: bool) -> int:
        if shards is not None and shards <= 0:
            raise ValueError("shards must be positive")
        if self.path is None:
            return shards if shards is not None else DEFAULT_SHARDS
        if self.path.is_dir() and self.manifest_path.is_file():
            existing = self._load_manifest()
            if shards is not None and shards != existing:
                raise RegistryError(
                    "registry at {} has {} shards; re-sharding to {} "
                    "would re-route nodes".format(self.path, existing,
                                                  shards))
            return existing
        if not create:
            raise RegistryError("no sharded registry at {}"
                                .format(self.path))
        count = shards if shards is not None else DEFAULT_SHARDS
        self.path.mkdir(parents=True, exist_ok=True)
        self._write_manifest_file(self.manifest_path, count)
        self._write_manifest_file(self.manifest_backup_path, count)
        return count

    # -- routing ------------------------------------------------------------------

    def shard_id(self, node: int) -> int:
        """The partition owning ``node`` (pure function of the id:
        :func:`shard_for_node`, hashed once per node and registry)."""
        sid = self._routes.get(node)
        if sid is None:
            sid = self._routes[node] = shard_for_node(node,
                                                      self.shard_count)
        return sid

    def shard(self, sid: int) -> MarginRegistry:
        """One partition by shard id."""
        return self._shards[sid]

    def shard_for(self, node: int) -> MarginRegistry:
        """The partition owning ``node`` — also the registry to hand a
        per-node :class:`~repro.recovery.RecoveryManager`, so WAL
        replay and checkpoint seq stamps stay in the owning shard's
        sequence space."""
        return self._shards[self.shard_id(node)]

    @property
    def shards(self) -> Tuple[MarginRegistry, ...]:
        return tuple(self._shards)

    # -- recording (MarginRegistry-compatible) ------------------------------------

    def _after_write(self, sid: int) -> None:
        self._pending[sid] += 1
        if (self.compact_every and self.path is not None and
                self._pending[sid] >= self.compact_every):
            self.compact_shard(sid)

    def record(self, kind: str, node: int, time_s: float = 0.0,
               **payload: object) -> RegistryEvent:
        """Append one event to the owning shard (auto-compacting it
        when ``compact_every`` is armed)."""
        sid = self.shard_id(node)
        event = self._shards[sid].record(kind, node, time_s, **payload)
        self._after_write(sid)
        return event

    def record_profile(self, node: int, margin_mts: int,
                       time_s: float = 0.0,
                       channel_margins: Sequence[int] = (),
                       attempts: int = 1) -> RegistryEvent:
        return self.record("profile", node, time_s,
                           margin_mts=int(margin_mts),
                           channel_margins=[int(m) for m in
                                            channel_margins],
                           attempts=int(attempts))

    def record_demotion(self, node: int, margin_mts: int,
                        time_s: float = 0.0,
                        reason: str = "") -> RegistryEvent:
        return self.record("demote", node, time_s,
                           margin_mts=int(margin_mts), reason=reason)

    def record_promotion(self, node: int, margin_mts: int,
                         time_s: float = 0.0,
                         reason: str = "") -> RegistryEvent:
        return self.record("promote", node, time_s,
                           margin_mts=int(margin_mts), reason=reason)

    def record_retirement(self, node: int, time_s: float = 0.0,
                          reason: str = "") -> RegistryEvent:
        return self.record("retire", node, time_s, reason=reason)

    def record_advisory(self, node: int, time_s: float = 0.0,
                        reason: str = "") -> RegistryEvent:
        return self.record("thermal", node, time_s, reason=reason)

    def record_drift(self, node: int, time_s: float = 0.0,
                     ambient_c: float = 0.0, dimm_c: float = 0.0,
                     reason: str = "") -> RegistryEvent:
        return self.record("drift", node, time_s,
                           ambient_c=float(ambient_c),
                           dimm_c=float(dimm_c), reason=reason)

    def record_adapt(self, node: int, margin_mts: int,
                     time_s: float = 0.0, direction: str = "",
                     reason: str = "") -> RegistryEvent:
        return self.record("adapt", node, time_s,
                           margin_mts=int(margin_mts),
                           direction=direction, reason=reason)

    # -- queries (MarginRegistry-compatible) --------------------------------------

    def has_node(self, index: int) -> bool:
        return self.shard_for(index).has_node(index)

    def node(self, index: int) -> NodeRecord:
        return self.shard_for(index).node(index)

    def nodes(self) -> List[NodeRecord]:
        """All node records across shards, ordered by node index."""
        out: List[NodeRecord] = []
        for shard in self._shards:
            out.extend(shard.nodes())
        out.sort(key=lambda rec: rec.node)
        return out

    def effective_margins(self) -> List[int]:
        return [rec.effective_margin_mts for rec in self.nodes()]

    def bucket_counts(self) -> Dict[int, int]:
        counts: Dict[int, int] = {}
        for rec in self.nodes():
            counts[rec.margin_bucket] = counts.get(rec.margin_bucket,
                                                   0) + 1
        return dict(sorted(counts.items(), reverse=True))

    def __len__(self) -> int:
        return sum(len(shard) for shard in self._shards)

    @property
    def last_seq(self) -> int:
        """Sum of per-shard seqs: a fleet-wide *version counter* (any
        write changes it), not a global event ordering."""
        return sum(shard.last_seq for shard in self._shards)

    def last_seqs(self) -> Tuple[int, ...]:
        """Per-shard sequence vector, shard order."""
        return tuple(shard.last_seq for shard in self._shards)

    def events_since(self, seq: int, node: Optional[int] = None
                     ) -> Tuple[List[RegistryEvent], bool]:
        """Per-node WAL replay, delegated to the owning shard (seqs
        are meaningful only within one shard, so ``node`` is
        required)."""
        if node is None:
            raise ValueError(
                "sharded replay is per-node: pass node= (seqs are "
                "per-shard); for whole-fleet state use nodes()")
        return self.shard_for(node).events_since(seq, node=node)

    # -- snapshots / compaction ---------------------------------------------------

    def write_snapshots(self) -> None:
        """Atomically persist every shard's snapshot."""
        for shard in self._shards:
            shard.write_snapshot()

    def compact_shard(self, sid: int) -> int:
        """Compact one shard: snapshot first (atomic), then truncate
        its log.  The ``kill_hook`` seam sits between the two halves;
        a crash there leaves the shard restorable because the snapshot
        already holds every event's net effect.  Returns log lines
        dropped."""
        shard = self._shards[sid]
        shard.write_snapshot()
        if self.kill_hook is not None:
            self.kill_hook(sid)
        dropped = shard.truncate_log()
        self._pending[sid] = 0
        self.compactions += 1
        rec = get_recorder()
        if rec.enabled:
            rec.counter("service", "shard_compactions",
                        shard="{:03d}".format(sid))
        return dropped

    def close(self) -> None:
        """Close every shard's append handle (see
        :meth:`MarginRegistry.close`)."""
        for shard in self._shards:
            shard.close()

    def compact_all(self) -> int:
        """Compact every shard; returns total log lines dropped."""
        return sum(self.compact_shard(sid)
                   for sid in range(self.shard_count))

    def fingerprint(self) -> str:
        """SHA-256 over every shard's canonical snapshot bytes, shard
        order — a cheap whole-fleet state digest for restore drills
        (two registries with equal fingerprints replay identically)."""
        digest = hashlib.sha256()
        for shard in self._shards:
            digest.update(shard.snapshot_bytes())
        return digest.hexdigest()
