"""Live placement service (DESIGN.md §14, §15).

The operational layer on top of the fleet subsystem: a
:class:`ShardedRegistry` partitions the margin registry's JSONL log
across N independently compacted shards under a deterministic
node→shard hash; a :class:`PlacementDaemon` answers placement,
release, and registry-write traffic from one synchronous FIFO with
bounded queueing, admission control, and per-shard seq-checked
cluster views; and a :class:`SoakScenario` drives the pair with a seeded
million-event closed loop whose :class:`SoakReport` gates determinism
and tail latency.  The HA tier (:mod:`repro.service.ha`) replicates
the daemon behind shard-group leases with fencing tokens
(:mod:`repro.service.lease`), two-phase cross-shard arbitration
(:mod:`repro.service.arbitration`), and supervisor-driven failover,
proven by :class:`HAFailoverDrill`.  ``repro serve`` and ``repro
soak`` are the CLI surface.
"""

from .arbitration import (ArbitrationStats, CrossShardArbiter,
                          Reservation)
from .daemon import (BucketPool, ClockTick, DaemonConfig, DaemonStats,
                     Decision, PlaceRequest, PlacementDaemon,
                     RegistryWrite, ReleaseRequest, STATUSES)
from .ha import (FailoverManager, HAConfig, HAControlPlane, HADaemon,
                 HADrillResult, HAFailoverDrill, ShardGroups)
from .lease import (CONTROL_LOG_FILE, ControlEvent, ControlLog,
                    LeaseError, LeaseRecord, LeaseTable,
                    verify_control_log)
from .sharding import DEFAULT_SHARDS, ShardedRegistry, shard_for_node
from .soak import SoakConfig, SoakReport, SoakScenario

__all__ = [
    "ArbitrationStats", "BucketPool", "CONTROL_LOG_FILE", "ClockTick",
    "ControlEvent", "ControlLog", "CrossShardArbiter",
    "DEFAULT_SHARDS", "DaemonConfig", "DaemonStats", "Decision",
    "FailoverManager", "HAConfig", "HAControlPlane", "HADaemon",
    "HADrillResult", "HAFailoverDrill", "LeaseError", "LeaseRecord",
    "LeaseTable", "PlaceRequest", "PlacementDaemon", "RegistryWrite",
    "ReleaseRequest", "Reservation", "STATUSES", "ShardGroups",
    "ShardedRegistry", "SoakConfig", "SoakReport", "SoakScenario",
    "shard_for_node", "verify_control_log",
]
