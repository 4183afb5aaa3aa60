"""Cross-shard-group arbitration: two-phase reserve/commit.

A placement that spans shard groups owned by *different* daemons
cannot be committed unilaterally — two coordinators picking
overlapping node sets would double-book capacity.  The arbiter
serialises them with a small two-phase protocol:

1. **reserve** — the coordinator asks for every node it wants, across
   every touched group.  The reserve succeeds only if (a) each
   touched group has a *live lease* held by an *active* daemon that
   can vouch for it, and (b) none of the nodes is already reserved by
   another in-flight arbitration.  A successful reserve pins the
   nodes and starts a per-phase deadline on the virtual clock.
2. **commit** — before the deadline, the coordinator re-validates its
   own lease and commits (the durable append happens at the lease
   table's fencing gate).  Past the deadline the reserve has *timed
   out*: it is torn down, the nodes are released, and the coordinator
   retries after seeded backoff (:class:`~repro.core.backoff.BackoffPolicy`).

Livelock between two coordinators that keep bouncing each other is
broken by **fencing-token priority**: when a reserve conflicts with a
standing reservation, the coordinator holding the *older* (smaller)
fencing token wins — the newcomer preempts the younger holder or
backs off to retry, so one of the two always makes progress and the
order is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..obs import get_recorder

__all__ = ["ArbitrationStats", "CrossShardArbiter", "Reservation"]


@dataclass
class Reservation:
    """One in-flight two-phase placement."""
    arb_id: int
    coordinator: int                 # daemon id
    token: int                       # coordinator's fencing token
    nodes: Tuple[int, ...]
    groups: Tuple[int, ...]
    deadline_s: float                # commit must land before this
    state: str = "reserved"          # reserved | committed | aborted


@dataclass
class ArbitrationStats:
    """Deterministic arbitration counters."""
    reserves: int = 0
    reserve_conflicts: int = 0
    reserve_unleased: int = 0
    preemptions: int = 0
    commits: int = 0
    aborts: int = 0
    timeouts: int = 0
    retries: int = 0


class CrossShardArbiter:
    """Serialises cross-group placements via reserve/commit."""

    def __init__(self, reserve_timeout_s: float = 5.0,
                 commit_timeout_s: float = 5.0):
        if reserve_timeout_s <= 0 or commit_timeout_s <= 0:
            raise ValueError("arbitration timeouts must be positive")
        self.reserve_timeout_s = float(reserve_timeout_s)
        self.commit_timeout_s = float(commit_timeout_s)
        self.stats = ArbitrationStats()
        self._reservations: Dict[int, Reservation] = {}
        self._node_owner: Dict[int, int] = {}   # node -> arb_id
        self._next_arb = 1

    # -- phase 1: reserve ----------------------------------------------------------

    def reserve(self, coordinator: int, token: int,
                nodes: Tuple[int, ...], groups: Tuple[int, ...],
                now_s: float, group_vouched) -> Optional[Reservation]:
        """Try to pin ``nodes`` (touching ``groups``) for one
        placement.  ``group_vouched(group)`` must answer whether the
        group currently has a live, reachable owner able to approve
        the reserve.  Returns the reservation, or ``None`` when the
        caller must back off and retry."""
        self.stats.reserves += 1
        rec = get_recorder()
        for group in groups:
            if not group_vouched(group):
                self.stats.reserve_unleased += 1
                if rec.enabled:
                    rec.counter("ha", "arb_rejects", reason="unleased")
                return None
        holders = {self._node_owner[n] for n in nodes
                   if n in self._node_owner}
        if holders:
            self.stats.reserve_conflicts += 1
            # Fencing-token priority: the older token (smaller value)
            # wins.  If every standing holder is younger than us,
            # preempt them all; otherwise back off.
            contenders = sorted((self._reservations[a]
                                 for a in holders),
                                key=lambda r: r.arb_id)
            if all(token < r.token for r in contenders):
                for r in contenders:
                    self._teardown(r, "preempted")
                    self.stats.preemptions += 1
                    if rec.enabled:
                        rec.counter("ha", "arb_preemptions")
            else:
                if rec.enabled:
                    rec.counter("ha", "arb_rejects", reason="conflict")
                return None
        arb = Reservation(arb_id=self._next_arb,
                          coordinator=coordinator, token=token,
                          nodes=tuple(nodes), groups=tuple(groups),
                          deadline_s=now_s + self.reserve_timeout_s)
        self._next_arb += 1
        self._reservations[arb.arb_id] = arb
        for n in arb.nodes:
            self._node_owner[n] = arb.arb_id
        return arb

    # -- phase 2: commit / abort ---------------------------------------------------

    def commit(self, arb_id: int, now_s: float) -> bool:
        """Finish a reservation.  Fails (and tears the reserve down)
        when the per-phase deadline has passed on the virtual clock —
        the coordinator then retries from scratch with backoff."""
        arb = self._reservations.get(arb_id)
        if arb is None or arb.state != "reserved":
            return False
        if now_s > arb.deadline_s:
            self.stats.timeouts += 1
            self._teardown(arb, "timeout")
            rec = get_recorder()
            if rec.enabled:
                rec.counter("ha", "arb_timeouts")
            return False
        arb.state = "committed"
        del self._reservations[arb_id]
        for n in arb.nodes:
            self._node_owner.pop(n, None)
        self.stats.commits += 1
        return True

    def _teardown(self, arb: Reservation, why: str) -> None:
        arb.state = "aborted"
        self._reservations.pop(arb.arb_id, None)
        for n in arb.nodes:
            if self._node_owner.get(n) == arb.arb_id:
                del self._node_owner[n]
        self.stats.aborts += 1

    # -- shutdown / inspection -----------------------------------------------------

    def outstanding(self) -> List[Reservation]:
        """In-flight reservations, oldest first."""
        return sorted(self._reservations.values(),
                      key=lambda r: r.arb_id)

    def release_all(self) -> int:
        """Abort every in-flight reservation (plane shutdown): all
        reserved capacity must return to the pool."""
        victims = self.outstanding()
        for arb in victims:
            self._teardown(arb, "shutdown")
        return len(victims)
