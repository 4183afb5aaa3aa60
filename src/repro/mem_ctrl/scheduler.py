"""FR-FCFS command scheduling with bank fairness (Table IV).

First-Ready First-Come-First-Served: among queued reads, prefer one
that hits an open row (first-ready); fall back to the oldest request.
To keep a stream of row hits from starving other banks ("FR-FCFS
scheduling policy with bank fairness"), at most ``fairness_cap``
consecutive row-hit picks may target the same bank before the oldest
request is forced.  Demand reads outrank prefetches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..dram.channel import Channel
from .page_policy import PagePolicy
from .policy import Candidate, serve_replica
from .queues import ReadRequest


@dataclass
class SchedulerStats:
    row_hit_picks: int = 0
    oldest_picks: int = 0
    fairness_overrides: int = 0


class FrFcfsScheduler:
    """Selects the next read to issue from a channel's read queue."""

    def __init__(self, page_policy: Optional[PagePolicy] = None,
                 fairness_cap: int = 8, scan_window: int = 64,
                 prefer_closed_replica: bool = False):
        if fairness_cap <= 0:
            raise ValueError("fairness_cap must be positive")
        if scan_window <= 0:
            raise ValueError("scan_window must be positive")
        self.page_policy = page_policy or PagePolicy()
        self.fairness_cap = fairness_cap
        self.scan_window = scan_window
        #: The design policy's :func:`serve_replica` fallback.
        self.prefer_closed_replica = prefer_closed_replica
        self._last_bank: Optional[tuple] = None
        self._streak = 0
        self.stats = SchedulerStats()

    def serve(self, req: ReadRequest) -> Candidate:
        """The (flat rank, Rank, Bank) that serves ``req`` given the row
        buffers now."""
        return serve_replica(req.candidates, req.location.row,
                             self.prefer_closed_replica)

    def pick(self, queue: List[ReadRequest], channel: Channel,
             now_ns: float) -> Optional[int]:
        """Return the queue index of the request to issue, or None when
        the queue is empty.  Each request is judged on the replica that
        would serve it (its ``candidates`` through
        :func:`serve_replica`).

        The queue is arrival-ordered (the event loop processes
        submissions in time order), so the oldest request is index 0;
        row hits are searched within the first ``scan_window`` entries,
        matching real schedulers' bounded associative lookup.
        """
        if not queue:
            return None
        hit_idx: Optional[int] = None
        oldest_idx = 0
        prefetch_hit_idx: Optional[int] = None
        other_rank_hit_idx: Optional[int] = None
        bus_rank = channel._last_bus_rank
        # Hot loop: index the queue in place (no per-pick slice copy),
        # take each request's replica banks as resolved at submission,
        # and apply the page policy's one rule inline.
        close_after = self.page_policy.close_after_ns
        prefer_closed = self.prefer_closed_replica
        limit = len(queue)
        if limit > self.scan_window:
            limit = self.scan_window
        for i in range(limit):
            req = queue[i]
            row = req.location.row
            cands = req.candidates
            if len(cands) == 1:
                _, rank, bank = cands[0]
            else:
                _, rank, bank = serve_replica(cands, row, prefer_closed)
            open_row = bank.open_row
            if open_row is not None and \
                    now_ns - bank.last_access_ns > close_after:
                bank.open_row = open_row = None
            if open_row == row:
                if req.is_prefetch:
                    # Prefetch row hits yield to any demand hit.
                    if prefetch_hit_idx is None:
                        prefetch_hit_idx = i
                    continue
                if bus_rank is None or rank is bus_rank:
                    # Same-rank hit: no bus switching bubble.
                    hit_idx = i
                    break
                if other_rank_hit_idx is None:
                    other_rank_hit_idx = i
        if hit_idx is None:
            hit_idx = other_rank_hit_idx
        if hit_idx is None:
            hit_idx = prefetch_hit_idx
        # The fairness key re-resolves the replica now: the scan's own
        # page-policy closes can change which copy serves a request.
        if hit_idx is not None:
            req = queue[hit_idx]
            key = (self.serve(req)[0], req.location.bank)
            if key == self._last_bank and self._streak >= self.fairness_cap:
                self.stats.fairness_overrides += 1
                self._note(queue[oldest_idx])
                self.stats.oldest_picks += 1
                return oldest_idx
            self._streak = self._streak + 1 if key == self._last_bank else 1
            self._last_bank = key
            self.stats.row_hit_picks += 1
            return hit_idx
        self._note(queue[oldest_idx])
        self.stats.oldest_picks += 1
        return oldest_idx

    def _note(self, req: ReadRequest) -> None:
        key = (self.serve(req)[0], req.location.bank)
        if key == self._last_bank:
            self._streak += 1
        else:
            self._last_bank, self._streak = key, 1
