"""Design-policy interface between the memory controller and the memory
designs it can embody (Commercial Baseline, FMR, Hetero-DMR, ...).

The controller is design-agnostic; a policy object decides
* which flat ranks hold a read's data (its replica candidates, home copy
  first) and how :func:`serve_replica` falls back when none of them
  holds the row open,
* whether writes broadcast to multiple ranks in one bus transaction,
* what entering/leaving write mode costs (bus turnaround for a
  conventional system, 1 us frequency transitions for Hetero-DMR), and
* which extra blocks join a write batch (Hetero-DMR's LLC cleaning).

The concrete Hetero-DMR/FMR policies live in :mod:`repro.core`; this
module defines the interface plus the conventional default.
"""

from __future__ import annotations

from typing import List, Tuple

from ..dram.bank import Bank
from ..dram.channel import Channel
from ..dram.rank import Rank
from .queues import ReadRequest

#: Bus turnaround cost of a conventional read<->write switch (~20 ns
#: round trip, Section III-A1), charged half per direction.
CONVENTIONAL_TURNAROUND_NS = 10.0

#: One place a read's data lives: (flat rank, its Rank, the Bank).
Candidate = Tuple[int, Rank, Bank]


def serve_replica(cands: Tuple[Candidate, ...], row: int,
                  prefer_closed: bool) -> Candidate:
    """The replica rule: which candidate serves a read of ``row`` now.

    Prefer the replica whose row buffer already holds the row (FMR's
    "faster state"); otherwise the home copy, or with
    ``prefer_closed`` (FMR) a closed bank (activate without precharge),
    then the bank that frees up first.  Letting streams colonize the
    copy rank's banks is what gives FMR its effective row-buffer
    doubling.  A single candidate is always served.
    """
    for cand in cands:
        if cand[2].open_row == row:
            return cand
    if prefer_closed:
        for cand in cands:
            if cand[2].open_row is None:
                return cand
        return min(cands, key=lambda cand: cand[2].column_ready_ns)
    return cands[0]


class AccessPolicy:
    """Conventional (Commercial Baseline) behaviour; subclass hooks."""

    name = "baseline"
    #: Broadcast each write to all awake ranks in one bus transaction?
    broadcast_writes = False
    #: Route dirty evictions through the per-channel writeback cache?
    uses_writeback_cache = False
    #: :func:`serve_replica`'s fallback when no candidate holds the
    #: row open: the home copy, or (True) a closed bank, then the bank
    #: that frees up first.
    prefer_closed_replica = False

    def read_candidates(self, channel: Channel,
                        local_rank: int) -> Tuple[int, ...]:
        """Flat ranks holding the data of a read addressed to
        ``local_rank``, home copy first (the rank itself for the
        baseline).  Static: it depends only on the channel's layout."""
        return (local_rank % channel.rank_count(),)

    def replica_banks(self, channel: Channel, local_rank: int,
                      bank: int) -> Tuple[Candidate, ...]:
        """:meth:`read_candidates` with their Rank and Bank objects."""
        pairs = channel.all_ranks()
        return tuple((flat, pairs[flat][1], pairs[flat][1].banks[bank])
                     for flat in self.read_candidates(channel, local_rank))

    def read_rank(self, channel: Channel, request: ReadRequest,
                  now_ns: float) -> int:
        """Flat rank that serves this read given the row buffers now."""
        loc = request.location
        return serve_replica(self.replica_banks(channel, loc.rank, loc.bank),
                             loc.row, self.prefer_closed_replica)[0]

    def enter_write_mode(self, channel: Channel, now_ns: float) -> float:
        """Cost of switching the channel to write mode; returns the time
        writes may start."""
        return now_ns + CONVENTIONAL_TURNAROUND_NS

    def exit_write_mode(self, channel: Channel, now_ns: float) -> float:
        """Cost of switching back to read mode."""
        return now_ns + CONVENTIONAL_TURNAROUND_NS

    def write_batch_extra(self, now_ns: float) -> List[int]:
        """Extra line addresses to append to a write batch (Hetero-DMR's
        proactive LLC cleaning); empty for the baseline."""
        return []

    def on_read_complete(self, channel: Channel, request: ReadRequest,
                         now_ns: float) -> float:
        """Hook after a read's data burst (Hetero-DMR checks the copy's
        ECC here and pays the correction flow on a detected error).
        Returns the possibly-delayed completion time."""
        return now_ns

    def writes_per_transaction(self) -> int:
        """DRAM write bursts consumed per logical write (energy model):
        1 for baseline, 2 for broadcast to original+copy, 3 for
        Hetero-DMR+FMR's original+two copies."""
        return 1
