"""DRAM rank model: a lockstep group of chips sharing bank state.

A rank owns its banks, enforces the four-activate window (tFAW) and the
activate-to-activate spacing (tRRD), carries refresh obligations, and
implements self-refresh entry/exit — the mechanism Hetero-DMR uses to
isolate original-holding modules from the unsafely fast bus clock
(Section III-A2).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, List

from .bank import Bank, Timing
from .timing import TimingParameters, timing_table

#: DDR4 banks per rank (4 bank groups x 4 banks).
BANKS_PER_RANK = 16

#: Self-refresh entry latency (tCKESR-ish, ns).
SELF_REFRESH_ENTER_NS = 10.0

#: Self-refresh exit latency (tXS: roughly tRFC + 10ns for 8Gb parts).
SELF_REFRESH_EXIT_NS = 360.0


class SelfRefreshViolation(Exception):
    """Raised when a command other than SRX reaches a self-refreshing
    rank — in real hardware that command would be ignored, but in the
    simulator it means the controller logic is broken."""


@dataclass
class Rank:
    """One rank: banks, tFAW/tRRD tracking, and self-refresh state."""
    index: int
    nbanks: int = BANKS_PER_RANK
    banks: List[Bank] = field(default_factory=list)
    in_self_refresh: bool = False
    self_refresh_since_ns: float = 0.0
    last_activate_ns: float = float("-inf")
    activate_window: Deque[float] = field(default_factory=deque)
    reads: int = 0
    writes: int = 0

    def __post_init__(self) -> None:
        if not self.banks:
            self.banks = [Bank(i) for i in range(self.nbanks)]

    # -- data access ----------------------------------------------------------

    def access(self, bank: int, row: int, now_ns: float,
               timing: Timing, is_write: bool) -> float:
        """Access ``(bank, row)``; returns first-data time on the bus."""
        if self.in_self_refresh:
            raise SelfRefreshViolation(
                "data access to rank {} during self-refresh".format(
                    self.index))
        bank_obj = self.banks[bank]
        start = now_ns
        if bank_obj.classify(row) != "hit":
            start = max(start, self._activate_gate(now_ns, timing))
        data_at = bank_obj.access(row, start, timing, is_write)
        if bank_obj.last_activate_ns >= now_ns:
            self._record_activate(bank_obj.last_activate_ns)
        if is_write:
            self.writes += 1
        else:
            self.reads += 1
        return data_at

    def _activate_gate(self, now_ns: float, timing: Timing) -> float:
        """Earliest time a new activate may issue (tRRD and tFAW)."""
        t = max(now_ns, self.last_activate_ns + timing.tRRD_ns)
        while self.activate_window and \
                self.activate_window[0] <= t - timing.tFAW_ns:
            self.activate_window.popleft()
        if len(self.activate_window) >= 4:
            t = max(t, self.activate_window[0] + timing.tFAW_ns)
        return t

    def _record_activate(self, t: float) -> None:
        self.last_activate_ns = max(self.last_activate_ns, t)
        self.activate_window.append(t)
        while len(self.activate_window) > 4:
            self.activate_window.popleft()

    # -- refresh / self-refresh -------------------------------------------------

    def enter_self_refresh(self, now_ns: float) -> float:
        """Put the rank in self-refresh; all banks are precharged first.
        Returns the time entry completes."""
        if self.in_self_refresh:
            return now_ns
        t = now_ns
        for bank in self.banks:
            t = max(t, bank.close(now_ns, _PRECHARGE_TIMING))
        self.in_self_refresh = True
        self.self_refresh_since_ns = t
        return t + SELF_REFRESH_ENTER_NS

    def exit_self_refresh(self, now_ns: float) -> float:
        """Leave self-refresh; returns the time the rank is usable."""
        if not self.in_self_refresh:
            return now_ns
        self.in_self_refresh = False
        ready = now_ns + SELF_REFRESH_EXIT_NS
        for bank in self.banks:
            bank.activate_ready_ns = max(bank.activate_ready_ns, ready)
        return ready

    def refresh(self, now_ns: float, timing: Timing) -> float:
        """External refresh (REF): closes all banks, blocks tRFC."""
        if self.in_self_refresh:
            raise SelfRefreshViolation(
                "external REF to rank {} during self-refresh".format(
                    self.index))
        end = now_ns + timing.tRFC_ns
        for bank in self.banks:
            bank.close(now_ns, timing)
            bank.activate_ready_ns = max(bank.activate_ready_ns, end)
        return end


# A fixed timing used only to close banks on self-refresh entry; the
# precharge period is data-rate independent at this granularity.
# Precomputed once (shared per-rung table) like every other hot-path
# timing view.
_PRECHARGE_TIMING = timing_table(TimingParameters(
    data_rate_mts=3200, tRCD_ns=13.75, tRP_ns=13.75, tRAS_ns=32.5,
    tREFI_ns=7800.0))
