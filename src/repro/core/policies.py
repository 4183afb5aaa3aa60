"""Memory-design policies plugged into the channel controller.

Four designs from Section IV-A:

* :class:`BaselinePolicy` — Commercial Baseline (including the 128 KB
  per-channel writeback cache the paper adds for fairness),
* :class:`FmrPolicy` — the free-memory-replication baseline [64]:
  copies in a second rank, reads pick the replica whose row buffer is
  hot, broadcast writes, spec timing,
* :class:`HeteroDMRPolicy` — copies in the channel's Free Module read
  unsafely fast; write mode slows the channel to spec via 1 us
  frequency transitions and drains 100x batches; detected copy errors
  pay the slow-down/read-original/overwrite/speed-up flow, and
* :class:`HeteroFmrPolicy` — Hetero-DMR+FMR: two copies inside the
  Free Module, row-buffer-aware selection between them, still fast.
"""

from __future__ import annotations

import random
from typing import Callable, List, Optional, Tuple

from ..dram.channel import Channel
from ..dram.frequency import FrequencyState
from ..mem_ctrl.policy import AccessPolicy, CONVENTIONAL_TURNAROUND_NS
from ..mem_ctrl.queues import ReadRequest
from .config import HeteroDMRConfig
from .epoch_guard import EpochGuard


class BaselinePolicy(AccessPolicy):
    """Commercial Baseline with the fairness writeback cache."""

    name = "baseline"
    uses_writeback_cache = True


class PlainBaselinePolicy(AccessPolicy):
    """Commercial system without the writeback cache (ablation)."""

    name = "baseline-no-wbcache"
    uses_writeback_cache = False


class FmrPolicy(AccessPolicy):
    """FMR [64]: rank-level replication for latency only."""

    name = "fmr"
    broadcast_writes = True
    uses_writeback_cache = True
    prefer_closed_replica = True

    def read_candidates(self, channel: Channel,
                        local_rank: int) -> Tuple[int, ...]:
        """The original rank and its replica half a channel away."""
        nranks = channel.rank_count()
        base = local_rank % nranks
        return (base, (base + nranks // 2) % nranks)

    def writes_per_transaction(self) -> int:
        return 2


class HeteroDMRPolicy(AccessPolicy):
    """Hetero-DMR (Section III)."""

    name = "hetero-dmr"
    broadcast_writes = True
    uses_writeback_cache = True

    def __init__(self, config: Optional[HeteroDMRConfig] = None,
                 free_module_index: int = 1,
                 llc_clean_hook: Optional[Callable[[int], List[int]]] = None,
                 seed: int = 7):
        self.config = config or HeteroDMRConfig()
        self.free_module_index = free_module_index
        self.llc_clean_hook = llc_clean_hook
        self.epoch_guard = EpochGuard(
            epoch_hours=self.config.epoch_hours,
            threshold=self.config.epoch_error_threshold)
        self.corrections = 0
        self.correction_time_ns = 0.0
        self._rng = random.Random(seed)

    # -- replica routing ---------------------------------------------------------

    def _free_rank_base(self, channel: Channel) -> int:
        base = 0
        for module in channel.modules[:self.free_module_index]:
            base += len(module.ranks)
        return base

    def read_candidates(self, channel: Channel,
                        local_rank: int) -> Tuple[int, ...]:
        """Copies live at the same location in the Free Module, so reads
        touch only that module's ranks (Section III-A2)."""
        nfree = len(channel.modules[self.free_module_index].ranks)
        return (self._free_rank_base(channel) + local_rank % nfree,)

    # -- write mode: frequency transitions ------------------------------------------

    def enter_write_mode(self, channel: Channel, now_ns: float) -> float:
        """Figure 9 walk: slow the whole channel to spec and wake the
        original-holding modules before any write issues."""
        return channel.to_safe(now_ns)

    def exit_write_mode(self, channel: Channel, now_ns: float) -> float:
        """Figure 10 walk: self-refresh the originals, speed back up —
        unless the epoch's error budget is exhausted, in which case the
        channel stays at specification until the next epoch re-arms
        (Section III-B)."""
        if not self.epoch_guard.margin_allowed(now_ns):
            return now_ns
        return channel.to_fast(now_ns)

    def write_batch_extra(self, now_ns: float) -> List[int]:
        """Proactively clean LLC dirty-LRU lines to reach the 100x
        batch (Section III-E)."""
        if self.llc_clean_hook is None:
            return []
        return self.llc_clean_hook(self.config.write_batch_target)

    # -- error handling -----------------------------------------------------------------

    def on_read_complete(self, channel: Channel, request: ReadRequest,
                         now_ns: float) -> float:
        """Detect-only check of the copy; a detected error pays the
        correction flow of Section III-C: slow the channel to spec,
        read the original, overwrite the copy, speed back up."""
        if self.config.read_error_rate <= 0.0:
            return now_ns
        if channel.frequency.state is not FrequencyState.FAST:
            return now_ns   # copies read at spec cannot margin-error
        if self._rng.random() >= self.config.read_error_rate:
            return now_ns
        self.epoch_guard.record_error(now_ns)
        t = channel.to_safe(now_ns)
        # Read the original block at spec, then overwrite the copy.
        safe = channel.safe_timing
        t += safe.tRCD_ns + safe.tCAS_ns + safe.burst_time_ns   # read
        t += safe.burst_time_ns                                 # rewrite
        if self.epoch_guard.margin_allowed(t):
            t = channel.to_fast(t)
        self.corrections += 1
        self.correction_time_ns += t - now_ns
        return t

    def writes_per_transaction(self) -> int:
        return 2


class HeteroFmrPolicy(HeteroDMRPolicy):
    """Hetero-DMR+FMR: two copies in the Free Module, selected by
    row-buffer state, both read unsafely fast (Section IV-A)."""

    name = "hetero-dmr+fmr"

    def read_candidates(self, channel: Channel,
                        local_rank: int) -> Tuple[int, ...]:
        """The home copy and the next copy in the Free Module.  FMR's
        contribution on top of Hetero-DMR is picking whichever copy is
        "in the faster state" — i.e., whose row buffer holds the row;
        the home copy serves everything else."""
        base = self._free_rank_base(channel)
        nfree = len(channel.modules[self.free_module_index].ranks)
        home = local_rank % nfree
        return (base + home, base + (home + 1) % nfree)

    def writes_per_transaction(self) -> int:
        return 3
