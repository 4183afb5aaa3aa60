"""Memory channel model.

A channel bundles its installed modules, the shared command/data bus,
the frequency state machine, and the pair of timing settings (safe =
manufacturer specification, fast = spec + margin).  It also enforces
the central Hetero-DMR safety invariant: a module holding original
blocks may only be touched while the channel clock is in the SAFE
state — any other access raises, because in real hardware it could
corrupt the originals (Section III-A2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from .backend import DDR4_BACKEND, MemoryBackend
from .frequency import FrequencyMachine, FrequencyState
from .module import Module
from .rank import Rank
from .timing import TimingParameters, TimingTable, manufacturer_spec_3200


class SafetyViolation(Exception):
    """An original-holding module was accessed while the channel was not
    operating at manufacturer specification."""


#: Rank-to-rank switching bubble on the shared data bus, in bus clocks
#: (DQS hand-off between ranks; the reason fewer ranks per channel can
#: outperform more ranks for bus-bound workloads, cf. Figure 16).
#: This is the DDR4 value; channels consult their backend, which may
#: override it (MRDIMM's data buffer hides part of the hand-off).
RANK_SWITCH_CLOCKS = DDR4_BACKEND.rank_switch_clocks


@dataclass
class ChannelStats:
    """Per-channel access statistics."""
    reads: int = 0
    writes: int = 0
    broadcast_writes: int = 0
    bus_busy_ns: float = 0.0
    rank_switches: int = 0


@dataclass
class Channel:
    """One memory channel with its slots, bus, and clock."""
    index: int = 0
    modules: List[Module] = field(default_factory=list)
    safe_timing: TimingParameters = field(
        default_factory=manufacturer_spec_3200)
    fast_timing: Optional[TimingParameters] = None
    frequency: FrequencyMachine = field(default_factory=FrequencyMachine)
    bus_free_ns: float = 0.0
    stats: ChannelStats = field(default_factory=ChannelStats)
    enforce_safety: bool = True
    #: Memory-technology backend: timing-table construction, the
    #: rank-switch bubble, and mux topology all route through it.
    backend: MemoryBackend = DDR4_BACKEND

    @property
    def timing(self) -> TimingParameters:
        """Timing in force for the channel's current clock state."""
        if self.frequency.state is FrequencyState.FAST:
            if self.fast_timing is None:
                raise ValueError("channel has no fast timing configured")
            return self.fast_timing
        return self.safe_timing

    # Identity of the parameter set the cached table was derived from;
    # a frequency transition (or a degradation-ladder retune / direct
    # ``fast_timing`` assignment) changes the identity, which lazily
    # re-derives the table from the process-wide per-rung cache.
    _tt_params: Optional[TimingParameters] = None
    _tt: Optional[TimingTable] = None

    @property
    def timing_table(self) -> TimingTable:
        """Precomputed timing table for the current clock state.

        This is the access paths' view of :attr:`timing`: identical
        values, but derived costs (tCK, burst time, tRC) are computed
        once per rung instead of once per access.
        """
        params = self.timing
        if self._tt_params is not params:
            self._tt = self.backend.make_table(params)
            self._tt_params = params
        return self._tt

    # -- rank addressing ---------------------------------------------------------

    _rank_cache: Optional[List[Tuple[Module, Rank]]] = None
    _nranks: Optional[int] = None
    _last_bus_rank: Optional[Rank] = None

    def all_ranks(self) -> List[Tuple[Module, Rank]]:
        """Flattened (module, rank) pairs across all slots, cached."""
        if self._rank_cache is None:
            self._rank_cache = [(m, r) for m in self.modules
                                for r in m.ranks]
            self._nranks = len(self._rank_cache)
        return self._rank_cache

    def rank_count(self) -> int:
        if self._nranks is None:
            self.all_ranks()
        return self._nranks

    def locate_rank(self, flat_rank: int) -> Tuple[Module, Rank]:
        """Map a flat rank index to its (module, rank)."""
        pairs = self.all_ranks()
        if not 0 <= flat_rank < len(pairs):
            raise IndexError("rank {} out of range".format(flat_rank))
        return pairs[flat_rank]

    # -- access paths -------------------------------------------------------------

    def access(self, flat_rank: int, bank: int, row: int, now_ns: float,
               is_write: bool, broadcast: bool = False) -> float:
        """Issue a read/write; returns the time the data burst finishes.

        A ``broadcast`` write drives every awake rank at the same flat
        location in one bus transaction (FMR's write design reused by
        Hetero-DMR, Section III-A); it costs one burst of bus time.
        """
        module, rank = self.locate_rank(flat_rank)
        self._check_safety(module)
        timing = self.timing_table
        if broadcast:
            if not is_write:
                raise ValueError("only writes can be broadcast")
            # The broadcast address field selects the same local rank
            # and location in every awake module (Section III-A: "the
            # original block and its copy must reside in the same
            # location across different ranks in a channel").
            local_rank = module.ranks.index(rank)
            data_at = now_ns
            for mod in self.modules:
                if mod.in_self_refresh:
                    continue
                self._check_safety(mod)
                rnk = mod.ranks[local_rank % len(mod.ranks)]
                data_at = max(
                    data_at, rnk.access(bank, row, now_ns, timing, True))
            self.stats.broadcast_writes += 1
        else:
            data_at = rank.access(bank, row, now_ns, timing, is_write)
        burst_start = max(data_at, self.bus_free_ns)
        # Bursts from a different rank than the previous bus owner pay
        # the rank-to-rank switching bubble.
        if self._last_bus_rank is not None and \
                self._last_bus_rank is not rank:
            burst_start += self.backend.rank_switch_clocks * timing.tCK_ns
            self.stats.rank_switches += 1
        self._last_bus_rank = rank
        finish = burst_start + timing.burst_time_ns
        self.stats.bus_busy_ns += timing.burst_time_ns
        self.bus_free_ns = finish
        if is_write:
            self.stats.writes += 1
        else:
            self.stats.reads += 1
        return finish

    def _check_safety(self, module: Module) -> None:
        if not self.enforce_safety:
            return
        unsafe = self.frequency.state is not FrequencyState.SAFE
        if unsafe and not (module.holds_copies or module.in_self_refresh):
            raise SafetyViolation(
                "module {} holds originals but channel {} clock is {}"
                .format(module.module_id, self.index,
                        self.frequency.state.value))

    # -- frequency control ----------------------------------------------------------

    def retune_fast(self, fast_timing: Optional[TimingParameters]) -> None:
        """Swap the fast (read-mode) timing setting — the degradation
        ladder's demote/promote knob.  Only legal while the channel
        runs at specification: reprogramming MRS under a live
        out-of-spec clock could corrupt in-flight transfers."""
        if self.frequency.state is not FrequencyState.SAFE:
            raise SafetyViolation(
                "fast timing may only change while channel {} is SAFE "
                "(clock is {})".format(self.index,
                                       self.frequency.state.value))
        self.fast_timing = fast_timing

    def to_safe(self, now_ns: float) -> float:
        """Slow the channel to specification (Figure 9); wakes
        original-holding modules from self-refresh afterwards."""
        end = self.frequency.slow_down(max(now_ns, self.bus_free_ns))
        for module in self.modules:
            if module.in_self_refresh:
                end = max(end, module.exit_self_refresh(end))
        self.bus_free_ns = max(self.bus_free_ns, end)
        return end

    def to_fast(self, now_ns: float) -> float:
        """Speed the channel past specification (Figure 10); puts every
        module that does NOT hold copies into self-refresh first so its
        contents stay safe."""
        if self.fast_timing is None:
            raise ValueError("channel has no fast timing configured")
        t = max(now_ns, self.bus_free_ns)
        for module in self.modules:
            if not module.holds_copies:
                t = max(t, module.enter_self_refresh(t))
        end = self.frequency.speed_up(t)
        self.bus_free_ns = max(self.bus_free_ns, end)
        return end

    # -- margins -----------------------------------------------------------------
