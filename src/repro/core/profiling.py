"""Margin profiling (Section III-E, "Determining Margins").

Hetero-DMR profiles a node's memory margins at boot and re-profiles
periodically when the node is idle (borrowing from REAPER [65]).
Crucially, profiling is needed only for *performance*: if the profile
is stale — errors got worse than profiled because of limited profiling
time or a temperature spike — the originals are still operated at
specification, so correctness never depends on the profile.

:class:`NodeMarginProfiler` runs the characterization testbench over a
node's modules and derives the channel- and node-level margins the
runtime should use, optionally de-rated by a guard band.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from ..characterization.modules import SyntheticModule
from ..characterization.testbench import BootFailure, TestMachine
from .backoff import BackoffPolicy
from .margin_selection import (bucket_node_margin, channel_margin,
                               node_margin, snap_to_step)


@dataclass
class NodeProfile:
    """One profiling pass over a node's channels."""
    per_module_margins: Dict[str, int]
    channel_margins: List[int]
    node_margin_mts: int
    profiled_at_s: float

    @property
    def margin_bucket(self) -> int:
        return bucket_node_margin(self.node_margin_mts)


@dataclass
class ProfileOutcome:
    """Result of a bounded-retry profiling attempt sequence."""
    profile: Optional[NodeProfile]     # None when every attempt failed
    attempts: int
    elapsed_s: float                   # includes backoff waits

    @property
    def succeeded(self) -> bool:
        return self.profile is not None


class NodeMarginProfiler:
    """Boot-time / idle-time margin profiling for one node."""

    def __init__(self, machine: Optional[TestMachine] = None,
                 guard_band_mts: int = 0,
                 clock: Optional[Callable[[], float]] = None):
        if guard_band_mts < 0:
            raise ValueError("guard band must be non-negative")
        self.machine = machine or TestMachine()
        self.guard_band_mts = guard_band_mts
        self.last_profile: Optional[NodeProfile] = None
        self.profiles_run = 0
        self.failed_attempts = 0
        # Profile stamps order profiles (registry freshness); wall clock steps backwards under NTP, so the
        # default stamp source is the monotonic clock, and stamps are
        # clamped to the high-water mark so ordering can never invert
        # even with an injected (or explicitly passed) time source.
        self._clock = clock if clock is not None else _time.monotonic
        self._last_stamp_s = float("-inf")

    def profile(self, channels: Sequence[Sequence[SyntheticModule]],
                now_s: Optional[float] = None) -> NodeProfile:
        """Measure every module of every channel; the node margin is
        the minimum over margin-aware channel margins, minus the guard
        band (snapped back to the 200 MT/s grid)."""
        per_module: Dict[str, int] = {}
        ch_margins: List[int] = []
        for modules in channels:
            margins = []
            for module in modules:
                measured = self.machine.measure_margin(module)
                per_module[module.module_id] = measured.margin_mts
                margins.append(measured.margin_mts)
            ch_margins.append(channel_margin(margins, margin_aware=True))
        node = node_margin(ch_margins)
        node = snap_to_step(max(0, node - self.guard_band_mts))
        stamp = now_s if now_s is not None else self._clock()
        if stamp < self._last_stamp_s:
            stamp = self._last_stamp_s
        self._last_stamp_s = stamp
        profile = NodeProfile(
            per_module_margins=per_module,
            channel_margins=ch_margins,
            node_margin_mts=node,
            profiled_at_s=stamp)
        self.last_profile = profile
        self.profiles_run += 1
        return profile

    def profile_with_retry(self, channels: Sequence[Sequence[SyntheticModule]],
                           now_s: float, max_retries: int = 3,
                           backoff_s: float = 60.0) -> ProfileOutcome:
        """Profile with bounded retry and exponential backoff.

        Re-profiling happens while a node is live; a module that fails
        to boot at a candidate rate (thermal excursion in progress,
        marginal hardware) aborts the pass.  Each failed attempt waits
        ``backoff_s`` (doubling every retry) before trying again; after
        ``max_retries`` retries the sequence gives up and the caller
        must keep operating at specification — correctness never
        depended on the profile (Section III-E)."""
        if max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if backoff_s <= 0:
            raise ValueError("backoff_s must be positive")
        policy = BackoffPolicy(base=backoff_s)
        t = now_s
        attempts = 0
        while True:
            attempts += 1
            try:
                profile = self.profile(channels, now_s=t)
                return ProfileOutcome(profile, attempts, t - now_s)
            except BootFailure:
                self.failed_attempts += 1
                if attempts > max_retries:
                    return ProfileOutcome(None, attempts, t - now_s)
                t += policy.delay(attempts)
