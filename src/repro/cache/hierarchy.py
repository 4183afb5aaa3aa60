"""Cache hierarchy assembly for the paper's two configurations.

Table III (real system) and Table IV (simulated system):

* Hierarchy1: 8 cores, 4.5 MB of L2+L3 per core, one memory channel.
* Hierarchy2: 16 cores, 2.375 MB of L2+L3 per core, four channels.

Both use 1 MB 16-way private L2 per core (12-cycle latency) and a
shared L3 (22 ns latency) making up the remainder of the per-core
budget.  The workload traces are generated at L2-reference granularity
(L1 behaviour is folded into each trace's compute gaps), so the
hierarchy's job is L2 -> L3 -> memory filtering plus writeback traffic.

:meth:`CacheHierarchy.warm` fills every cache to steady-state occupancy
and keeps the arrays that warm laid its lines out in, so consecutive
nodes with the same warm key restore them instead of redrawing them.
A restore is O(1): each cache builds a set from the arrays only when
the run first touches it.  A warm for a run that can make fewer
references to a cache than it has sets leaves that cache the same
way, with no live set.
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass
from typing import List, Optional, Tuple

from .cache import Cache

#: CPU frequency from Table IV, used to convert ns latencies to cycles.
CPU_GHZ = 3.1


@dataclass(frozen=True)
class HierarchyConfig:
    """Geometry and latency of one cache hierarchy."""
    name: str
    cores: int
    l2_bytes_per_core: int
    l2_assoc: int
    l2_latency_cycles: int
    l3_bytes_total: int
    l3_assoc: int
    l3_latency_cycles: int
    channels: int
    modules_per_channel: int = 2
    ranks_per_module: int = 2


def hierarchy1() -> HierarchyConfig:
    """Table III Hierarchy1: 8 cores, 4.5 MB (L2+L3)/core, 1 channel."""
    return HierarchyConfig(
        name="Hierarchy1", cores=8,
        l2_bytes_per_core=1 << 20, l2_assoc=16, l2_latency_cycles=12,
        l3_bytes_total=28 << 20, l3_assoc=14,
        l3_latency_cycles=int(22 * CPU_GHZ),   # 22 ns at 3.1 GHz
        channels=1)


def hierarchy2() -> HierarchyConfig:
    """Table III Hierarchy2: 16 cores, 2.375 MB (L2+L3)/core, 4 channels."""
    return HierarchyConfig(
        name="Hierarchy2", cores=16,
        l2_bytes_per_core=1 << 20, l2_assoc=16, l2_latency_cycles=12,
        l3_bytes_total=22 << 20, l3_assoc=11,
        l3_latency_cycles=int(22 * CPU_GHZ),
        channels=4)


#: Both hierarchies keyed by name, as iterated by the benches.
HIERARCHIES = {"Hierarchy1": hierarchy1, "Hierarchy2": hierarchy2}


@dataclass
class AccessOutcome:
    """Result of pushing one reference through the hierarchy."""
    level: str                     # 'L2', 'L3', or 'MEM'
    latency_cycles: int            # on-chip latency component
    memory_read: Optional[int]     # line address needing a DRAM read
    writebacks: List[int]          # dirty evictions headed to DRAM


#: The last warm state built in this process: its key and each
#: cache's :attr:`Cache.base` after the warm, L3 first.  Restored
#: caches share these arrays as their copy-on-touch base (read-only),
#: and a restored cache behaves bit-identically to a fresh warm, so no
#: result depends on which caller left it.  One entry (~6 MB of arrays
#: on Hierarchy2): a sweep visits each warm key in one run of cells.
_last_warm: Optional[Tuple[tuple, List[Tuple[array, bytes]]]] = None


class CacheHierarchy:
    """Private L2s in front of a shared L3."""

    def __init__(self, config: HierarchyConfig):
        self.config = config
        self.l2s = [Cache(config.l2_bytes_per_core, config.l2_assoc,
                          name="L2.{}".format(i))
                    for i in range(config.cores)]
        self.l3 = Cache(config.l3_bytes_total, config.l3_assoc, name="L3")

    def access(self, core: int, addr: int, is_write: bool) -> AccessOutcome:
        """Run one reference through L2 then L3.

        On an L3 miss the caller is responsible for issuing the memory
        read and calling :meth:`fill` when it completes.
        """
        cfg = self.config
        l2 = self.l2s[core]
        if l2.access(addr, is_write):
            return AccessOutcome("L2", cfg.l2_latency_cycles, None, [])
        writebacks: List[int] = []
        if self.l3.access(addr, False):
            wb = l2.fill(addr, dirty=is_write)
            if wb is not None:
                # L2 victim lands in L3 (exclusive-ish writeback path).
                wb3 = self.l3.fill(wb, dirty=True)
                if wb3 is not None:
                    writebacks.append(wb3)
            latency = cfg.l2_latency_cycles + cfg.l3_latency_cycles
            return AccessOutcome("L3", latency, None, writebacks)
        latency = cfg.l2_latency_cycles + cfg.l3_latency_cycles
        return AccessOutcome("MEM", latency, self.l3.line_address(addr),
                             writebacks)

    def fill(self, core: int, addr: int, is_write: bool) -> List[int]:
        """Install a returned memory line into L3 and the core's L2;
        returns dirty-eviction writeback addresses for DRAM."""
        writebacks: List[int] = []
        wb3 = self.l3.fill(addr, dirty=False)
        if wb3 is not None:
            writebacks.append(wb3)
        wb2 = self.l2s[core].fill(addr, dirty=is_write)
        if wb2 is not None:
            wb3 = self.l3.fill(wb2, dirty=True)
            if wb3 is not None:
                writebacks.append(wb3)
        return writebacks

    def fill_prefetch(self, addr: int) -> List[int]:
        """Install a prefetched line into L3 only."""
        wb = self.l3.fill(addr, dirty=False)
        return [wb] if wb is not None else []

    def clean_llc(self, limit: int) -> List[int]:
        """Hetero-DMR write-mode hook: clean up to ``limit``
        least-recently-used dirty LLC lines; returns their addresses."""
        return self.l3.clean_blocks(self.l3.dirty_lru_blocks(limit))

    def warm(self, seed: int, footprint_lines: int, write_fraction: float,
             clean_llc: bool = False,
             refs_per_core: Optional[int] = None) -> None:
        """Fill a fresh hierarchy's caches with footprint-resident lines.

        One ``random.Random(seed)`` stream warms the L3, then each L2,
        marking lines dirty with probability ``write_fraction``.  With
        ``clean_llc`` the L3 starts all-clean instead; its lines, and
        every draw, are the same.  The state depends only on the
        geometry and the arguments, so the arrays the last warm in the
        process laid its lines out in are kept.  When the key repeats,
        each cache gets them as the base it builds sets from on first
        touch (the clean L3 the same tags with ``dirty=None``), so the
        restore costs nothing per set.

        ``refs_per_core`` is the run length: an L2 can see that many
        references and the L3 ``cores`` times as many.  A cache that
        cannot be referenced once per set keeps no live set after a
        cold warm either (see :meth:`Cache.warm`); None keeps every
        warmed set live.  It selects speed and memory only, never the
        lines, so it is not part of the key.
        """
        global _last_warm
        key = (self.config, footprint_lines, seed, write_fraction)
        caches = [self.l3] + self.l2s
        last = _last_warm
        if last is not None and last[0] == key:
            for cache, (tags, dirty) in zip(caches, last[1]):
                cache.restore(tags, None if clean_llc and cache is self.l3
                              else dirty)
            return
        _last_warm = None
        rng = random.Random(seed)
        self.l3.warm(rng, write_fraction, footprint_lines,
                     None if refs_per_core is None
                     else refs_per_core * self.config.cores)
        for l2 in self.l2s:
            l2.warm(rng, write_fraction, footprint_lines, refs_per_core)
        _last_warm = (key, [cache.base for cache in caches])
        if clean_llc:
            self.l3.restore(self.l3.base[0])
