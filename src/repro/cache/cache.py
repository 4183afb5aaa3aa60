"""Set-associative writeback cache with LRU replacement.

The model is tag-only (no data payloads) because the performance
simulator needs hit/miss/writeback behaviour, not contents.  Each set
is an insertion-ordered dict mapping tag -> dirty flag; moving a key to
the end on access implements LRU cheaply.

Two Hetero-DMR-specific hooks extend the plain cache:

* :meth:`dirty_lru_blocks` / :meth:`clean_blocks` support the proactive
  LLC cleaning that builds 100x larger write batches (Section III-E):
  least-recently-used dirty lines are written out and marked clean
  because "they are unlikely to be re-written prior to eviction".
* :attr:`CacheStats.cleaned_rewrites` counts lines that were cleaned
  and then dirtied again — the source of the <1% extra DRAM traffic in
  Figure 14.

:meth:`Cache.snapshot` / :meth:`Cache.restore` copy a fully warmed
cache's lines out to compact arrays and back, so a warm state can be
rebuilt without replaying its random draws.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import chain, islice, repeat
from typing import Dict, List, Optional, Tuple

#: Cache line size in bytes throughout the system.
LINE_BYTES = 64


@dataclass
class CacheStats:
    """Hit/miss/writeback counters for one cache."""
    hits: int = 0
    misses: int = 0
    writebacks: int = 0
    cleaned: int = 0
    cleaned_rewrites: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0


class Cache:
    """One level of a writeback cache hierarchy."""

    def __init__(self, size_bytes: int, assoc: int,
                 line_bytes: int = LINE_BYTES, name: str = "cache"):
        if size_bytes <= 0 or assoc <= 0 or line_bytes <= 0:
            raise ValueError("cache geometry must be positive")
        nsets = size_bytes // (assoc * line_bytes)
        if nsets == 0:
            raise ValueError("cache too small for its associativity")
        # Power-of-two sets keep index extraction a mask.
        if nsets & (nsets - 1):
            raise ValueError("number of sets must be a power of two "
                             "(got {})".format(nsets))
        self.name = name
        self.size_bytes = size_bytes
        self.assoc = assoc
        self.line_bytes = line_bytes
        self.nsets = nsets
        self._set_mask = nsets - 1
        self._line_shift = line_bytes.bit_length() - 1
        # set index -> {tag: dirty}
        self._sets: List[Dict[int, bool]] = [dict() for _ in range(nsets)]
        # (set index, tag) of lines that were proactively cleaned and
        # are still resident clean
        self._cleaned: set = set()
        self.stats = CacheStats()

    # -- address helpers -----------------------------------------------------

    def _index_tag(self, addr: int) -> Tuple[int, int]:
        line = addr >> self._line_shift
        return line & self._set_mask, line >> (self.nsets.bit_length() - 1)

    def line_address(self, addr: int) -> int:
        """Align ``addr`` down to its cache-line address."""
        return (addr >> self._line_shift) << self._line_shift

    # -- main paths ------------------------------------------------------------

    def access(self, addr: int, is_write: bool) -> bool:
        """Look up ``addr``; returns True on hit.  A write hit marks the
        line dirty; misses do NOT allocate (call :meth:`fill`)."""
        idx, tag = self._index_tag(addr)
        ways = self._sets[idx]
        if tag in ways:
            dirty = ways.pop(tag)
            if is_write:
                if not dirty and (idx, tag) in self._cleaned:
                    self.stats.cleaned_rewrites += 1
                    self._cleaned.discard((idx, tag))
                dirty = True
            ways[tag] = dirty
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        return False

    def fill(self, addr: int, dirty: bool = False) -> Optional[int]:
        """Insert the line for ``addr``; returns the address of an
        evicted dirty line needing writeback, else None."""
        idx, tag = self._index_tag(addr)
        ways = self._sets[idx]
        victim_addr = None
        if tag in ways:
            # Refill over an existing line just updates dirtiness.
            dirty = ways.pop(tag) or dirty
        elif len(ways) >= self.assoc:
            victim_tag, victim_dirty = next(iter(ways.items()))
            del ways[victim_tag]
            if self._cleaned:
                self._cleaned.discard((idx, victim_tag))
            if victim_dirty:
                self.stats.writebacks += 1
                victim_addr = self._rebuild(idx, victim_tag)
        ways[tag] = dirty
        return victim_addr

    def invalidate(self, addr: int) -> bool:
        """Drop the line for ``addr`` if present (no writeback)."""
        idx, tag = self._index_tag(addr)
        self._cleaned.discard((idx, tag))
        return self._sets[idx].pop(tag, None) is not None

    def contains(self, addr: int) -> bool:
        idx, tag = self._index_tag(addr)
        return tag in self._sets[idx]

    def is_dirty(self, addr: int) -> bool:
        idx, tag = self._index_tag(addr)
        return self._sets[idx].get(tag, False)

    def warm(self, rng, dirty_prob: float = 0.0,
             max_line: Optional[int] = None) -> int:
        """Fill every way of every set with random resident lines.

        Used to start simulations at steady-state occupancy (the paper
        warms caches before measuring).  ``max_line`` bounds the line
        addresses to a workload footprint.  Returns lines inserted.

        Each way draws its tag as ``rng.randrange(limit)`` would for a
        :class:`random.Random` (``getrandbits`` of the limit's bit
        length, redrawn while out of range), then one ``rng.random()``
        for its dirty bit, so the lines and the generator's final
        state match a ``randrange``/``random`` loop draw for draw.
        """
        limit = 1 << 24
        if max_line is not None:
            limit = max(1, max_line >> (self.nsets.bit_length() - 1))
        if limit < self.assoc:
            raise ValueError("{} distinct tags cannot fill {} ways".format(
                limit, self.assoc))
        bits = limit.bit_length()
        getrandbits = rng.getrandbits
        rand = rng.random
        assoc = self.assoc
        inserted = 0
        for ways in self._sets:
            missing = assoc - len(ways)
            inserted += missing
            while missing > 0:
                tag = getrandbits(bits)
                while tag >= limit:
                    tag = getrandbits(bits)
                if tag in ways:
                    continue
                ways[tag] = rand() < dirty_prob
                missing -= 1
        return inserted

    def snapshot(self) -> Tuple[array, bytes]:
        """Copy a full cache's lines out as set-major, LRU-first tags
        (``array('q')``) and one dirty byte per line."""
        tags = array("q", chain.from_iterable(self._sets))
        # No set holds more than ``assoc`` lines, so the total decides.
        if len(tags) != self.nsets * self.assoc:
            raise ValueError("only a full cache can be snapshotted")
        return tags, bytes(chain.from_iterable(map(dict.values,
                                                   self._sets)))

    def restore(self, tags: array, dirty: Optional[bytes] = None) -> None:
        """Replace every set with the lines of a :meth:`snapshot` of a
        cache of the same geometry; ``dirty=None`` restores them all
        clean."""
        if len(tags) != self.nsets * self.assoc:
            raise ValueError("snapshot does not match this cache's "
                             "geometry")
        assoc = self.assoc
        lines = zip(tags, repeat(False) if dirty is None
                    else map(bool, dirty))
        for ways in self._sets:
            ways.clear()
            ways.update(islice(lines, assoc))
        self._cleaned.clear()

    # -- Hetero-DMR cleaning hooks ------------------------------------------------

    def dirty_line_count(self) -> int:
        return sum(sum(1 for d in ways.values() if d)
                   for ways in self._sets)

    def dirty_lru_blocks(self, limit: int) -> List[int]:
        """Addresses of up to ``limit`` dirty lines, least-recently-used
        first (round-robining across sets in LRU order)."""
        out: List[int] = []
        # Per set, dict order is LRU -> MRU; walk depth-first by recency.
        for depth in range(self.assoc):
            for idx, ways in enumerate(self._sets):
                items = list(ways.items())
                if depth < len(items) and items[depth][1]:
                    out.append(self._rebuild(idx, items[depth][0]))
                    if len(out) >= limit:
                        return out
        return out

    def clean_blocks(self, addrs: List[int]) -> List[int]:
        """Mark the given resident dirty lines clean (their values were
        written to memory); returns the addresses actually cleaned."""
        cleaned = []
        for addr in addrs:
            idx, tag = self._index_tag(addr)
            ways = self._sets[idx]
            if ways.get(tag):
                ways[tag] = False
                self._cleaned.add((idx, tag))
                cleaned.append(addr)
                self.stats.cleaned += 1
        return cleaned

    # -- internals -----------------------------------------------------------------

    def _rebuild(self, idx: int, tag: int) -> int:
        line = (tag << (self.nsets.bit_length() - 1)) | idx
        return line << self._line_shift
