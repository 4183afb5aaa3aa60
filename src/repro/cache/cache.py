"""Set-associative writeback cache with LRU replacement.

The model is tag-only (no data payloads) because the performance
simulator needs hit/miss/writeback behaviour, not contents.  Each set
is an insertion-ordered dict mapping tag -> dirty flag; moving a key to
the end on access implements LRU cheaply.  A set's dict is built on
its first use (copy-on-touch), from the lines :meth:`Cache.restore`
was given, or empty.

Two Hetero-DMR-specific hooks extend the plain cache:

* :meth:`dirty_lru_blocks` / :meth:`clean_blocks` support the proactive
  LLC cleaning that builds 100x larger write batches (Section III-E):
  least-recently-used dirty lines are written out and marked clean
  because "they are unlikely to be re-written prior to eviction".
* :attr:`CacheStats.cleaned_rewrites` counts lines that were cleaned
  and then dirtied again — the source of the <1% extra DRAM traffic in
  Figure 14.

:meth:`Cache.warm` lays the lines it draws out as compact set-major
arrays (:attr:`Cache.base`), and :meth:`Cache.restore` makes such
arrays a cache's base in O(1), so a warm state is neither redrawn nor
rebuilt.  A run too short to reach every set keeps only the arrays
from its own warm as well, so it builds just the sets it touches.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import chain
from typing import Dict, List, Optional, Tuple

#: Cache line size in bytes throughout the system.
LINE_BYTES = 64

#: Sets :meth:`Cache.warm` draws before copying their lines out.
_WARM_BLOCK_SETS = 256


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
    """One level of a writeback cache hierarchy.

    ``_sets[idx]`` is None until set ``idx`` is first used; then it is
    built from the base slice ``[idx * assoc, (idx + 1) * assoc)`` of
    the last :meth:`warm` or :meth:`restore` (empty before either).
    Per-line paths build the one set they touch; whole-cache walks
    build every set first.
    """

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
        self._tag_shift = nsets.bit_length() - 1
        # set index -> {tag: dirty}, or None while the set is untouched
        self._sets: List[Optional[Dict[int, bool]]] = [None] * nsets
        # (set-major LRU-first tags, dirty bytes or None for all-clean)
        # that untouched sets are built from
        self._base: Optional[Tuple[array, Optional[bytes]]] = None
        # (set index, tag) of lines that were proactively cleaned and
        # are still resident clean
        self._cleaned: set = set()
        self.stats = CacheStats()

    # -- address helpers -----------------------------------------------------

    def _index_tag(self, addr: int) -> Tuple[int, int]:
        line = addr >> self._line_shift
        return line & self._set_mask, line >> self._tag_shift

    def line_address(self, addr: int) -> int:
        """Align ``addr`` down to its cache-line address."""
        return (addr >> self._line_shift) << self._line_shift

    # -- main paths ------------------------------------------------------------

    def access(self, addr: int, is_write: bool) -> bool:
        """Look up ``addr``; returns True on hit.  A write hit marks the
        line dirty; misses do NOT allocate (call :meth:`fill`)."""
        line = addr >> self._line_shift        # _index_tag, inlined
        idx = line & self._set_mask
        tag = line >> self._tag_shift
        ways = self._sets[idx]
        if ways is None:
            ways = self._touch(idx)
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
        line = addr >> self._line_shift        # _index_tag, inlined
        idx = line & self._set_mask
        tag = line >> self._tag_shift
        ways = self._sets[idx]
        if ways is None:
            ways = self._touch(idx)
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
        ways = self._sets[idx]
        if ways is None:
            ways = self._touch(idx)
        return ways.pop(tag, None) is not None

    def contains(self, addr: int) -> bool:
        idx, tag = self._index_tag(addr)
        ways = self._sets[idx]
        if ways is None:
            ways = self._touch(idx)
        return tag in ways

    def warm(self, rng, dirty_prob: float = 0.0,
             max_line: Optional[int] = None,
             refs: Optional[int] = None) -> int:
        """Fill every way of every set with random resident lines.

        Used to start simulations at steady-state occupancy (the paper
        warms caches before measuring).  ``max_line`` bounds the line
        addresses to a workload footprint.  Returns lines inserted.

        Each way draws its tag as ``rng.randrange(limit)`` would for a
        :class:`random.Random` (``getrandbits`` of the limit's bit
        length, redrawn while out of range), then one ``rng.random()``
        for its dirty bit, so the lines and the generator's final
        state match a ``randrange``/``random`` loop draw for draw.

        The lines are copied out to the set-major arrays that become
        :attr:`base` a block of sets at a time.  ``refs`` is how many
        references the coming run can make to this cache (None: no
        bound).  When it is below the set count the run cannot touch
        every set, so the drawn dicts are dropped once copied and a set
        is built again from the base on first use, as after
        :meth:`restore`; otherwise the dicts stay live.  Both leave the
        same lines.
        """
        limit = 1 << 24
        if max_line is not None:
            limit = max(1, max_line >> self._tag_shift)
        if limit < self.assoc:
            raise ValueError("{} distinct tags cannot fill {} ways".format(
                limit, self.assoc))
        bits = limit.bit_length()
        getrandbits = rng.getrandbits
        rand = rng.random
        assoc = self.assoc
        live = refs is None or refs >= self.nsets
        fresh = self._base is None
        sets = self._sets
        # Sized up front: growing the arrays would copy them and raise
        # the peak.
        tags = array("q", [0]) * (self.nsets * assoc)
        dirty = bytearray(self.nsets * assoc)
        inserted = 0
        # Copying per block, not per set, keeps the per-set work in C;
        # a short run's warm holds at most one block of dicts.
        for lo in range(0, self.nsets, _WARM_BLOCK_SETS):
            block = sets[lo:lo + _WARM_BLOCK_SETS]
            for i, ways in enumerate(block):
                if ways is None:
                    ways = block[i] = {} if fresh else self._touch(lo + i)
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
            lines = slice(lo * assoc, (lo + len(block)) * assoc)
            tags[lines] = array("q", chain.from_iterable(block))
            dirty[lines] = chain.from_iterable(map(dict.values, block))
            sets[lo:lo + len(block)] = block if live else [None] * len(block)
        self._base = (tags, bytes(dirty))
        return inserted

    @property
    def base(self) -> Optional[Tuple[array, Optional[bytes]]]:
        """The set-major, LRU-first tags (``array('q')``) and dirty
        bytes (None: all clean) that untouched sets are built from:
        the lines of the last :meth:`warm` or :meth:`restore`.  Read
        only."""
        return self._base

    def restore(self, tags: array, dirty: Optional[bytes] = None) -> None:
        """Replace every set with the lines of the :attr:`base` of a
        warmed cache of the same geometry; ``dirty=None`` restores them
        all clean.

        O(1): the arrays become the base each set is built from on its
        first use, so they must not be mutated afterwards (a base's
        bytes never are, and its tags are only read).
        """
        if len(tags) != self.nsets * self.assoc:
            raise ValueError("base does not match this cache's "
                             "geometry")
        self._base = (tags, dirty)
        self._sets = [None] * self.nsets
        self._cleaned.clear()

    def sets(self) -> List[Dict[int, bool]]:
        """Every set's ``{tag: dirty}`` dict in LRU -> MRU order,
        building the untouched ones first.  The dicts are the live
        sets."""
        sets = self._sets
        if self._base is None:          # nothing restored: fresh sets
            for idx, ways in enumerate(sets):
                if ways is None:
                    sets[idx] = {}
        else:
            touch = self._touch
            for idx, ways in enumerate(sets):
                if ways is None:
                    touch(idx)
        return sets

    # -- Hetero-DMR cleaning hooks ------------------------------------------------

    def dirty_lru_blocks(self, limit: int) -> List[int]:
        """Addresses of up to ``limit`` dirty lines, least-recently-used
        first (round-robining across sets in LRU order)."""
        out: List[int] = []
        sets = self.sets()
        # Per set, dict order is LRU -> MRU; walk depth-first by recency.
        for depth in range(self.assoc):
            for idx, ways in enumerate(sets):
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
            if ways is None:
                ways = self._touch(idx)
            if ways.get(tag):
                ways[tag] = False
                self._cleaned.add((idx, tag))
                cleaned.append(addr)
                self.stats.cleaned += 1
        return cleaned

    # -- internals -----------------------------------------------------------------

    def _touch(self, idx: int) -> Dict[int, bool]:
        """Build untouched set ``idx`` from its base slice."""
        base = self._base
        if base is None:
            ways: Dict[int, bool] = {}
        else:
            tags, dirty = base
            lo = idx * self.assoc
            hi = lo + self.assoc
            if dirty is None:
                ways = dict.fromkeys(tags[lo:hi], False)
            else:
                ways = dict(zip(tags[lo:hi], map(bool, dirty[lo:hi])))
        self._sets[idx] = ways
        return ways

    def _rebuild(self, idx: int, tag: int) -> int:
        line = (tag << self._tag_shift) | idx
        return line << self._line_shift
