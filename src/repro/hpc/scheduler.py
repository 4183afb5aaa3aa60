"""Batch schedulers: FCFS + EASY backfill, with the paper's ~30-line
margin-aware node-selection change (Section III-D3).

The default policy allocates any free nodes.  The margin-aware policy
first looks for the *fastest node group* that can satisfy the request
by itself, so jobs land on uniform-margin nodes and fast nodes are not
wasted inside slow jobs; when no single group suffices it falls back
to the fastest X free nodes overall — exactly the rule in the paper.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import count as counting, groupby
from operator import itemgetter
from typing import (Dict, Hashable, Iterable, List, Optional,
                    Sequence, Tuple)

from ..core.margin_selection import (NODE_MARGIN_BUCKETS,
                                     bucket_node_margin)
from .cluster import ClusterNode
from .job import Job

#: ``(margin, length)`` per margin block, fastest margin first.
Cuts = Tuple[Tuple[int, int], ...]


class Pick(list):
    """Keys a :class:`FreeNodePool` picked, in pick order: the
    prefixes of its runs that ``cuts`` names, one ``(margin, length)``
    per run, fastest margin first.  The keys follow those prefixes one
    after another, or interleave them in key order (several margins of
    one bucket, or a default pick)."""

    __slots__ = ("cuts",)

    @property
    def min_margin(self) -> int:
        """The slowest margin the pick reaches into."""
        return self.cuts[-1][0]


class Allocation(list):
    """Nodes a :meth:`FreeNodePool.take` removed, in the order of the
    ``keys`` it was given, and the same nodes in margin blocks:
    ``block_keys`` and ``block_nodes`` hold block after block, keys
    ascending within each, as ``cuts`` lays them out."""

    __slots__ = ("keys", "cuts", "block_keys", "block_nodes")

    @property
    def min_margin(self) -> int:
        """The slowest margin the nodes were taken at."""
        return self.cuts[-1][0]

    def rekeyed(self, base: int) -> Tuple[Cuts, Sequence, Sequence]:
        """The blocks, for :meth:`FreeNodePool.add_blocks`, under fresh
        keys ``base``, ``base + 1``, ... in take order: freed so, the
        nodes rejoin a free list at its back in the order they were
        taken."""
        if len(self.cuts) == 1:
            return self.cuts, range(base, base + len(self)), self
        rank = dict(zip(self.keys, counting(base)))
        return (self.cuts, list(map(rank.__getitem__, self.block_keys)),
                self.block_nodes)


def _pick(keys: List, cuts: Cuts) -> Pick:
    pick = Pick(keys)
    pick.cuts = cuts
    return pick


class _Run:
    """One margin's free nodes: ``keys`` ascending and, in parallel,
    their ``nodes``, both live from index ``head`` on.  Taking a prefix
    moves ``head`` (see :meth:`FreeNodePool.take`); the dead part is
    dropped once it outgrows the live one, so a take never shifts the
    whole list."""

    __slots__ = ("keys", "nodes", "head")

    def __init__(self):
        self.keys: List = []
        self.nodes: List = []
        self.head = 0


class FreeNodePool:
    """Free nodes per exact margin, each run sorted by an *order key*
    the caller supplies (the free-list order picks break ties by): the
    one implementation of the margin-aware rule, kept incrementally
    for every placement path.

    Every pick is a prefix of each margin's run, so picking, taking
    and freeing a job's nodes cost a few steps per margin plus list
    slicing, not a step per node.  Picks return a :class:`Pick` of
    keys; :meth:`take` removes keys and returns an
    :class:`Allocation` of their nodes."""

    def __init__(self, buckets: Sequence[int] = NODE_MARGIN_BUCKETS):
        self.buckets = tuple(buckets)
        #: Free nodes per bucket, fastest first (0 catches the rest).
        self.counts = dict.fromkeys(
            sorted(set(self.buckets) | {0}, reverse=True), 0)
        self._snap: Dict[int, int] = {}
        self._runs: Dict[int, _Run] = {}
        #: Every margin seen, fastest first, and per bucket its margins.
        self._margins: List[int] = []
        self._in_bucket: Dict[int, List[int]] = {}
        self._size = 0

    @classmethod
    def of(cls, nodes: Sequence[ClusterNode],
           buckets: Sequence[int]) -> "FreeNodePool":
        """``nodes`` at their effective margins, keyed by position."""
        groups: Dict[int, Tuple[List, List]] = {}
        for key, node in enumerate(nodes):
            margin = node.effective_margin_mts
            group = groups.get(margin)
            if group is None:
                group = groups[margin] = ([], [])
            group[0].append(key)
            group[1].append(node)
        pool = cls(buckets)
        for margin, (keys, members) in groups.items():
            pool.add_blocks(((margin, len(keys)),), keys, members)
        return pool

    def __len__(self) -> int:
        return self._size

    def bucket(self, margin: int) -> int:
        """The class ``margin`` snaps into."""
        if margin not in self._snap:
            self._snap[margin] = bucket_node_margin(margin, self.buckets)
        return self._snap[margin]

    def _run(self, margin: int) -> _Run:
        """``margin``'s run, made on first use."""
        run = self._runs.get(margin)
        if run is None:
            run = self._runs[margin] = _Run()
            self._margins = sorted(self._runs, reverse=True)
            bucket = self.bucket(margin)
            self._in_bucket[bucket] = [m for m in self._margins
                                       if self._snap[m] == bucket]
        return run

    # -- freeing ------------------------------------------------------------------

    def add(self, node: object, margin: int, key: Hashable) -> None:
        """Free ``node`` at ``margin`` under the unique order ``key``."""
        self.add_blocks(((margin, 1),), (key,), (node,))

    def add_all(self, entries: Iterable[Tuple[object, int, Hashable]]
                ) -> None:
        """Free each ``(node, margin, key)``."""
        for node, margin, key in entries:
            self.add(node, margin, key)

    def add_blocks(self, cuts: Cuts, keys: Sequence,
                   nodes: Sequence) -> None:
        """Free ``nodes`` under ``keys`` block by block: for each
        ``(margin, length)`` of ``cuts``, the next ``length`` of each
        (keys ascending within a block), as an :class:`Allocation`
        holds them.  A block that falls between two neighbouring keys
        of its margin's run (past the last one, always, for increasing
        free-list keys) goes in with one slice assignment, into the
        dead part before the head when it fits there; any other is
        inserted key by key."""
        counts, snap, runs = self.counts, self._snap, self._runs
        start = 0
        for margin, length in cuts:
            end = start + length
            run = runs.get(margin) or self._run(margin)
            run_keys, run_nodes = run.keys, run.nodes
            at = bisect_left(run_keys, keys[start], run.head)
            if at == len(run_keys) or keys[end - 1] < run_keys[at]:
                if at == run.head >= length:
                    # Back into the dead part just before the head.
                    run.head = at = at - length
                    run_keys[at:at + length] = keys[start:end]
                    run_nodes[at:at + length] = nodes[start:end]
                else:
                    run_keys[at:at] = keys[start:end]
                    run_nodes[at:at] = nodes[start:end]
            else:
                for key, node in zip(keys[start:end], nodes[start:end]):
                    at = bisect_left(run_keys, key, at)
                    run_keys.insert(at, key)
                    run_nodes.insert(at, node)
            counts[snap[margin]] += length
            start = end
        self._size += start

    # -- taking -------------------------------------------------------------------

    def take(self, keys: Sequence[Hashable]) -> Allocation:
        """Remove ``keys`` from the pool; returns their nodes.

        A :class:`Pick` whose cuts are still prefixes of this pool's
        runs (always, for a pick this pool made and has not changed
        since; also for one from a replica holding the same free
        nodes) is taken by moving each run's head.  Any other key is
        found by bisection.  A key that is not free raises
        ``KeyError`` and leaves the pool as it was."""
        taken = self._cut(keys) if type(keys) is Pick else None
        if taken is None:
            return self._take_each(keys)
        counts, snap, runs = self.counts, self._snap, self._runs
        for margin, length in taken.cuts:
            run = runs[margin]
            head = run.head + length
            if 2 * head > len(run.keys):
                del run.keys[:head]
                del run.nodes[:head]
                head = 0
            run.head = head
            counts[snap[margin]] -= length
        self._size -= len(taken)
        return taken

    def _cut(self, pick: Pick) -> Optional[Allocation]:
        """``pick`` as one prefix slice per cut, when those slices
        still hold exactly its keys; else None."""
        block_keys, block_nodes = [], []
        for margin, length in pick.cuts:
            run = self._runs.get(margin)
            if run is None:
                return None
            end = run.head + length
            block_keys += run.keys[run.head:end]
            block_nodes += run.nodes[run.head:end]
        if block_keys == pick:
            taken = Allocation(block_nodes)
        elif sorted(block_keys) == pick:
            taken = Allocation(map(
                dict(zip(block_keys, block_nodes)).__getitem__, pick))
        else:
            return None
        taken.keys = pick
        taken.cuts = pick.cuts
        taken.block_keys = block_keys
        taken.block_nodes = block_nodes
        return taken

    def _margin_of(self, key: Hashable) -> int:
        """The margin whose run holds ``key`` (KeyError if none)."""
        for margin in self._runs:
            if self._find(key, margin)[0] is not None:
                return margin
        raise KeyError(key)

    def _find(self, key: Hashable, margin: int
              ) -> Tuple[Optional[_Run], int]:
        """``margin``'s run and the position of ``key`` in it, or
        ``(None, -1)`` when ``key`` is not free at ``margin``."""
        run = self._runs.get(margin)
        if run is not None:
            at = bisect_left(run.keys, key, run.head)
            if at < len(run.keys) and run.keys[at] == key:
                return run, at
        return None, -1

    def _remove(self, key: Hashable, margin: int) -> object:
        """Take the free ``key`` at ``margin``; returns its node."""
        run, at = self._find(key, margin)
        if run is None:
            raise KeyError(key)
        del run.keys[at]
        self.counts[self._snap[margin]] -= 1
        self._size -= 1
        return run.nodes.pop(at)

    def _take_each(self, keys: Sequence[Hashable]) -> Allocation:
        """Take any key set, each key found by bisection."""
        keys = list(keys)
        margins = list(map(self._margin_of, keys))
        for key, margin in zip(keys, margins):
            if self._find(key, margin)[0] is None:
                raise KeyError(key)
        if len(set(keys)) < len(keys):
            raise KeyError("a key given twice")
        nodes = list(map(self._remove, keys, margins))
        # Block order: fastest margin first, then key order.
        order = sorted(range(len(keys)), key=keys.__getitem__)
        order.sort(key=margins.__getitem__, reverse=True)
        taken = Allocation(nodes)
        taken.keys = keys
        taken.cuts = tuple(
            (margin, len(list(block)))
            for margin, block in groupby(order, margins.__getitem__))
        taken.block_keys = [keys[at] for at in order]
        taken.block_nodes = [nodes[at] for at in order]
        return taken

    # -- picking ------------------------------------------------------------------

    @staticmethod
    def _trivial(count: int) -> Optional[Pick]:
        """The pick for a count that needs no search: an empty one for
        0, None for one above the free nodes; a negative count
        raises."""
        if count < 0:
            raise ValueError(
                "cannot pick {} nodes: a node count must not be "
                "negative".format(count))
        return _pick([], ()) if count == 0 else None

    def _first(self, margins: List[int], count: int) -> Pick:
        """The first ``count`` (> 0) keys, in key order, of the
        non-empty runs at ``margins`` (fastest first): one sort of the
        runs' heads, then each run's share by bisection."""
        runs = self._runs
        if len(margins) == 1:
            run = runs[margins[0]]
            return _pick(run.keys[run.head:run.head + count],
                         ((margins[0], count),))
        heads = []
        for margin in margins:
            run = runs[margin]
            heads += run.keys[run.head:run.head + count]
        heads.sort()
        del heads[count:]
        cuts = []
        for margin in margins:
            run = runs[margin]
            length = bisect_right(run.keys, heads[-1], run.head) - run.head
            if length:
                cuts.append((margin, length))
        return _pick(heads, tuple(cuts))

    def _live(self, margins: List[int]) -> List[int]:
        """Those of ``margins`` with a free node."""
        runs = self._runs
        return [m for m in margins if len(runs[m].keys) > runs[m].head]

    def pick_margin_aware(self, count: int) -> Optional[Pick]:
        """The paper's rule: the first ``count`` keys of the fastest
        bucket that alone holds ``count`` free nodes, else the
        ``count`` fastest free nodes (key order within one margin).
        None when fewer than ``count`` nodes are free."""
        if count > self._size or count <= 0:
            return self._trivial(count)
        for bucket, free in self.counts.items():
            if free >= count:
                margins = self._in_bucket[bucket]
                return self._first(
                    margins if len(margins) == 1 else self._live(margins),
                    count)
        out, cuts = [], []
        for margin in self._margins:
            run = self._runs[margin]
            share = run.keys[run.head:run.head + count - len(out)]
            if share:
                out += share
                cuts.append((margin, len(share)))
                if len(out) == count:
                    break
        return _pick(out, tuple(cuts))

    def pick_default(self, count: int) -> Optional[Pick]:
        """The first ``count`` keys in key order (None if short)."""
        if count > self._size or count <= 0:
            return self._trivial(count)
        return self._first(self._live(self._margins), count)


class AllocationPolicy:
    """Margin-unaware default: the first free nodes, in free-list
    order (a node released by a finished job rejoins at the back)."""

    name = "default"
    buckets: Tuple[int, ...] = NODE_MARGIN_BUCKETS

    def pick(self, pool: FreeNodePool, count: int) -> Optional[List]:
        """Keys of the ``count`` nodes to allocate (None if short)."""
        return pool.pick_default(count)


class MarginAwareAllocationPolicy(AllocationPolicy):
    """Group nodes by margin; prefer one uniform fast group.

    Placement consults each node's *effective* margin, so a node whose
    degradation ladder has demoted it mid-campaign drops into a slower
    group (or out of margin placement entirely at spec) without the
    scheduler needing to know why.

    ``buckets`` sets the margin classes nodes are grouped into; the
    default is the paper's DDR4 evaluation buckets.  A fleet profiled
    on a different memory technology must pass its own buckets (e.g.
    MRDIMM's 2200/1600 MT/s rungs — against the DDR4 defaults every
    MRDIMM node would snap into the 800 class and grouping would be a
    no-op).
    """

    name = "margin-aware"

    def __init__(self,
                 buckets: Sequence[int] = NODE_MARGIN_BUCKETS):
        self.buckets = tuple(buckets)

    def pick(self, pool: FreeNodePool, count: int) -> Optional[List]:
        return pool.pick_margin_aware(count)


class EasyBackfillScheduler:
    """FCFS head-of-queue with EASY backfill.

    The head job reserves the earliest time enough nodes free up
    (the *shadow time*); queued jobs may jump ahead only if they fit
    in currently free nodes and either finish before the shadow time
    or use no more than the nodes left over at it.
    """

    def __init__(self, policy: Optional[AllocationPolicy] = None):
        self.policy = policy or AllocationPolicy()

    def schedule_pass(self, now_s: float, queue: List[Job],
                      free: FreeNodePool,
                      running: Iterable[Tuple[float, Job]]
                      ) -> List[Tuple[Job, List[ClusterNode]]]:
        """Start as many jobs as the discipline allows.

        Each started job's nodes are taken out of ``free``.
        ``running`` holds (finish_s, job) pairs for in-flight jobs.
        Returns (job, nodes) assignments; the caller updates the rest.
        """
        started: List[Tuple[Job, List[ClusterNode]]] = []
        # FCFS: start queue-head jobs while they fit.
        while queue:
            head = queue[0]
            keys = self.policy.pick(free, head.nodes_requested)
            if keys is None:
                break
            queue.pop(0)
            started.append((head, free.take(keys)))
        if not queue:
            return started
        # EASY backfill against the head job's reservation.
        head = queue[0]
        shadow_s, spare = self._reservation(
            now_s, head, len(free), running)
        for job in list(queue[1:]):
            if job.nodes_requested > len(free):
                continue
            finishes_early = now_s + job.walltime_limit_s <= shadow_s
            fits_spare = job.nodes_requested <= spare
            if not (finishes_early or fits_spare):
                continue
            keys = self.policy.pick(free, job.nodes_requested)
            if keys is None:
                continue
            queue.remove(job)
            if fits_spare:
                spare -= job.nodes_requested
            started.append((job, free.take(keys)))
        return started

    @staticmethod
    def _reservation(now_s: float, head: Job, free_count: int,
                     running: Iterable[Tuple[float, Job]]
                     ) -> Tuple[float, int]:
        """(shadow time, spare nodes at it) for the head job."""
        available = free_count
        # Plan with walltime limits, as EASY does: a running job is
        # assumed to hold its nodes until start + limit.
        for finish_s, job in sorted(running, key=itemgetter(0)):
            if available >= head.nodes_requested:
                break
            available += job.nodes_requested
            now_s = finish_s
        spare = max(0, available - head.nodes_requested)
        return now_s, spare
