"""Batch schedulers: FCFS + EASY backfill, with the paper's ~30-line
margin-aware node-selection change (Section III-D3).

The default policy allocates any free nodes.  The margin-aware policy
first looks for the *fastest node group* that can satisfy the request
by itself, so jobs land on uniform-margin nodes and fast nodes are not
wasted inside slow jobs; when no single group suffices it falls back
to the fastest X free nodes overall — exactly the rule in the paper.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, insort
from itertools import islice
from typing import (Dict, Hashable, Iterable, List, Optional,
                    Sequence, Tuple)

from ..core.margin_selection import (NODE_MARGIN_BUCKETS,
                                     bucket_node_margin)
from .cluster import ClusterNode
from .job import Job


class FreeNodePool:
    """Free nodes per exact margin, each list sorted by an *order key*
    the caller supplies (the free-list order picks break ties by): the
    one implementation of the margin-aware rule, kept incrementally
    for every placement path.  Picks return keys; :meth:`take` removes
    them and returns their nodes."""

    def __init__(self, buckets: Sequence[int] = NODE_MARGIN_BUCKETS):
        self.buckets = tuple(buckets)
        #: Free nodes per bucket, fastest first (0 catches the rest).
        self.counts = dict.fromkeys(
            sorted(set(self.buckets) | {0}, reverse=True), 0)
        self._snap: Dict[int, int] = {}
        self._lists: Dict[int, List] = {}
        self._entry: Dict[Hashable, Tuple[object, int]] = {}

    @classmethod
    def of(cls, nodes: Sequence[ClusterNode],
           buckets: Sequence[int]) -> "FreeNodePool":
        """``nodes`` at their effective margins, keyed by position."""
        pool = cls(buckets)
        pool.add_all((node, node.effective_margin_mts, key)
                     for key, node in enumerate(nodes))
        return pool

    def __len__(self) -> int:
        return len(self._entry)

    def bucket(self, margin: int) -> int:
        """The class ``margin`` snaps into."""
        if margin not in self._snap:
            self._snap[margin] = bucket_node_margin(margin, self.buckets)
        return self._snap[margin]

    def add(self, node: object, margin: int, key: Hashable) -> None:
        """Free ``node`` at ``margin`` under the unique order ``key``."""
        self.add_all(((node, margin, key),))

    def add_all(self, entries: Iterable[Tuple[object, int, Hashable]]
                ) -> None:
        """Free each ``(node, margin, key)``.  A key that sorts after
        its margin's last key is appended (always, for increasing
        free-list keys); any other is inserted in order."""
        entry, lists, counts, snap = (self._entry, self._lists,
                                      self.counts, self._snap)
        for node, margin, key in entries:
            entry[key] = (node, margin)
            lst = lists.get(margin)
            if lst is None:
                lists[margin] = [key]
                self.bucket(margin)             # fills snap[margin]
            elif not lst or lst[-1] < key:
                lst.append(key)
            else:
                insort(lst, key)
            counts[snap[margin]] += 1

    def take(self, keys: Sequence[Hashable]) -> List[object]:
        """Remove ``keys`` from the pool; returns their nodes.

        Every pick takes a prefix of each margin's list, so a margin
        whose keys are that prefix loses them in one slice delete; any
        other key is found by bisection."""
        nodes = []
        per_margin: Dict[int, List] = {}
        for key in keys:
            node, margin = self._entry.pop(key)
            nodes.append(node)
            group = per_margin.get(margin)
            if group is None:
                per_margin[margin] = [key]
            else:
                group.append(key)
        for margin, group in per_margin.items():
            lst = self._lists[margin]
            if lst[:len(group)] == group:
                del lst[:len(group)]
            else:
                for key in group:
                    del lst[bisect_left(lst, key)]
            self.counts[self._snap[margin]] -= len(group)
        return nodes

    @staticmethod
    def _first(lists: List[List], count: int) -> List:
        if len(lists) == 1:
            return lists[0][:count]
        return list(islice(heapq.merge(*lists), count))

    def pick_margin_aware(self, count: int) -> Optional[List]:
        """The paper's rule: the first ``count`` keys of the fastest
        bucket that alone holds ``count`` free nodes, else the
        ``count`` fastest free nodes (key order within one margin).
        None when fewer than ``count`` nodes are free."""
        if count > len(self._entry):
            return None
        for bucket, free in self.counts.items():
            if free >= count:
                return self._first(
                    [lst for margin, lst in self._lists.items()
                     if self._snap[margin] == bucket], count)
        out: List = []
        for margin in sorted(self._lists, reverse=True):
            out += self._lists[margin][:count - len(out)]
        return out

    def pick_default(self, count: int) -> Optional[List]:
        """The first ``count`` keys in key order (None if short)."""
        if count > len(self._entry):
            return None
        return self._first(list(self._lists.values()), count)


class AllocationPolicy:
    """Margin-unaware default: the first free nodes, in free-list
    order (a node released by a finished job rejoins at the back)."""

    name = "default"
    buckets: Tuple[int, ...] = NODE_MARGIN_BUCKETS

    def pick(self, pool: FreeNodePool, count: int) -> Optional[List]:
        """Keys of the ``count`` nodes to allocate (None if short)."""
        return pool.pick_default(count)

    def select(self, free_nodes: List[ClusterNode],
               count: int) -> Optional[List[ClusterNode]]:
        """Pick ``count`` nodes from ``free_nodes`` (None if short)."""
        keys = self.pick(FreeNodePool.of(free_nodes, self.buckets), count)
        return None if keys is None else [free_nodes[k] for k in keys]


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
        for finish_s, job in sorted(running, key=lambda fr: fr[0]):
            if available >= head.nodes_requested:
                break
            available += job.nodes_requested
            now_s = finish_s
        spare = max(0, available - head.nodes_requested)
        return now_s, spare
