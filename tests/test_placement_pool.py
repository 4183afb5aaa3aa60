"""The incremental free-node pool against the list-based placement
rules it replaced.

The oracle below is a verbatim copy of the list-based ``select`` rules
(margin-aware and default), of ``EasyBackfillScheduler.schedule_pass``
and of the ``SystemSimulator.run`` loop as they stood before placement
moved onto :class:`repro.hpc.FreeNodePool`.  The pool-driven paths must
start the same jobs at the same times on the same nodes, in the same
order, for random fleets (off-bucket margins, demoted nodes), DDR4 and
MRDIMM buckets, both policies, and release orders that are not index
order.
"""

import heapq
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.margin_selection import bucket_node_margin
from repro.hpc import (AllocationPolicy, Cluster, EasyBackfillScheduler,
                       FreeNodePool, Job, MarginAwareAllocationPolicy,
                       PerformanceModel, SystemSimulator)
from repro.service.daemon import BucketPool

DDR4 = (800, 600, 0)
MRDIMM = (2200, 1600, 0)
#: On-bucket and off-bucket margins of both technologies.
MARGINS = (0, 200, 400, 600, 800, 1000, 1200, 1600, 1800, 2200, 2400)
#: Few enough that several free nodes share one margin's list.
FEW_MARGINS = (0, 600, 1000, 1600)


# -- oracle: the list-based rules ---------------------------------------------


def oracle_default_select(free_nodes, count):
    if len(free_nodes) < count:
        return None
    return free_nodes[:count]


def oracle_margin_aware_select(free_nodes, count, buckets):
    if len(free_nodes) < count:
        return None
    groups = {}
    for node in free_nodes:
        groups.setdefault(
            bucket_node_margin(node.effective_margin_mts, buckets),
            []).append(node)
    # Fastest group that alone satisfies the request.
    for margin in sorted(groups, reverse=True):
        if len(groups[margin]) >= count:
            return groups[margin][:count]
    # Fall back: the fastest ``count`` free nodes overall.
    ranked = sorted(free_nodes, key=lambda n: -n.effective_margin_mts)
    return ranked[:count]


def oracle_select(policy):
    if isinstance(policy, MarginAwareAllocationPolicy):
        return lambda free, count: oracle_margin_aware_select(
            free, count, policy.buckets)
    return oracle_default_select


def oracle_schedule_pass(select, now_s, queue, free_nodes, running):
    started = []
    free = list(free_nodes)
    while queue:
        head = queue[0]
        nodes = select(free, head.nodes_requested)
        if nodes is None:
            break
        queue.pop(0)
        taken = {id(n) for n in nodes}
        free = [n for n in free if id(n) not in taken]
        started.append((head, nodes))
    if not queue:
        return started
    head = queue[0]
    shadow_s, spare = EasyBackfillScheduler._reservation(
        now_s, head, len(free), running)
    for job in list(queue[1:]):
        if job.nodes_requested > len(free):
            continue
        finishes_early = now_s + job.walltime_limit_s <= shadow_s
        fits_spare = job.nodes_requested <= spare
        if not (finishes_early or fits_spare):
            continue
        nodes = select(free, job.nodes_requested)
        if nodes is None:
            continue
        queue.remove(job)
        taken = {id(n) for n in nodes}
        free = [n for n in free if id(n) not in taken]
        if fits_spare:
            spare -= job.nodes_requested
        started.append((job, nodes))
    return started


def oracle_run(cluster, select, performance, jobs):
    jobs = [Job(j.job_id, j.submit_s, j.nodes_requested,
                j.base_runtime_s, j.memory_utilization,
                j.requested_walltime_s)
            for j in jobs]
    events = []
    for i, job in enumerate(jobs):
        heapq.heappush(events, (job.submit_s, i, "submit", job))
    queue = []
    free = list(cluster.nodes)
    running = []
    seq = len(jobs)
    while events:
        now, _, kind, job = heapq.heappop(events)
        if kind == "submit":
            queue.append(job)
        else:
            job.finish_s = now
            running = [(f, j) for f, j in running if j is not job]
            free.extend(job.allocated_nodes)
        for started, nodes in oracle_schedule_pass(select, now, queue,
                                                   free, running):
            node_set = set(id(n) for n in nodes)
            free = [n for n in free if id(n) not in node_set]
            started.allocated_nodes = nodes
            started.start_s = now
            min_margin = min(n.effective_margin_mts for n in nodes)
            factor = performance.speedup(
                min_margin, started.memory_utilization)
            started.runtime_s = started.base_runtime_s / factor
            finish = now + started.runtime_s
            running.append((finish, started))
            heapq.heappush(events, (finish, seq, "finish", started))
            seq += 1
    return jobs


# -- strategies ---------------------------------------------------------------


@st.composite
def fleets(draw, min_size=1, max_size=40):
    """A cluster with random margins, some nodes demoted."""
    margins = draw(st.lists(st.sampled_from(MARGINS),
                            min_size=min_size, max_size=max_size))
    cluster = Cluster.from_margins(margins)
    for node in cluster.nodes:
        if draw(st.booleans()) and draw(st.booleans()):
            cluster.demote_node(node.index, draw(st.sampled_from(MARGINS)))
    return cluster


policies = st.sampled_from([
    AllocationPolicy(), MarginAwareAllocationPolicy(DDR4),
    MarginAwareAllocationPolicy(MRDIMM)])


def _ids(nodes):
    return None if nodes is None else [n.index for n in nodes]


# -- picks --------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(fleets(), policies, st.randoms(use_true_random=False),
       st.lists(st.integers(1, 12), min_size=1, max_size=25))
def test_incremental_pool_picks_match_oracle(cluster, policy, rng,
                                             widths):
    """Take and release through one pool in a shuffled, non-index
    order; every pick equals the oracle's over the equivalent free
    list (released nodes at the back)."""
    select = oracle_select(policy)
    free = list(cluster.nodes)
    rng.shuffle(free)
    pool = FreeNodePool.of(free, policy.buckets)
    key = len(free)
    held = []
    for width in widths:
        if held and rng.random() < 0.4:
            released = held.pop(rng.randrange(len(held)))
            rng.shuffle(released)
            for node in released:
                pool.add(node, node.effective_margin_mts, key)
                key += 1
            free.extend(released)
        expected = select(free, width)
        keys = policy.pick(pool, width)
        if expected is None:
            assert keys is None
            continue
        chosen = pool.take(keys)
        assert _ids(chosen) == _ids(expected)
        free = [n for n in free if n not in expected]
        held.append(chosen)
        assert len(pool) == len(free)


@settings(max_examples=200, deadline=None)
@given(fleets(), policies, st.randoms(use_true_random=False),
       st.integers(0, 45))
def test_select_matches_oracle(cluster, policy, rng, count):
    free = list(cluster.nodes)
    rng.shuffle(free)
    assert _ids(policy.select(free, count)) == \
        _ids(oracle_select(policy)(free, count))


# -- schedule_pass and the simulator ------------------------------------------


@st.composite
def jobs(draw, max_width, count=st.integers(1, 30)):
    out = []
    submit = 0.0
    for i in range(draw(count)):
        submit += draw(st.sampled_from((0.0, 5.0, 60.0, 300.0)))
        runtime = float(draw(st.integers(10, 2000)))
        out.append(Job(
            job_id=i, submit_s=submit,
            nodes_requested=draw(st.integers(1, max_width)),
            base_runtime_s=runtime,
            memory_utilization=draw(st.sampled_from((0.1, 0.3, 0.6))),
            requested_walltime_s=runtime * draw(
                st.sampled_from((1.0, 1.5, 3.0)))))
    return out


@settings(max_examples=150, deadline=None)
@given(st.data(), fleets(min_size=4), policies,
       st.randoms(use_true_random=False))
def test_schedule_pass_matches_oracle(data, cluster, policy, rng):
    free = list(cluster.nodes)
    rng.shuffle(free)
    queue = data.draw(jobs(len(cluster.nodes) + 2))
    running = [(float(rng.randint(1, 3000)), job) for job in
               data.draw(jobs(len(cluster.nodes), st.integers(0, 4)))]
    oracle_queue = list(queue)
    expected = oracle_schedule_pass(oracle_select(policy), 0.0,
                                    oracle_queue, free, running)
    pool = FreeNodePool.of(free, policy.buckets)
    got = EasyBackfillScheduler(policy).schedule_pass(
        0.0, queue, pool, running)
    assert [(j.job_id, _ids(n)) for j, n in got] == \
        [(j.job_id, _ids(n)) for j, n in expected]
    assert queue == oracle_queue
    assert len(pool) == len(free) - sum(len(n) for _, n in got)


def _stream(result_jobs):
    return [(j.job_id, j.start_s, j.finish_s, _ids(j.allocated_nodes))
            for j in result_jobs]


@settings(max_examples=120, deadline=None)
@given(st.data(), fleets(min_size=4, max_size=32), policies)
def test_system_run_matches_oracle(data, cluster, policy):
    """Job for job: same start times, same node ids, same order."""
    trace = data.draw(jobs(len(cluster.nodes), st.integers(1, 60)))
    model = PerformanceModel(speedups={
        2200: {"under_25": 1.3, "25_to_50": 1.2, "over_50": 1.0},
        800: {"under_25": 1.12, "25_to_50": 1.12, "over_50": 1.0},
        600: {"under_25": 1.09, "25_to_50": 1.09, "over_50": 1.0},
        0: {"under_25": 1.0, "25_to_50": 1.0, "over_50": 1.0}})
    got = SystemSimulator(cluster, EasyBackfillScheduler(policy),
                          model).run(trace)
    expected = oracle_run(cluster, oracle_select(policy), model, trace)
    assert _stream(got.jobs) == _stream(expected)


def test_default_policy_follows_release_order_not_index_order():
    """The default scheduler hands out nodes in free-list order: a
    node released by a finished job rejoins at the back, so the next
    job takes the never-used node 2 first, not node 0."""
    cluster = Cluster.from_margins([800, 600, 0])
    trace = [Job(0, 0.0, 2, 100.0, 0.1), Job(1, 200.0, 1, 100.0, 0.1)]
    result = SystemSimulator(cluster, EasyBackfillScheduler()).run(trace)
    assert [_ids(j.allocated_nodes) for j in result.jobs] == [[0, 1], [2]]


def test_pool_fallback_ranks_off_bucket_margins():
    """No bucket alone fits: the fastest nodes overall, 1000 before
    800 before 400 before 200, ties in key order.  When one bucket
    fits, its nodes come in key order whatever their exact margin."""
    margins = [200, 1000, 400, 800, 1000, 200]
    pool = FreeNodePool.of(Cluster.from_margins(margins).nodes, DDR4)
    assert pool.pick_margin_aware(5) == [1, 4, 3, 2, 0]
    assert pool.pick_margin_aware(3) == [1, 3, 4]     # bucket 800 fits
    assert pool.pick_margin_aware(7) is None
    assert pool.pick_default(4) == [0, 1, 2, 3]
    assert pool.bucket(1000) == 800 and pool.bucket(400) == 0


def test_seeded_trace_matches_oracle_on_both_technologies():
    """One larger seeded trace per technology and policy."""
    from repro.hpc import TraceConfig, generate_trace
    trace = generate_trace(TraceConfig(total_nodes=64, job_count=300,
                                       seed=5))
    rng = random.Random(5)
    margins = [rng.choice(MARGINS) for _ in range(64)]
    for policy in (AllocationPolicy(), MarginAwareAllocationPolicy(DDR4),
                   MarginAwareAllocationPolicy(MRDIMM)):
        cluster = Cluster.from_margins(margins)
        cluster.demote_node(3, 0)
        cluster.demote_node(7, 600)
        model = PerformanceModel()
        got = SystemSimulator(cluster, EasyBackfillScheduler(policy),
                              model).run(trace)
        expected = oracle_run(cluster, oracle_select(policy), model,
                              trace)
        assert _stream(got.jobs) == _stream(expected)


# -- pool invariants under every mutation ---------------------------------------


def _check_pool(pool, free, margin_of):
    """Each per-margin list is the sorted free keys at that margin, and
    the bucket counts equal a recount."""
    expected = {}
    for node in free:
        expected.setdefault(margin_of[node], []).append(node)
    assert {m: lst for m, lst in pool._lists.items() if lst} == \
        {m: sorted(keys) for m, keys in expected.items()}
    recount = dict.fromkeys(pool.counts, 0)
    for node in free:
        recount[bucket_node_margin(margin_of[node], pool.buckets)] += 1
    assert pool.counts == recount
    assert len(pool) == len(free)


@settings(max_examples=200, deadline=None)
@given(st.data(), st.sampled_from([DDR4, MRDIMM]),
       st.randoms(use_true_random=False))
def test_pool_lists_and_counts_hold_under_interleaved_mutation(
        data, buckets, rng):
    """Through the daemon's pool: a fleet added in key order, then
    adds out of key order (new nodes below the largest key, releases
    in allocation order), takes of a pick and of an arbitrary key
    subset in any order, and margin changes of free and busy nodes."""
    pool = BucketPool(buckets)
    margin_of, free, held = {}, set(), {}
    for node, margin in enumerate(data.draw(st.lists(
            st.sampled_from(FEW_MARGINS), max_size=24))):
        pool.set_margin(node, margin)
        margin_of[node] = margin
        free.add(node)
    job = 0
    steps = data.draw(st.lists(st.sampled_from(
        ("new", "release", "pick", "subset", "margin")),
        min_size=1, max_size=40))
    for step in steps:
        if step == "new":
            node = data.draw(st.integers(0, 48))
            if node in margin_of:
                continue
            margin = data.draw(st.sampled_from(FEW_MARGINS))
            pool.set_margin(node, margin)
            margin_of[node] = margin
            free.add(node)
        elif step == "release" and held:
            job_id = rng.choice(sorted(held))
            nodes = held.pop(job_id)
            assert pool.release(job_id) == nodes
            free.update(nodes)
        elif step in ("pick", "subset") and free:
            if step == "pick":
                width = data.draw(st.integers(1, len(free)))
                keys = (pool.pick_margin_aware(width)
                        if data.draw(st.booleans())
                        else pool.pick_default(width))
            else:
                keys = data.draw(st.lists(st.sampled_from(sorted(free)),
                                          min_size=1, unique=True))
            pool.allocate(keys, job)
            held[job] = tuple(keys)
            job += 1
            free.difference_update(keys)
        elif step == "margin" and margin_of:
            node = rng.choice(sorted(margin_of))
            margin = data.draw(st.sampled_from(FEW_MARGINS))
            pool.set_margin(node, margin)
            margin_of[node] = margin
        _check_pool(pool, free, margin_of)
