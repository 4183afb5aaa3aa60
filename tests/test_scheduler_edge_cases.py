"""Edge-case tests for ``EasyBackfillScheduler.schedule_pass``: empty
inputs and backfill candidates that would collide with the head-job
reservation."""

from repro.hpc import (Cluster, EasyBackfillScheduler, FreeNodePool, Job,
                       MarginAwareAllocationPolicy)


def _job(job_id, nodes, walltime, submit=0.0):
    return Job(job_id=job_id, submit_s=submit, nodes_requested=nodes,
               base_runtime_s=walltime, memory_utilization=0.2,
               requested_walltime_s=walltime)


def _free(count, margin=800):
    return FreeNodePool.of(Cluster.from_margins([margin] * count).nodes,
                           MarginAwareAllocationPolicy().buckets)


def test_empty_queue_starts_nothing():
    sched = EasyBackfillScheduler()
    assert sched.schedule_pass(0.0, [], _free(4), []) == []


def test_zero_free_nodes_starts_nothing_and_keeps_queue():
    sched = EasyBackfillScheduler()
    queue = [_job(1, 2, 100.0), _job(2, 1, 50.0)]
    running = [(100.0, _job(9, 4, 100.0))]
    assert sched.schedule_pass(0.0, queue, FreeNodePool(), running) == []
    assert [j.job_id for j in queue] == [1, 2]


def test_backfill_candidate_colliding_with_reservation_is_skipped():
    """Head needs 4 nodes: 2 free now + 2 released at t=100 (shadow
    time), leaving 0 spare.  A 2-node candidate with a 200 s walltime
    would still hold its nodes at the shadow time — it must wait; a
    50 s candidate finishes before it and backfills."""
    sched = EasyBackfillScheduler()
    blocker = _job(9, 2, 100.0)
    running = [(100.0, blocker)]
    head = _job(1, 4, 300.0)
    collider = _job(2, 2, 200.0)
    fits = _job(3, 2, 50.0)
    queue = [head, collider, fits]
    started = sched.schedule_pass(0.0, queue, _free(2), running)
    assert [job.job_id for job, _ in started] == [3]
    assert [j.job_id for j in queue] == [1, 2]


def test_backfill_into_spare_nodes_at_shadow_time():
    """With spare nodes left over at the shadow time, a long candidate
    may run on them even though it outlives the reservation."""
    sched = EasyBackfillScheduler()
    running = [(100.0, _job(9, 3, 100.0))]
    head = _job(1, 4, 300.0)
    long_narrow = _job(2, 1, 500.0)
    queue = [head, long_narrow]
    started = sched.schedule_pass(0.0, queue, _free(2), running)
    assert [job.job_id for job, _ in started] == [2]
    assert [j.job_id for j in queue] == [1]


def test_spare_budget_decrements_across_backfills():
    """Two long candidates cannot both squeeze into one spare node."""
    sched = EasyBackfillScheduler()
    running = [(100.0, _job(9, 3, 100.0))]
    head = _job(1, 4, 300.0)
    first = _job(2, 1, 500.0)
    second = _job(3, 1, 500.0)
    queue = [head, first, second]
    started = sched.schedule_pass(0.0, queue, _free(2), running)
    assert [job.job_id for job, _ in started] == [2]
    assert [j.job_id for j in queue] == [1, 3]


def test_head_job_starts_when_it_fits_margin_aware():
    sched = EasyBackfillScheduler(MarginAwareAllocationPolicy())
    free = FreeNodePool.of(Cluster.from_margins([800, 600, 800, 600]).nodes,
                           MarginAwareAllocationPolicy().buckets)
    queue = [_job(1, 2, 100.0)]
    started = sched.schedule_pass(0.0, queue, free, [])
    assert len(started) == 1
    job, nodes = started[0]
    assert job.job_id == 1
    # Uniform fast group preferred over mixed margins.
    assert {n.effective_margin_mts for n in nodes} == {800}
    assert queue == []