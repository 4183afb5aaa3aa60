"""Write-batch drain ordering."""

import random

import pytest

from repro.mem_ctrl.batch_timing import order_write_batch
from repro.mem_ctrl.queues import WriteRequest
from repro.mem_ctrl.address_map import MemLocation

pytestmark = pytest.mark.filterwarnings("error")


def _batch(rng, n, ranks=4, banks=16, rows=64):
    return [WriteRequest(
        location=MemLocation(channel=0,
                             rank=rng.randrange(ranks),
                             bank=rng.randrange(banks),
                             row=rng.randrange(rows),
                             column=rng.randrange(128)),
        arrival_ns=float(i)) for i in range(n)]


def test_scalar_ordering_groups_and_round_robins():
    """Shape check on a hand-built batch: same-(rank,bank) writes come
    out row-sorted, and the first pass visits groups in first-seen
    order."""
    mk = lambda rank, bank, row: WriteRequest(
        location=MemLocation(0, rank, bank, row, 0), arrival_ns=0.0)
    a2, a1, b5, a1b = mk(0, 0, 2), mk(0, 0, 1), mk(1, 3, 5), mk(0, 0, 1)
    ordered = order_write_batch([a2, a1, b5, a1b])
    # Group (0,0) rows sorted stably (1, 1, 2), run {1,1} emitted whole,
    # then group (1,3)'s first run, then (0,0)'s second run.
    assert ordered == [a1, a1b, b5, a2]


def test_order_is_a_permutation():
    rng = random.Random(11)
    batch = _batch(rng, 400)
    ordered = order_write_batch(batch)
    assert sorted(map(id, ordered)) == sorted(map(id, batch))
