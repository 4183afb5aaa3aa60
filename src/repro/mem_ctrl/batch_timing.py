"""Write-drain ordering for the cycle engine's write mode.

Entering write mode, the controller drains the accumulated write
batch "first-ready": writes grouped per (rank, bank), each group
sorted by row, and whole same-row runs emitted round-robin across the
groups so row cycles overlap while the data bus stays packed.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, TypeVar

W = TypeVar("W")


def order_write_batch(batch: Sequence[W]) -> List[W]:
    """First-ready drain order for a write batch: per-(rank, bank)
    groups in first-appearance order, rows sorted stably within each
    group, whole same-row runs emitted round-robin across groups.

    Items need ``.location.rank`` / ``.location.bank`` /
    ``.location.row`` attributes (``WriteRequest`` in production).
    Returns a new list; the input is not modified.
    """
    groups: Dict[tuple, List[W]] = {}
    for wr in batch:
        groups.setdefault((wr.location.rank, wr.location.bank),
                          []).append(wr)
    for group in groups.values():
        group.sort(key=lambda w: w.location.row)
    ordered: List[W] = []
    cursors = {key: 0 for key in groups}
    while len(ordered) < len(batch):
        for key, group in groups.items():
            i = cursors[key]
            if i >= len(group):
                continue
            # Emit the whole same-row run for this bank, then move on.
            row = group[i].location.row
            while i < len(group) and group[i].location.row == row:
                ordered.append(group[i])
                i += 1
            cursors[key] = i
    return ordered
