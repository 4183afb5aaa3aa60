"""Plain-text rendering of the paper's tables and figure data.

Every benchmark target prints its rows through these helpers so the
regenerated output has a uniform, diffable format.
"""

from __future__ import annotations

from typing import Dict, List, Sequence


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]],
                 title: str = "") -> str:
    """Render an ASCII table with aligned columns."""
    str_rows = [[_cell(v) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError("row width does not match header width")
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    sep = "-+-".join("-" * w for w in widths)
    lines: List[str] = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep)
    for row in str_rows:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def format_bar_chart(points: Dict[str, float], width: int = 40,
                     fmt: str = "{:.3f}") -> str:
    """Render a horizontal ASCII bar chart, one bar per key."""
    if not points:
        return "(empty)"
    peak = max(abs(v) for v in points.values()) or 1.0
    label_w = max(len(k) for k in points)
    lines = []
    for key, value in points.items():
        bar = "#" * max(0, round(abs(value) / peak * width))
        lines.append("{} | {} {}".format(
            key.ljust(label_w), bar, fmt.format(value)))
    return "\n".join(lines)


def format_kv(title: str, pairs: Sequence[Sequence[object]]) -> str:
    """Render a titled key/value block with aligned keys — the building
    block of the survivability report."""
    lines: List[str] = [title, "-" * len(title)]
    if pairs:
        key_w = max(len(str(k)) for k, _ in pairs)
        for key, value in pairs:
            lines.append("{} : {}".format(str(key).ljust(key_w),
                                          _cell(value)))
    return "\n".join(lines)


def format_event_log(title: str,
                     events: Sequence[Sequence[object]]) -> str:
    """Render a timestamped event log (time, kind, detail rows)."""
    lines: List[str] = [title, "-" * len(title)]
    if not events:
        lines.append("(no events)")
        return "\n".join(lines)
    rows = [[_cell(v) for v in e] for e in events]
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _cell(value: object) -> str:
    if isinstance(value, float):
        return "{:.3f}".format(value)
    return str(value)
