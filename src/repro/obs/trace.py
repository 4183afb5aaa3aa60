"""JSONL trace sink: the span/event half of ``repro.obs``.

Every lifecycle event the instrumented subsystems emit (frequency
transitions, write-mode batches, epoch rolls, rung moves, checkpoints,
chaos injections, crash drills) becomes one canonical-JSON line::

    {"event":"rung_move","fields":{...},"seq":7,"subsystem":"degradation","t_ns":1.2e12}

Determinism contract: ``seq`` is assigned in emission order, ``t_ns``
is *simulated* time (never wall clock), and serialization is canonical
(sorted keys, fixed separators) — so a seeded run traced twice produces
byte-identical files, which ``repro smoke obs-smoke`` checks.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Union

__all__ = ["JsonlTraceSink", "MemoryTraceSink", "NullTraceSink",
           "read_trace"]


def _canonical(obj: object) -> str:
    """Deterministic JSON: sorted keys, no whitespace variance."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


class NullTraceSink:
    """Discards every event (the default when tracing is off)."""

    enabled = False

    def emit(self, subsystem: str, event: str, t_ns: float,
             fields: Optional[Dict[str, object]] = None) -> None:
        pass

    def flush(self) -> None:
        pass

    def close(self) -> None:
        pass

    def __enter__(self) -> "NullTraceSink":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class JsonlTraceSink(NullTraceSink):
    """Appends one canonical-JSON line per event to ``path``.

    Events carry only values the emitter derived from seeds and
    simulated clocks; the sink adds nothing non-deterministic (no wall
    clock, no pid, no hostname).
    """

    enabled = True

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        self._fh = open(self.path, "w")
        self._seq = 0

    @property
    def events_emitted(self) -> int:
        return self._seq

    def emit(self, subsystem: str, event: str, t_ns: float,
             fields: Optional[Dict[str, object]] = None) -> None:
        """Write one trace line; ``fields`` must be JSON-plain types."""
        line = _canonical({"seq": self._seq, "t_ns": float(t_ns),
                           "subsystem": subsystem, "event": event,
                           "fields": dict(fields or {})})
        self._fh.write(line + "\n")
        self._seq += 1

    def flush(self) -> None:
        if not self._fh.closed:
            self._fh.flush()

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()


class MemoryTraceSink(NullTraceSink):
    """Collects events in memory — same dict shape :func:`read_trace`
    returns, for the summary CLI and tests (no file round-trip)."""

    enabled = True

    def __init__(self) -> None:
        self.events: List[Dict[str, object]] = []

    @property
    def events_emitted(self) -> int:
        return len(self.events)

    def emit(self, subsystem: str, event: str, t_ns: float,
             fields: Optional[Dict[str, object]] = None) -> None:
        self.events.append({"seq": len(self.events),
                            "t_ns": float(t_ns),
                            "subsystem": subsystem, "event": event,
                            "fields": dict(fields or {})})


def read_trace(path: Union[str, Path]) -> List[Dict[str, object]]:
    """Parse a JSONL trace back into event dicts (blank lines
    skipped); raises ``ValueError`` on a malformed line."""
    events: List[Dict[str, object]] = []
    with open(path) as fh:
        for i, line in enumerate(fh):
            if not line.strip():
                continue
            try:
                events.append(json.loads(line))
            except ValueError as exc:
                raise ValueError("corrupt trace line {}: {}".format(
                    i + 1, exc))
    return events
