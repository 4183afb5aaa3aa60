"""Metrics recorder: counters, gauges, and histogram timers.

The observability spine of the repo (DESIGN.md §12).  Every metric is
keyed by ``(subsystem, name, labels)`` where labels are sorted
``(key, value)`` pairs, so identical series always merge and snapshot
ordering is deterministic.

The default recorder is :class:`NullRecorder` — every method is a
no-op and ``enabled`` is ``False``, so instrumented hot paths pay one
attribute check and nothing else (the CI ledger gate, a 10% bound on
the ``fig12-short`` wall time, holds with instrumentation compiled in).
Install a live :class:`Recorder` with :func:`set_recorder` or the
:func:`recording` context manager; the recorder also fans span-style
events out to a :class:`~repro.obs.trace.JsonlTraceSink` when one is
attached.

Wall-clock time appears **only** in histogram observations made through
:meth:`Recorder.timer` (metrics snapshots are operator evidence, not
replay input); trace events carry simulated time exclusively, keeping
seeded traces byte-identical across runs.
"""

from __future__ import annotations

import math
import time
from array import array
from bisect import bisect_left
from contextlib import contextmanager
from itertools import accumulate
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from .trace import NullTraceSink

__all__ = ["MetricKey", "NullRecorder", "Recorder", "get_recorder",
           "set_recorder", "recording", "DEFAULT_BUCKETS", "QUANTILES"]

#: One metric series: (subsystem, name, sorted (label, value) pairs).
MetricKey = Tuple[str, str, Tuple[Tuple[str, str], ...]]

#: Default histogram bucket upper bounds — log-spaced to cover both
#: sub-millisecond timer observations and large count observations.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.01, 0.1, 1.0, 10.0, 100.0, 1_000.0, 10_000.0)


def metric_key(subsystem: str, name: str,
               labels: Dict[str, object]) -> MetricKey:
    if not labels:
        return (subsystem, name, ())
    if len(labels) == 1:
        (key, value), = labels.items()
        return (subsystem, name, ((key, str(value)),))
    return (subsystem, name,
            tuple(sorted((k, str(v)) for k, v in labels.items())))


class NullRecorder:
    """No-op recorder: the zero-overhead default.

    Subsystems are instrumented as::

        rec = get_recorder()
        if rec.enabled:
            rec.counter("freq", "transitions", direction="fast")

    so with the null recorder installed the cost is one call plus one
    attribute check per *rare* event — never per simulated event.
    """

    enabled = False

    def counter(self, subsystem: str, name: str, value: float = 1.0,
                **labels: object) -> None:
        pass

    def gauge(self, subsystem: str, name: str, value: float,
              **labels: object) -> None:
        pass

    def observe(self, subsystem: str, name: str, value: float,
                **labels: object) -> None:
        pass

    def event(self, subsystem: str, event: str, t_ns: float,
              **fields: object) -> None:
        pass

    @contextmanager
    def timer(self, subsystem: str, name: str,
              **labels: object) -> Iterator[None]:
        yield

    def snapshot(self) -> Dict[str, List[dict]]:
        return {"counters": [], "gauges": [], "histograms": []}


#: Exact quantiles reported in every histogram summary (the soak gate
#: consumes p999; see DESIGN.md §14).
QUANTILES: Tuple[Tuple[str, float], ...] = (
    ("p50", 0.50), ("p99", 0.99), ("p999", 0.999))


class _Histogram:
    """Fixed-bucket histogram with count/sum/min/max and *exact*
    quantiles.

    Bucket counts alone can only interpolate percentiles, which is
    useless for a tail-latency gate whose budget sits inside one
    log-spaced bucket — so every observation is also kept in a compact
    ``array('d')`` (8 bytes each; a million-observation soak series
    costs ~8 MB) and quantiles are computed by nearest-rank over the
    sorted samples on demand.
    """

    __slots__ = ("bounds", "_hits", "count", "total", "minimum",
                 "maximum", "samples")

    def __init__(self, bounds: Tuple[float, ...]):
        self.bounds = bounds
        #: Observations per bucket, not cumulative: ``_hits[i]`` counts
        #: those in ``(bounds[i-1], bounds[i]]``, the last slot those
        #: above every bound.
        self._hits = [0] * (len(bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.minimum = float("inf")
        self.maximum = float("-inf")
        self.samples = array("d")

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value
        self.samples.append(value)
        if value == value:                  # NaN is in no bucket
            self._hits[bisect_left(self.bounds, value)] += 1

    @property
    def bucket_counts(self) -> List[int]:
        """Cumulative count per bound: observations ``<=`` it."""
        return list(accumulate(self._hits[:-1]))

    def quantiles(self) -> Dict[str, float]:
        """Exact nearest-rank quantiles (the q-th value is the
        ``ceil(q*n)``-th smallest observation), keyed by the
        :data:`QUANTILES` names.

        Empty series have no quantiles — return ``{}`` rather than
        letting rank 0 index ``ordered[-1]`` (an ``IndexError`` on an
        empty list, or worse, silently the *maximum* had the clamp
        order differed).  For n=1 every quantile, p999 included, is
        that sample.
        """
        ordered = sorted(self.samples)
        n = len(ordered)
        if n == 0:
            return {}
        out: Dict[str, float] = {}
        for name, q in QUANTILES:
            rank = min(n, max(1, math.ceil(q * n)))
            out[name] = ordered[rank - 1]
        return out

    def to_dict(self) -> dict:
        doc = {"count": self.count, "sum": self.total,
               "min": self.minimum, "max": self.maximum,
               "buckets": [[b, c] for b, c in
                           zip(self.bounds, self.bucket_counts)]}
        if self.count:
            doc.update(self.quantiles())
        return doc


class Recorder(NullRecorder):
    """Accumulating recorder with an optional trace sink.

    ``clock`` (default ``time.perf_counter``) is injectable so tests
    can drive :meth:`timer` deterministically.
    """

    enabled = True

    def __init__(self, trace: Optional[NullTraceSink] = None,
                 clock: Optional[Callable[[], float]] = None,
                 buckets: Tuple[float, ...] = DEFAULT_BUCKETS):
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError("buckets must be non-empty and ascending")
        self.trace = trace if trace is not None else NullTraceSink()
        self._clock = clock if clock is not None else time.perf_counter
        self._buckets = tuple(buckets)
        self._counters: Dict[MetricKey, float] = {}
        self._gauges: Dict[MetricKey, float] = {}
        self._histograms: Dict[MetricKey, _Histogram] = {}

    # -- metrics ------------------------------------------------------------------

    def counter(self, subsystem: str, name: str, value: float = 1.0,
                **labels: object) -> None:
        """Add ``value`` (must be non-negative) to a counter series."""
        if value < 0:
            raise ValueError("counters only increase")
        key = metric_key(subsystem, name, labels)
        self._counters[key] = self._counters.get(key, 0.0) + value

    def gauge(self, subsystem: str, name: str, value: float,
              **labels: object) -> None:
        """Set a gauge series to its latest value."""
        self._gauges[metric_key(subsystem, name, labels)] = float(value)

    def observe(self, subsystem: str, name: str, value: float,
                **labels: object) -> None:
        """Record one histogram observation."""
        key = metric_key(subsystem, name, labels)
        hist = self._histograms.get(key)
        if hist is None:
            hist = self._histograms[key] = _Histogram(self._buckets)
        hist.observe(float(value))

    @contextmanager
    def timer(self, subsystem: str, name: str,
              **labels: object) -> Iterator[None]:
        """Observe the elapsed clock time of a ``with`` block, in
        seconds (histogram; never enters the trace)."""
        start = self._clock()
        try:
            yield
        finally:
            self.observe(subsystem, name, self._clock() - start,
                         **labels)

    # -- spans --------------------------------------------------------------------

    def event(self, subsystem: str, event: str, t_ns: float,
              **fields: object) -> None:
        """Emit one span-style lifecycle event at simulated time
        ``t_ns`` to the attached trace sink (no-op without one)."""
        self.trace.emit(subsystem, event, t_ns, fields)

    # -- export -------------------------------------------------------------------

    @staticmethod
    def _rows(series: Dict[MetricKey, object]) -> List[MetricKey]:
        return sorted(series)

    def snapshot(self) -> Dict[str, List[dict]]:
        """Deterministic (sorted) snapshot of every series, as plain
        JSON types — input to the exporters and the JSON snapshot."""
        counters = [{"subsystem": k[0], "name": k[1],
                     "labels": dict(k[2]), "value": self._counters[k]}
                    for k in self._rows(self._counters)]
        gauges = [{"subsystem": k[0], "name": k[1],
                   "labels": dict(k[2]), "value": self._gauges[k]}
                  for k in self._rows(self._gauges)]
        histograms = [dict({"subsystem": k[0], "name": k[1],
                            "labels": dict(k[2])},
                           **self._histograms[k].to_dict())
                      for k in self._rows(self._histograms)]
        return {"counters": counters, "gauges": gauges,
                "histograms": histograms}

    def counter_value(self, subsystem: str, name: str,
                      **labels: object) -> float:
        """Convenience accessor for tests and the summary CLI."""
        return self._counters.get(metric_key(subsystem, name, labels),
                                  0.0)

    def gauge_value(self, subsystem: str, name: str,
                    **labels: object) -> Optional[float]:
        return self._gauges.get(metric_key(subsystem, name, labels))

    def histogram_stats(self, subsystem: str, name: str,
                        **labels: object) -> Optional[dict]:
        """One histogram series' summary (count/sum/min/max/quantiles)
        as a plain dict, or None when the series was never observed —
        the accessor the soak gate reads p999 through."""
        hist = self._histograms.get(metric_key(subsystem, name, labels))
        return hist.to_dict() if hist is not None else None


#: The process-wide recorder consulted by instrumented subsystems.
_NULL = NullRecorder()
_current: NullRecorder = _NULL


def get_recorder() -> NullRecorder:
    """The currently installed recorder (NullRecorder by default)."""
    return _current


def set_recorder(recorder: Optional[NullRecorder]) -> NullRecorder:
    """Install ``recorder`` (None restores the null recorder); returns
    the previously installed one so callers can restore it."""
    global _current
    previous = _current
    _current = recorder if recorder is not None else _NULL
    return previous


@contextmanager
def recording(recorder: NullRecorder) -> Iterator[NullRecorder]:
    """Scoped installation: install ``recorder`` for the duration of
    the ``with`` block, then restore whatever was installed before."""
    previous = set_recorder(recorder)
    try:
        yield recorder
    finally:
        set_recorder(previous)
