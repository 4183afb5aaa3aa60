"""Host-speed probe interleaved with a timed call.

On a shared host the same work can take 1.5x longer from one minute to
the next, and run-to-run wall times of one workload spread by 9-16 %.
To cancel that drift, the worker times a fixed pure-Python reference
loop (:func:`reference_work`) before the timed call, every
``PERIOD_S`` of wall time during it (from a ``SIGALRM`` handler), and
after it.  The call's wall time is cut into the segments between
probes, and each segment is rescaled by the host speed the two probes
around it measured:

    normalised = sum(segment * mean(NOMINAL_S / probe before,
                                    NOMINAL_S / probe after))

so the normalised time is the wall time the call would take on a host
where the reference loop takes ``NOMINAL_S``.  The worker normalises
its set-up the same way, as one segment between a probe before it and
one after.  The probes' own time is left out of both the raw and the
normalised times.  The reference loop is this file's code, not the
measured program's, so a change to the program moves the normalised
time exactly as it moves the raw one.
"""

from __future__ import annotations

import signal
import time
from typing import List

#: Wall seconds between probes during the timed call.
PERIOD_S = 0.4
#: Iterations of the reference loop (about 20 ms on a 2-vCPU host).
ITERATIONS = 90_000
#: The reference loop's time on a quiet 2-vCPU host (Python 3.11);
#: normalised times are in seconds of that host.
NOMINAL_S = 0.0200


def reference_work(table: dict, iterations: int = ITERATIONS) -> None:
    """Fixed interpreter-bound work: an integer LCG driving dict loads
    and stores over a 64k-key table, the mix the simulators' inner
    loops are made of.  Callers keep ``table`` between probes, so the
    probe's memory is allocated once, before the timed call: it adds a
    constant to the peak RSS instead of adding to it only when a probe
    happens to run at the call's peak."""
    x = 1
    for i in range(iterations):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        key = x & 0xFFFF
        table[key] = table.get(key, 0) + i


class HostProbe:
    """Interleaves :func:`reference_work` with a timed call.

    ``measure()`` times one probe on its own.  ``start()`` probes once
    and arms the timer; ``stop()`` disarms it and probes once more.
    Afterwards ``segments`` holds the call's wall time between probes
    and ``probes`` every probe's duration (one more than there are
    segments).
    """

    def __init__(self, period_s: float = PERIOD_S,
                 iterations: int = ITERATIONS):
        self.period_s = period_s
        self.iterations = iterations
        self.segments: List[float] = []
        self.probes: List[float] = []
        # Filled once, untimed, so every timed probe does the same work.
        self._table: dict = {}
        reference_work(self._table, iterations)
        self._mark = 0.0
        self._previous = None

    def measure(self) -> float:
        """Seconds one reference loop takes now."""
        started = time.perf_counter()
        reference_work(self._table, self.iterations)
        return time.perf_counter() - started

    def _probe(self) -> None:
        self.probes.append(self.measure())
        self._mark = time.perf_counter()

    def _on_signal(self, signum, frame) -> None:
        self.segments.append(time.perf_counter() - self._mark)
        self._probe()

    def start(self) -> None:
        self._probe()
        self._previous = signal.signal(signal.SIGALRM, self._on_signal)
        self._mark = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        self.segments.append(time.perf_counter() - self._mark)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
        self._probe()

    @property
    def wall_s(self) -> float:
        """The call's wall time without the probes."""
        return sum(self.segments)

    @property
    def norm_wall_s(self) -> float:
        """The call's wall time rescaled to a host where the reference
        loop takes ``NOMINAL_S``."""
        return normalize(self.segments, self.probes)


def normalize(segments: List[float], probes: List[float]) -> float:
    """``sum(segment_i * mean(NOMINAL_S / probes[i],
    NOMINAL_S / probes[i + 1]))``.  Averaging the two speeds, rather
    than the two probe times, cut the run-to-run spread of fixed-seed
    repeats from 1.5-2.9 % to 0.9-2.0 % on a shared 2-vCPU host."""
    if len(probes) != len(segments) + 1:
        raise ValueError("need one probe more than there are segments")
    return sum(segment * NOMINAL_S * (1.0 / before + 1.0 / after) / 2.0
               for segment, before, after
               in zip(segments, probes, probes[1:]))
