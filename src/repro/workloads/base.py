"""Workload trace-generator framework.

Real HPC binaries are replaced by synthetic L2-reference generators
(see DESIGN.md's substitution table).  Each suite is characterized by:

* ``footprint_bytes`` — the working set that addresses are drawn from
  (far larger than the LLC, so misses happen at realistic rates),
* a mix of *streaming* phases (sequential line-granularity runs, the
  dense linear-algebra inner loops) and *random* phases (irregular
  gathers, graph traversal),
* ``write_fraction`` — share of references that are stores,
* ``dependent_fraction`` — share of random references whose address
  depends on the previous load (pointer chasing; serializes misses),
* ``gap_cycles`` — mean compute cycles between consecutive L2
  references, controlling memory intensity, and
* ``mpi_fraction`` — share of core-hours spent in MPI communication
  (Section II-B measures 13% on average); modelled as extra compute
  gaps that never speed up with memory.

The parameters of the six concrete suites are calibrated so the
baseline simulation reproduces the paper's Figure 15 bandwidth
utilizations and its ~15% average write share.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, List

from ..cache.cache import LINE_BYTES
from ..cpu.trace import TraceRecord


@dataclass(frozen=True)
class WorkloadProfile:
    """Calibration parameters of one benchmark suite.

    Real HPC codes alternate memory-intense sweeps with compute/
    communication phases; the generator reproduces this with *hot*
    phases (gap mean = ``gap_cycles_mean``) covering ``hot_fraction``
    of references and *cold* phases whose gaps are
    ``cold_gap_multiplier`` longer.  The hot share bounds how much of
    the execution can speed up with faster memory, which is what
    Figure 5's per-suite speedups hinge on.
    """
    name: str
    footprint_bytes: int
    stream_fraction: float        # of references that belong to streams
    stream_run_lines: int         # consecutive lines per streaming run
    nstreams: int                 # concurrent streams (arrays) interleaved
    write_fraction: float
    dependent_fraction: float     # of random refs that are dependent
    gap_cycles_mean: float        # hot-phase mean compute gap
    mpi_fraction: float
    hot_fraction: float = 0.75    # share of refs in memory-intense phases
    cold_gap_multiplier: float = 20.0
    phase_length_refs: int = 512
    description: str = ""

    def __post_init__(self) -> None:
        if self.footprint_bytes < (1 << 20):
            raise ValueError("footprint must be at least 1 MB")
        for frac_name in ("stream_fraction", "write_fraction",
                          "dependent_fraction", "mpi_fraction"):
            value = getattr(self, frac_name)
            if not 0.0 <= value <= 1.0:
                raise ValueError("{} must be in [0, 1]".format(frac_name))
        if self.stream_run_lines <= 0 or self.nstreams <= 0:
            raise ValueError("stream geometry must be positive")


class TraceGenerator:
    """Generates a deterministic L2-reference trace from a profile.

    Each core gets its own seed (and its own address offset so cores
    mostly work on distinct data, as MPI ranks do).
    """

    def __init__(self, profile: WorkloadProfile, core_id: int = 0,
                 seed: int = 12345):
        self.profile = profile
        self.core_id = core_id
        self.seed = seed

    def records(self, count: int) -> Iterator[TraceRecord]:
        """Yield ``count`` trace records one at a time."""
        prof = self.profile
        rng = random.Random((self.seed << 8) ^ self.core_id)
        lines_total = prof.footprint_bytes // LINE_BYTES
        # Private slice per core, with 1/8 shared region at the top.
        slice_lines = lines_total
        base_line = (self.core_id * 0x9E3779B1) % max(1, lines_total // 4)
        # Stream cursors, one per concurrent stream.
        cursors: List[int] = [
            (base_line + rng.randrange(lines_total)) % lines_total
            for _ in range(prof.nstreams)]
        runs_left: List[int] = [0] * prof.nstreams
        # Effective gap: the MPI share inflates compute time uniformly.
        gap_mean = prof.gap_cycles_mean
        mpi_extra = gap_mean * prof.mpi_fraction / max(
            1e-9, 1.0 - prof.mpi_fraction)
        hot_mean = gap_mean + mpi_extra
        cold_mean = hot_mean * prof.cold_gap_multiplier
        phase_left = 0
        phase_hot = True
        # Draw records 256 at a time, then hand them out: a 16-core
        # node simulation, which pulls one record per core in turn, ran
        # ~5 % slower on a 2-vCPU x86 host when every record resumed
        # this loop (each resume touches the RNG state and the profile
        # again).
        chunk: List[TraceRecord] = []
        append = chunk.append
        for _ in range(count):
            if phase_left <= 0:
                phase_hot = rng.random() < prof.hot_fraction
                phase_left = max(1, int(rng.expovariate(
                    1.0 / prof.phase_length_refs)))
            phase_left -= 1
            gap = self._draw_gap(rng, hot_mean if phase_hot else cold_mean)
            is_write = rng.random() < prof.write_fraction
            if rng.random() < prof.stream_fraction:
                s = rng.randrange(prof.nstreams)
                if runs_left[s] <= 0:
                    cursors[s] = (base_line +
                                  rng.randrange(slice_lines)) % lines_total
                    runs_left[s] = prof.stream_run_lines
                line = cursors[s]
                cursors[s] = (cursors[s] + 1) % lines_total
                runs_left[s] -= 1
                dependent = False
            else:
                line = (base_line + rng.randrange(slice_lines)) % lines_total
                dependent = (not is_write and
                             rng.random() < prof.dependent_fraction)
            append(TraceRecord(line * LINE_BYTES, is_write, gap, dependent))
            if len(chunk) == 256:
                yield from chunk
                chunk.clear()
        yield from chunk

    @staticmethod
    def _draw_gap(rng: random.Random, mean: float) -> int:
        """Geometric-ish gap distribution with the requested mean."""
        if mean <= 0:
            return 0
        return min(int(rng.expovariate(1.0 / mean)), int(mean * 8) + 1)
