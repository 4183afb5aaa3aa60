"""Performance engineering: parallel sweeps and the perf harness.

* :mod:`repro.perf.sweep` — :class:`SweepRunner` fans
  (design x workload x seed) node-simulation cells across a process
  pool with the fleet profiler's deterministic seeding/ingestion
  discipline, deduplicating effective cells first.
* :mod:`repro.perf.bench` — the benchmark harness behind
  ``repro perf bench``: times the Figure 12 sweep and writes
  ``BENCH_speedup.json`` with an events/sec regression gate against a
  committed baseline.
"""

from .sweep import SweepConfig, SweepResult, SweepRunner, cell_key
from .bench import BenchReport, load_baseline, run_perf_bench

__all__ = [
    "SweepConfig", "SweepResult", "SweepRunner", "cell_key",
    "BenchReport", "load_baseline", "run_perf_bench",
]
