"""Performance engineering: parallel sweeps.

* :mod:`repro.perf.sweep` — :class:`SweepRunner` fans
  (design x workload x seed) node-simulation cells across a process
  pool with the fleet profiler's deterministic seeding/ingestion
  discipline, deduplicating effective cells first.

End-to-end timing and the CI regression gate live in the performance
ledger (``benchmarks/ledger``), not here.
"""

from .sweep import SweepConfig, SweepResult, SweepRunner, cell_key

__all__ = ["SweepConfig", "SweepResult", "SweepRunner", "cell_key"]
