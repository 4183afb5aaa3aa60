"""``benchmarks/perf/host_sensitivity.py``: the elasticity and the
quiet/slow ratio it reports, on synthetic samples, and one real run."""

import importlib.util
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "host_sensitivity", ROOT / "benchmarks" / "perf" / "host_sensitivity.py")
hs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(hs)

PROBES = [0.020, 0.021, 0.020, 0.040, 0.041, 0.040]


def test_a_call_that_slows_as_the_probe_does_reads_the_same():
    rows = [(p, p, 15.0 * p) for p in PROBES]
    got = hs.summarise(rows)
    assert got["elasticity"] == pytest.approx(1.0)
    assert (got["quiet"], got["slow"]) == (3, 3)
    assert got["slow_over_quiet"] == pytest.approx(1.0)


def test_a_call_the_host_does_not_slow_reads_faster_when_it_is_slow():
    got = hs.summarise([(p, p, 0.3) for p in PROBES])
    assert got["elasticity"] == pytest.approx(0.0, abs=1e-12)
    assert got["slow_over_quiet"] == pytest.approx(0.020 / 0.040)


def test_one_phase_only_gives_no_slow_median():
    got = hs.summarise([(0.02, 0.02, 0.3)])
    assert got["elasticity"] is None and got["slow_norm_s"] is None
    assert got["quiet_norm_s"] == pytest.approx(0.3)


def test_a_workload_with_a_registry_directory_is_refused():
    with pytest.raises(ValueError, match="registry directory"):
        hs.sample("soak", 0.0)


def test_cluster_fast_is_timed_at_least_once():
    rows = hs.sample("cluster-fast", 0.0)
    assert len(rows) >= 1
    assert all(before > 0 and after > 0 and took > 0
               for before, after, took in rows)
