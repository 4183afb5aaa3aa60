"""Pluggable memory-technology backends: the typo guard, the DDR4
extraction's bit-compatibility contract, the MRDIMM timing model, and
the cross-technology comparison pipeline."""

import dataclasses
import json

import pytest

from repro.cache.hierarchy import HIERARCHIES
from repro.core.config import HeteroDMRConfig
from repro.dram import (BACKEND_ENV_VAR, DDR4_BACKEND, MRDIMM_BACKEND,
                        VALID_BACKENDS, MemoryBackend, get_backend,
                        resolve_backend)
from repro.dram.timing import manufacturer_spec_3200
from repro.sim.node import NodeConfig, simulate_node
from tests.conftest import policy_select

pytestmark = pytest.mark.filterwarnings("error")


# -- resolution and the typo guard ------------------------------------------------------


def test_resolve_backend_defaults_to_ddr4(monkeypatch):
    monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
    assert resolve_backend() == "ddr4"
    assert resolve_backend("mrdimm") == "mrdimm"


def test_resolve_backend_normalizes(monkeypatch):
    monkeypatch.setenv(BACKEND_ENV_VAR, "  MRDIMM ")
    assert resolve_backend() == "mrdimm"


def test_resolve_backend_typo_lists_valid_backends():
    with pytest.raises(ValueError) as err:
        resolve_backend("dd4r")
    message = str(err.value)
    assert "dd4r" in message
    for name in VALID_BACKENDS:
        assert name in message


def test_resolve_backend_env_typo_names_the_variable(monkeypatch):
    monkeypatch.setenv(BACKEND_ENV_VAR, "mrdim")
    with pytest.raises(ValueError) as err:
        resolve_backend()
    assert BACKEND_ENV_VAR in str(err.value)
    # An explicit kind must win over a broken environment.
    assert resolve_backend("ddr4") == "ddr4"


def test_node_config_rejects_unknown_backend():
    with pytest.raises(ValueError) as err:
        NodeConfig(suite="linpack",
                   hierarchy=HIERARCHIES["Hierarchy1"](),
                   backend="ddr5000")
    assert "ddr5000" in str(err.value)


def test_backend_registry_consistent():
    for name in VALID_BACKENDS:
        backend = get_backend(name)
        assert isinstance(backend, MemoryBackend)
        assert backend.name == name


# -- the DDR4 extraction is a pure refactor ---------------------------------------------


def test_ddr4_spec_timing_is_manufacturer_spec():
    assert DDR4_BACKEND.spec_timing() == manufacturer_spec_3200()


@pytest.mark.parametrize("margin", (800, 600, 400))
@pytest.mark.parametrize("latency", (True, False))
def test_ddr4_fast_timing_bit_equal_to_hetero_dmr_config(margin,
                                                         latency):
    """The backend's fast timing must be the exact object the
    pre-refactor HeteroDMRConfig path produced — same expressions,
    same floats, no drift."""
    cfg = HeteroDMRConfig(margin_mts=margin, use_latency_margin=latency)
    assert DDR4_BACKEND.fast_timing(margin, latency) == \
        cfg.fast_timing()


def test_ddr4_topology_neutral():
    assert DDR4_BACKEND.rank_mux_factor == 1
    assert DDR4_BACKEND.mux_latency_ns == 0.0
    assert DDR4_BACKEND.effective_ranks(2) == 2
    assert DDR4_BACKEND.margin_buckets == (800, 600)


# -- the MRDIMM timing model ------------------------------------------------------------


def test_mrdimm_profile():
    assert MRDIMM_BACKEND.spec_data_rate_mts == 8800
    assert MRDIMM_BACKEND.rank_mux_factor == 2
    assert MRDIMM_BACKEND.effective_ranks(2) == 4
    assert MRDIMM_BACKEND.margin_buckets == (2200, 1600)


def test_mrdimm_mux_latency_rides_on_cas():
    """The data-buffer hop is a fixed latency adder applied after rate
    scaling: spec tCAS = core tCAS + mux, and the adder does not
    shrink as the bus speeds up."""
    spec = MRDIMM_BACKEND.spec_timing()
    fast = MRDIMM_BACKEND.fast_timing(2200, use_latency_margin=False)
    assert spec.tCAS_ns == pytest.approx(
        16.0 + MRDIMM_BACKEND.mux_latency_ns)
    assert fast.data_rate_mts == 8800 + 2200
    # The scaled core tCAS (16 * 8800/11000) plus the unscaled mux.
    assert fast.tCAS_ns == pytest.approx(
        16.0 * 8800.0 / 11000.0 + MRDIMM_BACKEND.mux_latency_ns)


def test_mrdimm_refresh_profile_denser_trfc():
    mrdimm, ddr4 = MRDIMM_BACKEND.spec_timing(), DDR4_BACKEND.spec_timing()
    trefi, trfc = mrdimm.tREFI_ns, mrdimm.tRFC_ns
    d4_trefi, d4_trfc = ddr4.tREFI_ns, ddr4.tRFC_ns
    assert trfc > d4_trfc          # bigger devices, longer refresh
    assert trefi != d4_trefi or trfc != d4_trfc


# -- seeded simulations: determinism and cross-backend divergence -----------------------


def _node_config(backend, **kw):
    base = dict(suite="linpack",
                hierarchy=HIERARCHIES["Hierarchy1"](),
                design="hetero-dmr",
                margin_mts=get_backend(backend).margin_buckets[0],
                memory_utilization=0.15, refs_per_core=120,
                seed=2026, backend=backend)
    base.update(kw)
    return NodeConfig(**base)


def _snapshot(result):
    return json.dumps(dataclasses.asdict(result), sort_keys=True)


@pytest.mark.parametrize("backend", ("ddr4", "mrdimm"))
def test_seeded_runs_byte_identical(backend):
    first = _snapshot(simulate_node(_node_config(backend)))
    second = _snapshot(simulate_node(_node_config(backend)))
    assert first == second


def test_backends_diverge():
    ddr4 = simulate_node(_node_config("ddr4"))
    mrdimm = simulate_node(_node_config("mrdimm"))
    assert ddr4.time_ns != mrdimm.time_ns
    # The faster bus must actually help at equal trace length.
    assert mrdimm.time_ns < ddr4.time_ns


def test_runner_cache_keys_by_backend():
    from repro.sim.runner import ExperimentRunner
    hier = HIERARCHIES["Hierarchy1"]()
    d4 = ExperimentRunner(refs_per_core=120, seed=2026,
                          backend="ddr4")
    mr = ExperimentRunner(refs_per_core=120, seed=2026,
                          backend="mrdimm")
    assert d4.baseline("linpack", hier).time_ns != \
        mr.baseline("linpack", hier).time_ns


# -- fastmodel staleness across backends ------------------------------------------------


@pytest.fixture(scope="module")
def ddr4_tiny_calibration():
    from repro.fastmodel import run_calibration
    return run_calibration(suites=("linpack",),
                           hierarchies=("Hierarchy1",),
                           refs_per_core=40)


def test_calibration_records_backend(ddr4_tiny_calibration):
    assert ddr4_tiny_calibration.backend == "ddr4"
    assert ddr4_tiny_calibration.grid["backend"] == "ddr4"


def test_stale_calibration_error_across_backends(ddr4_tiny_calibration):
    from repro.fastmodel import StaleCalibrationError, simulate_nodes_fast
    config = _node_config("mrdimm", fidelity="fast", refs_per_core=40)
    with pytest.raises(StaleCalibrationError) as err:
        simulate_nodes_fast([config],
                            calibration=ddr4_tiny_calibration)
    message = str(err.value)
    assert "mrdimm" in message
    assert "--backend" in message


def test_mrdimm_calibration_round_trip():
    from repro.fastmodel import (performance_model_from_calibration,
                                 run_calibration)
    cal = run_calibration(suites=("linpack",),
                          hierarchies=("Hierarchy1",),
                          refs_per_core=40, backend="mrdimm")
    assert cal.backend == "mrdimm"
    assert cal.grid["designs"]["hetero-dmr"] == [2200, 1600]
    model = performance_model_from_calibration(cal)
    assert list(model.speedups) == [2200, 1600, 0]
    cell = cal.lookup_cell("linpack", "Hierarchy1", "hetero-dmr", 2200)
    assert cell["t_norm_cycle"] > 0


# -- scheduler buckets ------------------------------------------------------------------


def test_margin_aware_policy_uses_custom_buckets():
    from repro.hpc.cluster import ClusterNode
    from repro.hpc.scheduler import MarginAwareAllocationPolicy
    nodes = [ClusterNode(0, 2200), ClusterNode(1, 1600),
             ClusterNode(2, 2200), ClusterNode(3, 0)]
    policy = MarginAwareAllocationPolicy(buckets=(2200, 1600, 0))
    picked = policy_select(policy, list(nodes), 2)
    assert {n.index for n in picked} == {0, 2}   # uniform fast group
    # Against the DDR4 defaults every MRDIMM node snaps into one
    # class and grouping cannot separate them.
    ddr4_policy = MarginAwareAllocationPolicy()
    picked = policy_select(ddr4_policy, list(nodes), 2)
    assert {n.index for n in picked} == {0, 1}


# -- cross-technology pipeline ----------------------------------------------------------


def test_characterize_backend_deterministic():
    from repro.characterization import characterize_backend
    a = characterize_backend("mrdimm", trials=400, seed=9)
    b = characterize_backend("mrdimm", trials=400, seed=9)
    assert a == b
    fractions = a["node_group_fractions"]
    assert set(fractions) == {"2200", "1600", "0"}
    assert sum(fractions.values()) == pytest.approx(1.0)


def test_montecarlo_custom_buckets_match_legacy_formula():
    from repro.characterization import MarginMonteCarlo
    mc = MarginMonteCarlo(seed=5)
    default = mc.node_group_fractions(800)
    explicit = mc.node_group_fractions(800, buckets=(800, 600))
    assert default == explicit
    dist = mc.node_margins(200, margin_aware=True)
    at_800 = dist.fraction_at_least(800)
    at_600 = dist.fraction_at_least(600)
    legacy = {800: at_800, 600: at_600 - at_800, 0: 1.0 - at_600}
    assert mc.node_group_fractions(200) == legacy


def test_compare_backends_artifact_deterministic():
    from repro.characterization import compare_backends
    kw = dict(refs_per_core=40, trials=200, total_nodes=16,
              job_count=24, seed=2026)
    first = compare_backends(**kw)
    second = compare_backends(**kw)
    assert json.dumps(first, sort_keys=True) == \
        json.dumps(second, sort_keys=True)
    assert set(first["backends"]) == {"ddr4", "mrdimm"}
    mrdimm = first["backends"]["mrdimm"]
    assert set(mrdimm["node_speedups"]) == {"0", "1600", "2200"}
    assert first["comparison"]["mrdimm"]["vs"] == "ddr4"
    assert first["comparison"]["mrdimm"]["spec_data_rate_ratio"] == \
        pytest.approx(8800 / 3200)


def test_compare_backends_rejects_duplicates():
    from repro.characterization import compare_backends
    with pytest.raises(ValueError):
        compare_backends(backends=("ddr4", "ddr4"))
