"""Real-system characterization substrate (Section II): synthetic
module population, margin testbench, thermal model, latency-margin
search, and margin-variability Monte Carlo."""

from .crosstech import (backend_performance_model, characterize_backend,
                        compare_backends, placement_comparison)
from .drift import (AgingDrift, CompositeDrift, DRIFT_SCENARIOS,
                    DiurnalDrift, DriftModel, MARGIN_LOSS_MTS_PER_DOUBLING,
                    MAX_DRIFT_AMBIENT_C, ThermalRampDrift, clamp_ambient_c,
                    make_drift, thermal_margin_loss_mts)
from .margins import (CONSERVATIVE_MARGINS, LatencyMarginSearch,
                      conservative_setting)
from .modules import (IN_PRODUCTION_RANGE, ModulePopulation, STUDY_CHIPS,
                      STUDY_MODULES, SyntheticModule,
                      THERMAL_BOOT_FAILURES)
from .montecarlo import (CHANNELS_PER_NODE, MarginDistribution,
                         MarginMonteCarlo, MODULE_MARGIN_MEAN,
                         MODULE_MARGIN_STDEV, MODULES_PER_CHANNEL)
from .stress import (ACCESSES_PER_TEST, PASS_FRACTION, StressResult,
                     StressTester)
from .temperature import (CHAMBER_AMBIENT_C, FREQ_LAT_MARGIN_45C_MULTIPLIER,
                          FREQ_MARGIN_45C_MULTIPLIER, ROOM_AMBIENT_C,
                          dimm_temperature_c, error_rate_multiplier)
from .testbench import (BootFailure, ErrorRateMeasurement,
                        MarginMeasurement, PLATFORM_CAP_MTS, TestMachine,
                        measure_population)

__all__ = [
    "ACCESSES_PER_TEST", "AgingDrift", "BootFailure", "CHAMBER_AMBIENT_C",
    "CHANNELS_PER_NODE", "CONSERVATIVE_MARGINS", "CompositeDrift",
    "DRIFT_SCENARIOS", "DiurnalDrift", "DriftModel", "ErrorRateMeasurement",
    "FREQ_LAT_MARGIN_45C_MULTIPLIER", "FREQ_MARGIN_45C_MULTIPLIER",
    "IN_PRODUCTION_RANGE", "LatencyMarginSearch",
    "MARGIN_LOSS_MTS_PER_DOUBLING", "MAX_DRIFT_AMBIENT_C",
    "MODULES_PER_CHANNEL", "MODULE_MARGIN_MEAN", "MODULE_MARGIN_STDEV",
    "MarginDistribution", "MarginMeasurement", "MarginMonteCarlo",
    "ModulePopulation", "PASS_FRACTION", "PLATFORM_CAP_MTS", "ROOM_AMBIENT_C",
    "STUDY_CHIPS", "STUDY_MODULES", "StressResult", "StressTester",
    "SyntheticModule", "THERMAL_BOOT_FAILURES", "TestMachine",
    "ThermalRampDrift", "backend_performance_model", "characterize_backend",
    "clamp_ambient_c", "compare_backends", "conservative_setting",
    "dimm_temperature_c", "placement_comparison", "error_rate_multiplier",
    "make_drift", "measure_population", "thermal_margin_loss_mts",
]
