"""Calibrated closed-form analytical node model — the ``fast``
fidelity tier.

Select it with ``NodeConfig(fidelity="fast")`` or ``REPRO_FIDELITY=
fast``; calibrate with ``repro fastmodel calibrate``; gate with
``repro fastmodel check`` (the fig12 cycle-vs-fast cross-check); scale
with ``repro fastmodel cluster`` (calibrated 10k-node sweeps).
"""

from .calibration import (ARTIFACT_ENV_VAR, CALIBRATION_VERSION,
                          Calibration, CalibrationError,
                          CalibrationMissingError,
                          CorruptCalibrationError, StaleCalibrationError,
                          default_artifact_path, grid_hash,
                          grid_spec, load_default_calibration,
                          run_calibration)
from .cluster import cluster_sweep, performance_model_from_calibration
from .crosscheck import (RANK_QUANTUM, SPEEDUP_TOLERANCE, fig12_speedups,
                         run_crosscheck)
from .model import (MODEL_VERSION, FastModelError, predict_cell,
                    simulate_node_fast, simulate_nodes_fast)

__all__ = ["ARTIFACT_ENV_VAR", "CALIBRATION_VERSION", "Calibration",
           "CalibrationError", "CalibrationMissingError",
           "CorruptCalibrationError", "FastModelError", "MODEL_VERSION",
           "RANK_QUANTUM", "SPEEDUP_TOLERANCE", "StaleCalibrationError",
           "cluster_sweep", "default_artifact_path", "fig12_speedups",
           "grid_hash", "grid_spec", "load_default_calibration",
           "performance_model_from_calibration", "predict_cell",
           "run_calibration", "run_crosscheck", "simulate_node_fast",
           "simulate_nodes_fast"]
