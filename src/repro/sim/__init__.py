"""Node-level performance simulation, experiment orchestration, and the
silicon-corroboration emulation model."""

from .emulation import (EmulationResult, emulate_hetero_dmr,
                        emulated_speedup, write_time_ns)
from .engine import EventLoop
from .node import (ADVANCE_QUANTUM_NS, DESIGNS, NodeConfig, NodeResult,
                   NodeSimulation, effective_design, simulate_node)
from .runner import (BUCKET_UTILIZATION, ExperimentRunner, MARGIN_WEIGHTS,
                     USAGE_WEIGHTS)

__all__ = ["ADVANCE_QUANTUM_NS", "BUCKET_UTILIZATION", "DESIGNS",
           "EmulationResult", "EventLoop", "ExperimentRunner",
           "MARGIN_WEIGHTS", "NodeConfig", "NodeResult", "NodeSimulation",
           "USAGE_WEIGHTS", "effective_design", "emulate_hetero_dmr",
           "emulated_speedup", "simulate_node", "write_time_ns"]
