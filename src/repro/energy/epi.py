"""System-level Energy Per Instruction (Figure 13).

Combines the CPU model and the DRAM event-energy model over a node
simulation's measured counters.  The design differences appear exactly
as in the paper:

* broadcast writes burn 2x (Hetero-DMR) or 3x (Hetero-DMR+FMR) write
  burst energy,
* the original-holding modules spend read mode in self-refresh (lower
  background power),
* faster execution cuts the dominant static CPU energy.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..dram.power import DramPowerParams
from ..sim.node import NodeResult
from .cpu_power import CpuPowerParams


@dataclass(frozen=True)
class EpiBreakdown:
    """Energy accounting for one simulated run."""
    cpu_joules: float
    dram_dynamic_joules: float
    dram_background_joules: float
    instructions: float

    @property
    def total_joules(self) -> float:
        return (self.cpu_joules + self.dram_dynamic_joules +
                self.dram_background_joules)

    @property
    def epi_nj(self) -> float:
        if self.instructions <= 0:
            return 0.0
        return self.total_joules / self.instructions * 1e9


def node_epi(result: NodeResult,
             cpu: CpuPowerParams = CpuPowerParams(),
             dram: DramPowerParams = DramPowerParams()) -> EpiBreakdown:
    """Compute the EPI breakdown for one node-simulation result."""
    time_s = result.time_ns * 1e-9
    cores = result.config.hierarchy.cores
    cpu_j = cpu.energy_joules(cores, time_s, result.instructions)
    # Dynamic DRAM energy: activates plus read/write bursts.  Broadcast
    # writes are already expanded into write_bursts by the controller.
    dyn_j = (result.activates * dram.activate_nj +
             result.dram_reads * dram.read_burst_nj +
             result.dram_write_bursts * dram.write_burst_nj +
             result.refreshes * dram.refresh_nj) * 1e-9
    # Background: every rank pays active power except while in
    # self-refresh (Hetero-DMR's sleeping originals).
    hier = result.config.hierarchy
    total_ranks = (hier.channels * hier.modules_per_channel *
                   hier.ranks_per_module)
    rank_seconds = total_ranks * time_s
    sr_seconds = result.self_refresh_rank_ns * 1e-9
    bg_j = ((rank_seconds - sr_seconds) * dram.background_active_w +
            sr_seconds * dram.background_self_refresh_w)
    return EpiBreakdown(cpu_joules=cpu_j, dram_dynamic_joules=dyn_j,
                        dram_background_joules=max(0.0, bg_j),
                        instructions=result.instructions)


def normalized_epi(result: NodeResult, baseline: NodeResult,
                   cpu: CpuPowerParams = CpuPowerParams(),
                   dram: DramPowerParams = DramPowerParams()) -> float:
    """EPI of ``result`` normalized to ``baseline`` (Figure 13's bars)."""
    return node_epi(result, cpu, dram).epi_nj / \
        node_epi(baseline, cpu, dram).epi_nj
