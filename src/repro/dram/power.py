"""DRAM energy model (Micron power-calculator style).

Energies are derived from IDD-class currents at 1.2 V for 8 Gb DDR4
parts, reduced to per-event energies so the simulator can simply count
events.  The absolute values matter less than the ratios: activate
energy vs burst energy vs background power determine Figure 13's
energy-per-instruction shape.
"""

from __future__ import annotations

from dataclasses import dataclass



@dataclass(frozen=True)
class DramPowerParams:
    """Per-event energies (nanojoules) and background power (watts) for
    one rank of a 9-chip x8 RDIMM at 1.2 V."""
    activate_nj: float = 18.0        # one ACT+PRE pair
    read_burst_nj: float = 12.0      # one BL8 read burst incl. I/O
    write_burst_nj: float = 13.0     # one BL8 write burst incl. ODT
    refresh_nj: float = 140.0        # one REF (all banks)
    background_active_w: float = 0.55   # per rank, clock running
    background_self_refresh_w: float = 0.12  # per rank in self-refresh
