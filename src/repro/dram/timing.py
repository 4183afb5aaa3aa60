"""DDR4 timing parameter sets, including the paper's Table II settings.

All primary timings are stored in nanoseconds; the data rate (MT/s)
determines the bus clock (a DDR bus transfers twice per clock, so a
3200 MT/s channel runs a 1600 MHz clock with tCK = 0.625 ns).  Helpers
convert between nanoseconds, memory-clock cycles, and CPU cycles.

Table II of the paper:

====================================  =========  ======  ======  ======  =====
Setting                               Data Rate  tRCD    tRP     tRAS    tREFI
====================================  =========  ======  ======  ======  =====
Manufacturer-specified                3200 MT/s  13.75   13.75   32.5    7800
Exploit Latency Margin                3200 MT/s  11.5    11.0    29.5    15000
Exploit Frequency Margin              4000 MT/s  13.75   13.75   32.5    7800
Exploit Freq+Lat Margins              4000 MT/s  11.5    11.0    29.5    15000
====================================  =========  ======  ======  ======  =====
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

#: JEDEC DDR4 maximum standard data rate (MT/s); also the labelled rate
#: of the paper's state-of-the-art test modules.
DDR4_MAX_SPEC_MTS = 3200

#: The 200 MT/s BIOS step size used in the characterization (Section II-A).
DATA_RATE_STEP_MTS = 200

#: Standard DDR4 operating voltage used in all of the paper's tests.
DDR4_STANDARD_VOLTAGE = 1.2

#: Elevated voltage used only in the platform-cap investigation.
DDR4_ELEVATED_VOLTAGE = 1.35

#: Transfers per burst for a 64-byte line on a 64-bit (x72) bus.
BURST_LENGTH = 8


@dataclass(frozen=True)
class TimingParameters:
    """One complete DDR4 timing configuration.

    Attributes mirror the datasheet parameters the paper manipulates
    (Table II) plus the secondary constraints the controller needs.
    """
    data_rate_mts: int        # transfers per second, in MT/s
    tRCD_ns: float            # activate -> column command
    tRP_ns: float             # precharge -> activate
    tRAS_ns: float            # activate -> precharge (minimum)
    tREFI_ns: float           # average refresh interval
    tCAS_ns: float = 13.75    # read column command -> first data
    tRFC_ns: float = 350.0    # refresh cycle time (8 Gb chips)
    tWR_ns: float = 15.0      # write recovery
    tWTR_ns: float = 7.5      # write -> read turnaround (same rank)
    tRTP_ns: float = 7.5      # read -> precharge
    tRRD_ns: float = 5.3      # activate -> activate, different banks
    tFAW_ns: float = 21.0     # four-activate window
    tCCD_ns: float = 5.0      # column command -> column command

    def __post_init__(self) -> None:
        if self.data_rate_mts <= 0:
            raise ValueError("data rate must be positive")
        for name in ("tRCD_ns", "tRP_ns", "tRAS_ns", "tREFI_ns", "tCAS_ns"):
            if getattr(self, name) <= 0:
                raise ValueError("{} must be positive".format(name))

    # -- clock conversions ----------------------------------------------------

    @property
    def tCK_ns(self) -> float:
        """Bus clock period in nanoseconds."""
        return 2000.0 / self.data_rate_mts

    @property
    def tRC_ns(self) -> float:
        """Row cycle time: activate-to-activate on the same bank."""
        return self.tRAS_ns + self.tRP_ns

    @property
    def burst_time_ns(self) -> float:
        """Data-bus occupancy of one 64-byte burst (BL8 = 4 clocks)."""
        return (BURST_LENGTH / 2.0) * self.tCK_ns

    @property
    def peak_bandwidth_gbs(self) -> float:
        """Peak per-channel bandwidth in GB/s (64-bit data bus)."""
        return self.data_rate_mts * 8 / 1000.0

    # -- derived settings ------------------------------------------------------

    def at_data_rate(self, data_rate_mts: int) -> "TimingParameters":
        """The same configuration run at a different data rate.

        This is how exploiting *frequency* margin works (Table II row
        3): the analog, nanosecond-programmed latencies (tRCD, tRP,
        tRAS, tREFI, tWR, ...) stay at specification, while the
        clock-count parameters — CAS latency (the controller keeps the
        same CL), column-to-column spacing (tCCD), and the burst
        itself — ride the faster clock, so their *nanosecond* values
        shrink proportionally.  This is why the paper measures a much
        larger benefit from frequency margin than from latency margin.
        """
        ratio = self.data_rate_mts / data_rate_mts
        return replace(self, data_rate_mts=data_rate_mts,
                       tCAS_ns=self.tCAS_ns * ratio,
                       tCCD_ns=self.tCCD_ns * ratio)

    def with_latency_margin(self) -> "TimingParameters":
        """Apply the conservative latency-margin combination measured in
        Section II-A (<16%, 16%, 9%, 92%> on <tRCD, tRP, tRAS, tREFI>)."""
        return replace(self, tRCD_ns=11.5, tRP_ns=11.0, tRAS_ns=29.5,
                       tREFI_ns=15000.0)


class TimingTable:
    """Precomputed per-rung timing costs (the simulator's hot-path view).

    DRAM timing is piecewise-constant per operating point (AL-DRAM's
    observation, exploited by Table II): every derived nanosecond cost a
    bank/rank/channel access needs is a pure function of the
    :class:`TimingParameters` in force.  The seed recomputed ``tCK_ns``
    / ``burst_time_ns`` / ``tRC_ns`` properties on every access; a
    ``TimingTable`` computes them once per rung and exposes *everything*
    as plain attributes, so the access paths pay attribute loads instead
    of property calls and divisions.

    The derived values use exactly the same expressions as the
    ``TimingParameters`` properties, so results are bit-identical.
    Tables are shared process-wide through :func:`timing_table` (one per
    distinct parameter set) and cached by identity on each
    :class:`~repro.dram.channel.Channel`, invalidated only when the
    channel's timing actually changes (frequency transition or
    degradation-ladder retune).
    """

    __slots__ = ("params", "data_rate_mts", "tRCD_ns", "tRP_ns",
                 "tRAS_ns", "tREFI_ns", "tCAS_ns", "tRFC_ns", "tWR_ns",
                 "tWTR_ns", "tRTP_ns", "tRRD_ns", "tFAW_ns", "tCCD_ns",
                 "tCK_ns", "tRC_ns", "burst_time_ns",
                 "peak_bandwidth_gbs")

    def __init__(self, params: TimingParameters):
        self.params = params
        self.data_rate_mts = params.data_rate_mts
        self.tRCD_ns = params.tRCD_ns
        self.tRP_ns = params.tRP_ns
        self.tRAS_ns = params.tRAS_ns
        self.tREFI_ns = params.tREFI_ns
        self.tCAS_ns = params.tCAS_ns
        self.tRFC_ns = params.tRFC_ns
        self.tWR_ns = params.tWR_ns
        self.tWTR_ns = params.tWTR_ns
        self.tRTP_ns = params.tRTP_ns
        self.tRRD_ns = params.tRRD_ns
        self.tFAW_ns = params.tFAW_ns
        self.tCCD_ns = params.tCCD_ns
        # Same expressions as the TimingParameters properties (bit-for-
        # bit identical floats — the perf CI gate depends on it).
        self.tCK_ns = params.tCK_ns
        self.tRC_ns = params.tRC_ns
        self.burst_time_ns = params.burst_time_ns
        self.peak_bandwidth_gbs = params.peak_bandwidth_gbs

    def __repr__(self) -> str:   # pragma: no cover - debugging aid
        return "TimingTable({!r})".format(self.params)


@lru_cache(maxsize=None)
def timing_table(params: TimingParameters) -> TimingTable:
    """The shared precomputed table for ``params`` (one per rung)."""
    return TimingTable(params)


def manufacturer_spec_3200() -> TimingParameters:
    """Table II row 1: the manufacturer-specified setting."""
    return TimingParameters(data_rate_mts=3200, tRCD_ns=13.75, tRP_ns=13.75,
                            tRAS_ns=32.5, tREFI_ns=7800.0)


def exploit_latency_margin() -> TimingParameters:
    """Table II row 2: spec data rate, reduced latencies."""
    return manufacturer_spec_3200().with_latency_margin()


def exploit_frequency_margin(margin_mts: int = 800) -> TimingParameters:
    """Table II row 3: faster data rate, spec latencies."""
    return manufacturer_spec_3200().at_data_rate(
        DDR4_MAX_SPEC_MTS + margin_mts)


def exploit_freq_lat_margins(margin_mts: int = 800) -> TimingParameters:
    """Table II row 4: faster data rate and reduced latencies."""
    return exploit_frequency_margin(margin_mts).with_latency_margin()


#: The paper's four Table II settings, keyed by their row labels.
TABLE2_SETTINGS = {
    "Manufacturer-specified Setting": manufacturer_spec_3200(),
    "Setting to Exploit Latency Margin": exploit_latency_margin(),
    "Setting to Exploit Frequency Margin": exploit_frequency_margin(),
    "Setting to Exploit Freq+Lat Margins": exploit_freq_lat_margins(),
}
