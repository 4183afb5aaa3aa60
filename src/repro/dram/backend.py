"""Pluggable memory-technology backends.

The paper's entire methodology — characterize a margin population,
derive per-rung timing settings, replicate across ranks, place
margin-aware — is defined against one DDR4 part.  A *backend* captures
everything that is technology-specific about a channel:

* the specified timing profile and how a margin-exploiting "fast"
  setting is derived from it (Table II's recipe),
* refresh economics (tREFI / tRFC live in the timing profile but are
  exposed as a named view, because they are the first thing a new
  technology changes),
* rank-multiplexing topology (how many *logical* ranks the controller
  addresses per physical rank, and the bus bubble paid when bursts
  hop ranks),
* timing-table construction — backends share the process-wide
  per-rung :func:`~repro.dram.timing.timing_table` cache, and the
  channel's identity-based invalidation on frequency transitions works
  unchanged because tables remain pure functions of the parameters,
* and the seeded margin population (mean / stdev / node-group buckets)
  the characterization draws from.

Two backends are registered:

``ddr4``
    The paper's part, bit-for-bit the behavior this repro had before
    backends existed.  Its ``fast_timing`` is exactly
    :meth:`repro.core.config.HeteroDMRConfig.fast_timing`.

``mrdimm``
    A multiplexed-rank DIMM (PAPERS.md: arXiv 2605.02371).  Two
    physical ranks operate in lockstep behind a data-buffer mux, so the
    host bus runs at twice the DRAM-core rate (8800 MT/s host vs
    4400 MT/s per pseudo-channel) and the controller sees 2x effective
    ranks per module.  The mux adds a constant data-buffer latency to
    the read path, refresh uses a DDR5-generation tREFI/tRFC profile
    (16 Gb+ cores), and the eye-width-in-unit-intervals argument of
    Section III-F scales the margin population by the rate ratio.

Selection follows :func:`repro.knobs.resolve_knob`: an explicit kind
wins, otherwise the ``REPRO_BACKEND`` environment variable decides
(defaulting to ``ddr4``), and unknown values raise
:class:`~repro.knobs.KnobError` rather than silently simulating a
different technology.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional, Tuple

from ..knobs import resolve_knob
from .timing import (DDR4_MAX_SPEC_MTS, TimingParameters, TimingTable,
                     manufacturer_spec_3200, timing_table)

#: Environment variable consulted by :func:`resolve_backend` when no
#: explicit backend kind is passed.
BACKEND_ENV_VAR = "REPRO_BACKEND"

#: Backend names :func:`resolve_backend` understands.
VALID_BACKENDS = ("ddr4", "mrdimm")


def resolve_backend(kind: Optional[str] = None) -> str:
    """Resolve a memory-backend name (``"ddr4"``, ``"mrdimm"``, or None
    for ``REPRO_BACKEND``, defaulting to the DDR4 reference part)."""
    return resolve_knob(BACKEND_ENV_VAR, VALID_BACKENDS, "ddr4", kind)


class MemoryBackend:
    """One memory technology's timing, topology, and margin population.

    Subclasses override the class attributes and the two timing
    factories.  Everything the channel/rank/bank machinery needs is
    derived from these; the access paths themselves are
    technology-agnostic.
    """

    #: Registry name (also what ``NodeConfig.backend`` stores).
    name: str = "?"
    #: Host-visible specified data rate in MT/s.
    spec_data_rate_mts: int = 0
    #: Logical ranks the controller addresses per physical rank
    #: (1 for RDIMMs; 2 for multiplexed-rank DIMMs).
    rank_mux_factor: int = 1
    #: Constant data-buffer latency added to the read path (ns).
    mux_latency_ns: float = 0.0
    #: Rank-to-rank switching bubble on the shared data bus, in bus
    #: clocks (DQS hand-off; cf. Figure 16).
    rank_switch_clocks: float = 2.0
    #: Margin rungs the Hetero-DMR ladder uses for this technology,
    #: fastest first (the node-group buckets of Section III-D).
    margin_buckets: Tuple[int, ...] = ()
    #: Seeded margin-population parameters (Section II's Figure 2).
    margin_mean_mts: float = 0.0
    margin_stdev_mts: float = 0.0

    @property
    def placement_buckets(self) -> Tuple[int, ...]:
        """The scheduler's node classes: the rungs, then spec (0)."""
        return tuple(self.margin_buckets) + (0,)

    # -- timing ----------------------------------------------------------------

    def spec_timing(self) -> TimingParameters:
        """The manufacturer-specified setting (safe / write mode)."""
        raise NotImplementedError

    def fast_timing(self, margin_mts: int,
                    use_latency_margin: bool = True) -> TimingParameters:
        """The margin-exploiting setting for read mode (Table II's
        recipe applied to this technology's profile)."""
        raise NotImplementedError

    def make_table(self, params: TimingParameters) -> TimingTable:
        """Precomputed per-rung table for ``params``.

        Tables are pure functions of the parameter set, so all
        backends share the process-wide cache; the channel's
        identity-based invalidation on frequency transitions is
        untouched.
        """
        return timing_table(params)

    # -- topology --------------------------------------------------------------

    def effective_ranks(self, physical_ranks_per_module: int) -> int:
        """Logical ranks the controller addresses per module."""
        return physical_ranks_per_module * self.rank_mux_factor

    def __repr__(self) -> str:   # pragma: no cover - debugging aid
        return "{}({!r})".format(type(self).__name__, self.name)


class DDR4Backend(MemoryBackend):
    """The paper's part: a 3200 MT/s server RDIMM.

    This is a pure extraction of the pre-backend behavior —
    ``fast_timing`` is bit-for-bit
    :meth:`repro.core.config.HeteroDMRConfig.fast_timing`, and the
    fig12 reference output is the proof.
    """

    name = "ddr4"
    spec_data_rate_mts = DDR4_MAX_SPEC_MTS
    rank_mux_factor = 1
    mux_latency_ns = 0.0
    rank_switch_clocks = 2.0
    margin_buckets = (800, 600)
    #: Figure 2's measured population (module mean 890, stdev 107).
    margin_mean_mts = 890.0
    margin_stdev_mts = 107.0

    def spec_timing(self) -> TimingParameters:
        return manufacturer_spec_3200()

    def fast_timing(self, margin_mts: int,
                    use_latency_margin: bool = True) -> TimingParameters:
        timing = manufacturer_spec_3200().at_data_rate(
            self.spec_data_rate_mts + margin_mts)
        if use_latency_margin:
            timing = timing.with_latency_margin()
        return timing


#: MRDIMM margin hypothesis: the host bus runs 8800/3200 = 2.75x the
#: DDR4 anchor rate, and eye width in unit intervals is constant across
#: grades (Section III-F), so the absolute margin population scales by
#: the same ratio.
_MRDIMM_RATE_RATIO = 8800 / DDR4_MAX_SPEC_MTS


class MRDIMMBackend(MemoryBackend):
    """A multiplexed-rank DIMM (MRDIMM) backend.

    Model (arXiv 2605.02371's architecture, parameterized to this
    repro's timing vocabulary):

    * **Bus**: the data buffers mux two lockstepped pseudo-channels
      onto an 8800 MT/s host bus; the host-visible burst and CAS
      timings ride that clock.
    * **Mux latency**: the buffer re-times every beat, adding a
      constant ~2.5 ns to the read path.  It is applied to ``tCAS_ns``
      *after* rate scaling, because the buffer delay does not ride the
      DRAM clock.
    * **Ranks**: ``rank_mux_factor = 2`` — each physical rank pair
      appears as two independently addressable logical ranks, and the
      buffer hides part of the DQS hand-off, halving the rank-switch
      bubble.
    * **Refresh**: DDR5-generation cores (tREFI 3.9 us, tRFC 410 ns
      for the denser dies).
    * **Margin population**: DDR4's measured population scaled by the
      2.75x rate ratio, snapped to the BIOS step — mean 2447.5,
      stdev 294.25, ladder rungs (2200, 1600).
    """

    name = "mrdimm"
    spec_data_rate_mts = 8800
    rank_mux_factor = 2
    mux_latency_ns = 2.5
    rank_switch_clocks = 1.0
    margin_buckets = (2200, 1600)
    margin_mean_mts = 890.0 * _MRDIMM_RATE_RATIO      # 2447.5
    margin_stdev_mts = 107.0 * _MRDIMM_RATE_RATIO     # 294.25

    def _core_timing(self) -> TimingParameters:
        """The DRAM-core profile before the data-buffer adder."""
        return TimingParameters(
            data_rate_mts=self.spec_data_rate_mts,
            tRCD_ns=16.0, tRP_ns=16.0, tRAS_ns=32.0,
            tREFI_ns=3900.0, tCAS_ns=16.0, tRFC_ns=410.0,
            tWR_ns=30.0, tWTR_ns=10.0, tRTP_ns=7.5,
            tRRD_ns=5.0, tFAW_ns=13.333, tCCD_ns=5.0)

    def _with_mux(self, timing: TimingParameters) -> TimingParameters:
        return replace(timing, tCAS_ns=timing.tCAS_ns + self.mux_latency_ns)

    def spec_timing(self) -> TimingParameters:
        return self._with_mux(self._core_timing())

    def fast_timing(self, margin_mts: int,
                    use_latency_margin: bool = True) -> TimingParameters:
        timing = self._core_timing().at_data_rate(
            self.spec_data_rate_mts + margin_mts)
        if use_latency_margin:
            # The paper's conservative latency-margin fractions
            # (<16%, 16%, 9%, 92%> on <tRCD, tRP, tRAS, tREFI>)
            # applied to the MRDIMM core profile.
            timing = replace(timing, tRCD_ns=13.5, tRP_ns=12.8,
                             tRAS_ns=29.0, tREFI_ns=7500.0)
        return self._with_mux(timing)


#: Shared singletons — backends are stateless, so one instance per
#: technology serves every channel in the process.
DDR4_BACKEND = DDR4Backend()
MRDIMM_BACKEND = MRDIMMBackend()

_BACKENDS = {
    DDR4_BACKEND.name: DDR4_BACKEND,
    MRDIMM_BACKEND.name: MRDIMM_BACKEND,
}


def get_backend(kind: Optional[str] = None) -> MemoryBackend:
    """The backend instance for ``kind`` (resolved through
    :func:`resolve_backend`, so None consults ``REPRO_BACKEND``)."""
    return _BACKENDS[resolve_backend(kind)]
