"""DDR4 device and channel substrate (timing, banks, ranks, modules,
frequency scaling, power)."""

from .backend import (BACKEND_ENV_VAR, DDR4_BACKEND, MRDIMM_BACKEND,
                      VALID_BACKENDS, DDR4Backend, MemoryBackend,
                      MRDIMMBackend, get_backend, resolve_backend)
from .bank import Bank, BankStats
from .channel import Channel, ChannelStats, SafetyViolation
from .commands import Command, CommandType
from .protocol import ProtocolChecker, ProtocolViolation, TimedCommand
from .frequency import (FrequencyMachine, FrequencyState, IllegalTransition,
                        TRANSITION_NS, TransitionRecord)
from .module import Module, ModuleSpec
from .power import DramPowerParams
from .rank import (BANKS_PER_RANK, Rank, SELF_REFRESH_ENTER_NS,
                   SELF_REFRESH_EXIT_NS, SelfRefreshViolation)
from .timing import (BURST_LENGTH, DATA_RATE_STEP_MTS, DDR4_MAX_SPEC_MTS,
                     DDR4_STANDARD_VOLTAGE, DDR4_ELEVATED_VOLTAGE,
                     TABLE2_SETTINGS, TimingParameters,
                     exploit_freq_lat_margins, exploit_frequency_margin,
                     exploit_latency_margin, manufacturer_spec_3200)

__all__ = [
    "BACKEND_ENV_VAR", "DDR4_BACKEND", "MRDIMM_BACKEND", "VALID_BACKENDS",
    "DDR4Backend", "MRDIMMBackend", "MemoryBackend", "get_backend",
    "resolve_backend", "BANKS_PER_RANK", "BURST_LENGTH", "Bank", "BankStats",
    "Channel", "ChannelStats", "Command", "CommandType", "ProtocolChecker",
    "ProtocolViolation", "TimedCommand", "DATA_RATE_STEP_MTS",
    "DDR4_ELEVATED_VOLTAGE", "DDR4_MAX_SPEC_MTS", "DDR4_STANDARD_VOLTAGE",
    "DramPowerParams", "FrequencyMachine", "FrequencyState",
    "IllegalTransition", "Module", "ModuleSpec", "Rank",
    "SELF_REFRESH_ENTER_NS", "SELF_REFRESH_EXIT_NS", "SafetyViolation",
    "SelfRefreshViolation", "TABLE2_SETTINGS", "TRANSITION_NS",
    "TimingParameters", "TransitionRecord", "exploit_freq_lat_margins",
    "exploit_frequency_margin", "exploit_latency_margin",
    "manufacturer_spec_3200",
]
