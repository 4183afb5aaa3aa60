"""Error models, rates, and fault injection for out-of-spec operation."""

from .injector import ErrorInjector, InjectionStats, poisson_draw
from .models import (ERROR_PATTERNS, STORED_BYTES, chip_failure,
                     full_block_error, multi_byte_burst, row_corruption,
                     single_bit_flip, stuck_at_zero)
from .telemetry import (ErrorRecord, MarginAdvice, MarginAdvisor,
                        ModuleErrorLog)
from .rates import (ErrorScenario, FULL_POPULATION_MULTIPLIER,
                    errors_per_hour, population_error_summary)

__all__ = [
    "ERROR_PATTERNS", "ErrorInjector", "ErrorRecord", "ErrorScenario",
    "MarginAdvice", "MarginAdvisor", "ModuleErrorLog",
    "FULL_POPULATION_MULTIPLIER", "InjectionStats", "STORED_BYTES",
    "chip_failure", "errors_per_hour", "full_block_error", "multi_byte_burst",
    "poisson_draw", "population_error_summary", "row_corruption",
    "single_bit_flip", "stuck_at_zero",
]
