"""Statistics and plain-text reporting shared by all benches."""

from .reporting import format_bar_chart, format_table
from .stats import (Z_99, cdf_at_least, confidence_interval_99, histogram,
                    mean, sample_stdev, stdev, suite_average, weighted_mean)

__all__ = [
    "Z_99", "cdf_at_least", "confidence_interval_99", "format_bar_chart",
    "format_table", "histogram", "mean", "sample_stdev", "stdev",
    "suite_average", "weighted_mean",
]
