"""Statistical helpers used across characterization and evaluation.

The paper reports averages, standard deviations, 99% confidence
intervals (computed with the normal distribution, following prior
work [60]), weighted averages across memory-usage buckets, and
geometric means across benchmark suites.  This module implements those
primitives once so every figure's bench uses identical math.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Sequence, Tuple

#: z-score of the two-sided 99% confidence interval of a normal
#: distribution.  The paper's Figure 3a uses normal-distribution CIs.
Z_99 = 2.5758293035489004


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean. Raises ``ValueError`` on an empty sequence."""
    values = list(values)
    if not values:
        raise ValueError("mean() of empty sequence")
    return sum(values) / len(values)


def stdev(values: Sequence[float]) -> float:
    """Population standard deviation (the paper reports STDev of full
    module groups, not samples of a larger set)."""
    values = list(values)
    if not values:
        raise ValueError("stdev() of empty sequence")
    mu = mean(values)
    return math.sqrt(sum((v - mu) ** 2 for v in values) / len(values))


def sample_stdev(values: Sequence[float]) -> float:
    """Bessel-corrected sample standard deviation."""
    values = list(values)
    if len(values) < 2:
        raise ValueError("sample_stdev() needs at least two values")
    mu = mean(values)
    return math.sqrt(sum((v - mu) ** 2 for v in values) / (len(values) - 1))


def confidence_interval_99(values: Sequence[float]) -> Tuple[float, float]:
    """Return ``(mean, half_width)`` of the normal-distribution 99% CI.

    Mirrors the paper's Figure 3a methodology ("we use the normal
    distribution to calculate CI similar to a prior work [60]").
    """
    values = list(values)
    mu = mean(values)
    if len(values) < 2:
        return mu, 0.0
    half = Z_99 * sample_stdev(values) / math.sqrt(len(values))
    return mu, half


def weighted_mean(values: Sequence[float], weights: Sequence[float]) -> float:
    """Weighted arithmetic mean; weights need not be normalized."""
    values = list(values)
    weights = list(weights)
    if len(values) != len(weights):
        raise ValueError("values and weights must have equal length")
    total = sum(weights)
    if total <= 0:
        raise ValueError("weights must sum to a positive value")
    return sum(v * w for v, w in zip(values, weights)) / total


def suite_average(per_suite: Dict[str, float]) -> float:
    """Average that weighs every suite equally, per the paper's footnote 1
    ("average across six HPC benchmark suites means weighing every suite
    equally")."""
    return mean(list(per_suite.values()))


def histogram(values: Iterable[float], bin_width: float,
              origin: float = 0.0) -> Dict[float, int]:
    """Bucket ``values`` into ``bin_width``-wide bins anchored at
    ``origin``; returns ``{bin_left_edge: count}`` sorted by edge."""
    if bin_width <= 0:
        raise ValueError("bin_width must be positive")
    counts: Dict[float, int] = {}
    for v in values:
        edge = origin + math.floor((v - origin) / bin_width) * bin_width
        counts[edge] = counts.get(edge, 0) + 1
    return dict(sorted(counts.items()))


def cdf_at_least(values: Sequence[float], threshold: float) -> float:
    """Fraction of ``values`` that are >= ``threshold`` (used for the
    Figure 11 'X% of channels/nodes have at least Y GT/s margin' stats)."""
    values = list(values)
    if not values:
        raise ValueError("cdf_at_least() of empty sequence")
    return sum(1 for v in values if v >= threshold) / len(values)
