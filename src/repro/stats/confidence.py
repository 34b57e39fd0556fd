"""Confidence intervals for simulation output.

Per-packet latencies from one simulation run are autocorrelated (congestion
persists across cycles), so a naive i.i.d. confidence interval understates
the error.  The standard remedy -- and the one used here -- is the *batch
means* method: split the ordered sample into ``k`` equal batches, treat the
batch means as (approximately) independent draws, and apply a Student-t
interval to those.

The paper reports that its 95% confidence intervals were within 1% of the
mean; the harness reproduces that check via these functions.
"""

from __future__ import annotations

import math
from typing import Sequence

# Two-sided Student-t critical values, indexed by degrees of freedom.
_T_TABLE_95 = {
    1: 12.706, 2: 4.303, 3: 3.182, 4: 2.776, 5: 2.571, 6: 2.447, 7: 2.365,
    8: 2.306, 9: 2.262, 10: 2.228, 11: 2.201, 12: 2.179, 13: 2.160,
    14: 2.145, 15: 2.131, 19: 2.093, 24: 2.064, 29: 2.045, 39: 2.023,
    59: 2.001, 99: 1.984,
}
_T_TABLE_99 = {
    1: 63.657, 2: 9.925, 3: 5.841, 4: 4.604, 5: 4.032, 6: 3.707, 7: 3.499,
    8: 3.355, 9: 3.250, 10: 3.169, 11: 3.106, 12: 3.055, 13: 3.012,
    14: 2.977, 15: 2.947, 19: 2.861, 24: 2.797, 29: 2.756, 39: 2.708,
    59: 2.662, 99: 2.626,
}


def _t_critical(degrees_of_freedom: int, level: float) -> float:
    """Two-sided t critical value, conservatively rounded up between rows."""
    if level == 0.95:
        table = _T_TABLE_95
    elif level == 0.99:
        table = _T_TABLE_99
    else:
        raise ValueError(f"only 0.95 and 0.99 levels are tabulated, got {level}")
    if degrees_of_freedom < 1:
        raise ValueError("need at least 2 batches for a confidence interval")
    # t falls as df grows, so the largest tabulated df at or below ours has
    # a critical value at least the exact one: the interval is conservative.
    # Above the table that is the df=99 row, never the normal z.
    return table[max(df for df in table if df <= degrees_of_freedom)]


def mean_and_halfwidth(
    samples: Sequence[float], level: float = 0.95, batches: int = 20
) -> tuple[float, float]:
    """Mean and CI half-width of a (possibly autocorrelated) sample.

    Uses batch means with ``batches`` batches (reduced automatically when
    the sample is small).  With fewer than 4 samples the half-width is
    reported as infinite rather than pretending to precision.
    """
    n = len(samples)
    if n == 0:
        raise ValueError("no samples")
    mean = sum(samples) / n
    if n < 4:
        return mean, math.inf
    k = min(batches, n // 2)
    batch_size = n // k
    batch_means: list[float] = []
    for b in range(k):
        chunk = samples[b * batch_size : (b + 1) * batch_size]
        batch_means.append(sum(chunk) / len(chunk))
    grand = sum(batch_means) / k
    variance = sum((m - grand) ** 2 for m in batch_means) / (k - 1)
    halfwidth = _t_critical(k - 1, level) * math.sqrt(variance / k)
    return mean, halfwidth


def confidence_interval(
    samples: Sequence[float], level: float = 0.95, batches: int = 20
) -> tuple[float, float]:
    """The (low, high) confidence interval of the mean."""
    mean, halfwidth = mean_and_halfwidth(samples, level=level, batches=batches)
    return mean - halfwidth, mean + halfwidth
