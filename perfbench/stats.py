"""Order statistics used by the benchmark report."""

from __future__ import annotations

import math
import statistics

# Percentiles considered for the tail figure, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
# A tail percentile is reported only when at least this many samples lie beyond it.
TAIL_MIN_BEYOND = 10


def _rank(pct, n):
    """1-based nearest rank of the pct-th percentile among n samples (guarded against 0.999 * n rounding up)."""
    return max(math.ceil(round(pct * n / 100.0, 9)), 1)


def median(values):
    return statistics.median(values)


def nearest_rank(values, pct):
    """Nearest-rank percentile: the smallest sample with at least pct% of samples at or below it."""
    if not values:
        raise ValueError("no samples")
    if not 0.0 < pct <= 100.0:
        raise ValueError(f"percentile {pct} outside (0, 100]")
    return sorted(values)[_rank(pct, len(values)) - 1]


def tail_percentile(n):
    """Highest ladder percentile with at least TAIL_MIN_BEYOND of n samples beyond its rank, or None."""
    for pct in TAIL_LADDER:
        if n - _rank(pct, n) >= TAIL_MIN_BEYOND:
            return pct
    return None


def tail(values):
    """(percentile, value) of the tail figure, or None when the run has too few samples."""
    pct = tail_percentile(len(values))
    if pct is None:
        return None
    return pct, nearest_rank(values, pct)

