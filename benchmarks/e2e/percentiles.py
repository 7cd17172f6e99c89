"""Percentile rule and run-to-run summaries.

A timing is reported as its median plus the highest percentile that has
at least :data:`MIN_BEYOND` samples beyond it, with the sample count
stated.  A tail percentile taken from fewer samples describes a handful
of requests, not the tail, so :func:`percentile` refuses it.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Optional, Sequence, Tuple

#: Samples that must lie beyond a percentile for it to be reported.
MIN_BEYOND = 10

#: Tail percentiles the report chooses from, highest first.
TAILS = (99.9, 99.0, 95.0, 90.0)


def supports(n: int, q: float) -> bool:
    """True when *n* samples leave at least MIN_BEYOND beyond the q-th
    percentile (p99 therefore needs 1000 samples, p95 needs 200)."""
    return n * (100.0 - q) / 100.0 >= MIN_BEYOND - 1e-9


def percentile(values: Sequence[float], q: float) -> float:
    """The q-th percentile (linear interpolation between order statistics).

    Raises ``ValueError`` when the sample does not support *q*.
    """
    n = len(values)
    if not supports(n, q):
        raise ValueError(f"p{q:g} needs at least "
                         f"{math.ceil(MIN_BEYOND * 100 / (100 - q))} "
                         f"samples, got {n}")
    ordered = sorted(values)
    pos = (n - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, n - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail(values: Sequence[float]) -> Optional[Tuple[str, float]]:
    """``(label, value)`` of the highest supported tail percentile, or
    None when even p90 has fewer than MIN_BEYOND samples beyond it."""
    for q in TAILS:
        if supports(len(values), q):
            return f"p{q:g}", percentile(values, q)
    return None


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives
    them; a single value is its own quartiles."""
    if len(values) < 2:
        v = float(values[0])
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else math.inf


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles, relative spread and count of a series of runs."""
    q1, q2, q3 = quartiles(values)
    return {"n": len(values), "median": q2, "q1": q1, "q3": q3,
            "spread": spread(values)}
