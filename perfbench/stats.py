"""Summary statistics the benchmark reports."""

from __future__ import annotations

import math
from collections.abc import Sequence

#: A percentile is only reported when at least this many samples lie
#: beyond it; otherwise its value is decided by a handful of outliers.
MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """Raised when a percentile has fewer than ``MIN_BEYOND`` samples beyond it."""


def _beyond(n: int, q: float) -> int:
    """Samples ranked above ``ceil(q * n)`` (tolerant of float round-off)."""
    return n - math.ceil(q * n - 1e-9)


def samples_needed(q: float) -> int:
    """The smallest sample count for which percentile ``q`` may be reported."""
    n = 1
    while _beyond(n, q) < MIN_BEYOND:
        n += 1
    return n


def percentile(values: Sequence[float], q: float) -> float:
    """Percentile ``q`` (0 < q < 1) by linear interpolation between ranks.

    Refuses (``TooFewSamples``) unless at least ``MIN_BEYOND`` samples lie
    above the rank ``ceil(q * n)``.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"percentile must be in (0, 1), got {q}")
    n = len(values)
    beyond = _beyond(n, q)
    if beyond < MIN_BEYOND:
        raise TooFewSamples(
            f"p{round(q * 100)} needs {MIN_BEYOND} samples beyond it; "
            f"{n} samples leave {beyond}"
        )
    ordered = sorted(values)
    position = q * (n - 1)
    low = math.floor(position)
    high = min(low + 1, n - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values: Sequence[float]) -> float:
    """Plain median (of set-up samples and of per-pass figures)."""
    if not values:
        raise ValueError("median of no values")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2

