"""Order statistics the harness and the comparator share."""

from __future__ import annotations

import statistics

#: Candidate tail percentiles, lowest first.
_TAILS = (75.0, 80.0, 90.0, 95.0, 98.0, 99.0)


def percentile(values, q: float) -> float | None:
    """The *q*-th percentile (nearest rank, linear between ranks)."""
    ordered = sorted(values)
    if not ordered:
        return None
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def tail_percentile(nominal_samples: float) -> float:
    """The highest percentile with at least ten samples expected beyond
    it; p75 when there are too few samples for any."""
    chosen = _TAILS[0]
    for q in _TAILS:
        if nominal_samples * (100.0 - q) >= 1000.0 - 1e-6:
            chosen = q
    return chosen


def ratio(a, b) -> float | None:
    """a / b; None when either side is missing or *b* is zero."""
    return None if a is None or not b else a / b


def median(values) -> float | None:
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def quartiles(values) -> tuple[float, float] | None:
    """(q1, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    values = [v for v in values if v is not None]
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def spread(values) -> float:
    """Interquartile distance as a share of the median (0 if undefined)."""
    quarts, mid = quartiles(values), median(values)
    if quarts is None or not mid:
        return 0.0
    return (quarts[1] - quarts[0]) / abs(mid)
