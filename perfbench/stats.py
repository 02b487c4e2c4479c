"""Small statistics helpers shared by the benchmark and its tests."""

from __future__ import annotations

import math
import statistics

#: Tail levels the benchmark may report, highest first.
TAIL_LEVELS = (0.999, 0.99, 0.95, 0.9, 0.75, 0.5)

#: A tail level must leave at least this many samples beyond it.
MIN_BEYOND = 10


def tail_level(num_samples: int, min_beyond: int = MIN_BEYOND) -> float:
    """The highest level of :data:`TAIL_LEVELS` leaving ``min_beyond`` samples beyond it.

    A level ``q`` leaves ``floor(n * (1 - q))`` samples above it.  Raises
    ``ValueError`` when even the median leaves fewer than ``min_beyond``.
    """
    for level in TAIL_LEVELS:
        if math.floor(num_samples * (1.0 - level) + 1e-9) >= min_beyond:
            return level
    raise ValueError(
        f"{num_samples} samples leave fewer than {min_beyond} beyond the median"
    )


def quantile(values, level: float) -> float:
    """Linearly interpolated quantile (numpy's default ``linear`` method)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("quantile of an empty sample")
    position = level * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def relative_iqr(values) -> float:
    """Quartile distance over the median, as ``statistics.quantiles(n=4)`` gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else math.inf


def covered_length(start: float, end: float, intervals) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``.

    Intervals may nest, overlap or stick out of ``[start, end]``; each point
    is counted once.
    """
    clipped = sorted(
        (max(s, start), min(e, end)) for s, e in intervals if min(e, end) > max(s, start)
    )
    total = 0.0
    run_start = run_end = None
    for s, e in clipped:
        if run_end is None or s > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = s, e
        else:
            run_end = max(run_end, e)
    if run_end is not None:
        total += run_end - run_start
    return total
