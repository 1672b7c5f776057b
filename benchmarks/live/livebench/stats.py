"""Arithmetic the benchmark reports with: percentiles, windows, spreads."""

from __future__ import annotations

import math
import statistics
from typing import List, Sequence, Tuple

from repro.metrics.collector import percentile


def window_index(
    at: float, start: float, window: float, count: int
) -> int:
    """Which of ``count`` windows from ``start`` holds ``at`` (-1: none)."""
    if at < start:
        return -1
    index = int((at - start) // window)
    return index if index < count else -1


def cut_windows(
    samples: Sequence[Tuple[float, float]],
    start: float,
    window: float,
    count: int,
) -> List[List[float]]:
    """Group ``(completed_at, latency)`` samples into ``count`` windows."""
    windows: List[List[float]] = [[] for _ in range(count)]
    for completed_at, latency in samples:
        index = window_index(completed_at, start, window, count)
        if index >= 0:
            windows[index].append(latency)
    return windows


def median_window_rate(windows: Sequence[Sequence[float]], window: float) -> float:
    """Median over windows of completions per second."""
    return statistics.median(len(entries) / window for entries in windows)


def median_window_percentile(
    windows: Sequence[Sequence[float]], fraction: float
) -> float:
    """Median over the non-empty windows of each window's percentile
    (the repo's linear-interpolation ``percentile``)."""
    return statistics.median(
        percentile(sorted(entries), fraction) for entries in windows if entries
    )


def range_spread(values: Sequence[float]) -> float:
    """``(max - min) / median`` — the ``--repeat`` noise measure."""
    middle = statistics.median(values)
    if middle == 0:
        return 0.0 if max(values) == min(values) else math.inf
    return (max(values) - min(values)) / abs(middle)
