"""Operation-level metrics: throughput, latency, per-type breakdowns.

The Autonomic Manager's control loop is driven by throughput measured by
each proxy over a moving window (Section 4: "a moving average over a
window time of 30 seconds"), so the collectors here support both
whole-run summaries and windowed queries at arbitrary simulated times.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Optional

from repro.common.errors import SimulationError
from repro.common.types import OpType


@dataclass(frozen=True)
class LatencySummary:
    """Summary statistics over a set of recorded latencies (seconds)."""

    count: int
    mean: float
    p50: float
    p95: float
    p99: float
    maximum: float

    @staticmethod
    def empty() -> "LatencySummary":
        return LatencySummary(0, 0.0, 0.0, 0.0, 0.0, 0.0)


def percentile(sorted_values: list[float], fraction: float) -> float:
    """Linear-interpolation percentile over pre-sorted values."""
    if not sorted_values:
        return 0.0
    if not 0.0 <= fraction <= 1.0:
        raise SimulationError(f"percentile fraction {fraction} out of range")
    if len(sorted_values) == 1:
        return sorted_values[0]
    position = fraction * (len(sorted_values) - 1)
    low = math.floor(position)
    high = math.ceil(position)
    if low == high:
        return sorted_values[low]
    weight = position - low
    lower = sorted_values[low]
    return lower + weight * (sorted_values[high] - lower)


class OperationLog:
    """Records every completed operation with its completion time.

    Completion times are appended in nondecreasing order (simulated time
    is monotonic), which makes windowed throughput queries a pair of
    binary searches.
    """

    def __init__(self) -> None:
        self._completion_times: list[float] = []
        self._latencies: list[float] = []
        self._by_type: dict[OpType, int] = {OpType.READ: 0, OpType.WRITE: 0}
        self._latencies_by_type: dict[OpType, list[float]] = {
            OpType.READ: [],
            OpType.WRITE: [],
        }
        self._retries = 0
        # Latency lists are append-only, so a sorted view stays valid
        # until the next record(); cache it per op_type (None = all)
        # keyed by the list length it was built from.
        self._sorted_cache: dict[
            Optional[OpType], tuple[int, list[float]]
        ] = {}

    # -- recording ------------------------------------------------------------

    def record(
        self, completed_at: float, latency: float, op_type: OpType
    ) -> None:
        if self._completion_times and completed_at < self._completion_times[-1]:
            raise SimulationError("operation completion times went backwards")
        if latency < 0:
            raise SimulationError("negative latency recorded")
        self._completion_times.append(completed_at)
        self._latencies.append(latency)
        self._by_type[op_type] += 1
        self._latencies_by_type[op_type].append(latency)

    def record_retry(self) -> None:
        """Count an operation re-execution (epoch NACK or quorum retry)."""
        self._retries += 1

    # -- queries ----------------------------------------------------------------

    @property
    def total_operations(self) -> int:
        return len(self._completion_times)

    @property
    def retries(self) -> int:
        return self._retries

    def count(self, op_type: Optional[OpType] = None) -> int:
        if op_type is None:
            return self.total_operations
        return self._by_type[op_type]

    def operations_in(self, start: float, end: float) -> int:
        """Operations completed in the half-open window [start, end)."""
        if end < start:
            raise SimulationError("window end before start")
        lo = bisect.bisect_left(self._completion_times, start)
        hi = bisect.bisect_left(self._completion_times, end)
        return hi - lo

    def throughput(self, start: float, end: float) -> float:
        """Completed operations per second over [start, end)."""
        duration = end - start
        if duration <= 0:
            return 0.0
        return self.operations_in(start, end) / duration

    def _sorted_latencies(self, op_type: Optional[OpType]) -> list[float]:
        """Sorted latency view, memoized while no new records arrive.

        Control loops query summaries every round over ever-growing
        logs; re-sorting the full list per query is O(n log n) each
        time, so repeated queries between records hit the cache.
        """
        values = (
            self._latencies
            if op_type is None
            else self._latencies_by_type[op_type]
        )
        cached = self._sorted_cache.get(op_type)
        if cached is not None and cached[0] == len(values):
            return cached[1]
        ordered = sorted(values)
        self._sorted_cache[op_type] = (len(values), ordered)
        return ordered

    def latency_summary(
        self, op_type: Optional[OpType] = None
    ) -> LatencySummary:
        ordered = self._sorted_latencies(op_type)
        if not ordered:
            return LatencySummary.empty()
        return LatencySummary(
            count=len(ordered),
            mean=sum(ordered) / len(ordered),
            p50=percentile(ordered, 0.50),
            p95=percentile(ordered, 0.95),
            p99=percentile(ordered, 0.99),
            maximum=ordered[-1],
        )
