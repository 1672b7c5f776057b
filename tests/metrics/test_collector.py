"""Unit and property tests for the metrics collectors."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.common.errors import SimulationError
from repro.common.types import OpType
from repro.metrics.collector import (
    LatencySummary,
    OperationLog,
    percentile,
)


class TestPercentile:
    def test_empty_returns_zero(self):
        assert percentile([], 0.5) == 0.0

    def test_single_value(self):
        assert percentile([3.0], 0.99) == 3.0

    def test_median_of_even_count_interpolates(self):
        assert percentile([1.0, 2.0, 3.0, 4.0], 0.5) == pytest.approx(2.5)

    def test_extremes(self):
        values = [1.0, 2.0, 3.0]
        assert percentile(values, 0.0) == 1.0
        assert percentile(values, 1.0) == 3.0

    def test_out_of_range_fraction_rejected(self):
        with pytest.raises(SimulationError):
            percentile([1.0], 1.5)

    @given(
        values=st.lists(
            st.floats(min_value=0, max_value=1e6), min_size=1, max_size=50
        ),
        fraction=st.floats(min_value=0, max_value=1),
    )
    def test_percentile_within_range(self, values, fraction):
        ordered = sorted(values)
        result = percentile(ordered, fraction)
        assert ordered[0] <= result <= ordered[-1]


class TestOperationLog:
    def test_counts_by_type(self):
        log = OperationLog()
        log.record(1.0, 0.01, OpType.READ)
        log.record(2.0, 0.02, OpType.WRITE)
        log.record(3.0, 0.03, OpType.READ)
        assert log.total_operations == 3
        assert log.count(OpType.READ) == 2
        assert log.count(OpType.WRITE) == 1

    def test_windowed_throughput(self):
        log = OperationLog()
        for t in [0.5, 1.5, 2.5, 3.5]:
            log.record(t, 0.01, OpType.READ)
        assert log.operations_in(1.0, 3.0) == 2
        assert log.throughput(1.0, 3.0) == pytest.approx(1.0)

    def test_window_is_half_open(self):
        log = OperationLog()
        log.record(1.0, 0.01, OpType.READ)
        assert log.operations_in(1.0, 2.0) == 1
        assert log.operations_in(0.0, 1.0) == 0

    def test_empty_window_throughput_zero(self):
        assert OperationLog().throughput(5.0, 5.0) == 0.0

    def test_out_of_order_completion_rejected(self):
        log = OperationLog()
        log.record(2.0, 0.01, OpType.READ)
        with pytest.raises(SimulationError):
            log.record(1.0, 0.01, OpType.READ)

    def test_negative_latency_rejected(self):
        with pytest.raises(SimulationError):
            OperationLog().record(1.0, -0.1, OpType.READ)

    def test_latency_summary(self):
        log = OperationLog()
        for index, latency in enumerate([0.010, 0.020, 0.030, 0.040]):
            log.record(float(index), latency, OpType.READ)
        summary = log.latency_summary()
        assert summary.count == 4
        assert summary.mean == pytest.approx(0.025)
        assert summary.p50 == pytest.approx(0.025)
        assert summary.maximum == pytest.approx(0.040)

    def test_latency_summary_by_type(self):
        log = OperationLog()
        log.record(1.0, 0.010, OpType.READ)
        log.record(2.0, 0.100, OpType.WRITE)
        assert log.latency_summary(OpType.READ).mean == pytest.approx(0.010)
        assert log.latency_summary(OpType.WRITE).mean == pytest.approx(0.100)

    def test_empty_summary(self):
        assert OperationLog().latency_summary() == LatencySummary.empty()

    def test_retry_counter(self):
        log = OperationLog()
        log.record_retry()
        log.record_retry()
        assert log.retries == 2


class TestSortedViewMemoization:
    """latency_summary memoizes its sorted view between records."""

    @staticmethod
    def _fill(log: OperationLog, count: int = 200) -> None:
        # Deterministic but shuffled-looking latencies.
        for i in range(count):
            latency = ((i * 7919) % count) / 1000.0
            op = OpType.READ if i % 3 else OpType.WRITE
            log.record(completed_at=float(i), latency=latency, op_type=op)

    def test_percentiles_pinned(self):
        """Memoized summaries match a fresh sort exactly."""
        log = OperationLog()
        self._fill(log)
        first = log.latency_summary()
        again = log.latency_summary()
        assert again == first
        reference = sorted(
            ((i * 7919) % 200) / 1000.0 for i in range(200)
        )
        assert first.count == 200
        assert first.p50 == percentile(reference, 0.50)
        assert first.p95 == percentile(reference, 0.95)
        assert first.p99 == percentile(reference, 0.99)
        assert first.maximum == reference[-1]

    def test_cache_reused_until_next_record(self):
        log = OperationLog()
        self._fill(log, 50)
        log.latency_summary()
        cached = log._sorted_cache[None][1]
        assert log._sorted_latencies(None) is cached
        log.record(completed_at=100.0, latency=0.5, op_type=OpType.READ)
        assert log._sorted_latencies(None) is not cached

    def test_cache_invalidated_per_type(self):
        log = OperationLog()
        self._fill(log, 60)
        read_before = log.latency_summary(OpType.READ)
        log.record(completed_at=100.0, latency=9.9, op_type=OpType.WRITE)
        # READ list unchanged: same summary; WRITE picks up the record.
        assert log.latency_summary(OpType.READ) == read_before
        assert log.latency_summary(OpType.WRITE).maximum == 9.9
