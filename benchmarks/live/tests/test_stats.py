"""Window-median, percentile and spread arithmetic."""

import math

import pytest

from livebench import stats


def test_window_percentile_interpolates_inside_each_window():
    # p50 of [1..5] is 3; p99 of [0, 100] is 99 by linear interpolation.
    windows = [[5.0, 1.0, 4.0, 2.0, 3.0], [100.0, 0.0]]
    assert stats.median_window_percentile(windows[:1], 0.5) == 3.0
    assert stats.median_window_percentile(windows[1:], 0.99) == pytest.approx(99.0)
    assert stats.median_window_percentile(windows, 0.5) == pytest.approx(26.5)
    assert stats.median_window_percentile([[7.0]], 0.99) == 7.0


def test_window_index_edges():
    assert stats.window_index(9.99, 10.0, 5.0, 2) == -1
    assert stats.window_index(10.0, 10.0, 5.0, 2) == 0
    assert stats.window_index(14.999, 10.0, 5.0, 2) == 0
    assert stats.window_index(15.0, 10.0, 5.0, 2) == 1
    assert stats.window_index(20.0, 10.0, 5.0, 2) == -1


def test_median_window_shrugs_off_one_burst():
    # Three windows of 2 s: 10, 10 and 40 completions.
    samples = (
        [(0.1 * i, 0.001) for i in range(10)]
        + [(2 + 0.1 * i, 0.001) for i in range(10)]
        + [(4 + 0.04 * i, 0.050) for i in range(40)]
        + [(6.5, 9.9), (-1.0, 9.9)]  # outside every window
    )
    windows = stats.cut_windows(samples, 0.0, 2.0, 3)
    assert [len(w) for w in windows] == [10, 10, 40]
    assert stats.median_window_rate(windows, 2.0) == 5.0
    assert stats.median_window_percentile(windows, 0.99) == 0.001


def test_median_window_percentile_skips_empty_windows():
    assert stats.median_window_percentile([[0.2], [], [0.4]], 0.5) == pytest.approx(0.3)


def test_spreads():
    assert stats.range_spread([9.0, 10.0, 11.0]) == pytest.approx(0.2)
    assert stats.range_spread([0.0, 0.0]) == 0.0
    assert math.isinf(stats.range_spread([0.0, 0.0, 1.0]))
