"""Unit tests for throughput/latency statistics."""

import math

import pytest

from repro.analysis.stats import (
    LatencyStats,
    linear_fit,
    mbit_per_s,
    mean,
    percentile,
    r_squared,
)


def test_mbit_per_s():
    assert mbit_per_s(1_000_000, 8.0) == 1.0
    with pytest.raises(ValueError):
        mbit_per_s(1, 0)


def test_latency_stats_percentiles():
    stats = LatencyStats.from_samples([i / 1000 for i in range(1, 101)])
    assert stats.count == 100
    assert stats.p50 == 0.050
    assert stats.p95 == 0.095
    assert stats.p99 == 0.099
    assert stats.max == 0.100
    assert abs(stats.mean - 0.0505) < 1e-12


def test_latency_stats_empty():
    stats = LatencyStats.from_samples([])
    assert stats.count == 0 and math.isnan(stats.mean)


def test_percentile_bounds():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 150)
    with pytest.raises(ValueError):
        percentile([1.0], -0.5)
    assert percentile([1.0, 2.0], 0) == 1.0
    assert percentile([1.0, 2.0], 100) == 2.0


def test_percentile_zero_returns_minimum():
    """The 0th percentile is the smallest sample (nearest-rank clamps
    the rank to 1), for any input size — including a singleton."""
    assert percentile([3.5], 0.0) == 3.5
    assert percentile([1.0, 2.0, 3.0], 0.0) == 1.0
    assert percentile(sorted([9.0, -2.0, 4.0]), 0.0) == -2.0


def test_mean_rejects_empty():
    with pytest.raises(ValueError):
        mean([])
    assert mean([1.0, 3.0]) == 2.0


def test_linear_fit_exact_line():
    xs = [1, 2, 3, 4]
    ys = [3.0, 5.0, 7.0, 9.0]
    slope, intercept = linear_fit(xs, ys)
    assert abs(slope - 2.0) < 1e-12
    assert abs(intercept - 1.0) < 1e-12
    assert r_squared(xs, ys) == pytest.approx(1.0)


def test_linear_fit_flat_line_r2():
    xs = [1, 2, 3, 4]
    ys = [5.0, 5.0, 5.0, 5.0]
    slope, _ = linear_fit(xs, ys)
    assert abs(slope) < 1e-12
    assert r_squared(xs, ys) == 1.0


def test_linear_fit_rejects_degenerate():
    with pytest.raises(ValueError):
        linear_fit([1], [2])
    with pytest.raises(ValueError):
        linear_fit([1, 1], [2, 3])
