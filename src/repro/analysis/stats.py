"""Throughput and latency statistics for experiment runs.

The paper reports throughput in Mbit/s of *payload* (values read or
written per second times value size) and latency in milliseconds, each
averaged over at least three runs.  This module provides those exact
aggregations plus the usual percentiles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence


def mbit_per_s(payload_bytes: float, seconds: float) -> float:
    """Convert a byte count over a duration to Mbit/s (paper's unit)."""
    if seconds <= 0:
        raise ValueError(f"duration must be > 0, got {seconds}")
    return payload_bytes * 8.0 / seconds / 1e6


@dataclass(frozen=True)
class LatencyStats:
    """Latency summary over a set of completed operations (seconds)."""

    count: int
    mean: float
    p50: float
    p95: float
    p99: float
    max: float

    @staticmethod
    def from_samples(samples: Sequence[float]) -> "LatencyStats":
        if not samples:
            return LatencyStats(0, math.nan, math.nan, math.nan, math.nan, math.nan)
        ordered = sorted(samples)
        return LatencyStats(
            count=len(ordered),
            mean=sum(ordered) / len(ordered),
            p50=percentile(ordered, 50.0),
            p95=percentile(ordered, 95.0),
            p99=percentile(ordered, 99.0),
            max=ordered[-1],
        )


def percentile(ordered: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of an already-sorted sequence."""
    if not ordered:
        raise ValueError("no samples")
    if not 0 <= pct <= 100:
        raise ValueError(f"percentile out of range: {pct}")
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def mean(values: Iterable[float]) -> float:
    """Plain mean; raises on empty input."""
    items = list(values)
    if not items:
        raise ValueError("no samples")
    return sum(items) / len(items)


def linear_fit(xs: Sequence[float], ys: Sequence[float]) -> tuple[float, float]:
    """Least-squares fit ``y = slope * x + intercept``.

    Used by benchmark assertions to verify the paper's linear-scaling
    claims (e.g. read throughput vs number of servers, write latency vs
    number of servers).
    """
    if len(xs) != len(ys) or len(xs) < 2:
        raise ValueError("need at least two paired samples")
    n = len(xs)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    sxx = sum((x - mean_x) ** 2 for x in xs)
    if sxx == 0:
        raise ValueError("degenerate x values")
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    slope = sxy / sxx
    return slope, mean_y - slope * mean_x


def r_squared(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Coefficient of determination of the least-squares line."""
    slope, intercept = linear_fit(xs, ys)
    mean_y = sum(ys) / len(ys)
    ss_tot = sum((y - mean_y) ** 2 for y in ys)
    ss_res = sum((y - (slope * x + intercept)) ** 2 for x, y in zip(xs, ys))
    if ss_tot == 0:
        return 1.0
    return 1.0 - ss_res / ss_tot
