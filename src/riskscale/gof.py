"""Kolmogorov-Smirnov goodness-of-fit harness.

Empirical samples are validated 1-D float arrays (see :func:`as_sample`).
Critical values use the asymptotic Kolmogorov distribution,
c(level) = sqrt(-ln(level/2)/2), giving c(0.01) = 1.628 and c(0.05) = 1.358;
exact small-sample tables are out of scope since every verification run here
uses n >= 10^3.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError


@dataclass(frozen=True)
class GofReport:
    """Outcome of a single goodness-of-fit or identity check."""

    test_name: str
    statistic: float
    threshold: float
    passed: bool
    n: int


def report(test_name: str, statistic: float, threshold: float, n: int) -> GofReport:
    """Build a GofReport with pass <=> statistic <= threshold."""
    statistic = float(statistic)
    threshold = float(threshold)
    return GofReport(test_name, statistic, threshold, statistic <= threshold, int(n))


def as_sample(values, name: str = "sample") -> np.ndarray:
    """``values`` as a 1-D float array of finite values, at least the 10 that
    a KS test needs."""
    arr = np.asarray(values, dtype=float).reshape(-1)
    if not np.isfinite(arr).all():
        raise ParameterError(f"{name} contains non-finite values")
    if arr.size < 10:
        raise ParameterError(f"KS test needs n >= 10, got n={arr.size}")
    return arr


def ks_critical(level: float) -> float:
    """Asymptotic Kolmogorov critical constant c(level)."""
    if not 0.0 < level < 1.0:
        raise ParameterError(f"level must lie in (0, 1), got {level}")
    return float(np.sqrt(-np.log(level / 2.0) / 2.0))


def ks_one_sample(x, cdf, level: float = 0.01) -> GofReport:
    """One-sample KS test of ``x`` against a vectorized CDF callable."""
    x = as_sample(x)
    n = x.size
    xs = np.sort(x)
    f = np.asarray(cdf(xs), dtype=float)
    grid = np.arange(1, n + 1) / n
    d_plus = np.max(grid - f)
    d_minus = np.max(f - (grid - 1.0 / n))
    stat = max(float(d_plus), float(d_minus))
    threshold = ks_critical(level) / np.sqrt(n)
    return report("ks_one_sample", stat, threshold, n)


def ks_two_sample(x, y, level: float = 0.01) -> GofReport:
    """Two-sample KS test with asymptotic critical value."""
    x = as_sample(x, "first sample")
    y = as_sample(y, "second sample")
    n, m = x.size, y.size
    xs, ys = np.sort(x), np.sort(y)
    pooled = np.concatenate([xs, ys])
    cdf_x = np.searchsorted(xs, pooled, side="right") / n
    cdf_y = np.searchsorted(ys, pooled, side="right") / m
    stat = float(np.max(np.abs(cdf_x - cdf_y)))
    threshold = ks_critical(level) * np.sqrt((n + m) / (n * m))
    return report("ks_two_sample", stat, threshold, n)
