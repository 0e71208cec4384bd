"""Kolmogorov-Smirnov statistics and the report of one check.

Empirical samples are validated 1-D float arrays (see :func:`as_sample`).
The KS functions return the statistic D with its effective sample size
n_eff (n for one sample, nm/(n + m) for two) and carry no level. Their
p-value is ``cdfs.ks_pvalue``, the asymptotic Kolmogorov survival function
at D sqrt(n_eff); exact small-sample tables are out of scope since every
verification run here uses n >= 10^3. How a p-value becomes a score is
decided in one place, by the one rule of ``verify``; a :class:`GofReport`
judges the scores of one check against its threshold.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .errors import ParameterError, ShapeError


@dataclass(frozen=True)
class GofReport:
    """Outcome of one check: a score per named sub-test against one threshold.

    ``scores`` maps each sub-test's label to its score and cannot be changed.
    ``statistic`` is numpy's max of the scores, so a nan score makes it nan.
    """

    test_name: str
    scores: MappingProxyType
    threshold: float
    statistic: float = field(init=False)

    def __post_init__(self):
        scores = MappingProxyType({label: float(v) for label, v in self.scores.items()})
        object.__setattr__(self, "scores", scores)
        object.__setattr__(self, "threshold", float(self.threshold))
        object.__setattr__(self, "statistic", float(np.max(list(scores.values()))))

    @property
    def passed(self) -> bool:
        """statistic <= threshold; a nan statistic fails."""
        return self.statistic <= self.threshold

    @property
    def failing(self) -> tuple[str, ...]:
        """The labels whose score is above the threshold or nan, in order;
        empty exactly when the check passes."""
        return tuple(label for label, s in self.scores.items() if not s <= self.threshold)


class KsStatistic(NamedTuple):
    """A KS distance D and the effective sample size n_eff of its law."""

    statistic: float
    n_eff: float


def as_sample(values, name: str = "sample") -> np.ndarray:
    """``values`` as a 1-D float array of finite values, at least the 10 that
    a KS test needs."""
    arr = np.asarray(values, dtype=float).reshape(-1)
    if not np.isfinite(arr).all():
        raise ParameterError(f"{name} contains non-finite values")
    if arr.size < 10:
        raise ParameterError(f"KS test needs n >= 10, got n={arr.size}")
    return arr


def ks_one_sample(x, cdf) -> KsStatistic:
    """One-sample KS distance of ``x`` from a vectorized CDF callable; n_eff = n.

    ``cdf`` maps the sorted sample to an array of its own shape, one value
    per point; any other shape raises ShapeError, since a broadcast one
    would give a wrong distance.
    """
    x = as_sample(x)
    n = x.size
    xs = np.sort(x)
    f = np.asarray(cdf(xs), dtype=float)
    if f.shape != xs.shape:
        raise ShapeError(f"cdf returned shape {f.shape} for a sample of shape {xs.shape}",
                         "cdf")
    grid = np.arange(1, n + 1) / n
    d_plus = np.max(grid - f)
    d_minus = np.max(f - (grid - 1.0 / n))
    stat = max(float(d_plus), float(d_minus))
    return KsStatistic(stat, float(n))


def ks_two_sample(x, y) -> KsStatistic:
    """Two-sample KS distance between ``x`` and ``y``; n_eff = nm / (n + m)."""
    x = as_sample(x, "first sample")
    y = as_sample(y, "second sample")
    n, m = x.size, y.size
    xs, ys = np.sort(x), np.sort(y)
    pooled = np.concatenate([xs, ys])
    cdf_x = np.searchsorted(xs, pooled, side="right") / n
    cdf_y = np.searchsorted(ys, pooled, side="right") / m
    stat = float(np.max(np.abs(cdf_x - cdf_y)))
    return KsStatistic(stat, n * m / (n + m))
