"""Kolmogorov-Smirnov statistics and the report of one check.

Empirical samples are validated 1-D float arrays (see :func:`as_sample`).
The KS functions return the statistic D with its effective sample size
n_eff (n for one sample, nm/(n + m) for two) and carry no level. Their
p-value is ``cdfs.ks_pvalue``, the asymptotic Kolmogorov survival function
at D sqrt(n_eff); exact small-sample tables are out of scope since every
verification run here uses n >= 10^3. The CDF given to
:func:`ks_one_sample` must be elementwise and non-decreasing: it is called
on ascending subsets of the sorted sample, only where the supremum can lie,
each call's result must have its input's shape (else ``ShapeError``), and
a nan at any point it evaluates makes D nan. How a p-value becomes a score is
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
        raise ParameterError(f"{name} contains non-finite values", name)
    if arr.size < 10:
        raise ParameterError(f"KS test needs n >= 10, got n={arr.size}", name)
    return arr


#: Rows of the sorted sample per block of :func:`ks_one_sample`'s bound.
KS_BLOCK = 16

#: How far below the best endpoint term a block's bound may lie and still
#: have its interior evaluated: room for a CDF that is monotone only to
#: within its rounding.
KS_SLACK = 1e-12


def _cdf_at(cdf, points: np.ndarray, n: int) -> np.ndarray:
    """``cdf(points)`` as a float array, which must have the shape of
    ``points``, some of the n points of a sorted sample."""
    f = np.asarray(cdf(points), dtype=float)
    if f.shape != points.shape:
        raise ShapeError(f"cdf returned shape {f.shape} for {points.size} points of "
                         f"a sample of shape {(n,)}", "cdf")
    return f


def ks_one_sample(x, cdf) -> KsStatistic:
    """One-sample KS distance of ``x`` from a vectorized CDF callable; n_eff = n.

    D = max_i max(i/n - F(x_(i)), F(x_(i)) - (i-1)/n) over the sorted sample
    x_(1) <= ... <= x_(n), found without evaluating F at every point. F is
    evaluated at both ends of each block of ``KS_BLOCK`` sorted points; as F
    is non-decreasing, no term of a block exceeds grid[end] - F(start) or
    F(end) - lower[start], with grid = i/n and lower = grid - 1/n. Then, in
    one more call, F is evaluated at the interiors of the blocks whose bound
    is above the best endpoint term less ``KS_SLACK``, and D is the largest
    of the terms computed. The block holding the largest term is always one
    of them, so D is the dense maximum, bit for bit: each term is formed by
    the same expression from the same F value.

    ``cdf`` must be elementwise (a point's value does not depend on the
    other points of the call) and non-decreasing. It is called on ordered
    subsets of the sorted sample, and must map each to an array of that
    subset's shape, one value per point; any other shape raises ShapeError,
    at every call, since a broadcast one would give a wrong distance. A nan
    at any point it evaluates makes D nan.
    """
    x = as_sample(x)
    n = x.size
    xs = np.sort(x)
    grid = np.arange(1, n + 1) / n
    lower = grid - 1.0 / n  # as the dense form wrote it: arange(n) / n rounds otherwise
    starts = np.arange(0, n, KS_BLOCK)
    ends = np.minimum(starts + (KS_BLOCK - 1), n - 1)
    edges = np.column_stack([starts, ends]).reshape(-1)  # non-decreasing
    f_edges = _cdf_at(cdf, xs[edges], n)
    f_start, f_end = f_edges[0::2], f_edges[1::2]
    best = max(np.max(grid[edges] - f_edges), np.max(f_edges - lower[edges]))
    bound = np.maximum(grid[ends] - f_start, f_end - lower[starts])
    open_blocks = bound > best - KS_SLACK  # all False when best is nan
    inner = starts[open_blocks, None] + np.arange(1, KS_BLOCK - 1)
    inner = inner[inner < ends[open_blocks, None]]  # row by row, so ascending
    points, f = edges, f_edges
    if inner.size:
        points = np.concatenate([edges, inner])
        f = np.concatenate([f_edges, _cdf_at(cdf, xs[inner], n)])
    d_plus = np.max(grid[points] - f)
    d_minus = np.max(f - lower[points])
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
