"""Ratio-of-means estimation from mergeable sufficient statistics.

A self-normalized estimator E[u] / E[v] over paired draws (u, v) needs only
``(n, mean_u, mean_v, M2_u, M2_v, C_uv)``: the sample size, the two means,
the sums of squared deviations and the sum of cross deviations. Partial
statistics of disjoint row blocks merge exactly in the sense of Chan, Golub
& LeVeque (1979), so a Monte Carlo estimator can be streamed block by block
with memory independent of n. ``u`` may be a vector per draw (one ratio per
coordinate, sharing the denominator v).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class RatioMoments:
    """Sufficient statistics of n paired draws (u, v) for E[u] / E[v]."""

    n: int
    mean_u: np.ndarray | float
    mean_v: float
    m2_u: np.ndarray | float
    m2_v: float
    c_uv: np.ndarray | float

    @classmethod
    def of(cls, u, v) -> "RatioMoments":
        """Statistics of draws u (shape (m,) or (m, d)) and v (shape (m,))."""
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        mean_u = u.mean(axis=0)
        mean_v = v.mean()
        du = u - mean_u
        dv = (v - mean_v).reshape((-1,) + (1,) * (u.ndim - 1))
        # elementwise products: a BLAS dot here would start its own threads;
        # the squares go in place into du and dv once the cross term is done
        c_uv = (du * dv).sum(axis=0)
        m2_u = np.multiply(du, du, out=du).sum(axis=0)
        m2_v = np.multiply(dv, dv, out=dv).sum()
        return cls(v.size, mean_u, mean_v, m2_u, m2_v, c_uv)

    @classmethod
    def of_indicators(cls, n: int, k_u: int, k_v: int, k_uv: int) -> "RatioMoments":
        """Statistics of n indicator pairs from exact counts: k_u draws with
        u = 1, k_v with v = 1, and k_uv with both."""
        n, k_u, k_v, k_uv = int(n), int(k_u), int(k_v), int(k_uv)
        return cls(n, k_u / n, k_v / n, k_u * (n - k_u) / n,
                   k_v * (n - k_v) / n, (k_uv * n - k_u * k_v) / n)

    def merge(self, other: "RatioMoments") -> "RatioMoments":
        """Statistics of the union of two disjoint samples (Chan et al. 1979)."""
        n = self.n + other.n
        frac = other.n / n
        weight = self.n * frac
        du = other.mean_u - self.mean_u
        dv = other.mean_v - self.mean_v
        return RatioMoments(
            n,
            self.mean_u + du * frac,
            self.mean_v + dv * frac,
            self.m2_u + other.m2_u + du * du * weight,
            self.m2_v + other.m2_v + dv * dv * weight,
            self.c_uv + other.c_uv + du * dv * weight,
        )

    def estimate(self) -> tuple:
        """Ratio mean_u / mean_v and its delta-method standard error."""
        n = self.n
        ratio = self.mean_u / self.mean_v
        var = (self.m2_u - 2.0 * ratio * self.c_uv + ratio**2 * self.m2_v) / (
            n * n * self.mean_v**2)
        return ratio, np.sqrt(np.maximum(var, 0.0))
