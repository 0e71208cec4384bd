"""Reference distribution functions used as goodness-of-fit oracles.

These are the *checking* side of every sampler/CDF pair: variates come from
numpy ``Generator`` kernels, while the CDFs lean on ``scipy.special``'s
incomplete gamma/beta routines, so the two routes stay independent.
"""

from __future__ import annotations

import numpy as np
from scipy import special


def normal_cdf(x):
    x = np.asarray(x, dtype=float)
    return 0.5 * (1.0 + special.erf(x / np.sqrt(2.0)))


def halfnormal_cdf(x):
    x = np.asarray(x, dtype=float)
    return np.where(x <= 0.0, 0.0, special.erf(x / np.sqrt(2.0)))


def uniform_cdf(x):
    return np.clip(np.asarray(x, dtype=float), 0.0, 1.0)


def exponential_cdf(x, mean=1.0):
    x = np.asarray(x, dtype=float)
    return np.where(x <= 0.0, 0.0, -np.expm1(-x / mean))


def gamma_cdf(x, shape, rate=1.0):
    x = np.asarray(x, dtype=float)
    return np.where(x <= 0.0, 0.0, special.gammainc(shape, rate * np.maximum(x, 0.0)))


def beta_cdf(x, a, b):
    x = np.clip(np.asarray(x, dtype=float), 0.0, 1.0)
    return special.betainc(a, b, x)

