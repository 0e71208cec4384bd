"""Bayesian credibility premiums under random-shift models.

A shift model represents the observation as X = Theta + Y with noise Y
independent of the prior Theta; the premium is the posterior mean
E[Theta | X = x]. Closed forms are available for Gaussian and elliptical
specifications; ``premium_mc`` estimates the generic density-weighted form
by Monte Carlo, reducing per-block ratio-of-means moments so that its
memory does not grow with the number of draws. Premium formulas follow the
row-vector convention (row vector times matrix on the right).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DegenerateDenominatorError, ParameterError, ShapeError
from .linalg import (
    as_matrix,
    as_vector,
    assert_positive_definite,
    assert_positive_semidefinite,
    mat_inverse,
)
from .moments import RatioMoments
from .rng import RngStream, reduce_blocks
from .samplers import _require_positive


def _frozen_array(obj, field: str, value: np.ndarray) -> None:
    value = value.copy()
    value.setflags(write=False)
    object.__setattr__(obj, field, value)


@dataclass(frozen=True)
class GaussianShiftModel:
    """Prior N(mu, sigma0) with independent noise N(0, sigma).

    sigma and sigma0 must be symmetric positive semidefinite and their sum
    positive definite; the prior covariance alone may be singular.
    """

    mu: np.ndarray
    sigma: np.ndarray
    sigma0: np.ndarray

    def __post_init__(self):
        mu = as_vector(self.mu, "mu")
        sigma = as_matrix(self.sigma, "sigma")
        sigma0 = as_matrix(self.sigma0, "sigma0")
        d = mu.size
        if sigma.shape != (d, d) or sigma0.shape != (d, d):
            raise ShapeError(
                f"sigma and sigma0 must be {d}x{d}, got {sigma.shape} and {sigma0.shape}"
            )
        assert_positive_semidefinite(sigma, "sigma")
        assert_positive_semidefinite(sigma0, "sigma0")
        assert_positive_definite(sigma + sigma0, "sigma + sigma0")
        _frozen_array(self, "mu", mu)
        _frozen_array(self, "sigma", sigma)
        _frozen_array(self, "sigma0", sigma0)

    @property
    def dim(self) -> int:
        return self.mu.size


def premium_scalar(mu: float, sigma2: float, tau2: float, x: float) -> float:
    """Scalar credibility premium x + sigma^2/(sigma^2 + tau^2) * (mu - x)."""
    sigma2 = _require_positive("sigma2", sigma2)
    tau2 = _require_positive("tau2", tau2)
    return float(x) + sigma2 / (sigma2 + tau2) * (float(mu) - float(x))


def premium_gaussian(model: GaussianShiftModel, x) -> np.ndarray:
    """Posterior mean x + (mu - x) (sigma + sigma0)^-1 sigma for the Gaussian
    shift model; a singular prior covariance is allowed."""
    x = as_vector(x, "x")
    if x.size != model.dim:
        raise ShapeError(f"x has length {x.size}, expected {model.dim}")
    return x + (model.mu - x) @ mat_inverse(model.sigma + model.sigma0) @ model.sigma


def build_cstar(c) -> np.ndarray:
    """Mixing matrix of (Theta + Y, Theta) given the mixing matrix of (Y, Theta).

    For the 2d x 2d matrix C the first d columns become C[:, :d] + C[:, d:]
    and the last d stay C[:, d:].
    """
    c = as_matrix(c, "C")
    n = c.shape[0]
    if c.shape[1] != n or n % 2 != 0:
        raise ShapeError(f"C must be square with even dimension, got {c.shape}", "C")
    cstar = c.copy()
    cstar[:, :n // 2] += c[:, n // 2:]
    return cstar


@dataclass(frozen=True)
class EllipticalShiftModel:
    """Elliptical prior-plus-noise model (Y, Theta) = R U C + nu in 2d dims.

    ``nu`` must vanish on its first d coordinates (the noise offset); the
    premium formula is derived only for that case and other inputs are
    rejected. The radial law R drops out of the premium as long as E[R] is
    finite, so the model does not carry it.
    """

    c: np.ndarray
    nu: np.ndarray

    def __post_init__(self):
        c = as_matrix(self.c, "C")
        cstar = build_cstar(c)  # C must be square with even dimension
        nu = as_vector(self.nu, "nu")
        n = c.shape[0]
        if nu.size != n:
            raise ShapeError(f"nu has length {nu.size}, expected {n}", "nu")
        if np.any(nu[:n // 2] != 0.0):
            raise ParameterError("nu must be exactly zero on its first d coordinates",
                                 "nu")
        mat_inverse(cstar.T @ cstar)  # raises SingularMatrixError when B is rank-deficient
        _frozen_array(self, "c", c)
        _frozen_array(self, "nu", nu)

    @property
    def dim(self) -> int:
        return self.c.shape[0] // 2

    def b_matrix(self) -> np.ndarray:
        cstar = build_cstar(self.c)
        return cstar.T @ cstar


def premium_elliptical(model: EllipticalShiftModel, x) -> np.ndarray:
    """Posterior mean mu + (x - mu) B_II^-1 B_IJ with B = (C*)^T C*, mu = nu_J,
    where I indexes the first d coordinates and J the last d."""
    x = as_vector(x, "x")
    d = model.dim
    if x.size != d:
        raise ShapeError(f"x has length {x.size}, expected {d}")
    b = model.b_matrix()
    mu = model.nu[d:]
    return mu + (x - mu) @ mat_inverse(b[:d, :d]) @ b[:d, d:]


@dataclass(frozen=True)
class GenericShiftModel:
    """Shift model given only a prior density and a noise sampler.

    ``prior_density`` maps an (m, d) array of points to (m,) nonnegative
    values and must integrate to one (caller contract, not checked).
    ``noise_sampler(generator, m)`` returns (m, d) i.i.d. noise draws.
    """

    prior_density: Callable
    noise_sampler: Callable


#: Draws with prior density below this level count as carrying no mass.
_DENSITY_FLOOR = 1e-300
#: Minimum number of mass-carrying draws before the ratio estimate is trusted.
_MIN_LIVE_DRAWS = 50


def premium_mc(model: GenericShiftModel, x, n: int, stream: RngStream,
               workers=None) -> tuple[np.ndarray, np.ndarray]:
    """Monte Carlo premium estimate and per-coordinate standard errors.

    Estimates x - E[Y h(x - Y)] / E[h(x - Y)] with a self-normalized
    ratio over one stream of noise draws (numerator and denominator share
    draws, which correlates them and reduces variance). Standard errors
    come from the delta method on the ratio. The draws are never held: each
    block is reduced to its ratio-of-means moments and its count of
    mass-carrying draws, merged in block order. Raises
    DegenerateDenominatorError when fewer than 50 draws land where the
    prior density exceeds 1e-300 (x far in the prior's tail).
    """
    x = as_vector(x, "x")
    n = int(n)
    if n < 1000:
        raise ParameterError(f"premium_mc needs n >= 1000, got {n}")
    d = x.size

    def fill(block, lo, hi):
        m = hi - lo
        y = np.asarray(model.noise_sampler(block.generator(), m), dtype=float)
        if y.shape != (m, d):
            raise ShapeError(f"noise_sampler returned {y.shape}, expected ({m}, {d})")
        h = np.asarray(model.prior_density(x[None, :] - y), dtype=float)
        return RatioMoments.of(y * h[:, None], h), np.count_nonzero(h > _DENSITY_FLOOR)

    def combine(left, right):
        return left[0].merge(right[0]), left[1] + right[1]

    moments, live = reduce_blocks(stream, n, fill, combine, workers=workers)
    if live < _MIN_LIVE_DRAWS:
        raise DegenerateDenominatorError(
            "fewer than 50 draws carry prior mass at x; the query point is "
            "too far in the prior's tail for this sample size"
        )
    if moments.mean_v <= 0.0:
        raise DegenerateDenominatorError("denominator estimate is not positive")
    # delta method on the ratio of means, per coordinate
    ratio, se = moments.estimate()
    return x - ratio, se
