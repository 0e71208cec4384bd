"""Dirichlet-type angular vectors on the unit L_p sphere and their scalings.

The angular vector O has components O_i = Y_i / (sum_j Y_j^p)^(1/p) where
the Y_i are independent with Y_i^p ~ Gamma(alpha_i, 1/p). Internally the
normalization happens on the Gamma scale: the raw Gamma draws are divided by
their row sum (an exact simplex) and only then raised to 1/p, so no p-th
power is ever formed before normalizing and the unit-sphere constraint holds
to ~1e-15 for any exponent.

Scaled families built on top of O:

* ``lp_dirichlet_sample``     -- R * O with an independent radial law R
* ``weighted_sample``         -- R * (I_1 O_1, ..., I_d O_d) with +-1 signs
* ``random_p_sample``         -- the exponent itself drawn per row
* ``random_scale_sequence_sample`` -- common factor times independent Y_i,
  the scale-mixture form every exchangeable Dirichlet-type sequence admits
* ``beta_gamma_sample``       -- the Beta-Gamma factorization of Y for
  alpha in (0, 1)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cdfs import beta_cdf
from .errors import ParameterError
from .radial import RadialLaw
from .rng import RngStream, as_generator, map_blocks
from .samplers import (
    _positive_tuple,
    _require_positive,
    bernoulli_pm1,
    beta_sample,
    gamma_sample,
)


@dataclass(frozen=True)
class LpSpec:
    """Angular law parameters: positive weights alphas and exponent p."""

    alphas: tuple[float, ...]
    p: float

    def __post_init__(self):
        object.__setattr__(self, "alphas", _positive_tuple(self.alphas, "alphas"))
        object.__setattr__(self, "p", _require_positive("p", self.p))

    @property
    def dim(self) -> int:
        return len(self.alphas)


@dataclass(frozen=True)
class WeightedSpec:
    """Angular law plus per-component sign probabilities q_i in (0, 1]."""

    base: LpSpec
    qs: tuple[float, ...]

    def __post_init__(self):
        qs = tuple(float(q) for q in self.qs)
        if len(qs) != self.base.dim:
            raise ParameterError(
                f"qs has length {len(qs)}, expected {self.base.dim}", "qs"
            )
        for i, q in enumerate(qs):
            if not 0.0 < q <= 1.0:
                raise ParameterError(f"qs[{i}] must lie in (0, 1], got {q}", "qs")
        object.__setattr__(self, "qs", qs)

    @property
    def p(self) -> float:
        """The exponent of the base law: the signs keep rows on its sphere."""
        return self.base.p


@dataclass(frozen=True)
class RandomPSpec:
    """Angular weights with a random positive exponent drawn per vector."""

    alphas: tuple[float, ...]
    p_law: RadialLaw

    def __post_init__(self):
        object.__setattr__(self, "alphas", _positive_tuple(self.alphas, "alphas"))
        if not isinstance(self.p_law, RadialLaw):
            raise ParameterError("p_law must be a RadialLaw")

    @property
    def dim(self) -> int:
        return len(self.alphas)


def _gamma_simplex(alphas, rate, gen, m) -> np.ndarray:
    """(m, d) rows of G_i / sum_j G_j with G_i ~ Gamma(alpha_i, rate)."""
    g = np.column_stack([gamma_sample(a, rate, gen, size=m) for a in alphas])
    return g / g.sum(axis=1, keepdims=True)


def angular_sample(spec: LpSpec, rng, size: int) -> np.ndarray:
    """(size, d) draws on the unit L_p sphere."""
    w = _gamma_simplex(spec.alphas, 1.0 / spec.p, as_generator(rng), size)
    return w ** (1.0 / spec.p)


def angular_marginal_cdf(spec: LpSpec, i: int, x):
    """P(O_i <= x): Beta CDF of x^p with parameters (alpha_i, sum of the rest).

    ``i`` is a 0-based component index. For d = 1 the component is the
    constant 1 and the CDF is a step there.
    """
    if not 0 <= i < spec.dim:
        raise ParameterError(f"component index {i} out of range for d={spec.dim}")
    x = np.asarray(x, dtype=float)
    if spec.dim == 1:
        out = np.where(x >= 1.0, 1.0, 0.0)
        return float(out) if out.ndim == 0 else out
    rest = sum(spec.alphas) - spec.alphas[i]
    inside = np.clip(x, 0.0, 1.0) ** spec.p
    out = np.where(x <= 0.0, 0.0, np.where(x >= 1.0, 1.0,
                   beta_cdf(inside, spec.alphas[i], rest)))
    return float(out) if out.ndim == 0 else out


def lp_dirichlet_sample(spec: LpSpec, radial: RadialLaw, n: int,
                        stream: RngStream, workers=None) -> np.ndarray:
    """n i.i.d. rows of R * O with the radial factor independent of O."""

    def fill(block, lo, hi):
        m = hi - lo
        o = angular_sample(spec, block.child(0), size=m)
        r = radial.sample(block.child(1), size=m)
        return r[:, None] * o

    return map_blocks(stream, n, fill, ncols=spec.dim, workers=workers)


def weighted_sample(spec: WeightedSpec, radial: RadialLaw, n: int,
                    stream: RngStream, workers=None) -> np.ndarray:
    """n rows of (R I_1 O_1, ..., R I_d O_d); signs independent of (R, O)."""
    base = spec.base

    def fill(block, lo, hi):
        m = hi - lo
        o = angular_sample(base, block.child(0), size=m)
        r = radial.sample(block.child(1), size=m)
        sign_gen = block.child(2).generator()
        signs = np.column_stack(
            [bernoulli_pm1(q, sign_gen, size=m) for q in spec.qs]
        )
        return r[:, None] * signs * o

    return map_blocks(stream, n, fill, ncols=base.dim, workers=workers)


def random_p_sample(spec: RandomPSpec, radial: RadialLaw, n: int,
                    stream: RngStream, workers=None, return_exponents=False):
    """Rows of R * O where each row draws its own exponent P.

    Per row: P ~ p_law, then Y_i with Y_i^P ~ Gamma(alpha_i, 1) (rate 1 in
    this family), normalized so that sum_i O_i^P = 1 for that row's P.
    With ``return_exponents`` the per-row P values come back as a second
    array, so callers can audit the row-wise sphere constraint.
    """

    def fill(block, lo, hi):
        m = hi - lo
        p = spec.p_law.sample(block.child(0), size=m)
        gen = block.child(1).generator()
        w = _gamma_simplex(spec.alphas, 1.0, gen, m)
        o = w ** (1.0 / p[:, None])
        r = radial.sample(block.child(2), size=m)
        return np.hstack([r[:, None] * o, p[:, None]])

    packed = map_blocks(stream, n, fill, ncols=spec.dim + 1, workers=workers)
    rows, exponents = packed[:, :spec.dim], packed[:, spec.dim]
    if return_exponents:
        return rows, exponents
    return rows


def random_scale_sequence_sample(alpha: float, p: float, s_law: RadialLaw,
                                 d: int, n: int, stream: RngStream,
                                 workers=None) -> np.ndarray:
    """n rows of S * (Y_1, ..., Y_d): common scale times i.i.d. factors.

    The Y_i share the single weight ``alpha`` (the exchangeable case); the
    law of the ratios X_i / X_j does not depend on ``s_law``.
    """
    alpha = _require_positive("alpha", alpha)
    p = _require_positive("p", p)
    d = int(d)
    if d < 1:
        raise ParameterError(f"d must be >= 1, got {d}")

    def fill(block, lo, hi):
        m = hi - lo
        gen = block.child(0).generator()
        y = (gamma_sample(alpha, 1.0 / p, gen, size=(m, d))) ** (1.0 / p)
        s = s_law.sample(block.child(1), size=m)
        return s[:, None] * y

    return map_blocks(stream, n, fill, ncols=d, workers=workers)


def beta_gamma_sample(alpha: float, p: float, n: int, stream: RngStream,
                      workers=None) -> np.ndarray:
    """Draws of (T * E)^(1/p): T ~ Beta(alpha, 1-alpha), E ~ Exp(mean p).

    The Beta-Gamma factorization of the Y marginal, valid only for
    alpha in (0, 1).
    """
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise ParameterError(f"alpha must lie in (0, 1), got {alpha}")
    p = _require_positive("p", p)

    def fill(block, lo, hi):
        m = hi - lo
        gen = block.child(0).generator()
        t = beta_sample(alpha, 1.0 - alpha, gen, size=m)
        e = gen.exponential(scale=p, size=m)
        return (t * e) ** (1.0 / p)

    return map_blocks(stream, n, fill, workers=workers)
