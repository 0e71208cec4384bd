"""Dirichlet-type angular vectors on the unit L_p sphere and their scalings.

The angular vector O has components O_i = Y_i / (sum_j Y_j^p)^(1/p) where
the Y_i are independent with Y_i^p ~ Gamma(alpha_i, 1/p). O depends on the
Gamma draws G_i = Y_i^p only through the simplex w_i = G_i / sum_j G_j, in
which a common rate cancels, so the simplex is drawn from unit-rate Gammas
G_i ~ Gamma(alpha_i, 1). The normalization happens on the Gamma scale: the
raw draws are divided by their row sum (an exact simplex) and only then
raised to 1/p, so no p-th power is ever formed before normalizing. The
unit-sphere constraint then holds to ~1e-15 while the powers
O_i = w_i^(1/p) stay in double range: on 1e5 rows of ``angular_sample``
with alphas (1, 1, 2), drawn from ``RngStream(seed).generator()``, to
3.3e-16 at p = 0.03 (seeds 7, 9700 and 9701). Below that they underflow: at
p = 0.02 one row misses by 2.1e-7 at seed 7 (none at 9700 or 9701), at
p = 0.01 about 400 rows miss by up to ~6e-4, and at p = 0.001 every row
misses by 1. The sampler does not repair this; ``sample`` checks every
row of a ``point_mass`` radius against its sphere and exits 3 on a miss.

Per block, the samplers divide, power and scale the stacked Gamma draws in
place. Each in-place step is the floating-point operation of the plain
operator form (``g / g.sum(axis=1, keepdims=True)``, ``w ** (1/p)``,
``r[:, None] * o``) on the same operands, so the output bits are those of
that form. A power takes a scalar exponent, ``w **= e``, which may take the
same sqrt/square fast paths as ``w ** e``; ``random_p_sample``'s per-row
exponent is the one array exponent.

Scaled families built on top of O:

* ``lp_dirichlet_sample``     -- R * O with an independent radial law R
* ``weighted_sample``         -- R * (I_1 O_1, ..., I_d O_d) with +-1 signs,
  the same R * O block times the signs, in place: (O R) I equals O (R I)
  bit for bit, since I = +-1
* ``random_p_sample``         -- the exponent itself drawn per row
* ``random_scale_sequence_sample`` -- common factor times independent Y_i,
  the scale-mixture form every exchangeable Dirichlet-type sequence admits
* ``beta_gamma_sample``       -- the Beta-Gamma factorization of Y for
  alpha in (0, 1)

:func:`sphere_deviation` is the one check of the identity
sum_i |x_i / r|^p = 1 on rows of radius r, for ``sample`` (every
``point_mass`` radius) and the verification suite alike, against the one
tolerance ``SPHERE_TOL``. It reads only the rows and calls nothing in the
package, so it shares no code with the samplers whose rows it checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import ParameterError
from .radial import GammaPower, RadialLaw
from .rng import BLOCK_ROWS, RngStream, _require_int, map_blocks
from .samplers import (
    _positive_tuple,
    _require_positive,
    bernoulli_pm1,
    beta_sample,
    gamma_sample,
)

#: Largest |sum_i |x_i / r|^p - 1| a row may show and still count as on the
#: sphere of radius r.
SPHERE_TOL = 1e-12


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
            raise ParameterError("p_law must be a RadialLaw", "p_law")

    @property
    def dim(self) -> int:
        return len(self.alphas)


def _gamma_simplex(alphas, gen, m) -> np.ndarray:
    """(m, d) rows of G_i / sum_j G_j with G_i ~ Gamma(alpha_i, 1).

    Each column is drawn and copied into the one (m, d) array before the
    next is drawn, so at most one column temporary is alive beside it.
    """
    g = np.empty((m, len(alphas)))
    for i, a in enumerate(alphas):
        g[:, i] = gamma_sample(a, 1.0, gen, size=m)
    g /= g.sum(axis=1, keepdims=True)
    return g


def angular_sample(spec: LpSpec, gen: np.random.Generator, size: int) -> np.ndarray:
    """(size, d) draws on the unit L_p sphere."""
    w = _gamma_simplex(spec.alphas, gen, size)
    w **= 1.0 / spec.p
    return w


def sphere_deviation(rows: np.ndarray, p, radius: float = 1.0) -> float:
    """max over rows of |sum_i |x_i / radius|^p - 1|, BLOCK_ROWS rows at a time.

    ``p`` is one exponent or one per row. A row that holds a nan makes the
    result nan.
    """
    p = np.asarray(p, dtype=float)
    deviation = -np.inf
    for lo in range(0, len(rows), BLOCK_ROWS):
        scaled = np.abs(rows[lo:lo + BLOCK_ROWS])
        scaled /= radius
        scaled **= float(p) if p.ndim == 0 else p[lo:lo + BLOCK_ROWS, None]
        deviation = np.maximum(deviation, np.abs(scaled.sum(axis=1) - 1.0).max())
    return float(deviation)


def _radial_angular(spec: LpSpec, radial: RadialLaw, block: RngStream,
                    lo: int, hi: int) -> np.ndarray:
    """One block of R * O: O from ``block.child(0)``, R from ``block.child(1)``."""
    o = angular_sample(spec, block.child(0).generator(), size=hi - lo)
    o *= radial.sample(block.child(1).generator(), size=hi - lo)[:, None]
    return o


def lp_dirichlet_sample(spec: LpSpec, radial: RadialLaw, n: int,
                        stream: RngStream, workers=None) -> np.ndarray:
    """n i.i.d. rows of R * O with the radial factor independent of O."""
    return map_blocks(stream, n, partial(_radial_angular, spec, radial),
                      ncols=spec.dim, workers=workers)


def weighted_sample(spec: WeightedSpec, radial: RadialLaw, n: int,
                    stream: RngStream) -> np.ndarray:
    """n rows of (R I_1 O_1, ..., R I_d O_d); signs independent of (R, O)."""

    def fill(block, lo, hi):
        x = _radial_angular(spec.base, radial, block, lo, hi)
        sign_gen = block.child(2).generator()
        x *= np.column_stack([bernoulli_pm1(q, sign_gen, size=hi - lo) for q in spec.qs])
        return x

    return map_blocks(stream, n, fill, ncols=spec.base.dim)


def random_p_sample(spec: RandomPSpec, radial: RadialLaw, n: int,
                    stream: RngStream) -> tuple[np.ndarray, np.ndarray]:
    """``(rows, exponents)``: n rows of R * O where each row draws its own
    exponent P, and the n values of P.

    Per row: P ~ p_law, then Y_i with Y_i^P ~ Gamma(alpha_i, 1) (rate 1 in
    this family), normalized so that sum_i O_i^P = 1 for that row's P; the
    exponents let callers audit that row-wise sphere constraint.
    """

    def fill(block, lo, hi):
        m = hi - lo
        p = spec.p_law.sample(block.child(0).generator(), size=m)
        w = _gamma_simplex(spec.alphas, block.child(1).generator(), m)
        w **= 1.0 / p[:, None]
        w *= radial.sample(block.child(2).generator(), size=m)[:, None]
        return np.column_stack([w, p])

    packed = map_blocks(stream, n, fill, ncols=spec.dim + 1)
    return packed[:, :spec.dim], packed[:, spec.dim]


def random_scale_sequence_sample(alpha: float, p: float, s_law: RadialLaw,
                                 d: int, n: int, stream: RngStream) -> np.ndarray:
    """n rows of S * (Y_1, ..., Y_d): common scale times i.i.d. factors.

    The Y_i share the single weight ``alpha`` (the exchangeable case) and
    are ``GammaPower(alpha, 1/p, 1/p)`` draws, Y_i^p ~ Gamma(alpha, 1/p); the
    law of the ratios X_i / X_j does not depend on ``s_law``.
    """
    alpha = _require_positive("alpha", alpha)
    p = _require_positive("p", p)
    d = _require_int("d", d, 1)
    factor = GammaPower(alpha, 1.0 / p, 1.0 / p)

    def fill(block, lo, hi):
        y = factor.sample(block.child(0).generator(), size=(hi - lo, d))
        y *= s_law.sample(block.child(1).generator(), size=hi - lo)[:, None]
        return y

    return map_blocks(stream, n, fill, ncols=d)


def beta_gamma_sample(alpha: float, p: float, n: int, stream: RngStream) -> np.ndarray:
    """Draws of (T * E)^(1/p): T ~ Beta(alpha, 1-alpha), E ~ Exp(mean p).

    The Beta-Gamma factorization of the Y marginal, valid only for
    alpha in (0, 1).
    """
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise ParameterError(f"alpha must lie in (0, 1), got {alpha}", "alpha")
    p = _require_positive("p", p)

    def fill(block, lo, hi):
        m = hi - lo
        gen = block.child(0).generator()
        t = beta_sample(alpha, 1.0 - alpha, gen, size=m)
        t *= gen.exponential(scale=p, size=m)
        t **= 1.0 / p
        return t

    return map_blocks(stream, n, fill)
