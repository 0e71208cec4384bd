"""Seedable scalar/vector random variate generators.

Variates come from numpy ``Generator`` kernels: every Gamma-based law
(Gamma, Beta, inverse Gamma, the Y marginal, and through them the Dirichlet,
radial and MGB2 samplers) draws through the single :func:`_std_gamma`
kernel, ``Generator.standard_gamma``. The goodness-of-fit oracles in
:mod:`riskscale.cdfs` use ``scipy.special`` instead, so samplers and oracles
share no implementation.

All samplers are pure functions of (parameters, rng state). ``rng`` may be
a live ``numpy.random.Generator`` or an :class:`~riskscale.rng.RngStream`
address (which is materialized once per call). ``size``, an int or a
tuple, is the shape of the array returned. In-place ufuncs write only into
the array the sampler has just drawn, with the bits of the operator forms
(``x / rate``, ``u ** e``).

Identity steps are skipped: :func:`_scale` makes no pass for a factor or
divisor of exactly 1 and :func:`_power` none for an exponent of exactly 1
(so ``gamma_sample`` at rate 1 returns the kernel's draws as they are).
x * 1, x / 1 and pow(x, 1) are x bit for bit, so the output bits are
those of the operator forms either way.
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterError
from .rng import as_generator


def _require_positive(name: str, value) -> float:
    value = float(value)
    if not np.isfinite(value) or value <= 0.0:
        raise ParameterError(f"{name} must be a positive finite number, got {value}", name)
    return value


def _positive_tuple(values, name: str) -> tuple[float, ...]:
    out = tuple(float(v) for v in values)
    if len(out) < 1:
        raise ParameterError(f"{name} must be non-empty", name)
    for i, v in enumerate(out):
        if not np.isfinite(v) or v <= 0.0:
            raise ParameterError(f"{name}[{i}] must be > 0, got {v}", name)
    return out


def _scale(x: np.ndarray, factor: float, op=np.multiply) -> np.ndarray:
    """``op(x, factor)`` written over x; no pass when ``factor`` is exactly 1
    (x * 1 and x / 1 are x bit for bit). Returns x."""
    if factor != 1.0:
        op(x, factor, out=x)
    return x


def _power(x: np.ndarray, exponent: float, out=None) -> np.ndarray:
    """``x ** exponent`` written over x, or into ``out`` with the exponent
    filled in as an array; x itself, with no pass, when ``exponent`` is
    exactly 1 (pow(x, 1) is x bit for bit).

    A scalar exponent may take numpy's sqrt/square/reciprocal fast paths,
    which for 0.5, 2 or -1 differ in the last bit from the general pow that
    an array exponent gets, so each caller picks the form of the operator
    expression it stands for.
    """
    if exponent == 1.0:
        return x
    if out is None:
        return np.power(x, exponent, out=x)
    out.fill(exponent)
    return np.power(x, out, out=out)


def _std_gamma(shape: float, gen: np.random.Generator, size) -> np.ndarray:
    """Standard Gamma(shape, 1) draws: the one Gamma kernel behind every sampler."""
    return gen.standard_gamma(shape, size=size)


def gamma_sample(shape, rate, rng, size):
    """Gamma draw with density rate^shape x^(shape-1) e^(-rate x) / Gamma(shape)."""
    shape = _require_positive("shape", shape)
    rate = _require_positive("rate", rate)
    gen = as_generator(rng)
    return _scale(_std_gamma(shape, gen, size), rate, np.divide)


def beta_sample(a, b, rng, size):
    """Beta(a, b) draw realized as G_a / (G_a + G_b) with independent Gammas."""
    a = _require_positive("a", a)
    b = _require_positive("b", b)
    gen = as_generator(rng)
    ga = _std_gamma(a, gen, size)
    gb = _std_gamma(b, gen, size)
    return ga / (ga + gb)


def pareto_sample(index, rng, size):
    """Pareto draw with survival P(X > x) = x^(-index) for x >= 1."""
    index = _require_positive("index", index)
    gen = as_generator(rng)
    out = gen.random(size)
    np.subtract(1.0, out, out=out)  # in (0, 1]
    np.power(out, -1.0 / index, out=out)
    return out


def inv_gamma_sample(shape, rng, size):
    """Inverse-Gamma draw: 1/G with G ~ Gamma(shape, 1)."""
    shape = _require_positive("shape", shape)
    gen = as_generator(rng)
    return 1.0 / _std_gamma(shape, gen, size)


def y_marginal_sample(alpha, p, rng, size):
    """Draw Y = G^(1/p) with G ~ Gamma(alpha, 1/p).

    Y has density p^(1-alpha)/Gamma(alpha) * x^(p*alpha - 1) * exp(-x^p/p),
    the marginal law of the independent factors behind the angular sampler.
    """
    alpha = _require_positive("alpha", alpha)
    p = _require_positive("p", p)
    gen = as_generator(rng)
    g = _std_gamma(alpha, gen, size) * p  # rate 1/p
    g **= 1.0 / p
    return g


def normal_sample(rng, size):
    """Standard normal draw (numpy's ziggurat)."""
    return as_generator(rng).standard_normal(size)


def bernoulli_pm1(q, rng, size):
    """Sign draw in {-1, +1} with P(+1) = q, q in (0, 1]."""
    q = float(q)
    if not 0.0 < q <= 1.0:
        raise ParameterError(f"q must lie in (0, 1], got {q}")
    gen = as_generator(rng)
    return np.where(gen.random(size) < q, 1.0, -1.0)
