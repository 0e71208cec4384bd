"""Seedable scalar/vector random variate generators.

Variates come from numpy ``Generator`` kernels: every Gamma-based law
(Gamma, Beta, inverse Gamma, the Y marginal, and through them the Dirichlet,
radial and MGB2 samplers) draws through the single :func:`_std_gamma`
kernel, ``Generator.standard_gamma``. The goodness-of-fit oracles in
:mod:`riskscale.cdfs` use ``scipy.special`` instead, so samplers and oracles
share no implementation.

All samplers are pure functions of (parameters, rng state). ``rng`` may be
a live ``numpy.random.Generator`` or an :class:`~riskscale.rng.RngStream`
address (which is materialized once per call). ``size=None`` returns a
single float; an int or tuple returns an array. In-place ufuncs write only
into the array the sampler has just drawn, with the bits of the operator
forms (``x / rate``, ``u ** e``).

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
        raise ParameterError(f"{name} must be a positive finite number, got {value}")
    return value


def _unwrap(arr: np.ndarray, size):
    return float(arr[0]) if size is None else arr


def _flat_count(size) -> int:
    if size is None:
        return 1
    return int(np.prod(size))


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


def _std_gamma(shape: float, gen: np.random.Generator, count: int) -> np.ndarray:
    """Standard Gamma(shape, 1) draws: the one Gamma kernel behind every sampler."""
    return gen.standard_gamma(shape, size=count)


def gamma_sample(shape, rate, rng, size=None):
    """Gamma draw with density rate^shape x^(shape-1) e^(-rate x) / Gamma(shape)."""
    shape = _require_positive("shape", shape)
    rate = _require_positive("rate", rate)
    gen = as_generator(rng)
    out = _scale(_std_gamma(shape, gen, _flat_count(size)), rate, np.divide)
    if size is not None:
        out = out.reshape(size)
    return _unwrap(out, size)


def beta_sample(a, b, rng, size=None):
    """Beta(a, b) draw realized as G_a / (G_a + G_b) with independent Gammas."""
    a = _require_positive("a", a)
    b = _require_positive("b", b)
    gen = as_generator(rng)
    count = _flat_count(size)
    ga = _std_gamma(a, gen, count)
    gb = _std_gamma(b, gen, count)
    out = ga / (ga + gb)
    if size is not None:
        out = out.reshape(size)
    return _unwrap(out, size)


def pareto_sample(index, rng, size=None):
    """Pareto draw with survival P(X > x) = x^(-index) for x >= 1."""
    index = _require_positive("index", index)
    gen = as_generator(rng)
    out = gen.random(_flat_count(size))
    np.subtract(1.0, out, out=out)  # in (0, 1]
    np.power(out, -1.0 / index, out=out)
    if size is not None:
        out = out.reshape(size)
    return _unwrap(out, size)


def inv_gamma_sample(shape, rng, size=None):
    """Inverse-Gamma draw: 1/G with G ~ Gamma(shape, 1)."""
    shape = _require_positive("shape", shape)
    gen = as_generator(rng)
    out = 1.0 / _std_gamma(shape, gen, _flat_count(size))
    if size is not None:
        out = out.reshape(size)
    return _unwrap(out, size)


def y_marginal_sample(alpha, p, rng, size=None):
    """Draw Y = G^(1/p) with G ~ Gamma(alpha, 1/p).

    Y has density p^(1-alpha)/Gamma(alpha) * x^(p*alpha - 1) * exp(-x^p/p),
    the marginal law of the independent factors behind the angular sampler.
    """
    alpha = _require_positive("alpha", alpha)
    p = _require_positive("p", p)
    gen = as_generator(rng)
    g = _std_gamma(alpha, gen, _flat_count(size)) * p  # rate 1/p
    out = g ** (1.0 / p)
    if size is not None:
        out = out.reshape(size)
    return _unwrap(out, size)


def normal_sample(rng, size=None):
    """Standard normal draw (numpy's ziggurat)."""
    gen = as_generator(rng)
    out = gen.standard_normal(_flat_count(size))
    if size is not None:
        out = out.reshape(size)
    return _unwrap(out, size)


def bernoulli_pm1(q, rng, size=None):
    """Sign draw in {-1, +1} with P(+1) = q, q in (0, 1]."""
    q = float(q)
    if not 0.0 < q <= 1.0:
        raise ParameterError(f"q must lie in (0, 1], got {q}")
    gen = as_generator(rng)
    out = np.where(gen.random(_flat_count(size)) < q, 1.0, -1.0)
    if size is not None:
        out = out.reshape(size)
    return _unwrap(out, size)
