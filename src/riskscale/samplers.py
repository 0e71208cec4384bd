"""Seedable scalar/vector random variate generators.

Variates come from numpy ``Generator`` kernels: every Gamma-based law
(Gamma, Beta, inverse Gamma, the Y marginal, and through them the Dirichlet,
radial and MGB2 samplers) draws through the single :func:`_std_gamma`
kernel, ``Generator.standard_gamma``. The goodness-of-fit oracles in
:mod:`riskscale.cdfs` use ``scipy.special`` instead, so samplers and oracles
share no implementation.

All samplers are pure functions of (parameters, generator state). ``gen``
is a live ``numpy.random.Generator``; a caller holding an
:class:`~riskscale.rng.RngStream` address passes ``stream.generator()``.
``size``, an int or a tuple, is the shape of the array returned. In-place
ufuncs write only into the array the sampler has just drawn, with the bits
of the operator forms (``x / rate``, ``u ** e``). Every power in the
samplers, here and in :mod:`riskscale.dirichlet`, :mod:`riskscale.radial`
and :mod:`riskscale.tails`, takes a scalar exponent, so numpy may take its
sqrt/square/reciprocal fast paths at 0.5, 2 or -1 just as the operator form
does; the one array exponent is ``dirichlet.random_p_sample``'s per-row p.

Identity steps are skipped: :func:`_scale` makes no pass for a factor or
divisor of exactly 1 and :func:`_power` none for an exponent of exactly 1
(so ``gamma_sample`` at rate 1 returns the kernel's draws as they are).
x * 1, x / 1 and pow(x, 1) are x bit for bit, so the output bits are
those of the operator forms either way.

Every real model parameter of the package enters through one of two rules
here: :func:`_require_positive` for a scalar (a Dirichlet exponent p, a
law's shape, rate, power, index or value, a mixer's theta_shape, a tail
constant c_i or threshold t) and :func:`_positive_tuple` for a sequence of
them (the weights alphas, the MGB2 triple a, b, p, the sign probabilities
qs, the threshold grid), which checks each element by the first. A value
passes if it is a real number (``numbers.Real``: a Python or numpy int or
float), finite and > 0, and comes back as a Python float. The cases are
(0, inf), (0, 1] (a sign probability q) and (0, 1) (the Beta-Gamma alpha).
A string, bytes, None, a complex or an array where a number belongs raises
``ParameterError`` whose ``param`` names the argument, as does a value out
of its case; none is converted or iterated. Arrays of data (the rows a
check reads, a premium's x) are not model parameters and keep their own
checks.
"""

from __future__ import annotations

import numbers
from collections.abc import Sequence

import numpy as np

from .errors import ParameterError


def _require_positive(name: str, value, below: float = np.inf,
                      at_most: float | None = None, param: str | None = None) -> float:
    """``value`` as a Python float, by the package's one real-number rule.

    ``value`` must be a real number (a ``numbers.Real``: a Python or numpy
    int or float, never a string, bytes, None, a complex or an array), > 0,
    below ``below`` (finite by default) and at most ``at_most`` when that is
    given. Anything else raises ParameterError whose ``param`` is ``param``,
    else ``name``. ``name`` labels the message; an element of a sequence is
    labelled ``alphas[0]`` with ``param`` ``alphas``, and reads ``must be > 0``
    where a lone parameter reads ``must be a positive finite number``.
    """
    if not isinstance(value, numbers.Real):
        raise ParameterError(f"{name} must be a real number, got {value!r}", param or name)
    try:
        number = float(value)
    except OverflowError:  # an int past the float range
        number = np.inf
    if 0.0 < number < below and (at_most is None or number <= at_most):
        return number
    rule = (f"lie in (0, {at_most:g}]" if at_most is not None
            else f"lie in (0, {below:g})" if below < np.inf
            else "be > 0" if param else "be a positive finite number")
    raise ParameterError(f"{name} must {rule}, got {number}", param or name)


def _positive_tuple(name: str, values, below: float = np.inf,
                    at_most: float | None = None) -> tuple[float, ...]:
    """``values`` as a tuple of Python floats, by the one sequence rule.

    ``values`` must be a non-empty sequence (a list, tuple or 1-d array, never
    a string, bytes, None or a bare number, none of which is iterated); each
    element ``values[i]`` goes through :func:`_require_positive` with the
    same bounds, labelled ``name[i]``. Every error's ``param`` is ``name``.
    """
    if (isinstance(values, (str, bytes, bytearray)) or getattr(values, "ndim", 1) == 0
            or not isinstance(values, (Sequence, np.ndarray)) or not len(values)):
        raise ParameterError(f"{name} must be a non-empty sequence, got {values!r}", name)
    return tuple(_require_positive(f"{name}[{i}]", v, below, at_most, name)
                 for i, v in enumerate(values))


def _scale(x: np.ndarray, factor: float, op=np.multiply) -> np.ndarray:
    """``op(x, factor)`` written over x; no pass when ``factor`` is exactly 1
    (x * 1 and x / 1 are x bit for bit). Returns x."""
    if factor != 1.0:
        op(x, factor, out=x)
    return x


def _power(x: np.ndarray, exponent: float) -> np.ndarray:
    """``x ** exponent`` written over x; x itself, with no pass, when
    ``exponent`` is exactly 1 (pow(x, 1) is x bit for bit). Returns x."""
    if exponent != 1.0:
        np.power(x, exponent, out=x)
    return x


def _std_gamma(shape: float, gen: np.random.Generator, size) -> np.ndarray:
    """Standard Gamma(shape, 1) draws: the one Gamma kernel behind every sampler."""
    return gen.standard_gamma(shape, size=size)


def gamma_sample(shape, rate, gen, size):
    """Gamma draw with density rate^shape x^(shape-1) e^(-rate x) / Gamma(shape)."""
    shape = _require_positive("shape", shape)
    rate = _require_positive("rate", rate)
    return _scale(_std_gamma(shape, gen, size), rate, np.divide)


def beta_sample(a, b, gen, size):
    """Beta(a, b) draw realized as G_a / (G_a + G_b) with independent Gammas."""
    a = _require_positive("a", a)
    b = _require_positive("b", b)
    ga = _std_gamma(a, gen, size)
    gb = _std_gamma(b, gen, size)
    return ga / (ga + gb)


def pareto_sample(index, gen, size):
    """Pareto draw with survival P(X > x) = x^(-index) for x >= 1."""
    index = _require_positive("index", index)
    out = gen.random(size)
    np.subtract(1.0, out, out=out)  # in (0, 1]
    np.power(out, -1.0 / index, out=out)
    return out


def inv_gamma_sample(shape, gen, size):
    """Inverse-Gamma draw: 1/G with G ~ Gamma(shape, 1)."""
    shape = _require_positive("shape", shape)
    return 1.0 / _std_gamma(shape, gen, size)


def y_marginal_sample(alpha, p, gen, size):
    """Draw Y = G^(1/p) with G ~ Gamma(alpha, 1/p).

    Y has density p^(1-alpha)/Gamma(alpha) * x^(p*alpha - 1) * exp(-x^p/p),
    the marginal law of the independent factors behind the angular sampler.
    """
    alpha = _require_positive("alpha", alpha)
    p = _require_positive("p", p)
    g = _std_gamma(alpha, gen, size) * p  # rate 1/p
    g **= 1.0 / p
    return g


def normal_sample(gen, size):
    """Standard normal draw (numpy's ziggurat)."""
    return gen.standard_normal(size)


def bernoulli_pm1(q, gen, size):
    """Sign draw in {-1, +1} with P(+1) = q, q in (0, 1]."""
    q = _require_positive("q", q, at_most=1.0)
    return np.where(gen.random(size) < q, 1.0, -1.0)
