"""Named positive scaling laws for radial, mixing, and exponent variables.

Each law draws strictly positive values; the class itself is the "kind" tag.
``GammaPower(shape, rate, power)`` draws G ~ Gamma(shape, rate) and returns
G**power, which covers the radius making Dirichlet-type components
independent as well as the chi(df) radius, ``GammaPower(df / 2, 1/2, 1/2)``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import ParameterError
from .samplers import (
    _require_positive,
    gamma_sample,
    inv_gamma_sample,
    pareto_sample,
)


class RadialLaw:
    """Base class for positive scaling laws. A custom law subclasses it and
    defines ``sample(gen, size)``: ``gen`` is a live
    ``numpy.random.Generator``, and the result is an array of shape ``size``
    of strictly positive draws."""

    def sample(self, gen, size):
        raise NotImplementedError


class _PositiveFields:
    """Base of the built-in laws: every dataclass field is a positive real
    parameter, checked by ``samplers._require_positive`` and stored as the
    float it returns. It is no RadialLaw itself, so custom laws, and the
    benchmark tracer's walk over RadialLaw subclasses, never meet it."""

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, _require_positive(f.name, getattr(self, f.name)))


@dataclass(frozen=True)
class GammaPower(_PositiveFields, RadialLaw):
    shape: float
    rate: float
    power: float

    def sample(self, gen, size):
        g = gamma_sample(self.shape, self.rate, gen, size=size)
        g **= self.power
        return g


@dataclass(frozen=True)
class Pareto(_PositiveFields, RadialLaw):
    """Survival x^(-index) on [1, inf); regularly varying with that index."""

    index: float

    def sample(self, gen, size):
        return pareto_sample(self.index, gen, size=size)


@dataclass(frozen=True)
class InvGamma(_PositiveFields, RadialLaw):
    """Reciprocal of a Gamma(shape, 1) variable; regularly varying with index shape."""

    shape: float

    def sample(self, gen, size):
        return inv_gamma_sample(self.shape, gen, size=size)


@dataclass(frozen=True)
class PointMass(_PositiveFields, RadialLaw):
    value: float

    def sample(self, gen, size):
        return np.full(size, self.value)


def regular_variation_index(law: RadialLaw) -> float:
    """Tail index of a regularly varying law; ParameterError otherwise."""
    if isinstance(law, Pareto):
        return law.index
    if isinstance(law, InvGamma):
        return law.shape
    raise ParameterError(
        f"{type(law).__name__} is not a recognized regularly varying law", "law"
    )
