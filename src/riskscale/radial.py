"""Named positive scaling laws for radial, mixing, and exponent variables.

Each law draws strictly positive values; the class itself is the "kind" tag.
``GammaPower(shape, rate, power)`` draws G ~ Gamma(shape, rate) and returns
G**power, which covers the radius making Dirichlet-type components
independent as well as the chi(df) radius, ``GammaPower(df / 2, 1/2, 1/2)``.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    defines ``sample(rng, size)``, returning strictly positive draws."""

    def sample(self, rng, size):
        raise NotImplementedError


@dataclass(frozen=True)
class GammaPower(RadialLaw):
    shape: float
    rate: float
    power: float

    def __post_init__(self):
        _require_positive("shape", self.shape)
        _require_positive("rate", self.rate)
        _require_positive("power", self.power)

    def sample(self, rng, size):
        g = gamma_sample(self.shape, self.rate, rng, size=size)
        g **= self.power
        return g


@dataclass(frozen=True)
class Pareto(RadialLaw):
    """Survival x^(-index) on [1, inf); regularly varying with that index."""

    index: float

    def __post_init__(self):
        _require_positive("index", self.index)

    def sample(self, rng, size):
        return pareto_sample(self.index, rng, size=size)


@dataclass(frozen=True)
class InvGamma(RadialLaw):
    """Reciprocal of a Gamma(shape, 1) variable; regularly varying with index shape."""

    shape: float

    def __post_init__(self):
        _require_positive("shape", self.shape)

    def sample(self, rng, size):
        return inv_gamma_sample(self.shape, rng, size=size)


@dataclass(frozen=True)
class PointMass(RadialLaw):
    value: float

    def __post_init__(self):
        _require_positive("value", self.value)

    def sample(self, rng, size):
        return np.full(size, self.value)


def regular_variation_index(law: RadialLaw) -> float:
    """Tail index of a regularly varying law; ParameterError otherwise."""
    if isinstance(law, Pareto):
        return law.index
    if isinstance(law, InvGamma):
        return law.shape
    raise ParameterError(
        f"{type(law).__name__} is not a recognized regularly varying law"
    )
