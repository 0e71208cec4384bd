"""Named positive scaling laws for radial, mixing, and exponent variables.

Each law draws strictly positive values; the class itself is the "kind" tag.
``GammaPower(shape, rate, power)`` draws G ~ Gamma(shape, rate) and returns
G**power, which covers the radius making Dirichlet-type components
independent as well as chi-style radii via :class:`ChiSquareSqrt`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ParameterError
from .rng import as_generator
from .samplers import (
    _require_positive,
    gamma_sample,
    inv_gamma_sample,
    pareto_sample,
)


class RadialLaw:
    """Base class for positive scaling laws."""

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
        return g ** self.power


@dataclass(frozen=True)
class ChiSquareSqrt(RadialLaw):
    """Square root of a chi-square variable with ``df`` degrees of freedom."""

    df: float

    def __post_init__(self):
        _require_positive("df", self.df)

    def sample(self, rng, size):
        return gamma_sample(self.df / 2.0, 0.5, rng, size=size) ** 0.5


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


@dataclass(frozen=True)
class ExternalHook(RadialLaw):
    """User-supplied sampler ``fn(generator, size) -> positive draws``."""

    fn: Callable

    def sample(self, rng, size):
        gen = as_generator(rng)
        draws = np.asarray(self.fn(gen, size), dtype=float)
        if not (np.isfinite(draws).all() and (draws > 0.0).all()):
            raise ParameterError("external radial hook produced non-positive draws")
        return draws


def regular_variation_index(law: RadialLaw) -> float:
    """Tail index of a regularly varying law; ParameterError otherwise."""
    if isinstance(law, Pareto):
        return law.index
    if isinstance(law, InvGamma):
        return law.shape
    raise ParameterError(
        f"{type(law).__name__} is not a recognized regularly varying law"
    )
