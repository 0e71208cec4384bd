import numpy as np
import pytest

from riskscale.errors import ParameterError
from riskscale.radial import (
    GammaPower,
    InvGamma,
    Pareto,
    PointMass,
    RadialLaw,
    regular_variation_index,
)
from riskscale.rng import RngStream


def test_point_mass():
    law = PointMass(2.5)
    assert np.array_equal(law.sample(RngStream(1), size=4), np.full(4, 2.5))
    with pytest.raises(ParameterError):
        PointMass(0.0)


def test_chi_square_sqrt_moments():
    # the chi(4) radius, GammaPower(4/2, 1/2, 1/2): E[R^2] = 4
    draws = GammaPower(2.0, 0.5, 0.5).sample(RngStream(2), size=10**5)
    assert abs((draws ** 2).mean() - 4.0) < 0.05


def test_gamma_power_is_powered_gamma():
    # power 1/2 of a Gamma(3, 1): second moment is E[G] = 3
    draws = GammaPower(3.0, 1.0, 0.5).sample(RngStream(3), size=10**5)
    assert abs((draws ** 2).mean() - 3.0) < 0.05


def test_regular_variation_indices():
    assert regular_variation_index(Pareto(1.5)) == 1.5
    assert regular_variation_index(InvGamma(2.0)) == 2.0
    for law in (PointMass(1.0), GammaPower(1.0, 0.5, 0.5), GammaPower(1.0, 1.0, 1.0)):
        with pytest.raises(ParameterError):
            regular_variation_index(law)


def test_the_base_law_draws_nothing():
    with pytest.raises(NotImplementedError):
        RadialLaw().sample(RngStream(0), 3)
