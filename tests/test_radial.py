from dataclasses import dataclass

import numpy as np
import pytest

from riskscale.dirichlet import (
    LpSpec,
    RandomPSpec,
    WeightedSpec,
    lp_dirichlet_sample,
    random_p_sample,
    random_scale_sequence_sample,
    weighted_sample,
)
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
from riskscale.tails import MGB2Model, mgb2_conditional_sample, mgb2_sample


def test_point_mass():
    law = PointMass(2.5)
    assert np.array_equal(law.sample(RngStream(1).generator(), size=4), np.full(4, 2.5))
    with pytest.raises(ParameterError):
        PointMass(0.0)


def test_chi_square_sqrt_moments():
    # the chi(4) radius, GammaPower(4/2, 1/2, 1/2): E[R^2] = 4
    draws = GammaPower(2.0, 0.5, 0.5).sample(RngStream(2).generator(), size=10**5)
    assert abs((draws ** 2).mean() - 4.0) < 0.05


def test_gamma_power_is_powered_gamma():
    # power 1/2 of a Gamma(3, 1): second moment is E[G] = 3
    draws = GammaPower(3.0, 1.0, 0.5).sample(RngStream(3).generator(), size=10**5)
    assert abs((draws ** 2).mean() - 3.0) < 0.05


def test_regular_variation_indices():
    assert regular_variation_index(Pareto(1.5)) == 1.5
    assert regular_variation_index(InvGamma(2.0)) == 2.0
    for law in (PointMass(1.0), GammaPower(1.0, 0.5, 0.5), GammaPower(1.0, 1.0, 1.0)):
        with pytest.raises(ParameterError):
            regular_variation_index(law)


def test_built_in_laws_store_python_floats():
    law = GammaPower(2, 1, np.int64(1))
    assert [type(v) for v in (law.shape, law.rate, law.power)] == [float] * 3
    assert law == GammaPower(2.0, 1.0, 1.0)
    # an int or bool point mass draws floats, not ints or booleans
    for value in (1, True):
        draws = PointMass(value).sample(RngStream(0).generator(), size=3)
        assert draws.dtype == np.float64 and np.array_equal(draws, np.ones(3))


@dataclass(frozen=True)
class _Scaled(RadialLaw):
    """A custom dataclass law whose field is no number: the built-in laws'
    real-number check is theirs alone."""

    label: str
    scale: float = 1.0

    def sample(self, gen, size):
        return self.scale * gen.uniform(1.0, 2.0, size)


def test_a_custom_dataclass_law_keeps_its_fields():
    law = _Scaled("unit", 2)
    assert law.label == "unit" and type(law.scale) is int
    assert (law.sample(RngStream(0).generator(), size=3) >= 2.0).all()


def test_the_base_law_draws_nothing():
    with pytest.raises(NotImplementedError):
        RadialLaw().sample(RngStream(0).generator(), 3)


class _Uniform12(RadialLaw):
    """A custom law, Uniform(1, 2), written against the Generator it is handed."""

    def sample(self, gen, size):
        return gen.uniform(1.0, 2.0, size)


_SPEC = LpSpec((1.0, 1.0, 2.0), 2.0)
_MGB2 = dict(a=(1.0, 2.0), b=(1.0, 1.0), p=(1.0, 0.5))

# every place that takes a law, given the custom one there
_TAKERS = {
    "lp_dirichlet_sample": lambda law: lp_dirichlet_sample(_SPEC, law, 500, RngStream(1)),
    "weighted_sample": lambda law: weighted_sample(
        WeightedSpec(_SPEC, (0.5, 0.5, 1.0)), law, 500, RngStream(2)),
    "random_p_sample p_law": lambda law: random_p_sample(
        RandomPSpec((1.0, 2.0), law), GammaPower(3.0, 1.0, 0.5), 500, RngStream(3))[0],
    "random_p_sample radius": lambda law: random_p_sample(
        RandomPSpec((1.0, 2.0), Pareto(2.0)), law, 500, RngStream(4))[0],
    "random_scale_sequence_sample": lambda law: random_scale_sequence_sample(
        0.5, 2.0, law, 3, 500, RngStream(5)),
    "mgb2_sample": lambda law: mgb2_sample(MGB2Model(**_MGB2, theta_law=law), 500,
                                           RngStream(6)),
    "mgb2_conditional_sample": lambda law: mgb2_conditional_sample(
        MGB2Model(**_MGB2, theta_law=law), 500, RngStream(7)),
}


@pytest.mark.parametrize("taker", sorted(_TAKERS))
def test_a_custom_law_draws_from_the_generator_it_is_handed(taker):
    rows = _TAKERS[taker](_Uniform12())
    assert rows.shape[0] == 500 and np.isfinite(rows).all() and (rows != 0).all()

