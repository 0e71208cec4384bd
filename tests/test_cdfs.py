"""The exact Breiman limit ``cdfs.breiman_limit``: its closed form, its
homogeneity, the convergence of its trapezoid rule, an independent
quadrature, and agreement with the Monte Carlo estimate it checks; and the
exact prelimit that ``verify`` judges its table rows against."""

import math

import numpy as np
import pytest

from riskscale import cdfs
from riskscale.cdfs import LIMIT_STEP, breiman_limit
from riskscale.errors import ParameterError, UnsupportedModelError
from riskscale.radial import InvGamma, Pareto, PointMass, regular_variation_index
from riskscale.rng import RngStream
from riskscale.tails import MGB2Model, tail_dependence_limit
from riskscale.verify import _TAIL_POINTS, _exponential_prelimit

#: Models away from the exponential case: a != 1, b and p unequal, both
#: regularly varying mixers.
GENERAL = (
    MGB2Model(a=(0.5, 0.5), b=(1.0, 2.0), p=(1.5, 0.5), theta_law=InvGamma(2.0)),
    MGB2Model(a=(3.0, 3.0), b=(2.0, 1.0), p=(0.05, 4.0), theta_law=Pareto(0.7)),
    MGB2Model(a=(1.0, 1.0, 2.0), b=(1.0, 1.0, 1.0), p=(50.0, 80.0, 1.0),
              theta_law=Pareto(1.0)),
)


def _exp_model(q):
    return MGB2Model(a=(1.0, 1.0), b=(1.0, 1.0), p=(1.0, 1.0), theta_law=Pareto(q))


@pytest.mark.parametrize("c1, c2", [(1.0, 1.0), (1.0, 2.0), (0.3, 3.0)])
@pytest.mark.parametrize("q", [0.5, 1.0, 1.5, 2.5])
def test_exponential_case_is_closed_form(q, c1, c2):
    # min(W_1/c_1, W_2/c_2) ~ Exp(c_1 + c_2); q = 0.5 is where a rule on
    # s = u/(1 - u) misses by 2e-3, from the s^(q-1) singularity at 0
    exact = (c1 + c2) ** (-q)
    assert breiman_limit(_exp_model(q), c1, c2) == pytest.approx(exact, rel=1e-8, abs=0)


@pytest.mark.parametrize("model", GENERAL)
@pytest.mark.parametrize("k", [0.25, 3.0])
def test_homogeneous_of_degree_minus_aq(model, k):
    aq = model.a[0] * regular_variation_index(model.theta_law)
    base = breiman_limit(model, 0.7, 1.9)
    assert breiman_limit(model, k * 0.7, k * 1.9) == pytest.approx(
        k ** (-aq) * base, rel=1e-10, abs=0)


@pytest.mark.parametrize("model, query", _TAIL_POINTS,
                         ids=[f"point{k}" for k in range(len(_TAIL_POINTS))])
def test_rule_converged_at_every_verify_point(monkeypatch, model, query):
    # twice the nodes moves the value by far less than the 6e-4 relative
    # standard error of a 1e6-row estimate
    one = breiman_limit(model, query.c1, query.c2)
    monkeypatch.setattr(cdfs, "LIMIT_STEP", LIMIT_STEP / 2)
    two = breiman_limit(model, query.c1, query.c2)
    assert abs(one / two - 1.0) <= 1e-10


@pytest.mark.parametrize("model", GENERAL)
def test_agrees_with_adaptive_quadrature(model):
    # the same integral by scipy.integrate.quad on the original variable s
    from scipy import integrate, special

    a, q, c1, c2 = model.a[0], regular_variation_index(model.theta_law), 0.7, 1.9
    lam1, lam2 = (model.b[0] / c1) ** a, (model.b[1] / c2) ** a

    def integrand(s):
        return (q * s ** (q - 1.0) * special.gammaincc(model.p[0], s / lam1)
                * special.gammaincc(model.p[1], s / lam2))

    pieces = [integrate.quad(integrand, lo, hi, epsabs=0.0, epsrel=1e-12, limit=500)[0]
              for lo, hi in ((0.0, 1.0), (1.0, 10.0), (10.0, np.inf))]
    denominator = model.b[0] ** (a * q) * math.exp(
        special.gammaln(model.p[0] + q) - special.gammaln(model.p[0]))
    assert breiman_limit(model, c1, c2) == pytest.approx(
        math.fsum(pieces) / denominator, rel=1e-9, abs=0)


@pytest.mark.parametrize("t", [2.0, 4.0, 8.0])
def test_exponential_prelimit_agrees_with_adaptive_quadrature(t):
    # verify's closed form (1 + e^(-t))/2 at its exponential point against
    # E[e^(-2t/Theta)] / E[e^(-t/Theta)], each by quad over Theta ~ Pareto(1)
    from scipy import integrate

    def laplace(s):
        return integrate.quad(lambda theta: math.exp(-s / theta) / theta ** 2,
                              1.0, np.inf, epsabs=0.0, epsrel=1e-12, limit=500)[0]

    assert _exponential_prelimit(t) == pytest.approx(laplace(2.0 * t) / laplace(t),
                                                     rel=1e-10, abs=0)


def test_agrees_with_the_monte_carlo_limit():
    # the oracle's parameterisation (b a scale, p a Gamma shape, q the
    # mixer's index) must be the one the sampler draws
    model = GENERAL[0]
    est, se = tail_dependence_limit(model, 0.7, 1.9, 2 * 10**5, RngStream(6101))
    assert abs(est - breiman_limit(model, 0.7, 1.9)) <= 4.0 * se


def test_refuses_what_the_limit_does_not_cover():
    unequal = MGB2Model(a=(1.0, 2.0), b=(1.0, 1.0), p=(1.0, 1.0), theta_law=Pareto(1.0))
    with pytest.raises(UnsupportedModelError) as exc:
        breiman_limit(unequal, 1.0, 1.0)
    assert exc.value.param == "a"
    point = MGB2Model(a=(1.0, 1.0), b=(1.0, 1.0), p=(1.0, 1.0), theta_law=PointMass(1.0))
    with pytest.raises(UnsupportedModelError) as exc:
        breiman_limit(point, 1.0, 1.0)
    assert exc.value.param == "theta_law"
    for c1, c2, param in ((0.0, 1.0, "c1"), (1.0, math.nan, "c2")):
        with pytest.raises(ParameterError) as exc:
            breiman_limit(_exp_model(1.0), c1, c2)
        assert exc.value.param == param
