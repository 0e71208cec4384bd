"""The exact laws of ``cdfs`` that ``verify`` judges samples against.

The Y marginal ``y_marginal_cdf`` and the Beta-prime ``beta_prime_cdf``
against an adaptive quadrature of their densities. The exact Breiman limit
``cdfs.breiman_limit``: its closed form, its homogeneity, the convergence
of its trapezoid rule, an independent quadrature, and agreement with the
Monte Carlo estimate it checks; and the exact prelimit that ``verify``
judges its table rows against."""

import math

import numpy as np
import pytest

from riskscale import cdfs
from riskscale.cdfs import LIMIT_STEP, beta_prime_cdf, breiman_limit, y_marginal_cdf
from riskscale.errors import ParameterError, UnsupportedModelError
from riskscale.radial import InvGamma, Pareto, PointMass, regular_variation_index
from riskscale.rng import RngStream
from riskscale.tails import MGB2Model, tail_dependence_limit
from riskscale.verify import _TAIL_POINTS, _exponential_prelimit

def _quad(density, lo, hi):
    from scipy import integrate

    return integrate.quad(density, lo, hi, epsabs=0.0, epsrel=1e-12, limit=500)[0]


def _y_marginal_density(alpha, p):
    return lambda x: (p ** (1.0 - alpha) / math.gamma(alpha)
                      * x ** (p * alpha - 1.0) * math.exp(-x ** p / p))


def _beta_prime_density(a, b):
    return lambda z: z ** (a - 1.0) * (1.0 + z) ** (-a - b) / math.exp(
        math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))


#: The Y-marginal points, as u = x^p / p: two in the body, one in the tail.
Y_BODY, Y_TAIL = (0.05, 1.0), 8.0


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
@pytest.mark.parametrize("alpha", [0.2, 0.5, 2.5])
def test_y_marginal_cdf_agrees_with_adaptive_quadrature(alpha, p):
    # the CDF in the body and the survival in the tail, each by quad of the
    # density p^(1-alpha)/Gamma(alpha) x^(p alpha - 1) e^(-x^p/p)
    density = _y_marginal_density(alpha, p)
    for u in Y_BODY:
        x = (p * u) ** (1.0 / p)
        assert y_marginal_cdf(alpha, p, x) == pytest.approx(
            _quad(density, 0.0, x), rel=1e-9, abs=0)
    x = (p * Y_TAIL) ** (1.0 / p)
    assert 1.0 - y_marginal_cdf(alpha, p, x) == pytest.approx(
        _quad(density, x, np.inf), rel=1e-7, abs=0)


@pytest.mark.parametrize("a, b", [(0.5, 0.5), (1.5, 2.0), (1.5, 0.5)])
def test_beta_prime_cdf_agrees_with_adaptive_quadrature(a, b):
    # density z^(a-1) (1+z)^(-a-b) / B(a, b): the CDF in the body, the
    # survival in the tail; (1.5, 0.5) is the law of verify's MGB2 ratio
    density = _beta_prime_density(a, b)
    for z in (0.1, 1.0):
        assert beta_prime_cdf(a, b, z) == pytest.approx(
            _quad(density, 0.0, z), rel=1e-9, abs=0)
    assert 1.0 - beta_prime_cdf(a, b, 50.0) == pytest.approx(
        _quad(density, 50.0, np.inf), rel=1e-7, abs=0)


@pytest.mark.parametrize("cdf", [
    lambda x: y_marginal_cdf(0.2, 3.0, x),
    lambda x: y_marginal_cdf(2.5, 1.0, x),
    lambda x: beta_prime_cdf(0.5, 0.5, x),
    lambda x: beta_prime_cdf(1.5, 2.0, x),
], ids=["y(0.2,3)", "y(2.5,1)", "beta_prime(0.5,0.5)", "beta_prime(1.5,2)"])
def test_exact_law_is_zero_at_zero_and_monotone(cdf):
    # the argument is clipped at 0, and the CDF takes and returns arrays. It
    # is exactly 1 past the float range of z / (1 + z) or x^p and at inf,
    # with no numpy warning (the suite turns one into an error)
    grid = np.concatenate([[-1.0, 0.0], np.geomspace(1e-6, 1e3, 400), [1e300, np.inf]])
    values = cdf(grid)
    assert values.shape == grid.shape
    assert values[0] == values[1] == 0.0 and cdf(0.0) == 0.0
    assert (np.diff(values) >= 0.0).all()
    assert 0.0 < values[-200] < values[-3] <= 1.0 and values[-3] > 0.95
    assert values[-2] == values[-1] == cdf(np.inf) == 1.0
    # a nan argument stays nan
    assert np.isnan(cdf(np.nan))


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
