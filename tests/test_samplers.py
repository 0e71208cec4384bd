import numpy as np
import pytest
from scipy import special

from riskscale.cdfs import ks_pvalue
from riskscale.errors import ParameterError
from riskscale.gof import ks_one_sample
from riskscale.radial import InvGamma
from riskscale.rng import BLOCK_ROWS, RngStream
from riskscale.samplers import (
    bernoulli_pm1,
    beta_sample,
    gamma_sample,
    inv_gamma_sample,
    normal_sample,
    pareto_sample,
    y_marginal_sample,
)
from riskscale.tails import MGB2Model, mgb2_sample


def halfnormal_cdf(x):
    x = np.asarray(x, dtype=float)
    return np.where(x <= 0.0, 0.0, special.erf(x / np.sqrt(2.0)))


def exponential_cdf(x, mean=1.0):
    x = np.asarray(x, dtype=float)
    return np.where(x <= 0.0, 0.0, -np.expm1(-x / mean))


def gamma_cdf(x, shape, rate=1.0):
    x = np.asarray(x, dtype=float)
    return np.where(x <= 0.0, 0.0, special.gammainc(shape, rate * np.maximum(x, 0.0)))


class TestGamma:
    def test_mean_shape2_rate_half(self):
        x = gamma_sample(2.0, 0.5, RngStream(11).generator(), size=10**5)
        assert abs(x.mean() - 4.0) < 0.1

    def test_exponential_special_case(self):
        x = gamma_sample(1.0, 1.0, RngStream(12).generator(), size=10**4)
        rep = ks_one_sample(x, exponential_cdf)
        assert ks_pvalue(rep) > 0.01

    def test_small_shape_variance(self):
        # exercises the kernel's shape < 1 branch
        x = gamma_sample(0.3, 1.0, RngStream(13).generator(), size=10**5)
        assert abs(x.var() - 0.3) < 0.02

    # shapes the workloads draw (0.5 and 2.5 as angular alphas, 4.0 as the
    # Gamma-Dirichlet radius shape) plus one large shape
    @pytest.mark.parametrize("shape,rate,seed", [
        (0.5, 1.0, 17), (2.5, 1.0, 18), (4.0, 0.5, 19), (50.0, 2.0, 20),
    ])
    def test_ks_against_gamma_cdf(self, shape, rate, seed):
        x = gamma_sample(shape, rate, RngStream(seed).generator(), size=10**4)
        rep = ks_one_sample(x, lambda v: gamma_cdf(v, shape, rate))
        assert ks_pvalue(rep) > 0.01, rep

    def test_positive_support(self):
        x = gamma_sample(0.2, 2.0, RngStream(14).generator(), size=10**4)
        assert (x > 0).all()

    @pytest.mark.parametrize("shape,rate", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0)])
    def test_parameter_errors(self, shape, rate):
        with pytest.raises(ParameterError):
            gamma_sample(shape, rate, RngStream(0).generator(), size=1)

    def test_additivity(self):
        # sum of d independent y-marginal p-th powers is Gamma(sum alpha, 1/p)
        alphas, p, n = (0.5, 1.0, 1.5), 2.5, 10**4
        s = RngStream(16)
        total = np.zeros(n)
        for i, a in enumerate(alphas):
            total += y_marginal_sample(a, p, s.child(i).generator(), size=n) ** p
        rep = ks_one_sample(total, lambda v: gamma_cdf(v, sum(alphas), 1.0 / p))
        assert ks_pvalue(rep) > 0.01


class TestBeta:
    @pytest.mark.parametrize("a,b,mean,tol", [
        (1.0, 1.0, 0.5, 0.005),
        (0.5, 0.5, 0.5, 0.01),
        (2.0, 6.0, 0.25, 0.005),
    ])
    def test_means(self, a, b, mean, tol):
        x = beta_sample(a, b, RngStream(21, int(10 * a + b)).generator(), size=10**5)
        assert abs(x.mean() - mean) < tol
        assert ((x > 0) & (x < 1)).all()

    def test_parameter_error(self):
        with pytest.raises(ParameterError):
            beta_sample(1.0, -2.0, RngStream(0).generator(), size=1)


class TestPareto:
    def test_mean_index2(self):
        x = pareto_sample(2.0, RngStream(31).generator(), size=10**5)
        assert abs(x.mean() - 2.0) < 0.05

    def test_exact_survival_index1(self):
        x = pareto_sample(1.0, RngStream(32).generator(), size=10**5)
        assert abs((x > 10).mean() - 0.1) < 0.01

    def test_support(self):
        x = pareto_sample(0.5, RngStream(33).generator(), size=10**4)
        assert (x >= 1.0).all()

    def test_parameter_error(self):
        with pytest.raises(ParameterError):
            pareto_sample(0.0, RngStream(0).generator(), size=1)


class TestInvGamma:
    def test_mean_shape3(self):
        x = inv_gamma_sample(3.0, RngStream(41).generator(), size=10**5)
        assert abs(x.mean() - 0.5) < 0.01

    def test_reciprocal_is_gamma(self):
        x = inv_gamma_sample(2.0, RngStream(42).generator(), size=10**4)
        rep = ks_one_sample(1.0 / x, lambda v: gamma_cdf(v, 2.0, 1.0))
        assert ks_pvalue(rep) > 0.01

    def test_heavy_shape_support(self):
        # mean is infinite at shape 0.5; draws must still be finite positives
        x = inv_gamma_sample(0.5, RngStream(43).generator(), size=10**4)
        assert np.isfinite(x).all() and (x > 0).all()


class TestYMarginal:
    def test_half_normal_case(self):
        x = y_marginal_sample(0.5, 2.0, RngStream(51).generator(), size=10**4)
        rep = ks_one_sample(x, halfnormal_cdf)
        assert ks_pvalue(rep) > 0.01

    def test_exponential_case_mean(self):
        x = y_marginal_sample(1.0, 1.0, RngStream(52).generator(), size=10**5)
        assert abs(x.mean() - 1.0) < 0.02

    def test_pth_power_is_gamma(self):
        alpha, p = 1.7, 3.2
        x = y_marginal_sample(alpha, p, RngStream(53).generator(), size=10**4)
        rep = ks_one_sample(x ** p, lambda v: gamma_cdf(v, alpha, 1.0 / p))
        assert ks_pvalue(rep) > 0.01


class TestNormalAndSigns:
    def test_normal_moments(self):
        x = normal_sample(RngStream(61).generator(), size=10**5)
        assert abs(x.mean()) < 0.01
        assert abs(x.var() - 1.0) < 0.02

    def test_signs_degenerate(self):
        x = bernoulli_pm1(1.0, RngStream(62).generator(), size=10**4)
        assert (x == 1.0).all()

    def test_signs_symmetric(self):
        x = bernoulli_pm1(0.5, RngStream(63).generator(), size=10**5)
        assert abs(x.mean()) < 0.01
        assert set(np.unique(x)) == {-1.0, 1.0}

    def test_sign_q_out_of_range(self):
        for q in (0.0, -0.2, 1.5):
            with pytest.raises(ParameterError):
                bernoulli_pm1(q, RngStream(0).generator(), size=1)


def test_bitwise_reproducibility():
    draws = [gamma_sample(1.3, 2.0, RngStream(71, 9).generator(), size=257) for _ in range(2)]
    assert np.array_equal(draws[0], draws[1])
    pair = [y_marginal_sample(0.4, 1.5, RngStream(72).generator(), size=64) for _ in range(2)]
    assert np.array_equal(pair[0], pair[1])


def test_mgb2_bytes_independent_of_worker_count(monkeypatch):
    # 3 full blocks + 1 row, with one Gamma shape below 1 and one above
    model = MGB2Model(a=(2.0, 1.5), b=(1.0, 2.0), p=(0.7, 1.5), theta_law=InvGamma(2.0))
    n = 3 * BLOCK_ROWS + 1
    monkeypatch.setenv("RISKSCALE_THREADS", "1")
    one = mgb2_sample(model, n, RngStream(81))
    monkeypatch.setenv("RISKSCALE_THREADS", "2")
    two = mgb2_sample(model, n, RngStream(81))
    assert one.shape == (n, 2)
    assert one.tobytes() == two.tobytes()


class TestOperatorFormBits:
    """The in-place samplers give the bits of the operator forms they replace,
    computed here from the same generator draws."""

    M = BLOCK_ROWS + 7

    @pytest.mark.parametrize("shape", [0.5, 2.5])
    def test_gamma_matches_division(self, shape):
        new = gamma_sample(shape, 2.5, RngStream(91).generator(), size=self.M)
        old = RngStream(91).generator().standard_gamma(shape, size=self.M) / 2.5
        assert new.tobytes() == old.tobytes()

    @pytest.mark.parametrize("shape", [0.5, 1.0, 2.5])
    def test_gamma_at_unit_rate_matches_division(self, shape):
        # rate 1 skips the division; x / 1 is x, so the bits are the same
        new = gamma_sample(shape, 1.0, RngStream(93).generator(), size=self.M)
        old = RngStream(93).generator().standard_gamma(shape, size=self.M) / 1.0
        assert new.tobytes() == old.tobytes()

    @pytest.mark.parametrize("index", [1.0, 2.5])
    def test_pareto_matches_power(self, index):
        new = pareto_sample(index, RngStream(92).generator(), size=self.M)
        old = (1.0 - RngStream(92).generator().random(self.M)) ** (-1.0 / index)
        assert new.tobytes() == old.tobytes()

    @pytest.mark.parametrize("p", [1.0, 2.0, 0.5, 3.0])
    def test_y_marginal_matches_power(self, p):
        new = y_marginal_sample(0.7, p, RngStream(94).generator(), size=self.M)
        old = (RngStream(94).generator().standard_gamma(0.7, size=self.M) * p) \
            ** (1.0 / p)
        assert new.tobytes() == old.tobytes()
