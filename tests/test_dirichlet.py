import numpy as np
import pytest

from riskscale.cdfs import beta_cdf, normal_cdf
from riskscale.dirichlet import (
    LpSpec,
    RandomPSpec,
    WeightedSpec,
    angular_marginal_cdf,
    angular_sample,
    beta_gamma_sample,
    lp_dirichlet_sample,
    random_p_sample,
    random_scale_sequence_sample,
    weighted_sample,
)
from riskscale.errors import ParameterError
from riskscale.gof import ks_one_sample, ks_two_sample
from riskscale.radial import ChiSquareSqrt, GammaPower, Pareto, PointMass
from riskscale.rng import RngStream
from riskscale.samplers import gamma_sample, y_marginal_sample
from riskscale.verify import _ALPHAS

KS_LEVEL = 0.01
N = 10**4


class TestAngular:
    def test_d1_is_constant_one(self):
        o = angular_sample(LpSpec((2.0,), 1.5), RngStream(1), size=100)
        assert np.array_equal(o, np.ones((100, 1)))

    def test_sphere_constraint(self):
        spec = LpSpec((0.5, 1.0, 1.5, 2.0, 2.5), 3.0)
        o = angular_sample(spec, RngStream(2), size=N)
        assert np.abs((o ** spec.p).sum(axis=1) - 1.0).max() < 1e-12

    def test_large_exponent_sphere(self):
        spec = LpSpec((1.0, 2.0, 0.7), 80.0)
        o = angular_sample(spec, RngStream(3), size=N)
        assert np.abs((o ** spec.p).sum(axis=1) - 1.0).max() < 1e-12

    def test_uniform_marginal(self):
        # alphas (1, 1), p = 1: the first coordinate is Beta(1,1) = Uniform(0,1)
        o = angular_sample(LpSpec((1.0, 1.0), 1.0), RngStream(4), size=N)
        rep = ks_one_sample(o[:, 0], lambda v: np.clip(v, 0.0, 1.0), level=KS_LEVEL)
        assert rep.passed

    def test_single_draw_shape(self):
        o = angular_sample(LpSpec((1.0, 1.0, 1.0), 2.0), RngStream(5), size=1)
        assert o.shape == (1, 3)
        assert abs((o ** 2).sum() - 1.0) < 1e-12

    def test_spec_validation(self):
        with pytest.raises(ParameterError, match=r"alphas\[0\] must be > 0"):
            LpSpec((0.0, 1.0), 1.0)
        with pytest.raises(ParameterError):
            LpSpec((1.0,), -2.0)


class TestAngularMarginalCdf:
    def test_support_clamping(self):
        spec = LpSpec((1.5, 2.5), 2.0)
        assert angular_marginal_cdf(spec, 0, -0.5) == 0.0
        assert angular_marginal_cdf(spec, 0, 0.0) == 0.0
        assert angular_marginal_cdf(spec, 1, 1.0) == 1.0
        assert angular_marginal_cdf(spec, 1, 7.0) == 1.0

    def test_uniform_case_value(self):
        # Beta(1, 1) marginal: cdf at 0.3 is exactly 0.3
        spec = LpSpec((1.0, 1.0), 1.0)
        assert abs(angular_marginal_cdf(spec, 0, 0.3) - 0.3) < 1e-12

    def test_index_out_of_range(self):
        with pytest.raises(ParameterError):
            angular_marginal_cdf(LpSpec((1.0, 1.0), 1.0), 2, 0.5)

    def test_empirical_component_matches_cdf(self):
        spec = LpSpec((0.7, 1.3, 2.0), 2.2)
        o = angular_sample(spec, RngStream(6), size=N)
        for i in range(3):
            rep = ks_one_sample(o[:, i],
                                lambda v, i=i: angular_marginal_cdf(spec, i, v),
                                level=KS_LEVEL)
            assert rep.passed, f"component {i}: {rep}"

    @pytest.mark.parametrize("p", [1.0, 2.7])
    def test_is_the_beta_cdf_of_the_p_th_power_bit_for_bit(self, p):
        # the verify beta_marginals check tests O_i against this oracle; its
        # line keeps its bytes because, inside (0, 1), the oracle is exactly
        # beta_cdf(x ** p, alpha_i, rest) and KS does not see the map x -> x^p
        spec = LpSpec(_ALPHAS, p)
        o = angular_sample(spec, RngStream(31), size=2000)
        uniform = RngStream(32).generator().random(2000)
        total = sum(_ALPHAS)
        for i, alpha in enumerate(_ALPHAS):
            for x in (o[:, i], uniform[uniform > 0.0]):
                assert ((0.0 < x) & (x < 1.0)).all()
                got = angular_marginal_cdf(spec, i, x)
                want = beta_cdf(x ** p, alpha, total - alpha)
                assert got.tobytes() == want.tobytes()
            assert (ks_one_sample(o[:, i], lambda v, i=i: angular_marginal_cdf(spec, i, v))
                    == ks_one_sample(o[:, i] ** p, lambda v, a=alpha: beta_cdf(v, a, total - a)))

    def test_d1_step(self):
        spec = LpSpec((2.0,), 3.0)
        assert angular_marginal_cdf(spec, 0, 0.999) == 0.0
        assert angular_marginal_cdf(spec, 0, 1.0) == 1.0


class TestLpDirichlet:
    def test_point_mass_radius_stays_on_sphere(self):
        spec = LpSpec((1.0, 2.0, 3.0), 2.5)
        x = lp_dirichlet_sample(spec, PointMass(1.0), N, RngStream(7))
        assert np.abs((x ** spec.p).sum(axis=1) - 1.0).max() < 1e-12

    def test_two_dim_simplex_identity(self):
        x = lp_dirichlet_sample(LpSpec((1.0, 1.0), 1.0), PointMass(1.0),
                                N, RngStream(8))
        assert np.abs(x[:, 1] - (1.0 - x[:, 0])).max() < 1e-12

    def test_gamma_power_radius_factorizes(self):
        # independence radius: the scaled components match the unnormalized
        # factors drawn directly (Gamma-Dirichlet factorization oracle)
        alphas, p = (0.5, 1.0, 1.5), 2.0
        spec = LpSpec(alphas, p)
        radial = GammaPower(sum(alphas), 1.0 / p, 1.0 / p)
        s = RngStream(9)
        x = lp_dirichlet_sample(spec, radial, N, s.child(0))
        for i, a in enumerate(alphas):
            y = y_marginal_sample(a, p, s.child(i + 1), size=N)
            assert ks_two_sample(x[:, i], y, level=KS_LEVEL).passed
        corr = np.corrcoef(x ** p, rowvar=False)
        off = np.abs(corr - np.diag(np.diag(corr))).max()
        assert off < 3.0 / np.sqrt(N)


class TestWeighted:
    def test_all_plus_signs_match_unsigned_sampler(self):
        base = LpSpec((0.8, 1.2), 1.7)
        spec = WeightedSpec(base=base, qs=(1.0, 1.0))
        radial = ChiSquareSqrt(3.0)
        s = RngStream(10)
        signed = weighted_sample(spec, radial, N, s.child(0))
        plain = lp_dirichlet_sample(base, radial, N, s.child(1))
        assert (signed > 0).all()
        for i in range(2):
            assert ks_two_sample(signed[:, i], plain[:, i], level=KS_LEVEL).passed

    def test_gaussian_case(self):
        # alpha_i = 1/2, p = 2, fair signs, chi(d) radius: i.i.d. N(0,1)
        d = 4
        spec = WeightedSpec(base=LpSpec((0.5,) * d, 2.0), qs=(0.5,) * d)
        x = weighted_sample(spec, ChiSquareSqrt(float(d)), N, RngStream(11))
        for i in range(d):
            assert ks_one_sample(x[:, i], normal_cdf, level=KS_LEVEL).passed
        corr = np.corrcoef(x, rowvar=False)
        assert np.abs(corr - np.diag(np.diag(corr))).max() < 3.0 / np.sqrt(N)

    def test_chi_squared_weights_are_not_gaussian(self):
        # negative control: alpha_i = 2 makes the squared factors chi-square
        # with four degrees of freedom, and the margins stop being N(0,1)
        d = 4
        spec = WeightedSpec(base=LpSpec((2.0,) * d, 2.0), qs=(0.5,) * d)
        x = weighted_sample(spec, ChiSquareSqrt(float(d)), N, RngStream(12))
        rep = ks_one_sample(x[:, 0], normal_cdf, level=KS_LEVEL)
        assert not rep.passed

    def test_sphere_constraint_under_absolute_values(self):
        base = LpSpec((1.0, 1.5, 0.5), 2.0)
        spec = WeightedSpec(base=base, qs=(0.4, 0.9, 1.0))
        x = weighted_sample(spec, PointMass(2.0), N, RngStream(13))
        sums = (np.abs(x / 2.0) ** base.p).sum(axis=1)
        assert np.abs(sums - 1.0).max() < 1e-12

    def test_qs_validation(self):
        base = LpSpec((1.0, 1.0), 1.0)
        with pytest.raises(ParameterError):
            WeightedSpec(base=base, qs=(0.5,))
        with pytest.raises(ParameterError):
            WeightedSpec(base=base, qs=(0.5, 0.0))

    def test_d1_short_circuits_to_signed_radius(self):
        spec = WeightedSpec(base=LpSpec((2.0,), 3.0), qs=(0.5,))
        x = weighted_sample(spec, PointMass(2.5), 2000, RngStream(24))[:, 0]
        assert set(np.unique(np.abs(x))) == {2.5}
        assert (x < 0).any() and (x > 0).any()


class TestRandomP:
    def test_point_mass_exponent_reduces_to_fixed_p(self):
        # rate-change oracle: normalization cancels the Gamma rate, so a
        # degenerate exponent law reproduces the fixed-exponent sampler
        alphas, p = (0.5, 1.0, 1.5), 2.0
        radial = ChiSquareSqrt(2.0)
        s = RngStream(14)
        xr = random_p_sample(RandomPSpec(alphas, PointMass(p)), radial, N, s.child(0))
        xf = lp_dirichlet_sample(LpSpec(alphas, p), radial, N, s.child(1))
        for i in range(len(alphas)):
            assert ks_two_sample(xr[:, i], xf[:, i], level=KS_LEVEL).passed

    def test_rate_change_oracle(self):
        # G ~ Gamma(a, 1) implies p G ~ Gamma(a, 1/p)
        s = RngStream(15)
        scaled = 2.5 * gamma_sample(1.3, 1.0, s.child(0), size=N)
        direct = gamma_sample(1.3, 1.0 / 2.5, s.child(1), size=N)
        assert ks_two_sample(scaled, direct, level=KS_LEVEL).passed

    def test_per_row_sphere_identity(self):
        spec = RandomPSpec((0.5, 1.0, 1.5), Pareto(2.0))
        rows, expo = random_p_sample(spec, PointMass(1.0), N, RngStream(16),
                                     return_exponents=True)
        sums = (rows ** expo[:, None]).sum(axis=1)
        assert np.abs(sums - 1.0).max() < 1e-12

    def test_d1_angular_part_is_one(self):
        spec = RandomPSpec((1.0,), Pareto(3.0))
        rows = random_p_sample(spec, PointMass(4.0), 200, RngStream(17))
        assert np.array_equal(rows, np.full((200, 1), 4.0))


class TestRandomScaleSequence:
    def test_degenerate_scale_recovers_marginals(self):
        x = random_scale_sequence_sample(0.5, 2.0, PointMass(1.0), 2, N, RngStream(18))
        y = y_marginal_sample(0.5, 2.0, RngStream(19), size=N)
        for i in range(2):
            assert ks_two_sample(x[:, i], y, level=KS_LEVEL).passed

    def test_ratio_law_ignores_scale(self):
        s = RngStream(20)
        a = random_scale_sequence_sample(0.5, 2.0, PointMass(1.0), 2, N, s.child(0))
        b = random_scale_sequence_sample(0.5, 2.0, Pareto(3.0), 2, N, s.child(1))
        rep = ks_two_sample(a[:, 0] / a[:, 1], b[:, 0] / b[:, 1], level=KS_LEVEL)
        assert rep.passed

    def test_shared_scale_within_row(self):
        # ratios computed two ways agree draw for draw: scale cancels exactly
        x = random_scale_sequence_sample(1.0, 1.0, Pareto(2.0), 3, 500, RngStream(21))
        y = random_scale_sequence_sample(1.0, 1.0, PointMass(1.0), 3, 500, RngStream(21))
        # same underlying factor stream, so X_i / X_j must match Y_i / Y_j
        assert np.allclose(x[:, 0] / x[:, 2], y[:, 0] / y[:, 2], rtol=1e-12)

    def test_equal_weight_consistency_with_factorizing_radius(self):
        # the exchangeable case: the angular sampler scaled by the
        # GammaPower(d * alpha, 1/p, 1/p) radius reproduces i.i.d. marginals
        alpha, p, d = 0.5, 2.0, 3
        s = RngStream(25)
        x = lp_dirichlet_sample(LpSpec((alpha,) * d, p),
                                GammaPower(d * alpha, 1.0 / p, 1.0 / p),
                                N, s.child(0))
        y = y_marginal_sample(alpha, p, s.child(1), size=N)
        for i in range(d):
            assert ks_two_sample(x[:, i], y, level=KS_LEVEL).passed


class TestBetaGamma:
    @pytest.mark.parametrize("alpha,p", [(0.5, 1.0), (0.5, 2.0), (0.2, 3.0)])
    def test_matches_y_marginal(self, alpha, p):
        s = RngStream(22, int(10 * alpha + p))
        x = beta_gamma_sample(alpha, p, N, s.child(0))
        y = y_marginal_sample(alpha, p, s.child(1), size=N)
        assert ks_two_sample(x, y, level=KS_LEVEL).passed

    def test_alpha_near_one_still_valid(self):
        x = beta_gamma_sample(0.999, 2.0, 2000, RngStream(23))
        assert np.isfinite(x).all() and (x > 0).all()

    def test_alpha_outside_unit_interval(self):
        for alpha in (0.0, 1.0, 1.5):
            with pytest.raises(ParameterError):
                beta_gamma_sample(alpha, 1.0, 100, RngStream(0))
