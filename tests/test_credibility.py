from dataclasses import fields

import numpy as np
import pytest

from riskscale.credibility import (
    EllipticalShiftModel,
    GaussianShiftModel,
    GenericShiftModel,
    build_cstar,
    premium_elliptical,
    premium_gaussian,
    premium_mc,
    premium_scalar,
)
from riskscale.errors import (
    DegenerateDenominatorError,
    ParameterError,
    ShapeError,
    SingularMatrixError,
)
from riskscale.radial import PointMass
from riskscale.rng import BLOCK_ROWS, RngStream, map_blocks
from riskscale.verify import _premium_gaussian_noise_inverse


def _gaussian_density(mu, tau2):
    def h(points):
        return np.exp(-(points[:, 0] - mu) ** 2 / (2 * tau2)) / np.sqrt(2 * np.pi * tau2)
    return h


class TestScalarPremium:
    def test_reference_value(self):
        # frozen from the Monte Carlo posterior-mean oracle (see TestPremiumMC)
        assert premium_scalar(0.0, 1.0, 3.0, 4.0) == 3.0

    def test_fixed_point_at_prior_mean(self):
        assert premium_scalar(5.0, 2.0, 7.0, 5.0) == 5.0

    def test_vanishing_credibility_weight(self):
        assert abs(premium_scalar(5.0, 1.0, 1e12, 2.0) - 2.0) < 1e-9

    def test_parameter_errors(self):
        with pytest.raises(ParameterError):
            premium_scalar(0.0, -1.0, 1.0, 0.0)
        with pytest.raises(ParameterError):
            premium_scalar(0.0, 1.0, 0.0, 0.0)


class TestGaussianModel:
    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            GaussianShiftModel(mu=[0.0, 0.0], sigma=np.eye(3), sigma0=np.eye(3))

    def test_non_square_sigma(self):
        with pytest.raises(ShapeError):
            GaussianShiftModel(mu=[0.0, 0.0], sigma=np.ones((2, 3)), sigma0=np.eye(2))

    def test_asymmetric_rejected(self):
        with pytest.raises(ParameterError):
            GaussianShiftModel(mu=[0.0, 0.0], sigma=[[1.0, 0.3], [0.0, 1.0]],
                               sigma0=np.eye(2))

    def test_indefinite_rejected(self):
        with pytest.raises(ParameterError):
            GaussianShiftModel(mu=[0.0], sigma=[[-1.0]], sigma0=[[2.0]])

    def test_degenerate_sum_rejected(self):
        with pytest.raises(SingularMatrixError):
            GaussianShiftModel(mu=[0.0, 0.0], sigma=np.zeros((2, 2)),
                               sigma0=[[1.0, 1.0], [1.0, 1.0]])

    def test_singular_prior_allowed(self):
        model = GaussianShiftModel(mu=[0.0, 0.0], sigma=np.eye(2),
                                   sigma0=[[1.0, 1.0], [1.0, 1.0]])
        assert np.isfinite(premium_gaussian(model, [1.0, 2.0])).all()


class TestGaussianPremium:
    def test_scalar_case(self):
        model = GaussianShiftModel(mu=[0.0], sigma=[[1.0]], sigma0=[[3.0]])
        assert np.allclose(premium_gaussian(model, [4.0]), [3.0])

    def test_zero_noise_returns_observation(self):
        model = GaussianShiftModel(mu=[5.0, -1.0], sigma=np.zeros((2, 2)),
                                   sigma0=np.eye(2))
        x = np.array([2.0, 7.0])
        assert np.array_equal(premium_gaussian(model, x), x)

    def test_diagonal_reduces_to_scalar_premiums(self):
        model = GaussianShiftModel(mu=[0.0, 0.0], sigma=[[1.0, 0.0], [0.0, 2.0]],
                                   sigma0=[[2.0, 0.0], [0.0, 1.0]])
        value = premium_gaussian(model, [3.0, 3.0])
        expected = [premium_scalar(0.0, 1.0, 2.0, 3.0),
                    premium_scalar(0.0, 2.0, 1.0, 3.0)]
        assert np.allclose(value, expected, atol=1e-12)
        assert np.allclose(value, [2.0, 1.0], atol=1e-12)

    def test_forms_agree_on_random_instances(self):
        gen = RngStream(200).generator()
        for _ in range(20):
            a = gen.standard_normal((3, 3))
            b = gen.standard_normal((3, 3))
            model = GaussianShiftModel(mu=gen.standard_normal(3),
                                       sigma=a.T @ a + 0.5 * np.eye(3),
                                       sigma0=b.T @ b + 0.5 * np.eye(3))
            x = gen.standard_normal(3)
            first = premium_gaussian(model, x)
            second = _premium_gaussian_noise_inverse(model, x)
            assert np.abs(first - second).max() < 1e-10

    def test_affine_consistency_doubling_is_exact(self):
        gen = RngStream(201).generator()
        a = gen.standard_normal((3, 3))
        b = gen.standard_normal((3, 3))
        sigma = a.T @ a + 0.5 * np.eye(3)
        sigma0 = b.T @ b + 0.5 * np.eye(3)
        mu = gen.standard_normal(3)
        # at x = 0 every step scales by exactly 2; at another x,
        # fl(x + 2(mu - x)) - x need not be 2(mu - x)
        x = np.zeros(3)
        adj = premium_gaussian(GaussianShiftModel(mu, sigma, sigma0), x) - x
        doubled_mu = x + 2.0 * (mu - x)
        adj2 = premium_gaussian(GaussianShiftModel(doubled_mu, sigma, sigma0), x) - x
        assert np.array_equal(adj2, 2.0 * adj)

    def test_dimension_mismatch(self):
        model = GaussianShiftModel(mu=[0.0], sigma=[[1.0]], sigma0=[[1.0]])
        with pytest.raises(ShapeError):
            premium_gaussian(model, [1.0, 2.0])


class TestBuildCstar:
    def test_identity_input(self):
        got = build_cstar(np.eye(6))
        d = 3
        assert np.array_equal(got[:d, :d], np.eye(d))
        assert np.array_equal(got[:d, d:], np.zeros((d, d)))
        assert np.array_equal(got[d:, :d], np.eye(d))
        assert np.array_equal(got[d:, d:], np.eye(d))

    def test_block_diagonal_input(self):
        gen = RngStream(202).generator()
        cii = gen.standard_normal((2, 2))
        cjj = gen.standard_normal((2, 2))
        c = np.zeros((4, 4))
        c[:2, :2] = cii
        c[2:, 2:] = cjj
        got = build_cstar(c)
        assert np.array_equal(got[:2, :2], cii)
        assert np.array_equal(got[:2, 2:], np.zeros((2, 2)))
        assert np.array_equal(got[2:, :2], cjj)
        assert np.array_equal(got[2:, 2:], cjj)

    def test_general_blocks_by_hand(self):
        gen = RngStream(203).generator()
        c = gen.standard_normal((4, 4))
        got = build_cstar(c)
        manual = np.block([
            [c[:2, :2] + c[:2, 2:], c[:2, 2:]],
            [c[2:, :2] + c[2:, 2:], c[2:, 2:]],
        ])
        assert np.array_equal(got, manual)

    def test_gram_of_identity_cstar(self):
        # hand block multiplication: (C*)^T C* for C = I_2d
        cstar = build_cstar(np.eye(4))
        gram = cstar.T @ cstar
        expected = np.block([[2 * np.eye(2), np.eye(2)], [np.eye(2), np.eye(2)]])
        assert np.array_equal(gram, expected)

    def test_odd_dimension_rejected(self):
        with pytest.raises(ShapeError) as excinfo:
            build_cstar(np.eye(3))
        assert excinfo.value.param == "C"


class TestEllipticalPremium:
    def _block_diag_model(self, gen, d=3):
        a = gen.standard_normal((d, d))
        b = gen.standard_normal((d, d))
        sigma = a.T @ a + 0.5 * np.eye(d)
        sigma0 = b.T @ b + 0.5 * np.eye(d)
        mu = gen.standard_normal(d)
        c = np.zeros((2 * d, 2 * d))
        c[:d, :d] = np.linalg.cholesky(sigma).T
        c[d:, d:] = np.linalg.cholesky(sigma0).T
        elliptical = EllipticalShiftModel(c=c, nu=np.concatenate([np.zeros(d), mu]))
        gaussian = GaussianShiftModel(mu=mu, sigma=sigma, sigma0=sigma0)
        return elliptical, gaussian

    def test_block_diagonal_reduction(self):
        gen = RngStream(204).generator()
        for _ in range(20):
            elliptical, gaussian = self._block_diag_model(gen)
            x = gen.standard_normal(3)
            diff = premium_elliptical(elliptical, x) - premium_gaussian(gaussian, x)
            assert np.abs(diff).max() < 1e-9

    def test_fixed_point_at_mu(self):
        gen = RngStream(205).generator()
        elliptical, _ = self._block_diag_model(gen)
        mu = elliptical.nu[3:]
        assert np.allclose(premium_elliptical(elliptical, mu), mu, atol=1e-12)

    def test_identity_mixing_halves_observation(self):
        model = EllipticalShiftModel(c=np.eye(4), nu=np.zeros(4))
        x = np.array([3.0, 5.0])
        assert np.allclose(premium_elliptical(model, x), x / 2.0, atol=1e-12)

    def test_radial_choice_never_enters(self):
        # R drops out of the premium whenever E[R] is finite, so the model
        # carries the mixing matrix and offset alone and takes no radial law
        assert [f.name for f in fields(EllipticalShiftModel)] == ["c", "nu"]
        with pytest.raises(TypeError):
            EllipticalShiftModel(c=np.eye(4), nu=np.zeros(4), radial=PointMass(1.0))

    def test_nonzero_noise_offset_rejected(self):
        with pytest.raises(ParameterError):
            EllipticalShiftModel(c=np.eye(4), nu=[0.1, 0.0, 0.0, 0.0])

    def test_singular_mixing_rejected(self):
        with pytest.raises(SingularMatrixError):
            EllipticalShiftModel(c=np.zeros((4, 4)), nu=np.zeros(4))


class TestPremiumMC:
    def test_scalar_gaussian_matches_closed_form(self):
        model = GenericShiftModel(
            prior_density=_gaussian_density(0.0, 3.0),
            noise_sampler=lambda gen, m: gen.standard_normal((m, 1)),
        )
        est, se = premium_mc(model, [4.0], 10**6, RngStream(207))
        assert abs(est[0] - 3.0) < 3.0 * se[0]
        assert se[0] < 0.01

    def test_flat_prior_returns_observation(self):
        model = GenericShiftModel(
            prior_density=lambda pts: np.full(pts.shape[0], 1e-4),
            noise_sampler=lambda gen, m: gen.standard_normal((m, 1)),
        )
        est, se = premium_mc(model, [2.0], 10**5, RngStream(208))
        assert abs(est[0] - 2.0) < 3.0 * max(se[0], 1e-12) + 1e-9

    def test_bivariate_matches_gaussian_closed_form(self):
        sigma = np.array([[1.0, 0.3], [0.3, 2.0]])
        sigma0 = np.array([[2.0, -0.4], [-0.4, 1.0]])
        mu = np.array([0.5, -0.5])
        chol_noise = np.linalg.cholesky(sigma)
        inv0 = np.linalg.inv(sigma0)

        def h(points):
            centered = points - mu
            quad = np.einsum("ij,jk,ik->i", centered, inv0, centered)
            return np.exp(-0.5 * quad)  # normalizing constant cancels

        model = GenericShiftModel(
            prior_density=h,
            noise_sampler=lambda gen, m: gen.standard_normal((m, 2)) @ chol_noise.T,
        )
        x = np.array([3.0, 1.0])
        est, se = premium_mc(model, x, 10**6, RngStream(210))
        exact = premium_gaussian(GaussianShiftModel(mu, sigma, sigma0), x)
        assert np.all(np.abs(est - exact) < 3.0 * se)

    def test_repeated_seeds_stay_within_three_standard_errors(self):
        model = GenericShiftModel(
            prior_density=_gaussian_density(0.0, 3.0),
            noise_sampler=lambda gen, m: gen.standard_normal((m, 1)),
        )
        hits = 0
        reps = 100
        for k in range(reps):
            est, se = premium_mc(model, [4.0], 10**6, RngStream(211, k))
            hits += abs(est[0] - 3.0) < 3.0 * se[0]
        assert hits >= 99

    def test_degenerate_denominator(self):
        model = GenericShiftModel(
            prior_density=lambda pts: np.where(np.abs(pts[:, 0]) < 0.5, 1.0, 0.0),
            noise_sampler=lambda gen, m: gen.standard_normal((m, 1)),
        )
        with pytest.raises(DegenerateDenominatorError):
            premium_mc(model, [100.0], 10**4, RngStream(212))

    def test_minimum_sample_size(self):
        model = GenericShiftModel(
            prior_density=_gaussian_density(0.0, 1.0),
            noise_sampler=lambda gen, m: gen.standard_normal((m, 1)),
        )
        with pytest.raises(ParameterError):
            premium_mc(model, [0.0], 999, RngStream(213))

    def test_deterministic_given_stream(self):
        model = GenericShiftModel(
            prior_density=_gaussian_density(0.0, 3.0),
            noise_sampler=lambda gen, m: gen.standard_normal((m, 1)),
        )
        first = premium_mc(model, [4.0], 10**4, RngStream(214), workers=1)
        second = premium_mc(model, [4.0], 10**4, RngStream(214), workers=4)
        assert np.array_equal(first[0], second[0])
        assert np.array_equal(first[1], second[1])

    def test_streamed_moments_match_two_pass_formula(self):
        # reference: hold every draw (map_blocks, same block streams) and
        # apply the delta method with two-pass central moments
        chol = np.array([[1.0, 0.0], [0.5, 1.2]])
        h = _gaussian_density(0.5, 2.0)
        model = GenericShiftModel(
            prior_density=h,
            noise_sampler=lambda gen, m: gen.standard_normal((m, 2)) @ chol.T,
        )
        x = np.array([2.0, -1.0])
        n = 3 * BLOCK_ROWS + 5000

        def fill(block, lo, hi):
            y = model.noise_sampler(block.generator(), hi - lo)
            hy = h(x[None, :] - y)
            return np.column_stack([y * hy[:, None], hy])

        packed = map_blocks(RngStream(215), n, fill, ncols=3, workers=1)
        u, v = packed[:, :2], packed[:, 2]
        ratio = u.mean(axis=0) / v.mean()
        du, dv = u - u.mean(axis=0), v - v.mean()
        var = ((du**2).mean(axis=0) - 2 * ratio * (du * dv[:, None]).mean(axis=0)
               + ratio**2 * (dv**2).mean()) / (n * v.mean() ** 2)
        for workers in (1, 2):
            est, se = premium_mc(model, x, n, RngStream(215), workers=workers)
            np.testing.assert_allclose(est, x - ratio, rtol=1e-12)
            np.testing.assert_allclose(se, np.sqrt(var), rtol=1e-12)



def test_elliptical_model_rejects_nu_of_the_wrong_length():
    with pytest.raises(ShapeError, match="nu has length 3, expected 4") as excinfo:
        EllipticalShiftModel(c=np.eye(4), nu=[0.0, 0.0, 1.0])
    assert excinfo.value.param == "nu"


def test_premium_elliptical_rejects_x_of_the_wrong_length():
    model = EllipticalShiftModel(c=np.eye(4), nu=[0.0, 0.0, 1.0, 2.0])
    with pytest.raises(ShapeError, match="x has length 3, expected 2"):
        premium_elliptical(model, [1.0, 2.0, 3.0])


def test_premium_mc_rejects_noise_of_the_wrong_shape():
    model = GenericShiftModel(prior_density=_gaussian_density(0.0, 1.0),
                              noise_sampler=lambda gen, m: gen.standard_normal((m, 2)))
    with pytest.raises(ShapeError, match=r"returned \(1000, 2\), expected \(1000, 1\)"):
        premium_mc(model, [1.0], 1000, RngStream(1), workers=1)


def test_premium_mc_refuses_a_denominator_that_is_not_positive():
    # half the draws carry mass, but the negative density values outweigh them
    model = GenericShiftModel(
        prior_density=lambda points: np.where(points[:, 0] > 0.0, 1.0, -10.0),
        noise_sampler=lambda gen, m: gen.standard_normal((m, 1)))
    with pytest.raises(DegenerateDenominatorError, match="denominator estimate is not positive"):
        premium_mc(model, [0.0], 1000, RngStream(2), workers=1)
