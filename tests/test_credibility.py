import functools
from dataclasses import fields
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import riskscale.credibility as credibility
from riskscale.credibility import (
    EllipticalShiftModel,
    GaussianShiftModel,
    GenericShiftModel,
    build_cstar,
    premium_elliptical,
    premium_gaussian,
    premium_mc,
)
from riskscale.errors import (
    DegenerateDenominatorError,
    ParameterError,
    ShapeError,
    SingularMatrixError,
)
from riskscale.radial import PointMass
from riskscale.rng import BLOCK_ROWS, RngStream, map_blocks
from riskscale.verify import _SCALAR_GAUSSIAN, _premium_gaussian_noise_inverse


def _gaussian_density(mu, tau2):
    def h(points):
        return np.exp(-(points[:, 0] - mu) ** 2 / (2 * tau2)) / np.sqrt(2 * np.pi * tau2)
    return h


def _scalar_premium(mu, sigma2, tau2, x) -> float:
    """The scalar credibility premium x + sigma2 / (sigma2 + tau2) (mu - x):
    the Gaussian premium at d = 1, noise variance sigma2, prior variance tau2."""
    model = GaussianShiftModel(mu=[mu], sigma=[[sigma2]], sigma0=[[tau2]])
    value = premium_gaussian(model, [x])
    assert value.shape == (1,)
    return float(value[0])


class TestScalarPremium:
    def test_reference_value(self):
        # frozen from the Monte Carlo posterior-mean oracle (see TestPremiumMC);
        # verify's scalar_premium_mc takes its exact value from this model
        assert _scalar_premium(0.0, 1.0, 3.0, 4.0) == 3.0
        assert premium_gaussian(_SCALAR_GAUSSIAN, [4.0]).tolist() == [3.0]

    def test_fixed_point_at_prior_mean(self):
        assert _scalar_premium(5.0, 2.0, 7.0, 5.0) == 5.0

    def test_vanishing_credibility_weight(self):
        assert abs(_scalar_premium(5.0, 1.0, 1e12, 2.0) - 2.0) < 1e-9

    def test_parameter_errors(self):
        # a negative noise or prior variance is refused
        with pytest.raises(ParameterError, match="^sigma must be positive semidefinite"):
            _scalar_premium(0.0, -1.0, 1.0, 0.0)
        with pytest.raises(ParameterError, match="^sigma0 must be positive semidefinite"):
            _scalar_premium(0.0, 1.0, -1.0, 0.0)


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
        # 50% asymmetric, however small its entries
        with pytest.raises(ParameterError, match="sigma must be symmetric"):
            GaussianShiftModel(mu=[0.0, 0.0], sigma=[[1e-11, 5e-12], [0.0, 1e-11]],
                               sigma0=np.eye(2))

    def test_indefinite_rejected(self):
        with pytest.raises(ParameterError):
            GaussianShiftModel(mu=[0.0], sigma=[[-1.0]], sigma0=[[2.0]])
        with pytest.raises(ParameterError, match="sigma must be positive semidefinite"):
            GaussianShiftModel(mu=[0.0, 0.0], sigma=[[1e-11, 0.0], [0.0, -1e-11]],
                               sigma0=np.eye(2))

    def test_indefinite_sum_rejected(self):
        # each summand passes the PSD rule (lambda_min = -0.9e-12 of a largest
        # 1), but their sum has lambda_min = -1.8e-12
        sigma = np.diag([1.0, 0.0, -0.9e-12])
        sigma0 = np.diag([0.0, 1.0, -0.9e-12])
        with pytest.raises(ParameterError,
                           match="^sigma \\+ sigma0 must be positive semidefinite$"):
            GaussianShiftModel(mu=np.zeros(3), sigma=sigma, sigma0=sigma0)

    def test_degenerate_sum_rejected(self):
        with pytest.raises(SingularMatrixError,
                           match="^sigma \\+ sigma0 must be positive definite: singular"):
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
        expected = [_scalar_premium(0.0, 1.0, 2.0, 3.0),
                    _scalar_premium(0.0, 2.0, 1.0, 3.0)]
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


@st.composite
def _gaussian_shift_inputs(draw):
    """Integer Gram matrices sigma = A^T A and sigma0 = B^T B (B zero at
    times), d = 1 to 4, with integer mu and x: 2^k sigma is exact."""
    d = draw(st.integers(1, 4))
    entries = st.integers(-4, 4)
    square = st.lists(entries, min_size=d * d, max_size=d * d).map(
        lambda v: np.reshape(np.array(v, dtype=float), (d, d)))
    vector = st.lists(entries, min_size=d, max_size=d).map(
        lambda v: np.array(v, dtype=float))
    a = draw(square)
    b = draw(st.one_of(st.just(np.zeros((d, d))), square))
    return a.T @ a, b.T @ b, draw(vector), draw(vector)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(inputs=_gaussian_shift_inputs(), k=st.integers(-60, 60))
def test_gaussian_model_does_not_depend_on_the_unit(inputs, k):
    # rescaling both covariances by 2^k is a change of monetary unit: the
    # model is accepted exactly when it is at 2^0, with the same premium bytes
    sigma, sigma0, mu, x = inputs

    def premium(scale):
        try:
            model = GaussianShiftModel(mu=mu, sigma=scale * sigma, sigma0=scale * sigma0)
        except SingularMatrixError:
            return None
        return premium_gaussian(model, x).tobytes()

    assert premium(2.0**k) == premium(1.0)


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


# An exact simulation oracle for both closed-form premiums. It draws
# (Theta, X = Theta + Y) straight from each model's definition with numpy
# alone, regresses each Theta_k on (1, X) by least squares, and z-scores the
# fitted value at three points against the premium with a sandwich
# (heteroskedasticity-robust) standard error. In both models E[Theta | X] is
# linear in X, so the regression estimates the premium itself. The oracle
# calls none of build_cstar, b_matrix, mat_inverse or the premium kernel.
# The two models are those of tests/golden/premium_corr.cfg and
# elliptical_corr.cfg, every block and off-diagonal entry nonzero.

ORACLE_ROWS = 10**5
ORACLE_SEEDS = range(13905, 13910)
ORACLE_MU = np.array([2.0, 1.0])
ORACLE_SIGMA = np.array([[1.0, 0.3], [0.3, 2.0]])
ORACLE_SIGMA0 = np.array([[1.5, -0.4], [-0.4, 0.8]])
ORACLE_C = np.array([[1.0, 0.2, 0.3, -0.1],
                     [0.1, 1.0, 0.2, 0.4],
                     [0.3, -0.2, 1.0, 0.2],
                     [0.25, 0.4, 0.1, 1.0]])
ORACLE_NU = np.array([0.0, 0.0, 2.0, 1.0])
#: The radial laws of the elliptical draws; the premium must not depend on
#: which one R follows. Pareto(6) has the finite fourth moment the sandwich
#: variance needs; the exponential is light-tailed.
ORACLE_RADIAL = {
    "pareto6": lambda gen, n: 1.0 + gen.pareto(6.0, n),
    "exponential": lambda gen, n: gen.standard_exponential(n),
}
ELLIPTICAL_CASES = [f"elliptical {law}" for law in ORACLE_RADIAL]
ORACLE_CASES = ["gaussian", *ELLIPTICAL_CASES]
#: The points x0: the mean of X, the golden config's x, and one more.
ORACLE_POINTS = {
    "gaussian": np.array([[2.0, 1.0], [3.0, -1.0], [1.0, 2.0]]),
    "elliptical": np.array([[2.0, 1.0], [1.5, -0.5], [3.0, 2.0]]),
}
#: Bonferroni at 1e-4 over every z-score the oracle tests (two-sided): 3
#: cases x 5 seeds x 3 points x 2 coordinates, so |z| <= 4.87. On seeds
#: 13705-13904 the largest |z| of any case and seed was 3.47.
ORACLE_Z = NormalDist().inv_cdf(1.0 - 1e-4 / (2 * 3 * 5 * 3 * 2))


def _oracle_model(case: str):
    if case == "gaussian":
        return GaussianShiftModel(ORACLE_MU, ORACLE_SIGMA, ORACLE_SIGMA0)
    return EllipticalShiftModel(c=ORACLE_C, nu=ORACLE_NU)


def _oracle_draws(case: str, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """(Theta, X) rows of ``case`` drawn from the model's definition."""
    gen = np.random.default_rng(seed)
    n = ORACLE_ROWS
    if case == "gaussian":
        theta = ORACLE_MU + gen.standard_normal((n, 2)) @ np.linalg.cholesky(ORACLE_SIGMA0).T
        y = gen.standard_normal((n, 2)) @ np.linalg.cholesky(ORACLE_SIGMA).T
        return theta, theta + y
    # (Y, Theta) = R U C + nu, with U uniform on the unit sphere of R^4
    u = gen.standard_normal((n, 4))
    u /= np.linalg.norm(u, axis=1)[:, None]
    r = ORACLE_RADIAL[case.split()[1]](gen, n)
    y_theta = r[:, None] * u @ ORACLE_C + ORACLE_NU
    return y_theta[:, 2:], y_theta[:, :2] + y_theta[:, 2:]


@functools.cache
def _oracle_fit(case: str, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares fit of each Theta_k on (1, X) at the case's points, and
    its sandwich (HC0) standard error, both (points, coordinates)."""
    theta, x = _oracle_draws(case, seed)
    design = np.column_stack([np.ones(len(x)), x])
    beta = np.linalg.lstsq(design, theta, rcond=None)[0]
    resid = theta - design @ beta
    at = np.column_stack([np.ones(3), ORACLE_POINTS[case.split()[0]]])
    # the fitted value at a point is sum_i h_i Theta_i, with h = A (A'A)^-1 a0'
    h = design @ np.linalg.solve(design.T @ design, at.T)
    return at @ beta, np.sqrt((h**2).T @ resid**2)


def _oracle_max_z(case: str, seed: int, premium) -> float:
    """Largest |z| of ``premium`` against the oracle's fit over the case's
    points and coordinates."""
    model = _oracle_model(case)
    fitted, se = _oracle_fit(case, seed)
    exact = np.array([premium(model, x0) for x0 in ORACLE_POINTS[case.split()[0]]])
    return float(np.abs((fitted - exact) / se).max())


@pytest.mark.parametrize("case", ORACLE_CASES)
def test_the_closed_form_premium_matches_the_simulation_oracle(case):
    premium = premium_gaussian if case == "gaussian" else premium_elliptical
    for seed in ORACLE_SEEDS:
        assert _oracle_max_z(case, seed, premium) <= ORACLE_Z, seed


def test_the_oracle_sees_a_cstar_that_drops_the_top_right_block(monkeypatch):
    build = credibility.build_cstar

    def dropped(c):
        c = np.array(c, dtype=float)
        c[:c.shape[0] // 2, c.shape[0] // 2:] = 0.0
        return build(c)

    monkeypatch.setattr(credibility, "build_cstar", dropped)
    for case in ELLIPTICAL_CASES:
        for seed in ORACLE_SEEDS:
            assert _oracle_max_z(case, seed, premium_elliptical) > ORACLE_Z, (case, seed)


def test_the_oracle_sees_b_ji_in_place_of_b_ij(monkeypatch):
    b_matrix = EllipticalShiftModel.b_matrix

    def transposed(model):
        b = b_matrix(model)
        d = model.dim
        b[:d, d:] = b[d:, :d]
        return b

    monkeypatch.setattr(EllipticalShiftModel, "b_matrix", transposed)
    for case in ELLIPTICAL_CASES:
        for seed in ORACLE_SEEDS:
            assert _oracle_max_z(case, seed, premium_elliptical) > ORACLE_Z, (case, seed)


def test_the_oracle_sees_sigma_in_place_of_sigma0():
    def swapped(model, x):
        return credibility._posterior_mean(
            model.mu, model.sigma + model.sigma0, model.sigma, x)

    for seed in ORACLE_SEEDS:
        assert _oracle_max_z("gaussian", seed, swapped) > ORACLE_Z, seed
