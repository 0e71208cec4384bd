import numpy as np
import pytest
from scipy import special

from riskscale.cdfs import angular_marginal_cdf, breiman_limit, ks_pvalue
from riskscale.config import _LAW_ARITY
from riskscale.dirichlet import (
    LpSpec,
    RandomPSpec,
    WeightedSpec,
    beta_gamma_sample,
    random_scale_sequence_sample,
)
from riskscale.errors import ParameterError
from riskscale.gof import ks_one_sample
from riskscale.radial import GammaPower, InvGamma, Pareto, PointMass, regular_variation_index
from riskscale.rng import BLOCK_ROWS, RngStream
from riskscale.samplers import (
    _std_gamma,
    bernoulli_pm1,
    beta_sample,
    gamma_sample,
    inv_gamma_sample,
    normal_sample,
    pareto_sample,
    y_marginal_sample,
)
from riskscale.tails import (
    ClaytonSpec,
    MGB2Model,
    TailQuery,
    archimedean_survival,
    mgb2_sample,
    tail_dependence_limit,
    tail_ratio_empirical,
)


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


@pytest.mark.parametrize("size", [1, 7, BLOCK_ROWS + 7, (3, 5)])
@pytest.mark.parametrize("shape", [1.0, 0.4, 2.5])
def test_gamma_kernel_gives_the_standard_gamma_bits(shape, size):
    # shape 1 goes to standard_exponential, with or without out=: the bits
    # and the generator state after the draws are those of standard_gamma
    ref_gen = RngStream(73).generator()
    ref = ref_gen.standard_gamma(shape, size=size)
    after = ref_gen.random()
    for out in (None, np.full(size, np.nan)):
        gen = RngStream(73).generator()
        draws = _std_gamma(shape, gen, size, out)
        assert draws.tobytes() == ref.tobytes()
        assert out is None or draws is out
        assert gen.random() == after


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


_CLAYTON = ClaytonSpec(theta_shape=2.0, d=2)


@pytest.mark.parametrize("call, param", [
    (lambda: beta_gamma_sample(1.5, 2.0, 10, RngStream(0)), "alpha"),
    (lambda: RandomPSpec(alphas=(1.0, 1.0), p_law=2.0), "p_law"),
    (lambda: ks_one_sample([0.1, 0.2, 0.3], exponential_cdf), "sample"),
    (lambda: ks_one_sample([0.1] * 9 + [np.nan], exponential_cdf), "sample"),
    (lambda: archimedean_survival(_CLAYTON, (1.0, 1.0, 1.0)), "x"),
    (lambda: archimedean_survival(_CLAYTON, (1.0, -0.5)), "x"),
    (lambda: bernoulli_pm1(1.5, RngStream(0).generator(), 10), "q"),
    (lambda: angular_marginal_cdf(LpSpec((1.0, 1.0), 2.0), 5, 0.5), "i"),
    (lambda: tail_ratio_empirical([1.0, 2.0], 1.0, 1.0, 1.0), "samples"),
    (lambda: regular_variation_index(PointMass(1.0)), "law"),
    (lambda: MGB2Model((1.0, 1.0), (1.0,), (1.0, 1.0), InvGamma(2.0)), "b"),
    (lambda: WeightedSpec(base=(1.0, 1.0), qs=(0.5, 0.5)), "base"),
], ids=["beta_gamma_sample alpha", "RandomPSpec p_law", "ks_one_sample n",
        "ks_one_sample nan", "archimedean_survival length", "archimedean_survival sign",
        "bernoulli_pm1 q", "angular_marginal_cdf i", "tail_ratio_empirical samples",
        "regular_variation_index law", "MGB2Model b length", "WeightedSpec base"])
def test_a_parameter_error_names_the_argument_at_fault(call, param):
    with pytest.raises(ParameterError) as excinfo:
        call()
    assert excinfo.value.param == param


def _gen():
    return RngStream(0).generator()


_LP = LpSpec((1.0, 1.0), 2.0)
_MGB2 = MGB2Model((1.0, 1.0), (1.0, 1.0), (1.0, 1.0), InvGamma(2.0))
_ROWS = np.ones((30, 2))

# Every real parameter of the package, one site per argument: call(v) passes
# v as that argument alone. A stored site returns what its object keeps.
# Each entry is (call, param, good, over): good passes the rule; over, when
# not None, is past the site's upper bound.
_STORED_REALS = {
    "LpSpec p": (lambda v: LpSpec((1.0,), v).p, "p", 2, None),
    "GammaPower shape": (lambda v: GammaPower(v, 1.0, 1.0).shape, "shape", 2, None),
    "GammaPower rate": (lambda v: GammaPower(1.0, v, 1.0).rate, "rate", 2, None),
    "GammaPower power": (lambda v: GammaPower(1.0, 1.0, v).power, "power", 2, None),
    "Pareto index": (lambda v: Pareto(v).index, "index", 2, None),
    "InvGamma shape": (lambda v: InvGamma(v).shape, "shape", 2, None),
    "PointMass value": (lambda v: PointMass(v).value, "value", 2, None),
    "ClaytonSpec theta_shape": (lambda v: ClaytonSpec(v, 2).theta_shape, "theta_shape", 2,
                                None),
    "TailQuery c1": (lambda v: TailQuery(v, 1.0, (1.0,), 10).c1, "c1", 2, None),
    "TailQuery c2": (lambda v: TailQuery(1.0, v, (1.0,), 10).c2, "c2", 2, None),
}
_CALLED_REALS = {
    "gamma_sample shape": (lambda v: gamma_sample(v, 1.0, _gen(), 2), "shape", 2, None),
    "gamma_sample rate": (lambda v: gamma_sample(1.0, v, _gen(), 2), "rate", 2, None),
    "beta_sample a": (lambda v: beta_sample(v, 1.0, _gen(), 2), "a", 2, None),
    "beta_sample b": (lambda v: beta_sample(1.0, v, _gen(), 2), "b", 2, None),
    "pareto_sample index": (lambda v: pareto_sample(v, _gen(), 2), "index", 2, None),
    "inv_gamma_sample shape": (lambda v: inv_gamma_sample(v, _gen(), 2), "shape", 2, None),
    "y_marginal_sample alpha": (lambda v: y_marginal_sample(v, 1.0, _gen(), 2), "alpha", 2,
                                None),
    "y_marginal_sample p": (lambda v: y_marginal_sample(1.0, v, _gen(), 2), "p", 2, None),
    "bernoulli_pm1 q": (lambda v: bernoulli_pm1(v, _gen(), 2), "q", 1, 1.5),
    "beta_gamma_sample alpha": (lambda v: beta_gamma_sample(v, 1.0, 2, RngStream(0)),
                                "alpha", 0.5, 1),
    "beta_gamma_sample p": (lambda v: beta_gamma_sample(0.5, v, 2, RngStream(0)), "p", 2,
                            None),
    "random_scale_sequence_sample alpha": (
        lambda v: random_scale_sequence_sample(v, 1.0, PointMass(1.0), 2, 2, RngStream(0)),
        "alpha", 2, None),
    "random_scale_sequence_sample p": (
        lambda v: random_scale_sequence_sample(1.0, v, PointMass(1.0), 2, 2, RngStream(0)),
        "p", 2, None),
    "tail_ratio_empirical c1": (lambda v: tail_ratio_empirical(_ROWS, v, 1.0, 0.5), "c1", 2,
                                None),
    "tail_ratio_empirical c2": (lambda v: tail_ratio_empirical(_ROWS, 1.0, v, 0.5), "c2", 2,
                                None),
    "tail_ratio_empirical t": (lambda v: tail_ratio_empirical(_ROWS, 1.0, 1.0, v), "t", 2,
                               None),
    "tail_dependence_limit c1": (
        lambda v: tail_dependence_limit(_MGB2, v, 1.0, 10, RngStream(0)), "c1", 2, None),
    "tail_dependence_limit c2": (
        lambda v: tail_dependence_limit(_MGB2, 1.0, v, 10, RngStream(0)), "c2", 2, None),
    "breiman_limit c1": (lambda v: breiman_limit(_MGB2, v, 1.0), "c1", 2, None),
    "breiman_limit c2": (lambda v: breiman_limit(_MGB2, 1.0, v), "c2", 2, None),
    "config chi_square_sqrt df": (lambda v: _LAW_ARITY["chi_square_sqrt"][0](v), "df", 2,
                                  None),
}
# (call, param, good, over) as above, for the sequence parameters: good is
# a pair of one-digit ints, over an element past the upper bound
_SEQUENCE_REALS = {
    "LpSpec alphas": (lambda v: LpSpec(v, 2.0).alphas, "alphas", (1, 2), None),
    "RandomPSpec alphas": (lambda v: RandomPSpec(v, Pareto(2.0)).alphas, "alphas", (1, 2),
                           None),
    "WeightedSpec qs": (lambda v: WeightedSpec(_LP, v).qs, "qs", (1, 1), 1.5),
    "MGB2Model a": (lambda v: MGB2Model(v, (1.0, 1.0), (1.0, 1.0), InvGamma(2.0)).a, "a",
                    (1, 2), None),
    "MGB2Model b": (lambda v: MGB2Model((1.0, 1.0), v, (1.0, 1.0), InvGamma(2.0)).b, "b",
                    (1, 2), None),
    "MGB2Model p": (lambda v: MGB2Model((1.0, 1.0), (1.0, 1.0), v, InvGamma(2.0)).p, "p",
                    (1, 2), None),
    "TailQuery t_grid": (lambda v: TailQuery(1.0, 1.0, v, 10).t_grid, "t_grid", (1, 2), None),
}


def _bad_reals(good, over):
    """(label, value) of every value the real rule refuses at a site whose
    ``good`` value passes: ``good`` as a string and in an array, None, a
    complex, nan, inf, 0, -1 and ``over``."""
    bad = [("str", str(good)), ("None", None), ("complex", 1j),
           ("array", np.array([float(good)])), ("nan", np.nan), ("inf", np.inf),
           ("0", 0), ("-1", -1)]
    return bad if over is None else bad + [("over", over)]


def _rejected_reals():
    for site, (call, param, good, over) in {**_STORED_REALS, **_CALLED_REALS}.items():
        for label, value in _bad_reals(good, over):
            yield pytest.param(call, param, value, id=f"{site} {label}")
    for site, (call, param, good, over) in _SEQUENCE_REALS.items():
        digits = "".join(map(str, good))
        bare = [("str", digits), ("bytes", digits.encode()), ("None", None),
                ("bare", good[0]), ("empty", ())]
        for label, value in bare:
            yield pytest.param(call, param, value, id=f"{site} {label}")
        for label, value in _bad_reals(good[1], over):
            yield pytest.param(call, param, (good[0], value), id=f"{site} element {label}")


def _accepted_reals():
    for site, (call, _, good, _) in _STORED_REALS.items():
        for value in (good, np.float64(good), np.int64(good)):
            yield pytest.param(call, value, float(good), id=f"{site} {type(value).__name__}")
    for site, (call, _, good, _) in _SEQUENCE_REALS.items():
        expected = tuple(map(float, good))
        for label, value in [("list", list(good)), ("array", np.array(good, dtype=float)),
                             ("numpy scalars", (np.int64(good[0]), np.float64(good[1])))]:
            yield pytest.param(call, value, expected, id=f"{site} {label}")


@pytest.mark.parametrize("call, param, value", _rejected_reals())
def test_the_real_rule_refuses_and_names_the_argument(call, param, value):
    with pytest.raises(ParameterError) as excinfo:
        call(value)
    assert excinfo.value.param == param


@pytest.mark.parametrize("call, value, expected", _accepted_reals())
def test_the_real_rule_stores_python_floats(call, value, expected):
    stored = call(value)
    assert stored == expected
    assert {type(v) for v in (stored if isinstance(stored, tuple) else (stored,))} == {float}
