import math
import tracemalloc
from dataclasses import astuple

import numpy as np
import pytest

from riskscale import tails
from riskscale.cdfs import breiman_limit, ks_pvalue, normal_pvalue
from riskscale.errors import (
    InsufficientTailDataError,
    ParameterError,
    UnsupportedModelError,
)
from riskscale.gof import ks_one_sample, ks_two_sample
from riskscale.moments import RatioMoments
from riskscale.radial import GammaPower, InvGamma, Pareto, PointMass, \
    regular_variation_index
from riskscale.rng import BLOCK_ROWS, RngStream, map_blocks, reduce_blocks
from riskscale.samplers import gamma_sample
from riskscale.tails import (
    ClaytonSpec,
    MGB2Model,
    TailQuery,
    _w_factors,
    archimedean_survival,
    mgb2_conditional_sample,
    mgb2_sample,
    scale_mixture_exp_sample,
    tail_convergence_table,
    tail_dependence_limit,
    tail_ratio_empirical,
)
from riskscale.verify import _exponential_prelimit, check_breiman_limit
from test_samplers import exponential_cdf, gamma_cdf


def _exp_model(theta_law=Pareto(1.0)):
    # a = b = p = 1: the W factors are unit exponentials
    return MGB2Model(a=(1.0, 1.0), b=(1.0, 1.0), p=(1.0, 1.0), theta_law=theta_law)


class TestScaleMixture:
    def test_matches_conditional_construction(self):
        # oracle: draw theta first, then exponentials at rate theta
        spec = ClaytonSpec(theta_shape=1.5, d=2)
        n = 10**4
        x = scale_mixture_exp_sample(spec, n, RngStream(301))
        gen = RngStream(302).generator()
        theta = gamma_sample(1.5, 1.0, gen, size=n)
        y = gen.exponential(size=(n, 2)) / theta[:, None]
        for i in range(2):
            assert ks_pvalue(ks_two_sample(x[:, i], y[:, i])) > 0.01

    def test_concentrated_mixer_recovers_exponential(self):
        # Theta/a -> 1 as a grows, so a * X approaches Exp(1)
        a = 10**4
        spec = ClaytonSpec(theta_shape=float(a), d=1)
        x = a * scale_mixture_exp_sample(spec, 10**4, RngStream(303))[:, 0]
        assert ks_pvalue(ks_one_sample(x, exponential_cdf)) > 0.01

    def test_unit_survival_value(self):
        # d = 1, a = 1: P(X > 1) = E[e^(-Theta)] = 1/2
        spec = ClaytonSpec(theta_shape=1.0, d=1)
        x = scale_mixture_exp_sample(spec, 10**5, RngStream(304))[:, 0]
        assert abs((x > 1.0).mean() - 0.5) < 0.01


class TestArchimedeanSurvival:
    def test_at_origin(self):
        assert archimedean_survival(ClaytonSpec(2.0, 3), (0.0, 0.0, 0.0)) == 1.0

    def test_empirical_joint_survival_grid(self):
        spec = ClaytonSpec(theta_shape=1.0, d=2)
        s = scale_mixture_exp_sample(spec, 10**5, RngStream(305))
        for x1 in (0.25, 0.5, 1.0):
            for x2 in (0.25, 0.5, 1.0):
                emp = ((s[:, 0] > x1) & (s[:, 1] > x2)).mean()
                assert abs(emp - archimedean_survival(spec, (x1, x2))) < 0.01

    def test_half_at_unit_sum(self):
        assert archimedean_survival(ClaytonSpec(1.0, 2), (0.5, 0.5)) == 0.5

    def test_single_coordinate_reduction(self):
        spec = ClaytonSpec(theta_shape=2.0, d=1)
        assert archimedean_survival(spec, (3.0,)) == (1.0 + 3.0) ** -2.0

    def test_negative_coordinate_rejected(self):
        with pytest.raises(ParameterError):
            archimedean_survival(ClaytonSpec(1.0, 2), (0.5, -0.1))


class TestMGB2:
    def test_fixed_mixer_margins_are_gamma_powers(self):
        model = MGB2Model(a=(2.0, 1.5), b=(1.0, 2.0), p=(1.5, 0.7),
                          theta_law=PointMass(1.0))
        x = mgb2_sample(model, 10**4, RngStream(306))
        for i in range(2):
            u = (x[:, i] / model.b[i]) ** model.a[i]
            rep = ks_one_sample(u, lambda v, p=model.p[i]: gamma_cdf(v, p, 1.0))
            assert ks_pvalue(rep) > 0.01

    def test_conditional_collapse_to_exponential(self):
        model = MGB2Model(a=(1.0,), b=(1.0,), p=(1.0,), theta_law=PointMass(1.0))
        x = mgb2_conditional_sample(model, 10**4, RngStream(307))[:, 0]
        assert ks_pvalue(ks_one_sample(x, exponential_cdf)) > 0.01

    def test_sampler_and_conditional_agree_in_law(self):
        model = MGB2Model(a=(2.0, 3.0), b=(1.0, 2.0), p=(1.5, 0.5),
                          theta_law=InvGamma(2.0))
        s = RngStream(308)
        x = mgb2_sample(model, 10**4, s.child(0))
        y = mgb2_conditional_sample(model, 10**4, s.child(1))
        for i in range(2):
            assert ks_pvalue(ks_two_sample(x[:, i], y[:, i])) > 0.01
        assert ks_pvalue(ks_two_sample(x.min(axis=1), y.min(axis=1))) > 0.01

    def test_log_scale_shift_identity_on_shared_draws(self):
        # the same (theta, w) draws written multiplicatively or additively on
        # the log scale must coincide
        gen = RngStream(309).generator()
        a = np.array([2.0, 3.0])
        theta = gamma_sample(2.0, 1.0, gen, size=1000)
        w = np.column_stack([gamma_sample(1.5, 1.0, gen, size=1000) ** (1 / a[0]),
                             gamma_sample(0.5, 1.0, gen, size=1000) ** (1 / a[1])])
        x = theta[:, None] ** (1.0 / a)[None, :] * w
        log_path = np.log(theta)[:, None] / a[None, :] + np.log(w)
        assert np.abs(np.log(x) - log_path).max() < 1e-12

    def test_conditional_density_change_of_variables(self):
        # the stated conditional density equals the Gamma(p, scale theta)
        # density of u = (x/b)^a times du/dx, pointwise on a grid
        a, b, p = 2.0, 3.0, 1.5

        def conditional_pdf(x, theta):
            return (a / (math.gamma(p) * x * theta**p)
                    * (x / b) ** (a * p) * math.exp(-((x / b) ** a) / theta))

        def via_gamma(x, theta):
            u = (x / b) ** a
            dens_u = u ** (p - 1) * math.exp(-u / theta) / (math.gamma(p) * theta**p)
            return dens_u * (a / b) * (x / b) ** (a - 1)

        for theta in (0.5, 1.0, 2.5):
            for x in (0.2, 0.7, 1.3, 2.9, 6.0):
                lhs = conditional_pdf(x, theta)
                rhs = via_gamma(x, theta)
                assert abs(lhs - rhs) <= 1e-12 * max(lhs, rhs)

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            MGB2Model(a=(1.0,), b=(1.0, 2.0), p=(1.0,), theta_law=PointMass(1.0))
        with pytest.raises(ParameterError):
            MGB2Model(a=(1.0, -1.0), b=(1.0, 1.0), p=(1.0, 1.0),
                      theta_law=PointMass(1.0))


class TestTailRatio:
    def test_shrinking_event_monotone_in_c(self):
        samples = mgb2_sample(_exp_model(), 10**5, RngStream(310))
        ratios = [tail_ratio_empirical(samples, c, c, 2.0)[0]
                  for c in (0.5, 1.0, 2.0, 4.0)]
        assert all(a >= b for a, b in zip(ratios, ratios[1:]))

    def test_tiny_c_contains_base_event(self):
        samples = mgb2_sample(_exp_model(), 10**5, RngStream(311))
        ratio, _ = tail_ratio_empirical(samples, 1e-6, 1e-6, 2.0)
        assert ratio >= 1.0

    def test_exponential_prelimit_value(self):
        # closed form for this model: ratio(t) = (1 + e^(-t)) / 2
        n, t = 10**6, 3.0
        samples = mgb2_sample(_exp_model(), n, RngStream(312))
        ratio, se = tail_ratio_empirical(samples, 1.0, 1.0, t)
        expected = (1.0 + math.exp(-t)) / 2.0
        assert abs(ratio - expected) < 4.0 * se

    def test_insufficient_exceedances(self):
        samples = mgb2_sample(_exp_model(), 200, RngStream(313))
        with pytest.raises(InsufficientTailDataError):
            tail_ratio_empirical(samples, 1.0, 1.0, 1e6)


class TestTailDependenceLimit:
    def test_exponential_closed_form(self):
        est, se = tail_dependence_limit(_exp_model(), 1.0, 1.0, 10**6, RngStream(314))
        assert abs(est - 0.5) < 4.0 * se
        assert est - 3.0 * se > 0.0  # positivity of the dependence function

    def test_homogeneity_exact_under_shared_draws(self):
        s = RngStream(315)
        base, _ = tail_dependence_limit(_exp_model(), 1.0, 1.0, 10**5, s)
        scaled, _ = tail_dependence_limit(_exp_model(), 2.0, 2.0, 10**5, s)
        assert scaled == 0.5 * base

    def test_monotone_in_each_argument(self):
        s = RngStream(316)
        values = [tail_dependence_limit(_exp_model(), c1, 1.0, 10**5, s)[0]
                  for c1 in (0.5, 1.0, 2.0)]
        assert values[0] >= values[1] >= values[2]

    def test_upper_bound_by_first_argument(self):
        est, se = tail_dependence_limit(_exp_model(), 2.0, 0.5, 10**5, RngStream(317))
        assert est - 3.0 * se <= 2.0 ** -1.0

    def test_streamed_moments_match_two_pass_formula(self):
        # reference: hold every (num, den) pair (map_blocks, same block
        # streams) and apply the delta method with two-pass central moments
        model = MGB2Model(a=(2.0, 2.0), b=(1.0, 1.5), p=(1.5, 0.7),
                          theta_law=InvGamma(1.5))
        aq, c1, c2 = 3.0, 0.8, 1.3
        n = 3 * BLOCK_ROWS + 5000

        def fill(block, lo, hi):
            w = _w_factors(model, block.child(1).generator(), hi - lo)
            return np.column_stack([np.minimum(w[0] / c1, w[1] / c2) ** aq,
                                    w[0] ** aq])

        vals = map_blocks(RngStream(325), n, fill, ncols=2, workers=1)
        u, v = vals[:, 0], vals[:, 1]
        ratio = u.mean() / v.mean()
        du, dv = u - u.mean(), v - v.mean()
        var = ((du**2).mean() - 2 * ratio * (du * dv).mean()
               + ratio**2 * (dv**2).mean()) / (n * v.mean() ** 2)
        for workers in (1, 2):
            est, se = tail_dependence_limit(model, c1, c2, n, RngStream(325),
                                            workers=workers)
            assert est == pytest.approx(ratio, rel=1e-12)
            assert se == pytest.approx(math.sqrt(var), rel=1e-12)

    @pytest.mark.parametrize("c1,c2,param", [(0.0, 1.0, "c1"), (1.0, math.nan, "c2")])
    def test_scaling_constants_validated(self, c1, c2, param):
        with pytest.raises(ParameterError) as info:
            tail_dependence_limit(_exp_model(), c1, c2, 100, RngStream(329))
        assert info.value.param == param

    def test_inv_gamma_mixer_accepted(self):
        est, _ = tail_dependence_limit(_exp_model(InvGamma(2.0)), 1.0, 1.0,
                                       10**4, RngStream(318))
        assert est > 0.0

    def test_unequal_shape_parameters_rejected(self):
        model = MGB2Model(a=(1.0, 2.0), b=(1.0, 1.0), p=(1.0, 1.0),
                          theta_law=Pareto(1.0))
        with pytest.raises(UnsupportedModelError):
            tail_dependence_limit(model, 1.0, 1.0, 10**4, RngStream(319))

    def test_non_regularly_varying_mixer_rejected(self):
        for law in (PointMass(1.0), GammaPower(2.0, 1.0, 1.0)):
            with pytest.raises(UnsupportedModelError):
                tail_dependence_limit(_exp_model(law), 1.0, 1.0, 10**4,
                                      RngStream(320))


def _limit_pvalue(model, rows) -> float:
    """p-value of a table's limit estimate against the exact limit (0 when
    its standard error is 0 and they differ)."""
    with np.errstate(divide="ignore"):
        z = ((rows[0]["limit_estimate"] - breiman_limit(model, 1.0, 1.0))
             / np.float64(rows[0]["limit_stderr"]))
    return float(normal_pvalue(z))


class TestConvergenceCheck:
    def test_exponential_case_passes(self):
        # every row within a 1% Bonferroni level of the exact prelimit
        # (1 + e^(-t))/2, and the limit column of the exact limit 1/2
        query = TailQuery(c1=1.0, c2=1.0, t_grid=(3.0, 5.0, 8.0), n=10**6)
        rows = tail_convergence_table(_exp_model(), query, RngStream(321))
        assert [row["t"] for row in rows] == list(query.t_grid)
        z = [(row["empirical_ratio"] - _exponential_prelimit(row["t"])) / row["stderr"]
             for row in rows]
        assert len(rows) * normal_pvalue(np.array(z)).min() > 0.01
        assert _limit_pvalue(_exp_model(), rows) > 0.01

    def test_marginal_like_query_approaches_one(self):
        # c2 -> 0 makes the joint event nearly {X_1 > t}
        query = TailQuery(c1=1.0, c2=1e-6, t_grid=(4.0,), n=10**6)
        rows = tail_convergence_table(_exp_model(), query, RngStream(322))
        assert abs(rows[0]["empirical_ratio"] - 1.0) < 0.01

    def test_refuses_point_mass_mixer(self):
        query = TailQuery(c1=1.0, c2=1.0, t_grid=(2.0,), n=10**4)
        with pytest.raises(UnsupportedModelError):
            tail_convergence_table(_exp_model(PointMass(2.0)), query, RngStream(323))

    @pytest.mark.parametrize("numerator", [
        lambda w1, w2, c1, c2, aq: (w1 / c1) ** aq,
        lambda w1, w2, c1, c2, aq: np.maximum(w1 / c1, w2 / c2) ** aq,
    ], ids=["min-dropped", "max-for-min"])
    def test_judgment_trips_on_a_wrong_limit_numerator(self, monkeypatch,
                                                       numerator):
        # the README taildep model at n = 1e6: the limit the table takes from
        # its own W draws, z-scored against the exact limit, must still be
        # able to fail (a true limit of 1/2 becomes 1 or 3/2)
        query = TailQuery(c1=1.0, c2=1.0, t_grid=(5.0, 10.0, 20.0), n=10**6)
        rows = tail_convergence_table(_exp_model(), query, RngStream(3))
        assert _limit_pvalue(_exp_model(), rows) > 0.01
        monkeypatch.setattr(tails, "_min_ratio_power", numerator)
        rows = tail_convergence_table(_exp_model(), query, RngStream(3))
        assert _limit_pvalue(_exp_model(), rows) < 1e-12

    def test_needs_enough_exceedances_to_judge(self, monkeypatch):
        # a threshold below the minimum exceedance count leaves no row (and
        # no row at all is an error); verify's tail check judges every
        # threshold, so a dropped row fails it: at its 1e6 rows t = 8 has
        # ~125k exceedances of the ~245k and ~432k at t = 4 and 2
        query = TailQuery(c1=1.0, c2=1.0, t_grid=(8.0,), n=5000)
        rows = tail_convergence_table(_exp_model(), query, RngStream(324))
        monkeypatch.setattr(tails, "MIN_EXCEEDANCES", rows[0]["exceedances"] + 1)
        with pytest.raises(InsufficientTailDataError):
            tail_convergence_table(_exp_model(), query, RngStream(324))
        monkeypatch.setattr(tails, "MIN_EXCEEDANCES", 200_000)
        rep = check_breiman_limit(42)
        assert not rep.passed and math.isnan(rep.statistic)

    def test_streamed_table_matches_materialised_sample(self):
        # the table never holds the sample; its counts must be those of the
        # rows mgb2_sample draws on stream.child(0), block for block
        n = 3 * BLOCK_ROWS + 5000
        query = TailQuery(c1=0.7, c2=1.4, t_grid=(1.0, 3.0, 8.0, 30.0), n=n)
        s = RngStream(326)
        samples = mgb2_sample(_exp_model(), n, s.child(0))
        for workers in (1, 2):
            rows = tail_convergence_table(_exp_model(), query, s, workers=workers)
            assert [r["t"] for r in rows] == list(query.t_grid)
            for row in rows:
                ratio, se = tail_ratio_empirical(samples, query.c1, query.c2, row["t"])
                assert row["empirical_ratio"] == ratio
                assert row["stderr"] == se
                assert row["exceedances"] == int((samples[:, 0] > row["t"]).sum())

    def test_table_memory_is_bounded_in_n(self):
        # a materialised 2e6-row run holds two 2e6 x 2 float matrices (64 MB)
        query = TailQuery(c1=1.0, c2=1.0, t_grid=(5.0, 10.0, 20.0), n=2 * 10**6)
        tracemalloc.start()
        try:
            tail_convergence_table(_exp_model(), query, RngStream(327), workers=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


_QUERY = {"c1": 1.0, "c2": 1.0, "t_grid": (1.0, 2.0), "n": 100}


# the config reports each of these errors on the line of the key it names
@pytest.mark.parametrize("field, value", [
    ("c1", -1.0), ("c1", math.nan), ("c2", 0.0), ("c2", math.inf),
    ("t_grid", (1.0, -2.0)), ("t_grid", ()), ("t_grid", (3.0, 2.0)), ("t_grid", (2.0, 2.0)),
    ("n", 0),
])
def test_bad_query_field_is_named(field, value):
    with pytest.raises(ParameterError) as info:
        TailQuery(**{**_QUERY, field: value})
    assert info.value.param == field


@pytest.mark.parametrize("model, param", [
    (MGB2Model(a=(1.0,), b=(1.0,), p=(1.0,), theta_law=Pareto(1.0)), "a"),
    (MGB2Model(a=(1.0, 2.0), b=(1.0, 1.0), p=(1.0, 1.0), theta_law=Pareto(1.0)), "a"),
    (_exp_model(PointMass(1.0)), "theta_law"),
    (_exp_model(GammaPower(2.0, 1.0, 1.0)), "theta_law"),
])
def test_limit_regime_error_is_named(model, param):
    with pytest.raises(UnsupportedModelError) as info:
        tails._check_limit_regime(model)
    assert info.value.param == param


# -- bit identity with the operator forms -----------------------------------
#
# The references below are the plain operator forms the block code stands
# for (theta ** (1/a_i) per column with a scalar exponent, stacked W columns,
# strided column reads, out-of-place squares), drawing from the same block
# streams.
# The per-block code must reproduce them bit for bit. Nothing here pins
# absolute bits: numpy's pow differs between CPUs (SVML on AVX-512 hosts).

_BIT_N = 3 * BLOCK_ROWS + 7
_BIT_MODELS = [
    MGB2Model(a=a, b=(1.0, 2.0), p=(1.5, 0.5), theta_law=law)
    for a in ((2.0, 3.0), (1.0, 1.0), (0.5, 4.0))
    for law in (InvGamma(2.0), Pareto(1.0))
]


def _ref_theta(law, stream, m):
    gen = stream.generator()
    if isinstance(law, Pareto):
        return (1.0 - gen.random(m)) ** (-1.0 / law.index)
    return 1.0 / gen.standard_gamma(law.shape, size=m)


def _ref_w(model, gen, m):
    return np.column_stack([
        model.b[i] * (gen.standard_gamma(model.p[i], size=m) / 1.0)
        ** (1.0 / model.a[i]) for i in range(model.dim)])


def _ref_rows(model, block, m):
    theta = _ref_theta(model.theta_law, block.child(0), m)
    w = _ref_w(model, block.child(1).generator(), m)
    return np.column_stack([theta ** (1.0 / ai) for ai in model.a]) * w


def _ref_moments(u, v):
    du, dv = u - u.mean(axis=0), v - v.mean()
    dv = dv.reshape((-1,) + (1,) * (u.ndim - 1))
    return RatioMoments(v.size, u.mean(axis=0), v.mean(), (du * du).sum(axis=0),
                        (dv * dv).sum(), (du * dv).sum(axis=0))


def _ref_limit(model, c1, c2, n, stream):
    # W is drawn from block.child(1) of each block of stream, as in _ref_rows
    aq = model.a[0] * regular_variation_index(model.theta_law)

    def fill(block, lo, hi):
        w = _ref_w(model, block.child(1).generator(), hi - lo)
        return _ref_moments(np.minimum(w[:, 0] / c1, w[:, 1] / c2) ** aq,
                            w[:, 0] ** aq)

    ratio, se = reduce_blocks(stream, n, fill, RatioMoments.merge,
                              workers=1).estimate()
    return float(ratio), float(se)


class TestOperatorFormBits:
    @pytest.mark.parametrize("model", _BIT_MODELS, ids=lambda m: (
        f"a={m.a[0]:g},{m.a[1]:g}-{type(m.theta_law).__name__}"))
    def test_mgb2_sample_matches_broadcast_power(self, model):
        s = RngStream(331)
        ref = map_blocks(s, _BIT_N, lambda b, lo, hi: _ref_rows(model, b, hi - lo),
                         ncols=2, workers=1)
        for workers in (1, 2):
            assert mgb2_sample(model, _BIT_N, s, workers=workers).tobytes() \
                == ref.tobytes()

    @pytest.mark.parametrize("a,law,c1,c2", [
        ((1.0, 1.0), Pareto(1.0), 1.0, 1.0),      # aq = 1, the verify case
        ((2.0, 2.0), InvGamma(1.5), 0.8, 1.3),    # aq = 3
        ((0.5, 0.5), Pareto(1.0), 1.0, 0.5),      # aq = 0.5
        ((1.0, 1.0), InvGamma(2.0), 2.0, 1.0),    # aq = 2
    ])
    def test_tail_dependence_limit_matches_operator_form(self, a, law, c1, c2):
        model = MGB2Model(a=a + (3.0,), b=(1.0, 1.5, 2.0), p=(1.5, 0.7, 2.0),
                          theta_law=law)
        ref = _ref_limit(model, c1, c2, _BIT_N, RngStream(332))
        for workers in (1, 2):
            assert tail_dependence_limit(model, c1, c2, _BIT_N, RngStream(332),
                                         workers=workers) == ref

    @pytest.mark.parametrize("model", [_exp_model(), MGB2Model(
        a=(2.0, 2.0), b=(1.0, 1.5), p=(1.5, 0.7), theta_law=InvGamma(1.5)),
        MGB2Model(a=(2.0, 2.0, 3.0), b=(1.0, 1.5, 2.0), p=(1.5, 0.7, 2.0),
                  theta_law=InvGamma(1.5))])  # d = 3: W_3 is never drawn
    def test_tail_convergence_table_matches_operator_form(self, model):
        # c1 < 1 counts joint & base; c1 = 1 reuses the base event; c1 > 1
        # takes the joint count for both
        s = RngStream(333)
        rows = map_blocks(s.child(0), _BIT_N,
                          lambda b, lo, hi: _ref_rows(model, b, hi - lo),
                          ncols=model.dim, workers=1)
        x1, x2 = rows[:, 0], rows[:, 1]
        for c1 in (0.7, 1.0, 1.5):
            query = TailQuery(c1=c1, c2=1.4, t_grid=(0.5, 1.0, 3.0, 8.0), n=_BIT_N)
            # the limit comes from the table's own W draws, before Theta
            limit = _ref_limit(model, query.c1, query.c2, _BIT_N, s.child(0))
            expected = []
            for t in query.t_grid:
                joint = (x1 > query.c1 * t) & (x2 > query.c2 * t)
                base = x1 > t
                if base.sum() < 20:
                    continue
                ratio, se = RatioMoments.of_indicators(
                    _BIT_N, joint.sum(), base.sum(), (joint & base).sum()).estimate()
                expected.append({"t": t, "empirical_ratio": float(ratio),
                                 "stderr": float(se), "limit_estimate": limit[0],
                                 "limit_stderr": limit[1],
                                 "exceedances": int(base.sum())})
            assert expected
            for workers in (1, 2):
                assert tail_convergence_table(model, query, s, workers=workers) \
                    == expected

    @pytest.mark.parametrize("model", [_exp_model(), MGB2Model(
        a=(2.0, 2.0), b=(1.0, 1.5), p=(1.5, 0.7), theta_law=InvGamma(1.5))])
    def test_tail_dependence_limit_is_the_tables_limit_columns(self, model):
        # the W address is the table's, so the limit-only pass on the
        # table's stream.child(0) gives its limit columns bit for bit
        s = RngStream(336)
        query = TailQuery(c1=1.5, c2=0.8, t_grid=(0.5, 1.0), n=_BIT_N)
        for workers in (1, 2):
            row = tail_convergence_table(model, query, s, workers=workers)[0]
            assert tail_dependence_limit(model, query.c1, query.c2, query.n,
                                         s.child(0), workers=workers) \
                == (row["limit_estimate"], row["limit_stderr"])

    @pytest.mark.parametrize("b", [(1.0, 1.0), (0.5, 2.0)])
    @pytest.mark.parametrize("a,p", [((1.0, 1.0), (1.0, 1.0)),
                                     ((2.0, 0.5), (1.5, 0.7))])
    def test_w_factors_match_operator_form(self, a, p, b):
        # b_i = 1 and a_i = 1 skip their steps; b_i, a_i != 1 run them
        model = MGB2Model(a=a, b=b, p=p, theta_law=Pareto(1.0))
        new = _w_factors(model, RngStream(335).generator(), BLOCK_ROWS + 7)
        ref = _ref_w(model, RngStream(335).generator(), BLOCK_ROWS + 7)
        assert np.column_stack(new).tobytes() == ref.tobytes()

    def test_ratio_moments_match_out_of_place_squares(self):
        gen = RngStream(334).generator()
        v = gen.standard_gamma(1.5, size=1001)
        for u in (gen.standard_gamma(0.7, size=1001),
                  gen.standard_gamma(2.0, size=(1001, 3))):
            u_before = u.copy()
            new, ref = RatioMoments.of(u, v), _ref_moments(u, v)
            assert [np.asarray(f).tobytes() for f in astuple(new)] \
                == [np.asarray(f).tobytes() for f in astuple(ref)]
            assert u.tobytes() == u_before.tobytes()  # the input is not written


def test_archimedean_survival_rejects_x_of_the_wrong_length():
    with pytest.raises(ParameterError, match="x has length 3, expected 2"):
        archimedean_survival(ClaytonSpec(theta_shape=1.0, d=2), (0.1, 0.2, 0.3))


def test_tail_ratio_empirical_needs_two_columns():
    with pytest.raises(ParameterError, match=r"n x 2 \(or wider\) matrix"):
        tail_ratio_empirical(np.ones((10, 1)), 1.0, 1.0, 1.0)
