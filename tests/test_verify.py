import math
import tracemalloc
from collections import Counter, defaultdict

import numpy as np
import pytest

import riskscale.credibility as credibility
import riskscale.dirichlet as dirichlet
import riskscale.gof as gof
import riskscale.rng as rng
import riskscale.samplers as samplers
import riskscale.tails as tails
import riskscale.verify as verify
from riskscale.cdfs import breiman_limit
from riskscale.credibility import EllipticalShiftModel, GenericShiftModel
from riskscale.errors import ParameterError
from riskscale.radial import GammaPower, InvGamma
from riskscale.tails import ClaytonSpec, MGB2Model
from riskscale.verify import (
    ALPHA_CHECK,
    ALPHA_SUITE,
    CHECKS,
    STATISTICAL_CHECKS,
    builtin_verify_suite,
    check_beta_gamma_algebra,
    check_beta_marginals,
    check_breiman_limit,
    check_clayton_identity,
    check_determinism,
    check_elliptical_premium,
    check_factorization,
    check_mgb2_equivalence,
    check_premium_forms,
    check_scalar_premium_mc,
    check_scale_cancellation,
    check_sphere_constraint,
    check_weighted_gaussian,
    render_report,
)


def test_report_line_count_matches_criteria(verify_seed42):
    lines = render_report(verify_seed42).strip().splitlines()
    assert len(lines) == len(CHECKS) == 14


def test_default_seed_passes_every_check(verify_seed42):
    failing = [c.test_name for c in verify_seed42 if not c.passed]
    assert failing == []


def test_ten_statistical_checks_share_the_suite_budget(verify_seed42):
    assert len(STATISTICAL_CHECKS) == 10 and set(STATISTICAL_CHECKS) < set(CHECKS)
    assert ALPHA_SUITE == 0.01 and ALPHA_CHECK == ALPHA_SUITE / 10
    # the four identity checks keep their rounding-level tolerances
    for check, report in zip(CHECKS, verify_seed42):
        if check in STATISTICAL_CHECKS:
            assert report.threshold == -math.log10(ALPHA_CHECK)
        else:
            assert report.threshold < 1e-8


def _judge(pvalues):
    """verify's rule on p-values labelled s0, s1, ... in order."""
    return verify._bonferroni("x", {f"s{i}": p for i, p in enumerate(pvalues)})


def test_verdict_is_bonferroni_on_the_smallest_pvalue():
    rep = _judge([0.5, 0.01, 0.2])
    assert rep.statistic == pytest.approx(-math.log10(0.03), rel=1e-15)
    assert rep.threshold == -math.log10(ALPHA_CHECK) and rep.passed
    # each sub-test scores its own adjusted p-value, min(1, k p)
    assert rep.scores == pytest.approx({"s0": 0.0, "s1": -math.log10(0.03),
                                        "s2": -math.log10(0.6)}, rel=1e-15)
    rep = _judge([0.5] * 9 + [ALPHA_CHECK / 10.1])
    assert not rep.passed and rep.failing == ("s9",)
    rep = _judge([0.5] * 9 + [ALPHA_CHECK / 9.9])
    assert rep.passed and rep.failing == ()
    # min(1, k p_min) caps at 1, which reads 0 and never -0
    assert math.copysign(1.0, _judge([0.9, 0.8]).statistic) == 1.0
    # a zero p-value fails at infinity; a nan anywhere fails as nan, which
    # Python's min would drop when it does not come first
    rep = _judge([0.5, 0.0])
    assert rep.statistic == math.inf and rep.failing == ("s1",)
    rep = _judge([0.5, math.nan, 0.7])
    assert math.isnan(rep.statistic) and not rep.passed and rep.failing == ("s1",)
    # the failing set is the per-sub-test Bonferroni set: empty exactly when
    # the check passes
    for pvalues in ([0.5, 0.01, 0.2], [0.9, 0.8], [0.5, 0.0], [1e-5, 1e-6, 0.3],
                    [0.5] * 9 + [ALPHA_CHECK / 10.1], [0.5] * 9 + [ALPHA_CHECK / 9.9]):
        rep = _judge(pvalues)
        assert (rep.failing == ()) == rep.passed
    assert _judge([1e-5, 1e-6, 0.3]).failing == ("s0", "s1")


#: The number of sub-tests of each statistical check, as its docstring
#: states: the k of its Bonferroni correction.
SUB_TESTS = {
    "scalar_premium_mc": 1, "elliptical_premium": 6,
    "beta_marginals": 10, "gamma_dirichlet_factorization": 15,
    "scale_cancellation": 2, "beta_gamma_algebra": 3, "weighted_gaussian": 10,
    "mgb2_equivalence": 6, "clayton_identity": 1, "breiman_tail_limit": 6,
}


def test_every_sub_test_has_its_own_label(verify_seed42):
    # labels are dict keys, so two equal labels would drop a sub-test and
    # shrink k: the count of each statistical check is pinned
    for report in verify_seed42:
        assert report.scores and all(type(label) is str for label in report.scores)
    statistical = {report.test_name: len(report.scores) for check, report
                   in zip(CHECKS, verify_seed42) if check in STATISTICAL_CHECKS}
    assert statistical == SUB_TESTS and sum(statistical.values()) == 60


def test_render_format_parses_back(verify_seed42):
    for line, check in zip(render_report(verify_seed42).splitlines(), verify_seed42):
        name, stat, threshold, passed = line.split(",")
        assert name == check.test_name
        assert float(stat) == check.statistic
        assert float(threshold) == check.threshold
        assert passed == ("true" if check.passed else "false")


def test_corrupted_small_shape_gamma_trips_beta_marginal_check(monkeypatch):
    # sensitivity smoke test: draw shape < 1 as Gamma(shape + 1) without the
    # U^(1/shape) boost and the Beta-marginal verification must catch it
    original = samplers._std_gamma

    def corrupted(shape, gen, count, out=None):
        if shape < 1.0:
            return gen.standard_gamma(shape + 1.0, size=count, out=out)  # no boost
        return original(shape, gen, count, out)

    monkeypatch.setattr(samplers, "_std_gamma", corrupted)
    rep = check_beta_marginals(42)
    assert not rep.passed


def test_determinism_check_runs_each_comparison_on_a_pool(monkeypatch):
    # the 2-worker half of each comparison must take the thread-pool path,
    # not the inline one that a single block gives
    sizes = []

    class CountingPool(rng.ThreadPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(rng, "ThreadPoolExecutor", CountingPool)
    assert check_determinism(42).passed
    assert len(sizes) == 2 and min(sizes) > 1


def test_sphere_check_holds_one_block_of_rows(monkeypatch):
    # 1e5 rows of five columns are 3.8 MiB; one worker holds one
    # BLOCK_ROWS block and its deviation temporaries at a time
    monkeypatch.setenv("RISKSCALE_THREADS", "1")
    tracemalloc.start()
    try:
        rep = check_sphere_constraint(42)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.passed
    assert peak < 4 * 2**20, peak


def test_nan_in_a_later_block_fails_the_sphere_check(monkeypatch):
    # the blocks are combined by numpy's maximum, which keeps a nan that
    # np.fmax or Python's max would drop when it does not come first
    sample, calls = verify.angular_sample, []

    def with_nan_row(spec, gen, size):
        rows = sample(spec, gen, size)
        calls.append(size)
        if len(calls) == 3:
            rows[size // 2] = math.nan
        return rows

    monkeypatch.setenv("RISKSCALE_THREADS", "1")
    monkeypatch.setattr(verify, "angular_sample", with_nan_row)
    rep = check_sphere_constraint(42)
    assert len(calls) == 4
    assert math.isnan(rep.statistic) and not rep.passed


def test_checks_are_deterministic():
    a = check_beta_marginals(7)
    b = check_beta_marginals(7)
    assert a == b
    assert np.isfinite(a.statistic)


def test_clayton_cell_probabilities_sum_to_one():
    probabilities = verify._clayton_cell_probabilities(ClaytonSpec(theta_shape=2.0, d=2))
    assert probabilities.shape == (16,) and probabilities.min() > 0.0375
    assert abs(probabilities.sum() - 1.0) <= 1e-12


def test_clayton_statistic_is_pearson_chi_square_at_theta_shape_2(monkeypatch):
    # the check's statistic and p-value against scipy.stats.chisquare of the
    # same rows, counted with the strict events of the survival function
    from scipy import stats

    seen, pvalue = [], verify.chi2_pvalue
    monkeypatch.setattr(verify, "chi2_pvalue", lambda stat, df: seen.append((stat, df))
                        or pvalue(stat, df))
    rep = check_clayton_identity(42)
    spec = ClaytonSpec(theta_shape=2.0, d=2)
    rows = tails.scale_mixture_exp_sample(spec, 10**5, verify._stream(42, 12))
    edges = (0.0, 0.25, 0.5, 1.0, math.inf)
    counts, expected = [], []
    for lo1, hi1 in zip(edges, edges[1:]):
        for lo2, hi2 in zip(edges, edges[1:]):
            counts.append(np.count_nonzero((rows[:, 0] > lo1) & (rows[:, 0] <= hi1)
                                           & (rows[:, 1] > lo2) & (rows[:, 1] <= hi2)))
            # P(lo1 < X1 <= hi1, lo2 < X2 <= hi2) by inclusion-exclusion on
            # the survival (1 + x1 + x2)^(-2), which is 0 at inf
            s = [0.0 if math.isinf(x1 + x2) else (1.0 + x1 + x2) ** -2.0
                 for x1, x2 in ((lo1, lo2), (hi1, lo2), (lo1, hi2), (hi1, hi2))]
            expected.append(10**5 * (s[0] - s[1] - s[2] + s[3]))
    reference = stats.chisquare(counts, expected)
    assert sum(counts) == 10**5
    assert len(seen) == 1 and seen[0][1] == 15
    assert seen[0][0] == pytest.approx(reference.statistic, rel=1e-12)
    assert list(rep.scores) == ["chi2 16 cells"]
    assert 10 ** -rep.statistic == pytest.approx(reference.pvalue, rel=1e-9)


# A nan sub-statistic must fail its check. Python's max(worst, nan) keeps
# worst, so before margins were aggregated with nan propagation a
# degenerate sub-test passed silently. One case per aggregation style.

def test_nan_correlation_fails_weighted_gaussian(monkeypatch):
    # the KS p-values first, then the correlation p-values
    nan_pairs = {f"corr{k}": math.nan for k in range(6)}
    monkeypatch.setattr(verify, "_corr_pvalues", lambda columns: nan_pairs)
    rep = check_weighted_gaussian(42)
    assert not rep.passed
    assert math.isnan(rep.statistic)
    assert rep.failing == tuple(nan_pairs)


def _exact_tail_rows(last_ratio=None):
    """A stand-in convergence table for the exponential point: each row at
    its exact prelimit (1 + e^(-t))/2 and the limit at its exact 1/2, with
    the last row's ratio replaced by ``last_ratio`` when given."""
    def table(model, query, stream):
        rows = [{"t": t, "empirical_ratio": (1.0 + math.exp(-t)) / 2.0,
                 "stderr": 0.01, "limit_estimate": 0.5, "limit_stderr": 0.001,
                 "exceedances": 5000} for t in query.t_grid]
        if last_ratio is not None:
            rows[-1]["empirical_ratio"] = last_ratio
        return rows
    return table


def test_nan_later_margin_fails_breiman_tail_limit(monkeypatch):
    # six p-values whose last table row is nan; the other points' limit
    # passes return their exact limits, so nothing is sampled and every
    # other sub-test passes
    monkeypatch.setattr(verify, "tail_convergence_table", _exact_tail_rows())
    monkeypatch.setattr(verify, "tail_dependence_limit",
                        lambda model, c1, c2, n, stream: (
                            breiman_limit(model, c1, c2), 0.001))
    assert check_breiman_limit(42).passed
    monkeypatch.setattr(verify, "tail_convergence_table", _exact_tail_rows(math.nan))
    rep = check_breiman_limit(42)
    assert not rep.passed
    assert math.isnan(rep.statistic)


def test_exponential_prelimit_is_judged_at_every_row(monkeypatch):
    # five standard errors off the exact prelimit at t = 8, where it is
    # within 2e-4 of the limit, fail the check; a row the table dropped fails
    # it too, since every threshold must be judged
    monkeypatch.setattr(verify, "tail_dependence_limit",
                        lambda model, c1, c2, n, stream: (
                            breiman_limit(model, c1, c2), 0.001))
    monkeypatch.setattr(verify, "tail_convergence_table",
                        _exact_tail_rows((1.0 + math.exp(-8.0)) / 2.0 + 0.05))
    assert not check_breiman_limit(42).passed
    monkeypatch.setattr(verify, "tail_convergence_table",
                        lambda model, query, stream: _exact_tail_rows()(
                            model, query, stream)[:-1])
    rep = check_breiman_limit(42)
    assert not rep.passed and math.isnan(rep.statistic)


def test_breiman_tail_limit_builds_one_table_and_two_limit_passes(monkeypatch):
    calls = []

    def spy(name, function):
        def call(*args, **kwargs):
            calls.append(name)
            return function(*args, **kwargs)
        monkeypatch.setattr(verify, name, call)

    spy("tail_convergence_table", tails.tail_convergence_table)
    spy("tail_dependence_limit", tails.tail_dependence_limit)
    assert check_breiman_limit(42).passed
    assert calls == ["tail_convergence_table", "tail_dependence_limit",
                     "tail_dependence_limit"]


def test_limit_off_by_five_errors_at_an_unjudged_point_fails(monkeypatch):
    # the points without a table still bite: five standard errors off the
    # exact limit at the second point alone fail the check
    limit = tails.tail_dependence_limit
    second = verify._TAIL_POINTS[1][0]

    def shifted(model, c1, c2, n, stream):
        estimate, se = limit(model, c1, c2, n, stream)
        if model == second:
            estimate = breiman_limit(model, c1, c2) + 5.0 * se
        return estimate, se

    monkeypatch.setattr(verify, "tail_dependence_limit", shifted)
    rep = check_breiman_limit(42)
    assert not rep.passed
    # the shifted point sets the verdict: 6 sub-tests times 2 Phi(-5)
    assert rep.statistic == pytest.approx(-math.log10(6 * math.erfc(5 / math.sqrt(2))))


#: Seeds from the reserved sweep range 5000-5099 at which each mutation of
#: the limit's numerator must fail the tail check.
POWER_SEEDS = (5000, 5020, 5040, 5060, 5080)


@pytest.mark.parametrize("numerator", [
    lambda w1, w2, c1, c2, aq, work: (w1 / c1) ** aq,
    lambda w1, w2, c1, c2, aq, work: np.maximum(w1 / c1, w2 / c2) ** aq,
], ids=["min-dropped", "max-for-min"])
def test_wrong_limit_numerator_fails_breiman_tail_limit(monkeypatch, numerator):
    # each table's limit estimate is z-scored against the exact limit: a
    # wrong numerator (the exponential point's limit of 1/2 becomes 1 or
    # 3/2) must fail the check at every seed, not at one chosen seed
    monkeypatch.setattr(tails, "_min_ratio_power", numerator)
    reports = [check_breiman_limit(seed) for seed in POWER_SEEDS]
    passed = [seed for seed, rep in zip(POWER_SEEDS, reports) if rep.passed]
    assert passed == []
    # the numerator moves the three limits and no prelimit row
    for rep in reports:
        assert rep.failing == ("P0 limit", "P1 limit", "P2 limit")


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_seed_outside_64_bits_is_rejected_not_aliased(seed):
    with pytest.raises(ParameterError, match="seed must lie in"):
        builtin_verify_suite(seed)
    with pytest.raises(ParameterError, match="seed must lie in"):
        check_clayton_identity(seed)


# One mutation per statistical check, each of which must fail at every
# seed of POWER_SEEDS, and the kernel-shape fault for every check that draws
# through the Gamma kernel. The breiman_tail_limit ones of its own are the
# limit-numerator mutations above and a wrong tail index below. The
# premium_forms identity has two: its kernel and its elliptical reduction.

def _swapped_alphas(monkeypatch):
    simplex = dirichlet._gamma_simplex
    monkeypatch.setattr(dirichlet, "_gamma_simplex", lambda alphas, gen, m:
                        simplex((alphas[1], alphas[0], *alphas[2:]), gen, m))


def _power_p_for_one_over_p(monkeypatch):
    def angular_sample(spec, gen, size):
        w = dirichlet._gamma_simplex(spec.alphas, gen, size)
        w **= spec.p  # not 1 / p
        return w

    monkeypatch.setattr(dirichlet, "angular_sample", angular_sample)


def _all_signs_plus(monkeypatch):
    monkeypatch.setattr(dirichlet, "bernoulli_pm1", lambda q, gen, size: np.ones(size))


def _power_a_for_one_over_a(monkeypatch):
    def conditional(model, n, stream):
        def fill(block, lo, hi):
            m = hi - lo
            theta = model.theta_law.sample(block.child(0).generator(), size=m)
            gen = block.child(1).generator()
            return np.column_stack([
                model.b[i] * (theta * samplers.gamma_sample(model.p[i], 1.0, gen, size=m))
                ** model.a[i]  # not 1 / a_i
                for i in range(model.dim)])

        return rng.map_blocks(stream, n, fill, ncols=model.dim)

    monkeypatch.setattr(verify, "mgb2_conditional_sample", conditional)


def _scale_per_component(monkeypatch):
    # an independent scale for each component, size (m, d) in place of the
    # common (m,): the ratio X_1/X_2 then carries S_1/S_2, which the check's
    # Pareto(1) scale makes heavy enough to show (-log10 p was 24.3-30.9 at
    # POWER_SEEDS; under a Pareto(3) scale it was 1.4-3.4, mostly a pass)
    def sequence(alpha, p, s_law, d, n, stream):
        factor = GammaPower(alpha, 1.0 / p, 1.0 / p)

        def fill(block, lo, hi):
            y = factor.sample(block.child(0).generator(), size=(hi - lo, d))
            y *= s_law.sample(block.child(1).generator(), size=(hi - lo, d))  # not (m,)
            return y

        return rng.map_blocks(stream, n, fill, ncols=d)

    monkeypatch.setattr(verify, "random_scale_sequence_sample", sequence)


def _exponential_mean_one(monkeypatch):
    def beta_gamma(alpha, p, n, stream):
        def fill(block, lo, hi):
            gen = block.child(0).generator()
            t = samplers.beta_sample(alpha, 1.0 - alpha, gen, size=hi - lo)
            t *= gen.exponential(scale=1.0, size=hi - lo)  # not mean p
            t **= 1.0 / p
            return t

        return rng.map_blocks(stream, n, fill)

    monkeypatch.setattr(verify, "beta_gamma_sample", beta_gamma)


def _prior_weight_at_x_plus_y(monkeypatch):
    # the check's query point is x = 4: the density at 2x - (x - y) = x + y
    density = verify._SCALAR_SHIFT.prior_density
    monkeypatch.setattr(verify, "_SCALAR_SHIFT", GenericShiftModel(
        prior_density=lambda points: density(8.0 - points),
        noise_sampler=verify._SCALAR_SHIFT.noise_sampler))


def _theta_shape_times_1_1(monkeypatch):
    sample = verify.scale_mixture_exp_sample
    monkeypatch.setattr(verify, "scale_mixture_exp_sample", lambda spec, n, stream: sample(
        ClaytonSpec(theta_shape=1.1 * spec.theta_shape, d=spec.d), n, stream))


def _mixer_inv_gamma_1(monkeypatch):
    # the Clayton mixer drawn as InvGamma(1) whatever theta_shape says: the
    # same law at theta_shape = 1, so the check runs at 2
    def clayton(spec, n, stream):
        ones = (1.0,) * spec.d
        return tails.mgb2_sample(MGB2Model(a=ones, b=ones, p=ones,
                                           theta_law=InvGamma(1.0)),  # not theta_shape
                                 n, stream)

    monkeypatch.setattr(verify, "scale_mixture_exp_sample", clayton)


def _theta_per_column(monkeypatch):
    # the conditional route with a fresh Theta for each column: every margin
    # keeps its exact law, and only the joint law, through the ratio
    # X1/X2 in which one Theta would cancel, can show the fault
    def conditional(model, n, stream):
        def fill(block, lo, hi):
            m = hi - lo
            thetas = block.child(0).generator()
            gen = block.child(1).generator()
            return np.column_stack([
                model.b[i] * (model.theta_law.sample(thetas, size=m)  # not one per row
                              * samplers.gamma_sample(model.p[i], 1.0, gen, size=m))
                ** (1.0 / model.a[i])
                for i in range(model.dim)])

        return rng.map_blocks(stream, n, fill, ncols=model.dim)

    monkeypatch.setattr(verify, "mgb2_conditional_sample", conditional)


def _mixture_theta_per_column(monkeypatch):
    # the same fault in the scale-mixture route: each column W_i takes its
    # own Theta^(1/a_i)
    def mixture(model, n, stream):
        def fill(block, lo, hi):
            m = hi - lo
            thetas = block.child(0).generator()
            cols = tails._w_factors(model, block.child(1).generator(), m)
            return np.column_stack([
                w * model.theta_law.sample(thetas, size=m) ** (1.0 / a_i)  # not one per row
                for a_i, w in zip(model.a, cols)])

        return rng.map_blocks(stream, n, fill, ncols=model.dim)

    monkeypatch.setattr(verify, "mgb2_sample", mixture)


def _kernel_shape_times_1_15(monkeypatch):
    # every reference is an exact law that draws nothing, so a fault in the
    # one kernel cannot cancel between a sample and its reference
    monkeypatch.setattr(samplers, "_std_gamma", lambda shape, gen, size, out=None:
                        gen.standard_gamma(shape * 1.15, size=size, out=out))  # not shape


def _cstar_drops_top_right_block(monkeypatch):
    # C's top-right block couples the noise to the prior; with it zeroed in
    # C*, B_IJ and the premium move, but not for a block-diagonal C
    build = credibility.build_cstar

    def dropped(c):
        c = np.array(c, dtype=float)
        c[:c.shape[0] // 2, c.shape[0] // 2:] = 0.0
        return build(c)

    monkeypatch.setattr(credibility, "build_cstar", dropped)


def _b_ji_for_b_ij(monkeypatch):
    b_matrix = EllipticalShiftModel.b_matrix

    def transposed(model):
        b = b_matrix(model)
        d = model.dim
        b[:d, d:] = b[d:, :d]
        return b

    monkeypatch.setattr(EllipticalShiftModel, "b_matrix", transposed)


def _sigma_for_sigma0(monkeypatch):
    monkeypatch.setattr(verify, "premium_gaussian", lambda model, x: credibility._posterior_mean(
        model.mu, model.sigma + model.sigma0, model.sigma, x))  # not sigma0


def _cstar_is_c(monkeypatch):
    monkeypatch.setattr(credibility, "build_cstar", lambda c: np.array(c, dtype=float))


def _tail_index_times_1_1(monkeypatch):
    # the estimators take the mixer's index q through regular_variation_index,
    # while the exact limit reads it from the law: the limit estimates move
    # (aq becomes 1.1 aq) and the prelimit rows, which count exceedances, do not
    index = tails.regular_variation_index
    monkeypatch.setattr(tails, "regular_variation_index", lambda law: 1.1 * index(law))


#: The sub-tests that a mutation confined to some of them must name, at
#: every seed: swapping alpha_1 and alpha_2 moves the O1 and O2 marginals
#: at both exponents, and no other; a Theta per column moves the ratio
#: X1/X2 of the faulty MGB2 route, and nothing of the other; a C* equal to
#: C moves the elliptical side of premium_forms, and a kernel fed sigma for
#: sigma0 moves both of its comparisons; a wrong tail index in the
#: estimators moves the three limits of breiman_tail_limit and no prelimit.
NAMED_BY_MUTATION = {
    _swapped_alphas: ("p=1 O1", "p=1 O2", "p=2.7 O1", "p=2.7 O2"),
    _theta_per_column: ("conditional X1/X2",),
    _mixture_theta_per_column: ("mixture X1/X2",),
    _cstar_is_c: tuple(f"model {r} block-diagonal" for r in range(1, 21)),
    _sigma_for_sigma0: tuple(f"model {r} {form}" for r in range(1, 21)
                             for form in ("noise-inverse", "block-diagonal")),
    _tail_index_times_1_1: ("P0 limit", "P1 limit", "P2 limit"),
}


#: The statistical checks whose samples draw through the one Gamma kernel,
#: ``samplers._std_gamma``: all but ``scalar_premium_mc`` and
#: ``elliptical_premium``.
GAMMA_CHECKS = tuple(check for check in STATISTICAL_CHECKS
                     if check not in (check_scalar_premium_mc, check_elliptical_premium))


@pytest.mark.parametrize("check, mutate", [
    *[(check, _kernel_shape_times_1_15) for check in GAMMA_CHECKS],
    (check_beta_marginals, _swapped_alphas),
    (check_factorization, _power_p_for_one_over_p),
    (check_weighted_gaussian, _all_signs_plus),
    (check_mgb2_equivalence, _power_a_for_one_over_a),
    (check_mgb2_equivalence, _theta_per_column),
    (check_mgb2_equivalence, _mixture_theta_per_column),
    (check_scale_cancellation, _scale_per_component),
    (check_beta_gamma_algebra, _exponential_mean_one),
    (check_scalar_premium_mc, _prior_weight_at_x_plus_y),
    (check_clayton_identity, _theta_shape_times_1_1),
    (check_clayton_identity, _mixer_inv_gamma_1),
    (check_elliptical_premium, _cstar_drops_top_right_block),
    (check_elliptical_premium, _b_ji_for_b_ij),
    (check_premium_forms, _sigma_for_sigma0),
    (check_premium_forms, _cstar_is_c),
    (check_breiman_limit, _tail_index_times_1_1),
], ids=lambda value: value.__name__.strip("_"))
def test_mutation_fails_its_check_at_every_power_seed(monkeypatch, check, mutate):
    assert check(POWER_SEEDS[0]).passed
    mutate(monkeypatch)
    reports = [check(seed) for seed in POWER_SEEDS]
    passed = [seed for seed, rep in zip(POWER_SEEDS, reports) if rep.passed]
    assert passed == []
    if mutate in NAMED_BY_MUTATION:
        for rep in reports:
            assert rep.failing == NAMED_BY_MUTATION[mutate]


def test_suite_draws_no_reference_sample(monkeypatch):
    # every reference is an exact law: no sub-test draws a reference sample
    # or compares two samples
    calls = Counter()

    def spy(module, name, function):
        def call(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)
        monkeypatch.setattr(module, name, call, raising=False)

    for module in (samplers, verify):
        spy(module, "y_marginal_sample", samplers.y_marginal_sample)
    assert not hasattr(verify, "ks_two_sample")
    for module in (gof, verify):
        spy(module, "ks_two_sample", gof.ks_two_sample)
    assert all(report.passed for report in builtin_verify_suite(42))
    assert calls == {}


def test_elliptical_premium_calls_the_premium_three_times_and_nothing_else(monkeypatch):
    # the check draws from C itself: outside the three premium calls under
    # test it reaches none of build_cstar, b_matrix, mat_inverse or the
    # kernel, and it draws no Gamma
    exact = {x: verify.premium_elliptical(verify._ELLIPTICAL, x)
             for x in ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0))}
    calls = Counter()

    def spy(owner, name, function):
        def call(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)
        monkeypatch.setattr(owner, name, call)

    spy(verify, "premium_elliptical", lambda model, x: exact[tuple(x)])
    spy(samplers, "_std_gamma", samplers._std_gamma)
    spy(credibility, "build_cstar", credibility.build_cstar)
    spy(EllipticalShiftModel, "b_matrix", EllipticalShiftModel.b_matrix)
    spy(credibility, "_posterior_mean", credibility._posterior_mean)
    for module in (credibility, verify):
        spy(module, "mat_inverse", credibility.mat_inverse)
    assert check_elliptical_premium(42).passed
    assert calls == {"premium_elliptical": 3}


#: The seed range reserved for the false-alarm sweep.
SWEEP_SEEDS = range(5000, 5100)

#: The level of the calibration gate: per statistical check, a KS test of
#: its sub-test p-values, pooled over the seeds of a sweep, against U(0, 1)
#: must not fall below it. Pooling treats a seed's sub-tests as independent,
#: so no check may score strongly correlated sub-tests: clayton_identity is
#: one chi-square over disjoint cells, not nine nested survival events. On
#: correct code the smallest pooled p-value of any check is 0.030 at seeds
#: 5000-5099 (breiman_tail_limit), and 0.0040 and 0.029 at the fresh seeds
#: 15450-15549 and 15550-15649.
CALIBRATION_LEVEL = 1e-5


def _sweep(seeds, checks):
    """Run ``checks`` at every seed, with a spy on verify's one rule: the
    number of seeds at which some check fails, the failures per check, and
    every sub-test p-value, pooled per check."""
    pooled, rule = defaultdict(list), verify._bonferroni

    def spy(name, pvalues):
        pooled[name].extend(pvalues.values())
        return rule(name, pvalues)

    failing_seeds, per_check = 0, Counter()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(verify, "_bonferroni", spy)
        for seed in seeds:
            failed = [rep.test_name for rep in (check(seed) for check in checks)
                      if not rep.passed]
            failing_seeds += bool(failed)
            per_check.update(failed)
    return failing_seeds, per_check, pooled


def _miscalibrated(pooled) -> dict:
    """The checks whose pooled p-values a KS test against U(0, 1) rejects
    below ``CALIBRATION_LEVEL``, with that KS p-value; a nan rejects."""
    from scipy import stats

    ks = {name: stats.kstest(p, "uniform").pvalue for name, p in pooled.items()}
    return {name: p for name, p in ks.items() if not p >= CALIBRATION_LEVEL}


def test_false_alarms_over_a_hundred_seeds_stay_within_the_budget(monkeypatch):
    # Each seed fails some statistical check with probability at most
    # ALPHA_SUITE = 0.01, so over 100 seeds the failing seeds are at most
    # Bin(100, 0.01), whose 1 - 1e-3 quantile is 5. That bound sees a check
    # that alarms too often; the calibration gate, on the same p-values,
    # also sees one that alarms too rarely. ~30 s on one worker.
    monkeypatch.setenv("RISKSCALE_THREADS", "1")
    failing_seeds, per_check, pooled = _sweep(SWEEP_SEEDS, STATISTICAL_CHECKS)
    assert failing_seeds <= 5, f"{failing_seeds} failing seeds; per check {dict(per_check)}"
    assert {name: len(p) for name, p in pooled.items()} \
        == {name: k * len(SWEEP_SEEDS) for name, k in SUB_TESTS.items()}
    assert _miscalibrated(pooled) == {}


def _standard_errors_times_1_5(monkeypatch):
    z_pvalues = verify._z_pvalues
    monkeypatch.setattr(verify, "_z_pvalues", lambda estimate, se, exact: z_pvalues(
        estimate, 1.5 * np.asarray(se), exact))


def _ks_n_eff_halved(monkeypatch):
    ks_pvalue = verify.ks_pvalue
    monkeypatch.setattr(verify, "ks_pvalue", lambda ks: ks_pvalue(
        ks._replace(n_eff=ks.n_eff / 2)))


#: The statistical checks with KS sub-tests, which take ``ks_pvalue``.
KS_CHECKS = (check_beta_marginals, check_factorization, check_scale_cancellation,
             check_beta_gamma_algebra, check_weighted_gaussian, check_mgb2_equivalence)


@pytest.mark.parametrize("mutate, checks, seeds", [
    # one of the three checks with z-scored sub-tests; breiman_tail_limit
    # costs ~10 times as much a seed, and scalar_premium_mc's one sub-test
    # a seed gives the gate no power at 50 seeds
    (_standard_errors_times_1_5, (check_elliptical_premium,), SWEEP_SEEDS[:50]),
    (_ks_n_eff_halved, KS_CHECKS, SWEEP_SEEDS[:10]),
], ids=["standard_errors_times_1_5", "ks_n_eff_halved"])
def test_conservative_fault_fails_the_calibration_gate(monkeypatch, mutate, checks, seeds):
    # a fault that shrinks every z-score or KS distance gives away power: no
    # seed fails, so the failing-seed bound cannot see it, but the p-values
    # pile up toward 1 and the gate rejects their uniformity, which it
    # accepts on the same seeds and checks without the fault
    monkeypatch.setenv("RISKSCALE_THREADS", "1")
    assert _miscalibrated(_sweep(seeds, checks)[2]) == {}
    mutate(monkeypatch)
    failing_seeds, _, pooled = _sweep(seeds, checks)
    assert failing_seeds == 0
    assert _miscalibrated(pooled)
