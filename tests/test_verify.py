import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

import riskscale.dirichlet as dirichlet
import riskscale.rng as rng
import riskscale.samplers as samplers
import riskscale.tails as tails
import riskscale.verify as verify
from riskscale.cdfs import breiman_limit
from riskscale.credibility import GenericShiftModel
from riskscale.errors import ParameterError
from riskscale.radial import GammaPower
from riskscale.tails import ClaytonSpec
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
    check_factorization,
    check_mgb2_equivalence,
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


def test_nine_statistical_checks_share_the_suite_budget(verify_seed42):
    assert len(STATISTICAL_CHECKS) == 9 and set(STATISTICAL_CHECKS) < set(CHECKS)
    assert ALPHA_SUITE == 0.01 and ALPHA_CHECK == ALPHA_SUITE / 9
    # the five identity checks keep their rounding-level tolerances
    for check, report in zip(CHECKS, verify_seed42):
        if check in STATISTICAL_CHECKS:
            assert report.threshold == -math.log10(ALPHA_CHECK)
        else:
            assert report.threshold < 1e-8


def test_verdict_is_bonferroni_on_the_smallest_pvalue():
    rep = verify._verdict("x", [0.5, 0.01, 0.2])
    assert rep.statistic == pytest.approx(-math.log10(0.03), rel=1e-15)
    assert rep.threshold == -math.log10(ALPHA_CHECK) and rep.passed
    assert not verify._verdict("x", [0.5] * 9 + [ALPHA_CHECK / 10.1]).passed
    assert verify._verdict("x", [0.5] * 9 + [ALPHA_CHECK / 9.9]).passed
    # min(1, k p_min) caps at 1, which reads 0 and never -0
    assert math.copysign(1.0, verify._verdict("x", [0.9, 0.8]).statistic) == 1.0
    # a zero p-value fails at infinity; a nan anywhere fails as nan, which
    # Python's min would drop when it does not come first
    assert verify._verdict("x", [0.5, 0.0]).statistic == math.inf
    rep = verify._verdict("x", [0.5, math.nan, 0.7])
    assert math.isnan(rep.statistic) and not rep.passed


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

    def corrupted(shape, gen, count):
        if shape < 1.0:
            return gen.standard_gamma(shape + 1.0, size=count)  # no boost
        return original(shape, gen, count)

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


# A nan sub-statistic must fail its check. Python's max(worst, nan) keeps
# worst, so before margins were aggregated with nan propagation a
# degenerate sub-test passed silently. One case per aggregation style.

def test_nan_correlation_fails_weighted_gaussian(monkeypatch):
    # the KS p-values first, then the correlation p-values
    monkeypatch.setattr(verify, "_corr_pvalues", lambda columns: np.full(6, math.nan))
    rep = check_weighted_gaussian(42)
    assert not rep.passed
    assert math.isnan(rep.statistic)


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
    lambda w1, w2, c1, c2, aq: (w1 / c1) ** aq,
    lambda w1, w2, c1, c2, aq: np.maximum(w1 / c1, w2 / c2) ** aq,
], ids=["min-dropped", "max-for-min"])
def test_wrong_limit_numerator_fails_breiman_tail_limit(monkeypatch, numerator):
    # each table's limit estimate is z-scored against the exact limit: a
    # wrong numerator (the exponential point's limit of 1/2 becomes 1 or
    # 3/2) must fail the check at every seed, not at one chosen seed
    monkeypatch.setattr(tails, "_min_ratio_power", numerator)
    passed = [seed for seed in POWER_SEEDS if check_breiman_limit(seed).passed]
    assert passed == []


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_seed_outside_64_bits_is_rejected_not_aliased(seed):
    with pytest.raises(ParameterError, match="seed must lie in"):
        builtin_verify_suite(seed)
    with pytest.raises(ParameterError, match="seed must lie in"):
        check_clayton_identity(seed)


# One mutation per statistical check, each of which must fail at every
# seed of POWER_SEEDS. The breiman_tail_limit ones are the limit-numerator
# mutations above.

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


@pytest.mark.parametrize("check, mutate", [
    (check_beta_marginals, _swapped_alphas),
    (check_factorization, _power_p_for_one_over_p),
    (check_weighted_gaussian, _all_signs_plus),
    (check_mgb2_equivalence, _power_a_for_one_over_a),
    (check_scale_cancellation, _scale_per_component),
    (check_beta_gamma_algebra, _exponential_mean_one),
    (check_scalar_premium_mc, _prior_weight_at_x_plus_y),
    (check_clayton_identity, _theta_shape_times_1_1),
], ids=lambda value: value.__name__.strip("_"))
def test_mutation_fails_its_check_at_every_power_seed(monkeypatch, check, mutate):
    assert check(POWER_SEEDS[0]).passed
    mutate(monkeypatch)
    passed = [seed for seed in POWER_SEEDS if check(seed).passed]
    assert passed == []


#: The seed range reserved for the false-alarm sweep.
SWEEP_SEEDS = range(5000, 5100)


def test_false_alarms_over_a_hundred_seeds_stay_within_the_budget(monkeypatch):
    # Each seed fails some statistical check with probability at most
    # ALPHA_SUITE = 0.01, so over 100 seeds the failing seeds are at most
    # Bin(100, 0.01), whose 1 - 1e-3 quantile is 5. ~30 s on one worker.
    monkeypatch.setenv("RISKSCALE_THREADS", "1")
    failing_seeds, per_check = 0, Counter()
    for seed in SWEEP_SEEDS:
        failed = [rep.test_name for rep in (check(seed) for check in STATISTICAL_CHECKS)
                  if not rep.passed]
        failing_seeds += bool(failed)
        per_check.update(failed)
    assert failing_seeds <= 5, f"{failing_seeds} failing seeds; per check {dict(per_check)}"
