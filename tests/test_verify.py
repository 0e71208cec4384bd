import math

import numpy as np
import pytest

import riskscale.rng as rng
import riskscale.samplers as samplers
import riskscale.tails as tails
import riskscale.verify as verify
from riskscale.cdfs import breiman_limit
from riskscale.errors import ParameterError
from riskscale.gof import GofReport
from riskscale.verify import (
    CHECKS,
    builtin_verify_suite,
    check_beta_marginals,
    check_breiman_limit,
    check_clayton_identity,
    check_determinism,
    check_weighted_gaussian,
    render_report,
)


def test_report_line_count_matches_criteria(verify_seed42):
    lines = render_report(verify_seed42).strip().splitlines()
    assert len(lines) == len(CHECKS) == 14


def test_default_seed_passes_every_check(verify_seed42):
    failing = [c.test_name for c in verify_seed42 if not c.passed]
    assert failing == []


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
    # the 4-worker half of each comparison must take the thread-pool path,
    # not the inline one that a single block gives
    sizes = []

    class CountingPool(rng.ThreadPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(rng, "ThreadPoolExecutor", CountingPool)
    assert check_determinism(42).passed
    assert len(sizes) == 2 and min(sizes) > 1


def test_checks_are_deterministic():
    a = check_beta_marginals(7)
    b = check_beta_marginals(7)
    assert a == b
    assert np.isfinite(a.statistic)


# A nan sub-statistic must fail its check. Python's max(worst, nan) keeps
# worst, so before margins were aggregated with nan propagation a
# degenerate sub-test passed silently. One case per aggregation style.

def test_nan_correlation_fails_weighted_gaussian(monkeypatch):
    # running maximum over the KS margins, then the correlation margin
    monkeypatch.setattr(verify, "_max_offdiag_corr", lambda columns: math.nan)
    rep = check_weighted_gaussian(42)
    assert not rep.passed
    assert math.isnan(rep.statistic)


def test_nan_later_margin_fails_breiman_tail_limit(monkeypatch):
    # list of margins whose judged-threshold entry is nan; the one table (the
    # exponential point) is one row at its exact limit 1/2 and the other
    # points' limit passes return their exact limits, so nothing is sampled
    # and every other margin passes
    def table(model, query, stream):
        return [{"t": query.t_grid[-1], "empirical_ratio": 0.5, "stderr": 0.01,
                 "limit_estimate": 0.5, "limit_stderr": 0.001,
                 "exceedances": 5000}]

    monkeypatch.setattr(verify, "tail_convergence_table", table)
    monkeypatch.setattr(verify, "tail_dependence_limit",
                        lambda model, c1, c2, n, stream: (
                            breiman_limit(model, c1, c2), 0.001))
    assert check_breiman_limit(42).passed
    monkeypatch.setattr(verify, "judge_convergence",
                        lambda rows: GofReport("breiman_tail_limit", math.nan, 0.05))
    rep = check_breiman_limit(42)
    assert not rep.passed
    assert math.isnan(rep.statistic)


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
    assert rep.statistic == pytest.approx(5.0 / verify.LIMIT_Z)


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
