import math

import numpy as np
import pytest

import riskscale.samplers as samplers
import riskscale.verify as verify
from riskscale.errors import ParameterError
from riskscale.gof import report
from riskscale.verify import (
    CHECKS,
    builtin_verify_suite,
    check_beta_marginals,
    check_breiman_limit,
    check_clayton_identity,
    check_weighted_gaussian,
    render_report,
)


def test_report_line_count_matches_criteria(verify_seed42):
    lines = render_report(verify_seed42).strip().splitlines()
    assert len(lines) == len(CHECKS) == 14


def test_default_seed_passes_every_check(verify_seed42):
    failing = [c.test_name for c in verify_seed42.checks if not c.passed]
    assert verify_seed42.overall_pass, f"failing checks: {failing}"


def test_overall_pass_reflects_each_check(verify_seed42):
    assert verify_seed42.overall_pass == all(c.passed for c in verify_seed42.checks)


def test_render_format_parses_back(verify_seed42):
    for line, check in zip(render_report(verify_seed42).splitlines(), verify_seed42.checks):
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
    # list of margins whose last entry (the judged threshold) is nan; the
    # estimators are replaced by passing values, so nothing is sampled
    monkeypatch.setattr(verify, "tail_dependence_limits",
                        lambda *args, **kwargs: [(0.5, 0.001), (0.25, 0.0005)])
    monkeypatch.setattr(verify, "tail_convergence_table",
                        lambda *args, **kwargs: [{
                            "t": 20.0, "empirical_ratio": 0.5, "stderr": 0.01,
                            "limit_estimate": 0.5, "limit_stderr": 0.001,
                            "exceedances": 5000}])
    monkeypatch.setattr(verify, "judge_convergence",
                        lambda rows, n: report("breiman_tail_limit", math.nan,
                                               0.05, n))
    rep = check_breiman_limit(42)
    assert not rep.passed
    assert math.isnan(rep.statistic)


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_seed_outside_64_bits_is_rejected_not_aliased(seed):
    with pytest.raises(ParameterError, match="seed must lie in"):
        builtin_verify_suite(seed)
    with pytest.raises(ParameterError, match="seed must lie in"):
        check_clayton_identity(seed)
