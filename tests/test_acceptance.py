"""Acceptance suite: one test per release criterion, at its stated tolerance.

Each test prints a single pass/fail line (visible with ``pytest -v -s``).
The numbered checks delegate to the library's verification functions, so the
``riskscale verify`` command and this suite always agree on what is tested.
"""

import math

from riskscale.gof import GofReport
from riskscale.verify import (
    ALPHA_CHECK,
    builtin_verify_suite,
    check_beta_gamma_algebra,
    check_beta_marginals,
    check_breiman_limit,
    check_clayton_identity,
    check_elliptical_premium,
    check_factorization,
    check_mgb2_equivalence,
    check_premium_forms,
    check_random_p_sphere,
    check_scalar_premium_mc,
    check_scale_cancellation,
    check_sphere_constraint,
    check_weighted_gaussian,
    render_report,
)

SEED = 42


def _conclude(number: int, label: str, report: GofReport) -> None:
    verdict = "PASS" if report.passed else "FAIL"
    print(f"criterion {number:02d} {label}: {verdict} "
          f"(statistic={report.statistic:.6g}, threshold={report.threshold:.6g})")
    assert report.passed, report


def test_c01_scalar_premium_monte_carlo():
    report = check_scalar_premium_mc(SEED)
    assert report.threshold == -math.log10(ALPHA_CHECK)
    _conclude(1, "scalar credibility premium (MC vs closed form)", report)


def _premium_forms(form: str) -> GofReport:
    """The ``premium_forms`` sub-tests of one comparison, ``model r <form>``."""
    report = check_premium_forms(SEED)
    assert report.threshold == 1e-10
    scores = {label: score for label, score in report.scores.items()
              if label.endswith(f" {form}")}
    assert len(scores) == 20
    return GofReport(f"premium_forms {form}", scores, report.threshold)


def test_c02_gaussian_premium_form_equivalence():
    _conclude(2, "gaussian premium closed forms agree", _premium_forms("noise-inverse"))


def test_c03_elliptical_reduction():
    _conclude(3, "elliptical premium reduces to gaussian", _premium_forms("block-diagonal"))


def test_c04_sphere_constraint():
    report = check_sphere_constraint(SEED)
    assert report.threshold == 1e-12
    _conclude(4, "angular draws on the unit sphere", report)


def test_c05_beta_marginal_law():
    report = check_beta_marginals(SEED)
    _conclude(5, "beta marginal law of angular powers", report)


def test_c06_gamma_dirichlet_factorization():
    report = check_factorization(SEED)
    _conclude(6, "gamma-dirichlet factorization radius", report)


def test_c07_scale_cancellation():
    report = check_scale_cancellation(SEED)
    _conclude(7, "component ratios ignore the scale law", report)


def test_c08_beta_gamma_algebra():
    report = check_beta_gamma_algebra(SEED)
    _conclude(8, "beta-gamma factorization of the marginal", report)


def test_c09_weighted_gaussian_case():
    report = check_weighted_gaussian(SEED)
    _conclude(9, "weighted sampler recovers i.i.d. normals", report)


def test_c10_random_exponent_sphere():
    report = check_random_p_sphere(SEED)
    assert report.threshold == 1e-12
    _conclude(10, "per-row sphere identity under random exponent", report)


def test_c11_mgb2_sampler_oracle_equivalence():
    report = check_mgb2_equivalence(SEED)
    _conclude(11, "mgb2 scale-mixture vs conditional sampler", report)


def test_c12_clayton_archimedean_identity():
    report = check_clayton_identity(SEED)
    assert report.threshold == -math.log10(ALPHA_CHECK)
    _conclude(12, "scale-mixture survival matches archimedean form", report)


def test_c13_breiman_tail_limit():
    report = check_breiman_limit(SEED)
    _conclude(13, "joint tail ratio converges to the limit", report)


def test_c14_verify_suite_determinism(verify_seed42, monkeypatch):
    # the shared session run is the first; the repeat and threaded runs are fresh
    first = render_report(verify_seed42)
    monkeypatch.setenv("RISKSCALE_THREADS", "1")
    second = render_report(builtin_verify_suite(SEED))
    monkeypatch.setenv("RISKSCALE_THREADS", "4")
    threaded = render_report(builtin_verify_suite(SEED))
    identical = first == second == threaded
    report = GofReport("verify_suite_determinism",
                       {"1 run vs repeat vs 4 workers": 0.0 if identical else 1.0}, 0.0)
    assert first.encode() == second.encode() == threaded.encode()
    _conclude(14, "verify reports byte-identical across runs and workers", report)


def test_c15_elliptical_premium_matches_its_definition():
    report = check_elliptical_premium(SEED)
    assert report.threshold == -math.log10(ALPHA_CHECK) == 3.0
    _conclude(15, "elliptical premium is orthogonal to its residual", report)


def test_full_suite_overall_pass(verify_seed42):
    assert all(c.passed for c in verify_seed42)
    assert len(verify_seed42) == 14
