import numpy as np
import pytest

from riskscale.cdfs import normal_cdf
from riskscale.errors import ParameterError
from riskscale.gof import KS_CRITICAL, GofReport, ks_one_sample, ks_two_sample
from riskscale.rng import RngStream


def uniform_cdf(x):
    return np.clip(np.asarray(x, dtype=float), 0.0, 1.0)


def test_critical_constants():
    assert abs(KS_CRITICAL - 1.628) < 5e-4


def test_identical_samples_pass_with_zero_statistic():
    x = RngStream(1).generator().random(500)
    rep = ks_two_sample(x, x.copy())
    assert rep.statistic == 0.0
    assert rep.passed


def test_uniform_null_passes():
    u = RngStream(2).generator().random(10**4)
    rep = ks_one_sample(u, uniform_cdf)
    assert rep.passed


def test_gross_mismatch_fails():
    x = RngStream(3).generator().exponential(size=10**4)
    rep = ks_one_sample(x, normal_cdf)
    assert not rep.passed


def test_two_sample_detects_shift():
    gen = RngStream(4).generator()
    rep = ks_two_sample(gen.random(5000), gen.random(5000) + 0.2)
    assert not rep.passed


def test_report_invariant():
    rep = GofReport("x", 0.5, 0.5)
    assert rep.passed == (rep.statistic <= rep.threshold)
    for r in (ks_two_sample(np.arange(100.0), np.arange(100.0) + 0.01),
              ks_one_sample(np.linspace(0.01, 0.99, 50), uniform_cdf)):
        assert r.passed == (r.statistic <= r.threshold)


def test_pass_is_derived_from_statistic_and_threshold():
    assert not GofReport("x", 2.0, 1.0).passed
    assert not GofReport("x", np.nan, 1.0).passed
    rep = GofReport("x", np.float64(1), 1)
    assert rep.passed and type(rep.statistic) is float and type(rep.threshold) is float
    with pytest.raises(TypeError):
        GofReport("x", 0.0, 1.0, True)
    with pytest.raises(TypeError):
        GofReport("x", 0.0, 1.0, passed=True)


def test_parameter_errors():
    with pytest.raises(ParameterError):
        ks_one_sample([], uniform_cdf)
    with pytest.raises(ParameterError):
        ks_one_sample(np.ones(5), uniform_cdf)  # n < 10
    with pytest.raises(ParameterError):
        ks_one_sample(np.array([0.5, np.nan]), uniform_cdf)


def test_null_calibration_rejection_rate():
    # 200 independent null runs at level 0.01: rejection rate within [0, 0.05]
    rejections = 0
    runs = 200
    for k in range(runs):
        u = RngStream(500, k).generator().random(2000)
        if not ks_one_sample(u, uniform_cdf).passed:
            rejections += 1
    assert 0 <= rejections / runs <= 0.05
