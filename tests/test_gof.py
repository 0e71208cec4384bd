import numpy as np
import pytest

import math

from riskscale.cdfs import ks_pvalue, normal_cdf, normal_pvalue
from riskscale.errors import ParameterError
from riskscale.gof import GofReport, KsStatistic, ks_one_sample, ks_two_sample
from riskscale.rng import RngStream


def uniform_cdf(x):
    return np.clip(np.asarray(x, dtype=float), 0.0, 1.0)


def test_critical_constants():
    # the Kolmogorov survival at c(0.01) = sqrt(ln(200)/2) = 1.6276 is the
    # old fixed level, and z = 1.96 is the two-sided 5% normal point
    assert ks_pvalue(KsStatistic(math.sqrt(math.log(200.0) / 2.0), 1.0)) == pytest.approx(
        0.01, abs=1e-8)
    assert ks_pvalue(KsStatistic(1.6276 / 100.0, 10**4)) == pytest.approx(0.01, rel=1e-3)
    assert ks_pvalue(KsStatistic(0.0, 100.0)) == 1.0
    assert normal_pvalue(1.96) == pytest.approx(0.05, rel=1e-3)
    assert normal_pvalue(-1.96) == normal_pvalue(1.96)
    assert normal_pvalue(0.0) == 1.0 and normal_pvalue(math.inf) == 0.0
    assert math.isnan(normal_pvalue(math.nan))


def test_effective_sizes():
    gen = RngStream(5).generator()
    assert ks_one_sample(gen.random(300), uniform_cdf).n_eff == 300.0
    assert ks_two_sample(gen.random(300), gen.random(600)).n_eff == 200.0


def test_identical_samples_pass_with_zero_statistic():
    x = RngStream(1).generator().random(500)
    rep = ks_two_sample(x, x.copy())
    assert rep.statistic == 0.0
    assert ks_pvalue(rep) == 1.0


def test_uniform_null_passes():
    u = RngStream(2).generator().random(10**4)
    rep = ks_one_sample(u, uniform_cdf)
    assert ks_pvalue(rep) > 0.01


def test_gross_mismatch_fails():
    x = RngStream(3).generator().exponential(size=10**4)
    rep = ks_one_sample(x, normal_cdf)
    assert ks_pvalue(rep) < 1e-12


def test_two_sample_detects_shift():
    gen = RngStream(4).generator()
    rep = ks_two_sample(gen.random(5000), gen.random(5000) + 0.2)
    assert ks_pvalue(rep) < 1e-12


def test_report_invariant():
    rep = GofReport("x", 0.5, 0.5)
    assert rep.passed == (rep.statistic <= rep.threshold)
    # a KS result is a bare distance and its size, with no level to pass
    for r in (ks_two_sample(np.arange(100.0), np.arange(100.0) + 0.01),
              ks_one_sample(np.linspace(0.01, 0.99, 50), uniform_cdf)):
        assert type(r) is KsStatistic and not hasattr(r, "passed")
        assert type(r.statistic) is float and 0.0 <= r.statistic <= 1.0
        assert 0.0 <= ks_pvalue(r) <= 1.0


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
        if ks_pvalue(ks_one_sample(u, uniform_cdf)) <= 0.01:
            rejections += 1
    assert 0 <= rejections / runs <= 0.05
