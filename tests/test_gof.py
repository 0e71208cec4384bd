import dataclasses
import math

import numpy as np
import pytest

from riskscale.cdfs import ks_pvalue, normal_cdf, normal_pvalue
from riskscale.errors import ParameterError, ShapeError
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
    rep = GofReport("x", {"a": 0.5}, 0.5)
    assert rep.passed == (rep.statistic <= rep.threshold)
    assert rep.failing == ()
    # a KS result is a bare distance and its size, with no level to pass
    for r in (ks_two_sample(np.arange(100.0), np.arange(100.0) + 0.01),
              ks_one_sample(np.linspace(0.01, 0.99, 50), uniform_cdf)):
        assert type(r) is KsStatistic and not hasattr(r, "passed")
        assert type(r.statistic) is float and 0.0 <= r.statistic <= 1.0
        assert 0.0 <= ks_pvalue(r) <= 1.0


def test_pass_is_derived_from_statistic_and_threshold():
    assert not GofReport("x", {"a": 2.0}, 1.0).passed
    assert not GofReport("x", {"a": np.nan}, 1.0).passed
    rep = GofReport("x", {"a": np.float64(1)}, 1)
    assert rep.passed and type(rep.statistic) is float and type(rep.threshold) is float
    assert type(rep.scores["a"]) is float
    with pytest.raises(TypeError):
        GofReport("x", {"a": 0.0}, 1.0, True)
    with pytest.raises(TypeError):
        GofReport("x", {"a": 0.0}, 1.0, passed=True)
    with pytest.raises(TypeError):
        GofReport("x", {"a": 0.0}, 1.0, statistic=0.0)


def test_statistic_is_the_worst_score_and_failing_names_it():
    rep = GofReport("x", {"a": 0.5, "b": 3.0, "c": 1.0, "d": 2.0}, 1.0)
    assert rep.statistic == 3.0 and not rep.passed
    assert rep.failing == ("b", "d")  # in label order; a score at the threshold passes
    # a nan anywhere is the statistic, which Python's max would drop when it
    # does not come first, and it is named
    rep = GofReport("x", {"a": 0.0, "b": np.nan, "c": 5.0}, 1.0)
    assert math.isnan(rep.statistic) and not rep.passed
    assert rep.failing == ("b", "c")
    with pytest.raises(ValueError):
        GofReport("x", {}, 1.0)  # no sub-test, no verdict


def test_report_is_frozen():
    labelled = {"a": 0.0}
    rep = GofReport("x", labelled, 1.0)
    labelled["a"] = 5.0  # the report keeps its own copy
    assert rep.passed and rep.scores == {"a": 0.0}
    with pytest.raises(TypeError):
        rep.scores["a"] = 5.0
    for name, value in (("test_name", "y"), ("scores", {"a": 5.0}), ("threshold", 0.0),
                        ("statistic", 5.0)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(rep, name, value)


def test_parameter_errors():
    with pytest.raises(ParameterError):
        ks_one_sample([], uniform_cdf)
    with pytest.raises(ParameterError):
        ks_one_sample(np.ones(5), uniform_cdf)  # n < 10
    with pytest.raises(ParameterError):
        ks_one_sample(np.array([0.5, np.nan]), uniform_cdf)


@pytest.mark.parametrize("cdf", [
    lambda v: 0.5,  # one value, which numpy would broadcast to every point
    lambda v: np.vstack([uniform_cdf(v), np.full(v.shape, 0.5)]),  # one row too many
    lambda v: uniform_cdf(v)[1:],  # one value short: numpy's bare ValueError
], ids=["scalar", "two-rows", "one-short"])
def test_cdf_output_of_another_shape_is_refused(cdf):
    # only one CDF value per sorted point gives the KS distance; any other
    # shape is refused by name, before numpy broadcasts it or fails on it
    x = RngStream(6).generator().random(100)
    with pytest.raises(ShapeError, match=r"cdf returned shape .* sample of shape \(100,\)"):
        ks_one_sample(x, cdf)


def test_null_calibration_rejection_rate():
    # 200 independent null runs at level 0.01: rejection rate within [0, 0.05]
    rejections = 0
    runs = 200
    for k in range(runs):
        u = RngStream(500, k).generator().random(2000)
        if ks_pvalue(ks_one_sample(u, uniform_cdf)) <= 0.01:
            rejections += 1
    assert 0 <= rejections / runs <= 0.05
