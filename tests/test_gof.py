import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from riskscale import verify
from riskscale.cdfs import ks_pvalue, normal_cdf, normal_pvalue
from riskscale.errors import ParameterError, ShapeError
from riskscale.gof import KS_BLOCK, GofReport, KsStatistic, ks_one_sample, ks_two_sample
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


# -- the pruned KS search against the dense one -------------------------------
#
# ks_one_sample evaluates the CDF only at block ends and in the blocks whose
# bound can hold the supremum. The reference below evaluates it at every
# sorted point; D must be the same float.


def _dense_ks(x, cdf) -> float:
    xs = np.sort(np.asarray(x, dtype=float))
    n = xs.size
    f = np.asarray(cdf(xs), dtype=float)
    grid = np.arange(1, n + 1) / n
    return max(float(np.max(grid - f)), float(np.max(f - (grid - 1.0 / n))))


def _same_float(a: float, b: float) -> bool:
    return (math.isnan(a) and math.isnan(b)) or np.float64(a).tobytes() == np.float64(b).tobytes()


def _flat_cdf(x):
    # uniform on [0, 0.3] and [0.6, 1], flat at 3/7 in between
    x = np.asarray(x, dtype=float)
    return (np.clip(x, 0.0, 0.3) + np.clip(x - 0.6, 0.0, 0.4)) / 0.7


def _step_cdf(x, steps=7):
    return np.clip(np.floor(np.asarray(x, dtype=float) * steps) / steps, 0.0, 1.0)


_KS_SIZES = st.one_of(st.sampled_from([10, 15, 16, 17, 31, 32, 33, 47, 4095, 4999, 5000]),
                      st.integers(10, 5000))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(n=_KS_SIZES, seed=st.integers(0, 2**32 - 1),
       decimals=st.sampled_from([None, 1, 2, 3]),
       kind=st.sampled_from(["beta", "flat", "step", "nan"]),
       shape=st.tuples(st.floats(0.3, 4.0), st.floats(0.3, 4.0)))
def test_pruned_ks_distance_is_the_dense_one(n, seed, decimals, kind, shape):
    # samples from Beta laws near and far from the CDF, with ties when
    # rounded; CDFs with flat stretches, a step CDF and a CDF that is nan at
    # one sample point
    gen = RngStream(seed).generator()
    x = gen.beta(*shape, size=n)
    if decimals is not None:
        x = np.round(x, decimals)
    a, b = shape if gen.random() < 0.5 else (1.0, 1.0)
    cdf = {"beta": lambda v: special.betainc(a, b, np.clip(v, 0.0, 1.0)),
           "nan": lambda v: special.betainc(a, b, np.clip(v, 0.0, 1.0)),
           "flat": _flat_cdf, "step": _step_cdf}[kind]
    if kind != "nan":
        assert _same_float(ks_one_sample(x, cdf).statistic, _dense_ks(x, cdf))
        return
    # the nan sits at the j-th sorted point; a nan at an evaluated point
    # makes D nan, and a point never evaluated leaves D as it was without it
    j = int(gen.integers(n))
    bad = np.sort(x)[j]
    seen = []

    def nan_cdf(v):
        seen.append(np.array(v))
        return np.where(v == bad, np.nan, cdf(v))

    d = ks_one_sample(x, nan_cdf).statistic
    evaluated = bool((np.concatenate(seen) == bad).any())
    assert math.isnan(d) == evaluated
    if j % KS_BLOCK in (0, KS_BLOCK - 1) or j == n - 1:  # a block end: always evaluated
        assert _same_float(d, _dense_ks(x, nan_cdf))
    if not evaluated:
        assert _same_float(d, _dense_ks(x, cdf))


def test_the_cdf_sees_sorted_subsets_and_few_points():
    # each call gets ascending points of the sorted sample; on a null sample
    # nearly all blocks are pruned
    x = RngStream(7).generator().random(5000)
    calls = []

    def cdf(v):
        calls.append(np.array(v))
        return uniform_cdf(v)

    assert ks_one_sample(x, cdf).statistic == _dense_ks(x, uniform_cdf)
    assert len(calls) == 2
    for points in calls:
        assert np.all(np.diff(points) >= 0) and np.isin(points, x).all()
    assert sum(points.size for points in calls) < x.size / 2


#: Fresh seeds at which every KS sample of the suite is checked.
KS_SUITE_SEEDS = (17600, 17601, 17602, 17603, 17604)


@pytest.mark.parametrize("seed", KS_SUITE_SEEDS)
def test_every_ks_sample_of_the_suite_gives_the_dense_distance(monkeypatch, seed):
    seen = []

    def both(x, cdf):
        ks = ks_one_sample(x, cdf)
        seen.append(_same_float(ks.statistic, _dense_ks(x, cdf)))
        return ks

    monkeypatch.setattr(verify, "ks_one_sample", both)
    monkeypatch.setenv("RISKSCALE_THREADS", "1")
    for check in (verify.check_beta_marginals, verify.check_factorization,
                  verify.check_scale_cancellation, verify.check_beta_gamma_algebra,
                  verify.check_weighted_gaussian, verify.check_mgb2_equivalence):
        check(seed)
    assert len(seen) >= 20 and all(seen)
