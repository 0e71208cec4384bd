"""Built-in verification suite bundling every acceptance check.

Each check freezes its own substream of the run seed and returns a
:class:`GofReport`. Simple checks report their raw statistic against its
tolerance; composite checks report a normalized margin (the worst ratio of
sub-statistic to sub-tolerance) against a threshold of 1, so a line passes
exactly when every sub-assertion holds. Worst values are taken by
:func:`_worst`, which is nan when any sub-statistic is nan, so a degenerate
sub-test fails its check instead of being dropped by the maximum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cdfs import normal_cdf
from .credibility import (
    EllipticalShiftModel,
    GaussianShiftModel,
    GenericShiftModel,
    premium_elliptical,
    premium_gaussian,
    premium_mc,
    premium_scalar,
)
from .dirichlet import (
    LpSpec,
    RandomPSpec,
    WeightedSpec,
    angular_marginal_cdf,
    angular_sample,
    beta_gamma_sample,
    lp_dirichlet_sample,
    random_p_sample,
    random_scale_sequence_sample,
    weighted_sample,
)
from .gof import GofReport, ks_one_sample, ks_two_sample, report
from .radial import ChiSquareSqrt, GammaPower, InvGamma, Pareto, PointMass
from .rng import RngStream
from .samplers import y_marginal_sample
from .tails import (
    ClaytonSpec,
    MGB2Model,
    TailQuery,
    archimedean_survival,
    judge_convergence,
    mgb2_conditional_sample,
    mgb2_sample,
    scale_mixture_exp_sample,
    tail_convergence_table,
    tail_dependence_limits,
)

# Angular law shared by the sphere/marginal/factorization checks.
_ALPHAS = (0.5, 1.0, 1.5, 2.0, 2.5)

KS_LEVEL = 0.01


def _stream(seed: int, check_index: int) -> RngStream:
    return RngStream(seed, 100 + check_index)


def _worst(values) -> float:
    """The largest of ``values``, or nan when any is nan. Python's ``max``
    would drop a nan that does not come first."""
    return float(np.max(values))


def _ks_margin(rep: GofReport) -> float:
    return rep.statistic / rep.threshold


def _max_offdiag_corr(columns: np.ndarray) -> float:
    corr = np.corrcoef(columns, rowvar=False)
    off = corr - np.diag(np.diag(corr))
    return float(np.abs(off).max())


def _gaussian_prior_density(tau2: float):
    def h(points):
        return np.exp(-points[:, 0] ** 2 / (2.0 * tau2)) / np.sqrt(2.0 * np.pi * tau2)
    return h


def check_scalar_premium_mc(seed: int, workers=None) -> GofReport:
    """Monte Carlo premium against the scalar closed form (d = 1 Gaussian)."""
    mu, sigma2, tau2, x = 0.0, 1.0, 3.0, 4.0
    n = 10**6
    model = GenericShiftModel(
        prior_density=_gaussian_prior_density(tau2),
        noise_sampler=lambda gen, m: gen.standard_normal((m, 1)),
    )
    est, se = premium_mc(model, [x], n, _stream(seed, 1), workers=workers)
    exact = premium_scalar(mu, sigma2, tau2, x)
    return report("scalar_premium_mc", abs(est[0] - exact), 3.0 * se[0], n)


def _random_pd(gen, d: int) -> np.ndarray:
    a = gen.standard_normal((d, d))
    return a.T @ a + 0.5 * np.eye(d)


def check_gaussian_premium_forms(seed: int, workers=None) -> GofReport:
    """Agreement of the two closed-form Gaussian premium expressions."""
    gen = _stream(seed, 2).generator()
    d, reps = 3, 20
    diffs = []
    for _ in range(reps):
        model = GaussianShiftModel(mu=gen.standard_normal(d),
                                   sigma=_random_pd(gen, d),
                                   sigma0=_random_pd(gen, d))
        x = gen.standard_normal(d)
        one = premium_gaussian(model, x, method="sum_inverse")
        two = premium_gaussian(model, x, method="noise_inverse")
        diffs.append(np.abs(one - two).max())
    return report("gaussian_premium_forms", _worst(diffs), 1e-10, reps)


def check_elliptical_reduction(seed: int, workers=None) -> GofReport:
    """Block-diagonal elliptical model reproduces the Gaussian premium."""
    gen = _stream(seed, 3).generator()
    d, reps = 3, 20
    diffs = []
    for _ in range(reps):
        sigma = _random_pd(gen, d)
        sigma0 = _random_pd(gen, d)
        mu = gen.standard_normal(d)
        x = gen.standard_normal(d)
        c = np.zeros((2 * d, 2 * d))
        c[:d, :d] = np.linalg.cholesky(sigma).T
        c[d:, d:] = np.linalg.cholesky(sigma0).T
        elliptical = EllipticalShiftModel(c=c, nu=np.concatenate([np.zeros(d), mu]),
                                          radial=PointMass(1.0))
        gaussian = GaussianShiftModel(mu=mu, sigma=sigma, sigma0=sigma0)
        diff = premium_elliptical(elliptical, x) - premium_gaussian(gaussian, x)
        diffs.append(np.abs(diff).max())
    return report("elliptical_reduction", _worst(diffs), 1e-9, reps)


def check_sphere_constraint(seed: int, workers=None) -> GofReport:
    """Angular draws stay on the unit L_p sphere to 1e-12."""
    spec = LpSpec(alphas=_ALPHAS, p=3.0)
    n = 10**5
    o = angular_sample(spec, _stream(seed, 4), size=n)
    dev = np.abs((o ** spec.p).sum(axis=1) - 1.0).max()
    return report("sphere_constraint", float(dev), 1e-12, n)


def check_beta_marginals(seed: int, workers=None) -> GofReport:
    """Each O_i^p follows Beta(alpha_i, sum of the others), for two exponents:
    KS of O_i against :func:`angular_marginal_cdf`."""
    n = 10**4
    margins = []
    stream = _stream(seed, 5)
    for k, p in enumerate((1.0, 2.7)):
        spec = LpSpec(alphas=_ALPHAS, p=p)
        o = angular_sample(spec, stream.child(k), size=n)
        for i in range(spec.dim):
            rep = ks_one_sample(o[:, i],
                                lambda v, i=i: angular_marginal_cdf(spec, i, v),
                                level=KS_LEVEL)
            margins.append(_ks_margin(rep))
    return report("beta_marginals", _worst(margins), 1.0, n)


def check_factorization(seed: int, workers=None) -> GofReport:
    """With the Gamma-power radius, scaled angular components are independent
    with the Y marginals: per-margin KS plus pairwise correlation of p-powers."""
    n = 10**4
    p = 3.0
    spec = LpSpec(alphas=_ALPHAS, p=p)
    radial = GammaPower(sum(_ALPHAS), 1.0 / p, 1.0 / p)
    stream = _stream(seed, 6)
    x = lp_dirichlet_sample(spec, radial, n, stream.child(20), workers=workers)
    margins = []
    for i, alpha in enumerate(_ALPHAS):
        y = y_marginal_sample(alpha, p, stream.child(i + 10), size=n)
        margins.append(_ks_margin(ks_two_sample(x[:, i], y, level=KS_LEVEL)))
    margins.append(_max_offdiag_corr(x ** p) / (3.0 / np.sqrt(n)))
    return report("gamma_dirichlet_factorization", _worst(margins), 1.0, n)


def check_scale_cancellation(seed: int, workers=None) -> GofReport:
    """The law of X_1/X_2 does not depend on the common scale law."""
    n = 10**4
    stream = _stream(seed, 7)
    a = random_scale_sequence_sample(0.5, 2.0, PointMass(1.0), 2, n,
                                     stream.child(0), workers=workers)
    b = random_scale_sequence_sample(0.5, 2.0, Pareto(3.0), 2, n,
                                     stream.child(1), workers=workers)
    rep = ks_two_sample(a[:, 0] / a[:, 1], b[:, 0] / b[:, 1], level=KS_LEVEL)
    return report("scale_cancellation", rep.statistic, rep.threshold, n)


def check_beta_gamma_algebra(seed: int, workers=None) -> GofReport:
    """(T E)^(1/p) with Beta/exponential factors matches the Y marginal."""
    n = 10**4
    stream = _stream(seed, 8)
    margins = []
    for k, (alpha, p) in enumerate(((0.5, 1.0), (0.5, 2.0), (0.2, 3.0))):
        x = beta_gamma_sample(alpha, p, n, stream.child(2 * k), workers=workers)
        y = y_marginal_sample(alpha, p, stream.child(2 * k + 1), size=n)
        margins.append(_ks_margin(ks_two_sample(x, y, level=KS_LEVEL)))
    return report("beta_gamma_algebra", _worst(margins), 1.0, n)


def check_weighted_gaussian(seed: int, workers=None) -> GofReport:
    """Symmetric signs, alpha_i = 1/2, p = 2, chi(d) radius give i.i.d. N(0,1).

    Note alpha_i = 1/2: the squared marginal factor must be chi-square with
    one degree of freedom, Gamma(1/2, 1/2), for the normalized vector to be
    uniform on the L_2 sphere.
    """
    d, n = 4, 10**4
    spec = WeightedSpec(base=LpSpec(alphas=(0.5,) * d, p=2.0), qs=(0.5,) * d)
    x = weighted_sample(spec, ChiSquareSqrt(float(d)), n, _stream(seed, 9),
                        workers=workers)
    margins = [_ks_margin(ks_one_sample(x[:, i], normal_cdf, level=KS_LEVEL))
               for i in range(d)]
    margins.append(_max_offdiag_corr(x) / (3.0 / np.sqrt(n)))
    return report("weighted_gaussian", _worst(margins), 1.0, n)


def check_random_p_sphere(seed: int, workers=None) -> GofReport:
    """Each row of the random-exponent sampler satisfies its own sphere identity."""
    n = 10**4
    spec = RandomPSpec(alphas=(0.5, 1.0, 1.5), p_law=Pareto(2.0))
    rows, exponents = random_p_sample(spec, PointMass(1.0), n, _stream(seed, 10),
                                      workers=workers, return_exponents=True)
    dev = np.abs((rows ** exponents[:, None]).sum(axis=1) - 1.0).max()
    return report("random_p_sphere", float(dev), 1e-12, n)


def check_mgb2_equivalence(seed: int, workers=None) -> GofReport:
    """Scale-mixture and conditional MGB2 samplers agree in law."""
    n = 10**4
    model = MGB2Model(a=(2.0, 3.0), b=(1.0, 2.0), p=(1.5, 0.5),
                      theta_law=InvGamma(2.0))
    stream = _stream(seed, 11)
    x = mgb2_sample(model, n, stream.child(0), workers=workers)
    y = mgb2_conditional_sample(model, n, stream.child(1), workers=workers)
    margins = [_ks_margin(ks_two_sample(x[:, i], y[:, i], level=KS_LEVEL))
               for i in range(model.dim)]
    margins.append(_ks_margin(ks_two_sample(x.min(axis=1), y.min(axis=1),
                                            level=KS_LEVEL)))
    return report("mgb2_equivalence", _worst(margins), 1.0, n)


def check_clayton_identity(seed: int, workers=None) -> GofReport:
    """Empirical joint survival of the exponential scale mixture matches
    (1 + x_1 + x_2)^(-a) on a 3 x 3 grid."""
    n = 10**5
    spec = ClaytonSpec(theta_shape=1.0, d=2)
    sample = scale_mixture_exp_sample(spec, n, _stream(seed, 12), workers=workers)
    diffs = []
    for x1 in (0.25, 0.5, 1.0):
        for x2 in (0.25, 0.5, 1.0):
            emp = float(((sample[:, 0] > x1) & (sample[:, 1] > x2)).mean())
            diffs.append(abs(emp - archimedean_survival(spec, (x1, x2))))
    return report("clayton_identity", _worst(diffs), 0.01, n)


def check_breiman_limit(seed: int, workers=None) -> GofReport:
    """Joint-tail limit in the exponential case: value 1/2, prelimit at t = 20,
    positivity, and exact homogeneity under shared draws."""
    model = MGB2Model(a=(1.0, 1.0), b=(1.0, 1.0), p=(1.0, 1.0),
                      theta_law=Pareto(1.0))
    stream = _stream(seed, 13)
    margins = []

    # both pairs from one pass over the same W draws
    (est, se), (est2, _) = tail_dependence_limits(
        model, ((1.0, 1.0), (2.0, 2.0)), 10**6, stream.child(0), workers=workers)
    margins.append(abs(est - 0.5) / 0.01)          # within 2% of 1/2
    margins.append(3.0 * se / est)                 # positivity: est - 3 se > 0
    margins.append(abs(est2 - 0.5 * est) / 1e-12)  # homogeneity, shared draws

    query = TailQuery(c1=1.0, c2=1.0, t_grid=(5.0, 10.0, 20.0), n=10**7)
    rows = tail_convergence_table(model, query, stream.child(1), workers=workers)
    at_20 = next(r for r in rows if r["t"] == 20.0)
    margins.append(abs(at_20["empirical_ratio"] - 0.5) / 0.05)  # within 10% of 1/2

    rep = judge_convergence(rows, query.n)
    margins.append(_ks_margin(rep))

    return report("breiman_tail_limit", _worst(margins), 1.0, query.n)


def check_determinism(seed: int, workers=None) -> GofReport:
    """Repeat runs and worker counts reproduce bit-identical output."""
    n = 3 * 32768 + 101  # spans several generation blocks
    spec = LpSpec(alphas=(1.0, 2.0), p=2.0)
    stream = _stream(seed, 14)
    base = lp_dirichlet_sample(spec, PointMass(1.0), n, stream.child(0), workers=1)
    again = lp_dirichlet_sample(spec, PointMass(1.0), n, stream.child(0), workers=1)
    threaded = lp_dirichlet_sample(spec, PointMass(1.0), n, stream.child(0), workers=4)

    model = GenericShiftModel(
        prior_density=_gaussian_prior_density(3.0),
        noise_sampler=lambda gen, m: gen.standard_normal((m, 1)),
    )
    mc1 = premium_mc(model, [4.0], 2000, stream.child(1), workers=1)
    mc2 = premium_mc(model, [4.0], 2000, stream.child(1), workers=4)

    identical = (
        np.array_equal(base, again)
        and np.array_equal(base, threaded)
        and np.array_equal(mc1[0], mc2[0])
        and np.array_equal(mc1[1], mc2[1])
    )
    return report("determinism", 0.0 if identical else 1.0, 0.0, n)


CHECKS = (
    check_scalar_premium_mc,
    check_gaussian_premium_forms,
    check_elliptical_reduction,
    check_sphere_constraint,
    check_beta_marginals,
    check_factorization,
    check_scale_cancellation,
    check_beta_gamma_algebra,
    check_weighted_gaussian,
    check_random_p_sphere,
    check_mgb2_equivalence,
    check_clayton_identity,
    check_breiman_limit,
    check_determinism,
)


@dataclass(frozen=True)
class VerifyReport:
    """All verification outcomes of one suite run."""

    checks: tuple[GofReport, ...]

    @property
    def overall_pass(self) -> bool:
        return all(c.passed for c in self.checks)


def builtin_verify_suite(seed: int = 42, workers=None) -> VerifyReport:
    """Run every acceptance check on substreams of ``seed``."""
    return VerifyReport(tuple(check(seed, workers=workers) for check in CHECKS))


def render_report(result: VerifyReport) -> str:
    """One line per check: name,statistic,threshold,pass."""
    lines = [
        f"{c.test_name},{c.statistic:.17g},{c.threshold:.17g},"
        f"{'true' if c.passed else 'false'}"
        for c in result.checks
    ]
    return "\n".join(lines) + "\n"
