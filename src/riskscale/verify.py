"""Built-in verification suite bundling every acceptance check.

Each check freezes its own substream of the run seed and returns a
:class:`GofReport`. Simple checks report their raw statistic against its
tolerance; composite checks report a normalized margin (the worst ratio of
sub-statistic to sub-tolerance) against a threshold of 1, so a line passes
exactly when every sub-assertion holds. Worst values are taken by
:func:`_worst`, which is nan when any sub-statistic is nan, so a degenerate
sub-test fails its check instead of being dropped by the maximum.

Most Monte Carlo estimates are checked against references that share no
code with their samplers: the ``cdfs`` distribution functions, the
closed-form premiums, and, for ``breiman_tail_limit``, the exact joint-tail
limit :func:`cdfs.breiman_limit`, against which each point's limit estimate
is z-scored with the fixed bound ``LIMIT_Z``. Four checks do not, as things
stand: ``gamma_dirichlet_factorization``, ``beta_gamma_algebra``,
``scale_cancellation`` and ``mgb2_equivalence`` each compare two samplers
that both draw through the one Gamma kernel, ``samplers._std_gamma``. A
fault in that kernel can pass them. With the kernel drawing
Gamma(1.15 shape), three still pass at their false-alarm rate:
``gamma_dirichlet_factorization``, ``scale_cancellation`` and
``mgb2_equivalence``. ``beta_gamma_algebra`` fails, because its exponential
factor is not drawn through the kernel. Until these four test against exact
laws, the kernel is guarded by the other checks (``beta_marginals``,
``weighted_gaussian``, ``clayton_identity`` and ``breiman_tail_limit`` fail
under that mutation).

The checks take no worker count: the samplers they call take it from
RISKSCALE_THREADS, and the bytes of a report do not depend on it.
:func:`check_determinism` alone passes explicit counts, to compare them.
"""

from __future__ import annotations

import numpy as np

from .cdfs import angular_marginal_cdf, breiman_limit, normal_cdf
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
    SPHERE_TOL,
    LpSpec,
    RandomPSpec,
    WeightedSpec,
    angular_sample,
    beta_gamma_sample,
    lp_dirichlet_sample,
    random_p_sample,
    random_scale_sequence_sample,
    sphere_deviation,
    weighted_sample,
)
from .errors import InsufficientTailDataError
from .gof import GofReport, ks_one_sample, ks_two_sample
from .linalg import mat_inverse
from .radial import GammaPower, InvGamma, Pareto, PointMass
from .rng import BLOCK_ROWS, RngStream
from .samplers import y_marginal_sample
from .tails import (
    ClaytonSpec,
    MGB2Model,
    TailQuery,
    archimedean_survival,
    mgb2_conditional_sample,
    mgb2_sample,
    scale_mixture_exp_sample,
    tail_convergence_table,
    tail_dependence_limit,
)

# Angular law shared by the sphere/marginal/factorization checks.
_ALPHAS = (0.5, 1.0, 1.5, 2.0, 2.5)

#: Exceedances required before a threshold counts as converged enough to judge.
JUDGE_EXCEEDANCES = 1000


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


#: Prior variance of ``_SCALAR_SHIFT``.
_TAU2 = 3.0
#: The d = 1 shift model of ``scalar_premium_mc`` and ``determinism``:
#: prior N(0, _TAU2), noise N(0, 1).
_SCALAR_SHIFT = GenericShiftModel(
    prior_density=lambda points: (np.exp(-points[:, 0] ** 2 / (2.0 * _TAU2))
                                  / np.sqrt(2.0 * np.pi * _TAU2)),
    noise_sampler=lambda gen, m: gen.standard_normal((m, 1)),
)


def check_scalar_premium_mc(seed: int) -> GofReport:
    """Monte Carlo premium against the scalar closed form (d = 1 Gaussian).

    The tolerance is 3 standard errors of the estimate: a statistical check
    with a false-alarm rate of its own (about 0.3% under normality), part of
    the suite's calibration budget rather than a rounding bound.
    """
    x = 4.0
    est, se = premium_mc(_SCALAR_SHIFT, [x], 10**6, _stream(seed, 1))
    exact = premium_scalar(0.0, 1.0, _TAU2, x)
    return GofReport("scalar_premium_mc", abs(est[0] - exact), 3.0 * se[0])


def _random_pd(gen, d: int) -> np.ndarray:
    a = gen.standard_normal((d, d))
    return a.T @ a + 0.5 * np.eye(d)


def _premium_gaussian_noise_inverse(model: GaussianShiftModel, x) -> np.ndarray:
    """The Gaussian premium in its noise-inverse form
    x + (mu - x)(sigma^-1 sigma0 + I)^-1, algebraically equal to
    :func:`premium_gaussian` when sigma is invertible. (Under the row-vector
    convention the noise inverse multiplies sigma0 from the left; the
    reversed product is the column-vector variant and differs whenever the
    two covariances do not commute.)"""
    core = mat_inverse(model.sigma) @ model.sigma0 + np.eye(model.dim)
    return x + (model.mu - x) @ mat_inverse(core)


def check_gaussian_premium_forms(seed: int) -> GofReport:
    """Agreement of the two closed-form Gaussian premium expressions.

    The two forms differ only in rounding, ~1e-15 on these well-conditioned
    3 x 3 models (4.4e-16 at seed 42); the tolerance 1e-10 is wide by five
    orders of magnitude, so only a wrong formula fails it.
    """
    gen = _stream(seed, 2).generator()
    d, reps = 3, 20
    diffs = []
    for _ in range(reps):
        model = GaussianShiftModel(mu=gen.standard_normal(d),
                                   sigma=_random_pd(gen, d),
                                   sigma0=_random_pd(gen, d))
        x = gen.standard_normal(d)
        one = premium_gaussian(model, x)
        two = _premium_gaussian_noise_inverse(model, x)
        diffs.append(np.abs(one - two).max())
    return GofReport("gaussian_premium_forms", _worst(diffs), 1e-10)


def check_elliptical_reduction(seed: int) -> GofReport:
    """Block-diagonal elliptical model reproduces the Gaussian premium.

    The two premiums differ only in rounding, ~1e-15 (2.0e-15 at seed 42);
    the tolerance 1e-9 is wide by six orders of magnitude, so only a wrong
    reduction fails it.
    """
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
        elliptical = EllipticalShiftModel(c=c, nu=np.concatenate([np.zeros(d), mu]))
        gaussian = GaussianShiftModel(mu=mu, sigma=sigma, sigma0=sigma0)
        diff = premium_elliptical(elliptical, x) - premium_gaussian(gaussian, x)
        diffs.append(np.abs(diff).max())
    return GofReport("elliptical_reduction", _worst(diffs), 1e-9)


def check_sphere_constraint(seed: int) -> GofReport:
    """Angular draws stay on the unit L_p sphere to ``SPHERE_TOL``.

    ``SPHERE_TOL`` (1e-12) is wide against the rounding of a row's p-th
    power sum, ~1e-15 (4.4e-16 at seed 42): a row off the sphere by more
    is a sampler fault, never chance.
    """
    spec = LpSpec(alphas=_ALPHAS, p=3.0)
    o = angular_sample(spec, _stream(seed, 4).generator(), size=10**5)
    return GofReport("sphere_constraint", sphere_deviation(o, spec.p), SPHERE_TOL)


def check_beta_marginals(seed: int) -> GofReport:
    """Each O_i^p follows Beta(alpha_i, sum of the others), for two exponents:
    KS of O_i against :func:`angular_marginal_cdf`."""
    n = 10**4
    margins = []
    stream = _stream(seed, 5)
    for k, p in enumerate((1.0, 2.7)):
        spec = LpSpec(alphas=_ALPHAS, p=p)
        o = angular_sample(spec, stream.child(k).generator(), size=n)
        for i in range(spec.dim):
            rep = ks_one_sample(o[:, i],
                                lambda v, i=i: angular_marginal_cdf(spec, i, v))
            margins.append(_ks_margin(rep))
    return GofReport("beta_marginals", _worst(margins), 1.0)


def check_factorization(seed: int) -> GofReport:
    """With the Gamma-power radius, scaled angular components are independent
    with the Y marginals: per-margin KS plus pairwise correlation of p-powers."""
    n = 10**4
    p = 3.0
    spec = LpSpec(alphas=_ALPHAS, p=p)
    radial = GammaPower(sum(_ALPHAS), 1.0 / p, 1.0 / p)
    stream = _stream(seed, 6)
    x = lp_dirichlet_sample(spec, radial, n, stream.child(20))
    margins = []
    for i, alpha in enumerate(_ALPHAS):
        y = y_marginal_sample(alpha, p, stream.child(i + 10).generator(), size=n)
        margins.append(_ks_margin(ks_two_sample(x[:, i], y)))
    margins.append(_max_offdiag_corr(x ** p) / (3.0 / np.sqrt(n)))
    return GofReport("gamma_dirichlet_factorization", _worst(margins), 1.0)


def check_scale_cancellation(seed: int) -> GofReport:
    """The law of X_1/X_2 does not depend on the common scale law."""
    n = 10**4
    stream = _stream(seed, 7)
    a = random_scale_sequence_sample(0.5, 2.0, PointMass(1.0), 2, n, stream.child(0))
    b = random_scale_sequence_sample(0.5, 2.0, Pareto(3.0), 2, n, stream.child(1))
    rep = ks_two_sample(a[:, 0] / a[:, 1], b[:, 0] / b[:, 1])
    return GofReport("scale_cancellation", rep.statistic, rep.threshold)


def check_beta_gamma_algebra(seed: int) -> GofReport:
    """(T E)^(1/p) with Beta/exponential factors matches the Y marginal."""
    n = 10**4
    stream = _stream(seed, 8)
    margins = []
    for k, (alpha, p) in enumerate(((0.5, 1.0), (0.5, 2.0), (0.2, 3.0))):
        x = beta_gamma_sample(alpha, p, n, stream.child(2 * k))
        y = y_marginal_sample(alpha, p, stream.child(2 * k + 1).generator(), size=n)
        margins.append(_ks_margin(ks_two_sample(x, y)))
    return GofReport("beta_gamma_algebra", _worst(margins), 1.0)


def check_weighted_gaussian(seed: int) -> GofReport:
    """Symmetric signs, alpha_i = 1/2, p = 2, chi(d) radius give i.i.d. N(0,1).

    Note alpha_i = 1/2: the squared marginal factor must be chi-square with
    one degree of freedom, Gamma(1/2, 1/2), for the normalized vector to be
    uniform on the L_2 sphere.
    """
    d, n = 4, 10**4
    spec = WeightedSpec(base=LpSpec(alphas=(0.5,) * d, p=2.0), qs=(0.5,) * d)
    x = weighted_sample(spec, GammaPower(d / 2.0, 0.5, 0.5), n, _stream(seed, 9))
    margins = [_ks_margin(ks_one_sample(x[:, i], normal_cdf))
               for i in range(d)]
    margins.append(_max_offdiag_corr(x) / (3.0 / np.sqrt(n)))
    return GofReport("weighted_gaussian", _worst(margins), 1.0)


def check_random_p_sphere(seed: int) -> GofReport:
    """Each row of the random-exponent sampler satisfies its own sphere identity.

    As in :func:`check_sphere_constraint`, ``SPHERE_TOL`` (1e-12) is wide
    against the rounding, ~1e-14 here (9.1e-15 at seed 42).
    """
    n = 10**4
    spec = RandomPSpec(alphas=(0.5, 1.0, 1.5), p_law=Pareto(2.0))
    rows, exponents = random_p_sample(spec, PointMass(1.0), n, _stream(seed, 10))
    return GofReport("random_p_sphere", sphere_deviation(rows, exponents), SPHERE_TOL)


def check_mgb2_equivalence(seed: int) -> GofReport:
    """Scale-mixture and conditional MGB2 samplers agree in law."""
    n = 10**4
    model = MGB2Model(a=(2.0, 3.0), b=(1.0, 2.0), p=(1.5, 0.5),
                      theta_law=InvGamma(2.0))
    stream = _stream(seed, 11)
    x = mgb2_sample(model, n, stream.child(0))
    y = mgb2_conditional_sample(model, n, stream.child(1))
    margins = [_ks_margin(ks_two_sample(x[:, i], y[:, i]))
               for i in range(model.dim)]
    margins.append(_ks_margin(ks_two_sample(x.min(axis=1), y.min(axis=1))))
    return GofReport("mgb2_equivalence", _worst(margins), 1.0)


def check_clayton_identity(seed: int) -> GofReport:
    """Empirical joint survival of the exponential scale mixture matches
    (1 + x_1 + x_2)^(-a) on a 3 x 3 grid.

    The fixed tolerance 0.01 is about 6 binomial standard deviations: an
    empirical survival s at n = 1e5 has sd sqrt(s (1 - s) / n), at most
    0.0016 on this grid, so a false alarm is far rarer than in the KS
    checks.
    """
    n = 10**5
    spec = ClaytonSpec(theta_shape=1.0, d=2)
    sample = scale_mixture_exp_sample(spec, n, _stream(seed, 12))
    diffs = []
    for x1 in (0.25, 0.5, 1.0):
        for x2 in (0.25, 0.5, 1.0):
            emp = float(((sample[:, 0] > x1) & (sample[:, 1] > x2)).mean())
            diffs.append(abs(emp - archimedean_survival(spec, (x1, x2))))
    return GofReport("clayton_identity", _worst(diffs), 0.01)


def judge_convergence(rows: list[dict]) -> GofReport:
    """Verdict over a convergence table: the largest threshold holding at
    least 1000 exceedances (bounded relative error) must agree with the limit
    within max(10% of the limit, 3 combined standard errors)."""
    judged = [r for r in rows if r["exceedances"] >= JUDGE_EXCEEDANCES]
    if not judged:
        raise InsufficientTailDataError(
            f"no threshold reached {JUDGE_EXCEEDANCES} exceedances; "
            "increase n or lower the grid"
        )
    row = judged[-1]
    stat = abs(row["empirical_ratio"] - row["limit_estimate"])
    combined_se = float(np.hypot(row["stderr"], row["limit_stderr"]))
    threshold = max(0.1 * abs(row["limit_estimate"]), 3.0 * combined_se)
    return GofReport("breiman_tail_limit", stat, threshold)


#: The model points of ``breiman_tail_limit``, 1e6 rows each, with
#: b = p = 1: the exponential case (a = 1, Pareto(1), c = (1, 1), where the
#: limit is 1/2), then a = 0.5 with a Pareto(2.5) mixer at c = (2, 1), and
#: a = 2 with a Pareto(1.5) mixer at c = (1, 0.5). Only the first runs a
#: convergence table; the others need its limit columns alone.
_TAIL_POINTS = tuple(
    (MGB2Model(a=(a, a), b=(1.0, 1.0), p=(1.0, 1.0), theta_law=Pareto(q)),
     TailQuery(c1=c1, c2=c2, t_grid=(2.0, 4.0, 8.0), n=10**6))
    for a, q, c1, c2 in ((1.0, 1.0, 1.0, 1.0), (0.5, 2.5, 2.0, 1.0),
                         (2.0, 1.5, 1.0, 0.5))
)

#: Bound on |limit estimate - exact limit| / limit_stderr at each tail
#: point. A fixed 4 sigma: a two-sided normal tail of 6.3e-5 per point, far
#: below the false-alarm rate of the KS checks, until the suite's verdict
#: moves to p-values.
LIMIT_Z = 4.0


def _z_margin(estimate: float, se: float, exact: float) -> float:
    """|estimate - exact| / (LIMIT_Z se); inf when se is 0 and they differ."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(np.abs(estimate - exact) / (LIMIT_Z * np.float64(se)))


def check_breiman_limit(seed: int) -> GofReport:
    """Breiman's lemma at three model points that span a != 1, q != 1 and
    c_1 != c_2: each point's limit estimate within ``LIMIT_Z`` standard
    errors of the exact :func:`cdfs.breiman_limit`, and, in the exponential
    case, the prelimit at the judged threshold against the exact limit
    (:func:`judge_convergence` with limit_stderr 0). The prelimit is judged
    only there, where it is within 2e-4 of the limit from t = 8 on; at the
    other points the finite-t bias can exceed the 10% tolerance (at the
    second point the ratio is ~0.163 at t = 8 against a limit of 0.1104).
    So only the first point builds a :func:`tails.tail_convergence_table`;
    the other two take :func:`tails.tail_dependence_limit` on the table's
    own stream, whose estimate and standard error are those of the table,
    without its Theta draws and exceedance counts."""
    stream = _stream(seed, 13)
    margins = []
    for k, (model, query) in enumerate(_TAIL_POINTS):
        exact = breiman_limit(model, query.c1, query.c2)
        if k == 0:
            rows = tail_convergence_table(model, query, stream.child(k))
            # one limit per table: every row carries the same estimate
            margins.append(_z_margin(rows[0]["limit_estimate"],
                                     rows[0]["limit_stderr"], exact))
            margins.append(_ks_margin(judge_convergence(
                [dict(r, limit_estimate=exact, limit_stderr=0.0) for r in rows])))
        else:
            # the limit columns of this point's table, bit for bit
            margins.append(_z_margin(*tail_dependence_limit(
                model, query.c1, query.c2, query.n, stream.child(k).child(0)),
                exact))
    return GofReport("breiman_tail_limit", _worst(margins), 1.0)


def check_determinism(seed: int) -> GofReport:
    """Repeat runs and worker counts reproduce bit-identical output. Both
    comparisons span several blocks, so the 4-worker runs start a pool."""
    n = 3 * BLOCK_ROWS + 101
    spec = LpSpec(alphas=(1.0, 2.0), p=2.0)
    stream = _stream(seed, 14)

    def lp(workers):
        return lp_dirichlet_sample(spec, PointMass(1.0), n, stream.child(0), workers=workers)

    # one repeat at a time, and none left when the premium threads run: the
    # suite's peak memory stays where the earlier checks put it
    base = lp(1)
    same = [np.array_equal(base, lp(workers)) for workers in (1, 4)]
    del base

    mc1 = premium_mc(_SCALAR_SHIFT, [4.0], n, stream.child(1), workers=1)
    mc2 = premium_mc(_SCALAR_SHIFT, [4.0], n, stream.child(1), workers=4)
    same += [np.array_equal(one, four) for one, four in zip(mc1, mc2)]
    return GofReport("determinism", 0.0 if all(same) else 1.0, 0.0)


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


def builtin_verify_suite(seed: int = 42) -> tuple[GofReport, ...]:
    """Run every acceptance check on substreams of ``seed``."""
    return tuple(check(seed) for check in CHECKS)


def render_report(checks: tuple[GofReport, ...]) -> str:
    """One line per check: name,statistic,threshold,pass."""
    lines = [
        f"{c.test_name},{c.statistic:.17g},{c.threshold:.17g},"
        f"{'true' if c.passed else 'false'}"
        for c in checks
    ]
    return "\n".join(lines) + "\n"
