"""Built-in verification suite bundling every acceptance check.

Each check freezes its own substream of the run seed and returns a
:class:`GofReport`: one score per named sub-test (a margin, a pair, a
threshold, a model or a comparison) against the check's threshold. The
suite has one verdict rule: a check passes when its worst score, numpy's
max of the scores, is at most the threshold, so a nan score fails it, and
``GofReport.failing`` names the sub-tests above the threshold.

Each sub-test of the ten Monte Carlo checks (``STATISTICAL_CHECKS``)
gives a p-value, from ``cdfs.ks_pvalue`` for a KS distance,
``cdfs.normal_pvalue`` for a z-score or ``cdfs.chi2_pvalue`` for a Pearson
statistic over disjoint cells. In a check with k sub-tests each
scores -log10(min(1, k p)) against -log10(ALPHA_CHECK) (3), so the
check fails when min(1, k p_min) falls below ``ALPHA_CHECK`` (Bonferroni
within the check), and names each sub-test whose own adjusted p-value does.
``ALPHA_CHECK`` is ``ALPHA_SUITE`` = 0.01 split evenly over the ten
checks, 0.01/10, so on correct code the whole suite fails at one seed in
a hundred at most. A nan p-value, from a degenerate sub-test or from a KS
sample that holds a non-finite value, scores nan and fails its check.

The other four checks are rounding-level identities, scored by their raw
deviations against their own tolerances: ``premium_forms`` (1e-10, the
Gaussian premium against its noise-inverse form and against the
block-diagonal elliptical model, per model), ``sphere_constraint`` and
``random_p_sphere`` (``SPHERE_TOL``, 1e-12) and ``determinism`` (0 for
each comparison whose bits agree, 1 for one whose bits differ, against 0).

Every Monte Carlo sub-test compares one sample with an exact law that
shares no code with its sampler, through the ``cdfs`` distribution
functions and the closed-form premiums:

- ``scalar_premium_mc``: :func:`credibility.premium_gaussian` of the d = 1
  Gaussian model that :func:`credibility.premium_mc` samples, the kernel
  that ``premium_forms`` holds to two independent forms;
- ``elliptical_premium``: the definition (Y, Theta) = R U C + nu itself,
  under which the residual Theta - P(X) of the premium P has zero mean and
  zero product moments with X (the six orthogonality moments);
- ``beta_marginals``: :func:`cdfs.angular_marginal_cdf`;
- ``gamma_dirichlet_factorization`` and ``beta_gamma_algebra``: the Y
  marginal :func:`cdfs.y_marginal_cdf` (and zero correlation);
- ``scale_cancellation``: :func:`cdfs.beta_prime_cdf` for the ratio law;
- ``weighted_gaussian``: :func:`cdfs.normal_cdf` (and zero correlation);
- ``mgb2_equivalence``: :func:`cdfs.beta_prime_cdf` for each margin of
  both representations, and for the ratio of each one's two margins, whose
  common scale cancels;
- ``clayton_identity``: :func:`tails.archimedean_survival`, the closed-form
  survival of the Clayton rows, which :func:`tails.mgb2_sample` draws at
  a = b = p = 1, turned by inclusion-exclusion into the probabilities of 16
  disjoint cells, whose counts one chi-square judges at ``theta_shape`` = 2;
- ``breiman_tail_limit``: the exact joint-tail limit
  :func:`cdfs.breiman_limit`, which reads the mixer's tail index from the
  law itself and not through ``radial.regular_variation_index`` as the
  estimators do, and the exact prelimit at its exponential point.

Since no reference draws through the one Gamma kernel,
``samplers._std_gamma``, a fault there cannot cancel between a sample and
its reference: with the kernel drawing Gamma(1.15 shape), each of the eight
Gamma-based checks (all but ``scalar_premium_mc`` and
``elliptical_premium``, which draw no Gamma) fails.

The checks take no worker count: the samplers they call take it from
RISKSCALE_THREADS, and the bytes of a report do not depend on it.
:func:`check_determinism` alone passes explicit counts, to compare them.

Each Monte Carlo check holds at most one ``BLOCK_ROWS`` block of rows per
worker at a time, beyond its 1e4-row KS samples. Three hold more:
``elliptical_premium`` its 2e4 x 4 draws (0.64 MB an array),
``clayton_identity`` its 1e5 x 2 sample (1.6 MB), and
``determinism`` its (3 BLOCK_ROWS + 101)-row samples, which it compares
whole.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .cdfs import (
    angular_marginal_cdf,
    beta_prime_cdf,
    breiman_limit,
    chi2_pvalue,
    ks_pvalue,
    normal_cdf,
    normal_pvalue,
    y_marginal_cdf,
)
from .credibility import (
    EllipticalShiftModel,
    GaussianShiftModel,
    GenericShiftModel,
    premium_elliptical,
    premium_gaussian,
    premium_mc,
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
from .gof import GofReport, ks_one_sample
from .linalg import mat_inverse
from .radial import GammaPower, InvGamma, Pareto, PointMass
from .rng import BLOCK_ROWS, RngStream, reduce_blocks
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

#: The suite's false-alarm budget on correct code, split evenly over
#: ``STATISTICAL_CHECKS`` as ``ALPHA_CHECK``.
ALPHA_SUITE = 0.01


def _stream(seed: int, check_index: int) -> RngStream:
    return RngStream(seed, 100 + check_index)


def _bonferroni(name: str, pvalues: dict) -> GofReport:
    """The one statistical rule: each of the k labelled sub-test p-values
    scores -log10(min(1, k p)) against -log10(``ALPHA_CHECK``). The worst
    score is -log10(min(1, k p_min)), so the check passes when that is at
    least ``ALPHA_CHECK``, and it names each sub-test whose own adjusted
    p-value is below it. A nan p-value scores nan and fails."""
    adjusted = np.minimum(1.0, len(pvalues) * np.fromiter(pvalues.values(), float))
    with np.errstate(divide="ignore"):
        # 0.0 - x, not -x: a p-value of 1 reads 0, not -0
        scores = 0.0 - np.log10(adjusted)
    return GofReport(name, dict(zip(pvalues, scores)), -np.log10(ALPHA_CHECK))


def _ks(x, cdf) -> float:
    """The KS p-value of sample ``x`` against the exact CDF ``cdf``. It is nan,
    and fails its sub-test, when the sample holds a non-finite value, which
    ``gof.ks_one_sample`` refuses."""
    return ks_pvalue(ks_one_sample(x, cdf)) if np.isfinite(x).all() else np.nan


def _z_pvalues(estimate, se, exact) -> np.ndarray:
    """p-values of the z-scores (estimate - exact) / se, elementwise; a zero
    se gives p = 0 where the two differ and nan where they agree."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return normal_pvalue(np.divide(np.subtract(estimate, exact), se))


def _corr_pvalues(columns: np.ndarray) -> dict:
    """p-values of independence for each pair of columns, from the z-score
    r sqrt(n) of their correlation r, labelled ``corr(i,j)`` (from 1) in
    upper-triangle order."""
    corr = np.corrcoef(columns, rowvar=False)
    pairs = np.triu_indices_from(corr, k=1)
    return dict(zip((f"corr({i + 1},{j + 1})" for i, j in zip(*pairs)),
                    normal_pvalue(corr[pairs] * np.sqrt(len(columns)))))


#: Prior variance of ``_SCALAR_SHIFT``.
_TAU2 = 3.0
#: The d = 1 shift model of ``scalar_premium_mc`` and ``determinism``:
#: prior N(0, _TAU2), noise N(0, 1).
_SCALAR_SHIFT = GenericShiftModel(
    prior_density=lambda points: (np.exp(-points[:, 0] ** 2 / (2.0 * _TAU2))
                                  / np.sqrt(2.0 * np.pi * _TAU2)),
    noise_sampler=lambda gen, m: gen.standard_normal((m, 1)),
)
#: ``_SCALAR_SHIFT`` as a Gaussian shift model, whose closed-form premium is
#: the exact value of ``scalar_premium_mc``.
_SCALAR_GAUSSIAN = GaussianShiftModel(mu=[0.0], sigma=[[1.0]], sigma0=[[_TAU2]])


def check_scalar_premium_mc(seed: int) -> GofReport:
    """Monte Carlo premium against the closed form of the d = 1 Gaussian
    model, x + (mu - x) / (1 + _TAU2) = 3 at x = 4: one sub-test, the
    estimate z-scored by its delta-method standard error."""
    x = 4.0
    est, se = premium_mc(_SCALAR_SHIFT, [x], 10**6, _stream(seed, 1))
    exact = premium_gaussian(_SCALAR_GAUSSIAN, [x])[0]
    return _bonferroni("scalar_premium_mc", {f"x={x:g}": _z_pvalues(est[0], se[0], exact)})


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


def check_premium_forms(seed: int) -> GofReport:
    """The Gaussian premium against its two independent forms, 40 sub-tests.

    For each of 20 random 3 x 3 models one :func:`premium_gaussian` call
    goes through the one premium kernel, with S_XX = sigma + sigma0 and
    S_XTheta = sigma0. ``model r noise-inverse`` compares it with the
    noise-inverse form, which shares no code with the kernel;
    ``model r block-diagonal`` compares it with :func:`premium_elliptical`
    of the block-diagonal model whose blocks are the Cholesky factors of
    sigma and sigma0, whose moment form (nu_J, B_II, B_IJ) must reduce to
    (mu, sigma + sigma0, sigma0). Both differ only in rounding, ~1e-15
    (1.6e-15 at seed 42); the tolerance 1e-10 is wide by five orders of
    magnitude, so only a wrong formula or reduction fails it.
    """
    gen = _stream(seed, 2).generator()
    d, reps = 3, 20
    diffs = {}
    for r in range(reps):
        model = GaussianShiftModel(mu=gen.standard_normal(d),
                                   sigma=_random_pd(gen, d),
                                   sigma0=_random_pd(gen, d))
        x = gen.standard_normal(d)
        kernel = premium_gaussian(model, x)
        c = np.zeros((2 * d, 2 * d))
        c[:d, :d] = np.linalg.cholesky(model.sigma).T
        c[d:, d:] = np.linalg.cholesky(model.sigma0).T
        elliptical = EllipticalShiftModel(c=c, nu=np.concatenate([np.zeros(d), model.mu]))
        for form, other in (("noise-inverse", _premium_gaussian_noise_inverse(model, x)),
                            ("block-diagonal", premium_elliptical(elliptical, x))):
            diffs[f"model {r + 1} {form}"] = np.abs(other - kernel).max()
    return GofReport("premium_forms", diffs, 1e-10)


#: The model of ``elliptical_premium``: the C and nu of the
#: ``elliptical_corr`` golden config, with every block of C nonzero.
_ELLIPTICAL = EllipticalShiftModel(c=[[1.0, 0.2, 0.3, -0.1], [0.1, 1.0, 0.2, 0.4],
                                      [0.3, -0.2, 1.0, 0.2], [0.25, 0.4, 0.1, 1.0]],
                                   nu=[0.0, 0.0, 2.0, 1.0])


def check_elliptical_premium(seed: int) -> GofReport:
    """The elliptical premium against the model's definition, by orthogonality.

    (Y, Theta) = R U C + nu is drawn straight from ``_ELLIPTICAL.c``, with U
    a normalized standard normal 4-vector and R ~ Pareto(6), whose finite
    fourth moment the z-scores need, and X = Y + Theta. The premium is
    affine, P(x) = P(0) + x M, with M's rows P(e_j) - P(0), so three
    :func:`premium_elliptical` calls give it at every row. In an elliptical
    model E[Theta | X] is the linear projection of Theta on (1, X), so the
    residual e = Theta - P(X) satisfies its normal equations: each of the
    six moments E[e_k] and E[e_k X_j] is 0, z-scored by its sample standard
    deviation, 6 sub-tests. Every n-row product is an einsum or an
    elementwise product, never BLAS, so the bytes do not depend on its
    thread count.
    """
    model, n = _ELLIPTICAL, 2 * 10**4
    d = model.dim
    gen = _stream(seed, 3).generator()
    u = gen.standard_normal((n, 2 * d))
    u /= np.sqrt(np.einsum("ni,ni->n", u, u))[:, None]
    r = Pareto(6.0).sample(gen, n)
    y_theta = r[:, None] * np.einsum("ni,ij->nj", u, model.c) + model.nu
    theta, x = y_theta[:, d:], y_theta[:, :d] + y_theta[:, d:]
    p0 = premium_elliptical(model, np.zeros(d))
    m = np.array([premium_elliptical(model, e_j) - p0 for e_j in np.eye(d)])
    e = theta - p0 - np.einsum("nj,jk->nk", x, m)
    # e_k times each of (1, X_1, X_2): the normal equations, row by row
    moments = np.einsum("nk,nj->nkj", e, np.column_stack([np.ones(n), x])).reshape(n, -1)
    labels = [f"E[e{k}{v}]" for k in (1, 2) for v in ("", " X1", " X2")]
    return _bonferroni("elliptical_premium", dict(zip(labels, _z_pvalues(
        moments.mean(axis=0), moments.std(axis=0) / np.sqrt(n), 0.0))))


def check_sphere_constraint(seed: int) -> GofReport:
    """Angular draws stay on the unit L_p sphere to ``SPHERE_TOL``.

    ``SPHERE_TOL`` (1e-12) is wide against the rounding of a row's p-th
    power sum, ~1e-15 (4.4e-16 at seed 42): a row off the sphere by more
    is a sampler fault, never chance.

    The 1e5 rows are drawn and checked one block at a time; numpy's maximum
    combines the blocks, so a nan in any block makes the statistic nan.
    """
    spec = LpSpec(alphas=_ALPHAS, p=3.0)

    def deviation(block, lo, hi):
        return sphere_deviation(angular_sample(spec, block.generator(), size=hi - lo),
                                spec.p)

    worst = reduce_blocks(_stream(seed, 4), 10**5, deviation, np.maximum)
    return GofReport("sphere_constraint", {f"p={spec.p:g}": worst}, SPHERE_TOL)


def check_beta_marginals(seed: int) -> GofReport:
    """Each O_i^p follows Beta(alpha_i, sum of the others), for two exponents:
    KS of O_i against :func:`angular_marginal_cdf`, 10 sub-tests."""
    n = 10**4
    pvalues = {}
    stream = _stream(seed, 5)
    for k, p in enumerate((1.0, 2.7)):
        spec = LpSpec(alphas=_ALPHAS, p=p)
        o = angular_sample(spec, stream.child(k).generator(), size=n)
        for i in range(spec.dim):
            pvalues[f"p={p:g} O{i + 1}"] = _ks(
                o[:, i], lambda v, i=i: angular_marginal_cdf(spec, i, v))
    return _bonferroni("beta_marginals", pvalues)


def check_factorization(seed: int) -> GofReport:
    """With the Gamma-power radius, scaled angular components are independent
    with the Y marginals: KS of each X_i against :func:`cdfs.y_marginal_cdf`
    plus the correlation of each pair of p-powers, 15 sub-tests."""
    n = 10**4
    p = 3.0
    spec = LpSpec(alphas=_ALPHAS, p=p)
    radial = GammaPower(sum(_ALPHAS), 1.0 / p, 1.0 / p)
    x = lp_dirichlet_sample(spec, radial, n, _stream(seed, 6).child(20))
    pvalues = {f"X{i + 1}": _ks(x[:, i], partial(y_marginal_cdf, alpha, p))
               for i, alpha in enumerate(_ALPHAS)}
    return _bonferroni("gamma_dirichlet_factorization",
                       {**pvalues, **_corr_pvalues(x ** p)})


def check_scale_cancellation(seed: int) -> GofReport:
    """The law of X_1/X_2 does not depend on the common scale law: KS of
    (X_1/X_2)^p against Beta-prime(alpha, alpha), :func:`cdfs.beta_prime_cdf`,
    with no scale and under a Pareto(1) scale, 2 sub-tests.

    The scale is heavy so that a scale drawn per component would show: log S
    then has variance 1 per component, beside ~2.5 for log(Y_1/Y_2), and the
    ratio's law moves far past the KS resolution of 1e4 rows. Under a
    Pareto(3) scale (variance 1/9) such a fault usually passed.
    """
    n = 10**4
    alpha, p = 0.5, 2.0
    stream = _stream(seed, 7)
    pvalues = {}
    for k, (label, scale) in enumerate((("S=1", PointMass(1.0)), ("S~Pareto(1)", Pareto(1.0)))):
        x = random_scale_sequence_sample(alpha, p, scale, 2, n, stream.child(k))
        pvalues[label] = _ks((x[:, 0] / x[:, 1]) ** p, partial(beta_prime_cdf, alpha, alpha))
    return _bonferroni("scale_cancellation", pvalues)


def check_beta_gamma_algebra(seed: int) -> GofReport:
    """(T E)^(1/p) with Beta/exponential factors follows the Y marginal: KS
    against :func:`cdfs.y_marginal_cdf` at three (alpha, p), 3 sub-tests."""
    n = 10**4
    stream = _stream(seed, 8)
    pvalues = {}
    for k, (alpha, p) in enumerate(((0.5, 1.0), (0.5, 2.0), (0.2, 3.0))):
        x = beta_gamma_sample(alpha, p, n, stream.child(2 * k))
        pvalues[f"alpha={alpha:g} p={p:g}"] = _ks(x, partial(y_marginal_cdf, alpha, p))
    return _bonferroni("beta_gamma_algebra", pvalues)


def check_weighted_gaussian(seed: int) -> GofReport:
    """Symmetric signs, alpha_i = 1/2, p = 2, chi(d) radius give i.i.d. N(0,1):
    KS of each margin against the normal CDF plus the correlation of each
    pair, 10 sub-tests.

    Note alpha_i = 1/2: the squared marginal factor must be chi-square with
    one degree of freedom, Gamma(1/2, 1/2), for the normalized vector to be
    uniform on the L_2 sphere.
    """
    d, n = 4, 10**4
    spec = WeightedSpec(base=LpSpec(alphas=(0.5,) * d, p=2.0), qs=(0.5,) * d)
    x = weighted_sample(spec, GammaPower(d / 2.0, 0.5, 0.5), n, _stream(seed, 9))
    pvalues = {f"X{i + 1}": _ks(x[:, i], normal_cdf) for i in range(d)}
    return _bonferroni("weighted_gaussian", {**pvalues, **_corr_pvalues(x)})


def check_random_p_sphere(seed: int) -> GofReport:
    """Each row of the random-exponent sampler satisfies its own sphere identity.

    As in :func:`check_sphere_constraint`, ``SPHERE_TOL`` (1e-12) is wide
    against the rounding, ~1e-14 here (9.1e-15 at seed 42).
    """
    n = 10**4
    spec = RandomPSpec(alphas=(0.5, 1.0, 1.5), p_law=Pareto(2.0))
    rows, exponents = random_p_sample(spec, PointMass(1.0), n, _stream(seed, 10))
    return GofReport("random_p_sphere", {"rows": sphere_deviation(rows, exponents)}, SPHERE_TOL)


def check_mgb2_equivalence(seed: int) -> GofReport:
    """The paper's two MGB2 representations, the scale mixture
    :func:`tails.mgb2_sample` and the conditional
    :func:`tails.mgb2_conditional_sample`, each have the exact law. Both write
    Z_i = (X_i/b_i)^(a_i) = Theta G_i with G_i ~ Gamma(p_i): with an
    InvGamma(q) mixer each margin Z_i = G_i / G_q is Beta-prime(p_i, q), and
    whatever the mixer, Theta cancels in Z_1/Z_2 = G_1/G_2, which is
    Beta-prime(p_1, p_2), :func:`cdfs.beta_prime_cdf`. Each of the two margins
    and their ratio is KS-tested for each sampler: 6 sub-tests. The margins
    alone cannot see a sampler that draws a fresh Theta per column; the ratio
    does, and names that sampler."""
    n = 10**4
    q = 2.0
    model = MGB2Model(a=(2.0, 3.0), b=(1.0, 2.0), p=(1.5, 0.5),
                      theta_law=InvGamma(q))
    stream = _stream(seed, 11)
    pvalues = {}
    for name, rows in (("mixture", mgb2_sample(model, n, stream.child(0))),
                       ("conditional", mgb2_conditional_sample(model, n, stream.child(1)))):
        z = [(rows[:, i] / model.b[i]) ** model.a[i] for i in range(model.dim)]
        pvalues.update({f"{name} X{i + 1}": _ks(z_i, partial(beta_prime_cdf, model.p[i], q))
                        for i, z_i in enumerate(z)})
        pvalues[f"{name} X1/X2"] = _ks(z[0] / z[1], partial(beta_prime_cdf, *model.p))
    return _bonferroni("mgb2_equivalence", pvalues)


#: The cuts of ``clayton_identity`` on each axis: the cells (a_i, a_(i+1)] of
#: 0 < 0.25 < 0.5 < 1 < inf, 4 x 4 = 16 disjoint cells.
_CLAYTON_CUTS = (0.25, 0.5, 1.0)


def _clayton_cell_probabilities(spec: ClaytonSpec) -> np.ndarray:
    """The 16 cell probabilities of ``_CLAYTON_CUTS`` in row-major order, by
    inclusion-exclusion on the exact survival S(x_1, x_2) =
    P(X_1 > x_1, X_2 > x_2) at the cell corners, with S = 0 at inf."""
    edges = (0.0, *_CLAYTON_CUTS)
    surv = np.zeros((len(edges) + 1,) * 2)
    surv[:-1, :-1] = [[archimedean_survival(spec, (x1, x2)) for x2 in edges] for x1 in edges]
    return np.diff(np.diff(surv, axis=0), axis=1).ravel()


def check_clayton_identity(seed: int) -> GofReport:
    """The Clayton rows have the joint survival (1 + x_1 + x_2)^(-a) at
    a = 2: one sub-test, the Pearson chi-square of the 1e5 rows' counts in
    the 16 disjoint cells of ``_CLAYTON_CUTS`` against their exact
    probabilities, on 15 degrees of freedom.

    The sample is :func:`tails.mgb2_sample` at a = b = p = 1 with an
    InvGamma(a) mixer, the Clayton case of the MGB2 vector; the exact
    survival, :func:`tails.archimedean_survival`, is a closed form that
    draws nothing. At a = 2 the mixer's shape shows: one drawn as
    InvGamma(1) whatever a says fails. The smallest cell probability is
    3.75%, so every expected count is above 3700.
    """
    n, side = 10**5, len(_CLAYTON_CUTS) + 1
    spec = ClaytonSpec(theta_shape=2.0, d=2)
    # cut index i on each axis: a_(i-1) < x <= a_i, the strict events of S
    cells = np.searchsorted(_CLAYTON_CUTS, scale_mixture_exp_sample(spec, n, _stream(seed, 12)))
    counts = np.bincount(cells @ (side, 1), minlength=side**2)  # row-major, as the probabilities
    expected = n * _clayton_cell_probabilities(spec)
    stat = np.sum((counts - expected) ** 2 / expected)
    return _bonferroni("clayton_identity", {"chi2 16 cells": chi2_pvalue(stat, side**2 - 1)})


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


def _exponential_prelimit(t):
    """The exact ratio P(X_1 > t, X_2 > t) / P(X_1 > t) at the first tail
    point: with W_i ~ Exp(1) and Theta ~ Pareto(1), it is
    E[e^(-2t/Theta)] / E[e^(-t/Theta)] = (1 + e^(-t)) / 2, since
    E[e^(-s/Theta)] = (1 - e^(-s)) / s."""
    return 0.5 * (1.0 + np.exp(-t))


def check_breiman_limit(seed: int) -> GofReport:
    """Breiman's lemma at three model points that span a != 1, q != 1 and
    c_1 != c_2: 6 sub-tests. Each point's limit estimate is z-scored by its
    standard error against the exact :func:`cdfs.breiman_limit`. At the
    exponential point, each row of the convergence table, at t = 2, 4 and
    8, is z-scored by its standard error against the exact prelimit
    :func:`_exponential_prelimit`; a row the table dropped has a nan
    p-value and fails the check. Only that point builds a
    :func:`tails.tail_convergence_table`; the other two take
    :func:`tails.tail_dependence_limit` on the table's own stream, whose
    estimate and standard error are those of the table, without its Theta
    draws and exceedance counts."""
    stream = _stream(seed, 13)
    terms = []  # (label, estimate, standard error, exact value) per sub-test
    for k, (model, query) in enumerate(_TAIL_POINTS):
        exact = breiman_limit(model, query.c1, query.c2)
        if k == 0:
            rows = tail_convergence_table(model, query, stream.child(k))
            # one limit per table: every row carries the same estimate
            terms.append(("P0 limit", rows[0]["limit_estimate"], rows[0]["limit_stderr"],
                          exact))
            ratios = {row["t"]: (row["empirical_ratio"], row["stderr"]) for row in rows}
            terms += [(f"P0 t={t:g} prelimit", *ratios.get(t, (np.nan, np.nan)),
                       _exponential_prelimit(t)) for t in query.t_grid]
        else:
            # the limit columns of this point's table, bit for bit
            terms.append((f"P{k} limit", *tail_dependence_limit(
                model, query.c1, query.c2, query.n, stream.child(k).child(0)), exact))
    labels, *columns = zip(*terms)
    return _bonferroni("breiman_tail_limit", dict(zip(labels, _z_pvalues(*columns))))


def check_determinism(seed: int) -> GofReport:
    """Repeat runs and worker counts reproduce bit-identical output: each of
    the four comparisons, two of an L_p-Dirichlet sample and the premium's
    estimate and standard error, scores 1 when its bits differ, against 0.
    Both samplers' runs span several blocks, so the 2-worker runs start a pool,
    with all four blocks in flight at once (the pool keeps up to twice its
    workers in flight)."""
    n = 3 * BLOCK_ROWS + 101
    spec = LpSpec(alphas=(1.0, 2.0), p=2.0)
    stream = _stream(seed, 14)

    def lp(workers):
        return lp_dirichlet_sample(spec, PointMass(1.0), n, stream.child(0), workers=workers)

    # one repeat at a time, and none left when the premium threads run. This
    # check sets the suite's peak memory: its n-row samples, and the malloc
    # arena each pool thread keeps after it exits, so it asks for no more
    # workers than the 2 the golden tests and CI compare
    base = lp(1)
    differ = {f"lp 1 vs {w} workers": not np.array_equal(base, lp(w)) for w in (1, 2)}
    del base

    mc1 = premium_mc(_SCALAR_SHIFT, [4.0], n, stream.child(1), workers=1)
    mc2 = premium_mc(_SCALAR_SHIFT, [4.0], n, stream.child(1), workers=2)
    for name, one, two in zip(("estimate", "stderr"), mc1, mc2):
        differ[f"premium_mc {name} 1 vs 2 workers"] = not np.array_equal(one, two)
    return GofReport("determinism", differ, 0.0)


CHECKS = (
    check_scalar_premium_mc,
    check_premium_forms,
    check_elliptical_premium,
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

#: The ten Monte Carlo checks judged by :func:`_bonferroni`, in report order;
#: the four left out are rounding-level identities with tolerances of their own.
STATISTICAL_CHECKS = tuple(check for check in CHECKS if check not in (
    check_premium_forms, check_sphere_constraint, check_random_p_sphere,
    check_determinism))

#: The false-alarm level of each statistical check: ``ALPHA_SUITE`` split
#: evenly over them (Bonferroni across the suite).
ALPHA_CHECK = ALPHA_SUITE / len(STATISTICAL_CHECKS)


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

