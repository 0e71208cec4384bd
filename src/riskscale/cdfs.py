"""Reference distribution functions, limits and p-values used as oracles.

These are the *checking* side of every sampler/CDF pair: variates come from
numpy ``Generator`` kernels, while the CDFs lean on ``scipy.special``'s
incomplete beta and Gamma routines and error function, so the two routes
stay independent. :func:`breiman_limit` is the exact joint-tail limit that the
Monte Carlo estimates of ``tails`` are checked against; it integrates
``scipy.special``'s incomplete Gamma function by a trapezoid rule in numpy,
without ``scipy.integrate``. It reads the mixer's tail index from the law
itself and calls no code of ``tails``, so the estimate and its reference
share no implementation.

Every statistical sub-test of ``verify`` ends in a p-value from one of three
functions here: :func:`ks_pvalue` for a one-sample KS distance,
:func:`normal_pvalue`, the two-sided normal tail, for every z-score (a
correlation r sqrt(n), or a Monte Carlo estimate against its exact value in
units of its standard error), and :func:`chi2_pvalue` for a Pearson
statistic over disjoint cells. ``verify`` turns them into verdicts by its
one rule.

This is the one module of the package that imports scipy, and within the
package only ``verify`` imports it: the simulation side (the samplers, and
the CLI's ``sample``, ``premium`` and ``taildep``) needs numpy only.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np
from scipy import special

from .errors import ParameterError, UnsupportedModelError
from .radial import InvGamma, Pareto
from .rng import _require_int
from .samplers import _require_positive

if TYPE_CHECKING:
    from .dirichlet import LpSpec
    from .tails import MGB2Model


def ks_pvalue(ks) -> float:
    """Asymptotic p-value of a ``gof`` KS statistic, one- or two-sample:
    the Kolmogorov survival function at D sqrt(n_eff). At the old fixed
    critical value D sqrt(n) = 1.6276 it is 0.01."""
    return float(special.kolmogorov(ks.statistic * np.sqrt(ks.n_eff)))


def normal_pvalue(z):
    """Two-sided normal p-value 2 Phi(-|z|), elementwise: 0 at |z| = inf and
    nan at a nan z."""
    return 2.0 * special.ndtr(-np.abs(z))


def chi2_pvalue(stat, df):
    """Upper tail P(chi^2_df > stat) of a Pearson statistic with ``df``
    degrees of freedom, elementwise: 1 at stat = 0 and nan at a nan stat."""
    return special.chdtrc(df, stat)


def normal_cdf(x):
    return special.ndtr(np.asarray(x, dtype=float))


def beta_cdf(x, a, b):
    x = np.clip(np.asarray(x, dtype=float), 0.0, 1.0)
    return special.betainc(a, b, x)


def angular_marginal_cdf(spec: LpSpec, i: int, x):
    """P(O_i <= x): Beta CDF of x^p with parameters (alpha_i, sum of the rest).

    ``i`` is a 0-based component index, an integer by the package's one
    integer rule (``rng._require_int``). For d = 1 the component is the
    constant 1 and the CDF is a step there.
    """
    i = _require_int("i", i, 0)
    if i >= spec.dim:
        raise ParameterError(f"component index {i} out of range for d={spec.dim}", "i")
    x = np.asarray(x, dtype=float)
    if spec.dim == 1:
        return np.where(x >= 1.0, 1.0, 0.0)
    rest = sum(spec.alphas) - spec.alphas[i]
    inside = np.clip(x, 0.0, 1.0) ** spec.p
    return np.where(x <= 0.0, 0.0, np.where(x >= 1.0, 1.0,
                    beta_cdf(inside, spec.alphas[i], rest)))


def y_marginal_cdf(alpha, p, x):
    """P(Y <= x) for the Y marginal, Y^p ~ Gamma(alpha, rate 1/p), whose
    density is p^(1-alpha)/Gamma(alpha) x^(p alpha - 1) e^(-x^p/p): the
    regularized lower incomplete Gamma function at x^p / p. It is the law of
    each X_i of an L_p-Dirichlet row with the GammaPower(sum alpha, 1/p, 1/p)
    radius, of the Beta-Gamma product (T E)^(1/p), and of each factor of a
    random-scale sequence before its scale."""
    x = np.clip(np.asarray(x, dtype=float), 0.0, None)
    with np.errstate(over="ignore"):  # x^p past the float range is inf, where the CDF is 1
        return special.gammainc(alpha, x ** p / p)


def beta_prime_cdf(a, b, z):
    """P(Z <= z) for the Beta-prime law of Z = G_a / G_b, independent Gammas of
    shapes a and b and one rate: the Beta(a, b) CDF at z / (1 + z). It is the
    law of (X_1/X_2)^p for two factors of a random-scale sequence, whatever
    the scale, of each MGB2 margin (X_i/b_i)^(a_i) under an InvGamma(b)
    mixer, and of the ratio of two such margins, whatever the mixer."""
    z = np.clip(np.asarray(z, dtype=float), 0.0, None)
    # z / (1 + z) is 1 at z = inf, not inf / inf
    return special.betainc(a, b, np.divide(z, 1.0 + z, out=np.ones_like(z), where=z != np.inf))


#: Trapezoid step of :func:`breiman_limit` in t = log(s / lam), for
#: p_max + q <= 1; it shrinks as 1 / sqrt(p_max + q) above that.
LIMIT_STEP = 0.35

#: Bound on the integrand's mass that :func:`breiman_limit` leaves out left
#: of its range, in units of lam^q.
_LIMIT_TAIL = 1e-18


def breiman_limit(model: MGB2Model, c1: float, c2: float) -> float:
    """Exact Breiman limit I(c_1, c_2) = E[min(W_1/c_1, W_2/c_2)^(aq)] / E[W_1^(aq)].

    The model is one that ``tails.tail_convergence_table`` accepts: at least
    two components with a_1 = a_2 = a, and a Pareto(q) or InvGamma(q) mixer;
    anything else raises UnsupportedModelError. The oracle reads the tail
    index q from the law itself (its ``index`` or ``shape``), not through
    ``radial.regular_variation_index``, which the estimators use, so a wrong
    index there moves the estimate and not its reference.

    With W_i = b_i G_i^(1/a), G_i ~ Gamma(p_i, 1), the numerator is E[V^q]
    for V = min(lam_1 G_1, lam_2 G_2), lam_i = (b_i / c_i)^a, so

        E[V^q] = int_0^inf q s^(q-1) Q(p_1, s/lam_1) Q(p_2, s/lam_2) ds,

    with Q the regularized upper incomplete Gamma function (``gammaincc``),
    and the denominator is b_1^(aq) Gamma(p_1 + q) / Gamma(p_1). For W_i ~
    Exp(1) (a = b = p = 1) this is (c_1 + c_2)^(-q).

    The substitution s = lam e^t, with lam = 1 / (1/lam_1 + 1/lam_2), turns
    the integrand into q e^(qt) Q(p_1, e^t lam/lam_1) Q(p_2, e^t lam/lam_2):
    the s^(q-1) singularity at s = 0 is gone for every q > 0, and the
    integrand is analytic in a strip about the real line and decays
    exponentially at both ends. On such integrands the trapezoid rule
    converges geometrically in 1 / step (Trefethen & Weideman, SIAM Review
    2014), so halving ``LIMIT_STEP`` shows the rule's error. The range runs
    from t = log(1e-18) / q, left of which the integrand holds less than 1e-18
    lam^q, to t = log(4 (p_max + q) + 100), right of which the factor of the
    smaller lam_i (argument at least e^t / 2) is below 1e-20. Accurate to
    ~1e-12 relative for p_i >= 0.01 and 0.06 <= q <= 100; below that range
    e^t underflows before the left end, above it e^(qt) loses the scale.
    """
    law = model.theta_law
    if model.dim < 2 or model.a[0] != model.a[1]:
        raise UnsupportedModelError(f"the limit needs a_1 = a_2, got a = {model.a}", "a")
    if not isinstance(law, (Pareto, InvGamma)):
        raise UnsupportedModelError(
            f"{type(law).__name__} is not a recognized regularly varying law", "theta_law")
    a, q = model.a[0], law.index if isinstance(law, Pareto) else law.shape
    c = (_require_positive("c1", c1), _require_positive("c2", c2))
    p = model.p[:2]
    lams = [(b / c_i) ** a for b, c_i in zip(model.b, c)]
    lam = 1.0 / (1.0 / lams[0] + 1.0 / lams[1])
    h = LIMIT_STEP / np.sqrt(max(1.0, max(p) + q))
    t_hi = np.log(4.0 * (max(p) + q) + 100.0)
    t = np.arange(t_hi, np.log(_LIMIT_TAIL) / q, -h)
    x = np.exp(t)
    # e^(q t) is scaled by e^(-q t_hi) so that it cannot overflow
    terms = (np.exp(q * (t - t_hi)) * special.gammaincc(p[0], x * (lam / lams[0]))
             * special.gammaincc(p[1], x * (lam / lams[1])))
    log_scale = (q * (t_hi + np.log(lam) - a * np.log(model.b[0]))
                 + special.gammaln(p[0]) - special.gammaln(p[0] + q))
    return float(q * h * terms.sum() * np.exp(log_scale))
