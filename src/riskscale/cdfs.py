"""Reference distribution functions, limits and p-values used as oracles.

These are the *checking* side of every sampler/CDF pair: variates come from
numpy ``Generator`` kernels, while the CDFs lean on ``scipy.special``'s
incomplete beta routine and error function, so the two routes stay
independent. :func:`breiman_limit` is the exact joint-tail limit that the
Monte Carlo estimates of ``tails`` are checked against; it integrates
``scipy.special``'s incomplete Gamma function by a trapezoid rule in numpy,
without ``scipy.integrate``.

Every statistical sub-test of ``verify`` ends in a p-value from one of two
functions here: :func:`ks_pvalue` for a KS distance of either kind, and
:func:`normal_pvalue`, the two-sided normal tail, for every z-score (a
correlation r sqrt(n), a Monte Carlo estimate against its exact value in
units of its standard error, a binomial frequency against its probability).
``verify`` turns them into verdicts by its one rule.

This is the one module of the package that imports scipy, and within the
package only ``verify`` imports it: the simulation side (the samplers, and
the CLI's ``sample``, ``premium`` and ``taildep``) needs numpy only.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np
from scipy import special

from .errors import ParameterError
from .samplers import _require_positive
from .tails import _check_limit_regime

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


def normal_cdf(x):
    return special.ndtr(np.asarray(x, dtype=float))


def beta_cdf(x, a, b):
    x = np.clip(np.asarray(x, dtype=float), 0.0, 1.0)
    return special.betainc(a, b, x)


def angular_marginal_cdf(spec: LpSpec, i: int, x):
    """P(O_i <= x): Beta CDF of x^p with parameters (alpha_i, sum of the rest).

    ``i`` is a 0-based component index. For d = 1 the component is the
    constant 1 and the CDF is a step there.
    """
    if not 0 <= i < spec.dim:
        raise ParameterError(f"component index {i} out of range for d={spec.dim}")
    x = np.asarray(x, dtype=float)
    if spec.dim == 1:
        return np.where(x >= 1.0, 1.0, 0.0)
    rest = sum(spec.alphas) - spec.alphas[i]
    inside = np.clip(x, 0.0, 1.0) ** spec.p
    return np.where(x <= 0.0, 0.0, np.where(x >= 1.0, 1.0,
                    beta_cdf(inside, spec.alphas[i], rest)))


#: Trapezoid step of :func:`breiman_limit` in t = log(s / lam), for
#: p_max + q <= 1; it shrinks as 1 / sqrt(p_max + q) above that.
LIMIT_STEP = 0.35

#: Bound on the integrand's mass that :func:`breiman_limit` leaves out left
#: of its range, in units of lam^q.
_LIMIT_TAIL = 1e-18


def breiman_limit(model: MGB2Model, c1: float, c2: float) -> float:
    """Exact Breiman limit I(c_1, c_2) = E[min(W_1/c_1, W_2/c_2)^(aq)] / E[W_1^(aq)].

    The model is one that ``tails.tail_convergence_table`` accepts: a_1 = a_2
    = a and a mixer of regular-variation index q. With W_i = b_i G_i^(1/a),
    G_i ~ Gamma(p_i, 1), the numerator is E[V^q] for V = min(lam_1 G_1,
    lam_2 G_2), lam_i = (b_i / c_i)^a, so

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
    a, q = _check_limit_regime(model)
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
