"""Random-scale dependence models and their joint-tail behavior.

Covers the MGB2-type positive risk vector Theta^(1/a_i) * W_i with its
conditional-density sampling route; the Gamma-mixed exponential scale
mixture (whose survival copula is the Clayton/Archimedean family), which is
that vector at a = b = p = 1 with an InvGamma(theta_shape) mixer and is
drawn by ``mgb2_sample``; and the empirical/limit comparison of the joint
tail ratio P(X_1 > c_1 t, X_2 > c_2 t) / P(X_1 > t), whose limit under a
regularly varying mixer is
I(c_1, c_2) = E[min(W_1/c_1, W_2/c_2)^(aq)] / E[W_1^(aq)] (Breiman's lemma).

The tail estimators stream through ``rng.reduce_blocks``, so their memory
is bounded at any sample size n. ``tail_dependence_limit`` reduces
per-block ratio-of-means moments of the W factors for one (c_1, c_2) pair,
merged by the pairwise update of Chan, Golub & LeVeque (1979,
``RatioMoments.merge``). ``tail_convergence_table`` reads only
``stream.child(0)``: each block draws exactly the random numbers that
``mgb2_sample`` would, takes the limit's moments from the unscaled W_1, W_2
(the limit depends on W alone), then scales them by Theta^(1/a_i) and
counts the exceedances, so one pass gives both columns. Both estimators
draw W from ``block.child(1)`` of each block, the address ``mgb2_sample``
uses, so ``tail_dependence_limit(model, c1, c2, n, stream.child(0))``
gives bit for bit the limit columns of ``tail_convergence_table(model,
query, stream)`` at ``query.n = n``, without the Theta draws and the
exceedance counts. The tail estimators draw only W_1 and W_2 (the columns
they read): W_3..W_d come after them from the same generator, so leaving
them out changes no bit.

Per block, the MGB2 code works on the d components as separate contiguous
columns; only ``mgb2_sample`` stacks them into the (m, d) rows it returns.
Every elementwise step applies the same floating-point operation to the
same operands as the plain operator form (``theta ** (1 / a_i) * w_i`` and
so on), so the output bits are those of that form. Theta and W_i are raised
to the one power 1/a_i, each with a scalar exponent (see
:func:`_scale_by_theta`), and in-place ufuncs write only into arrays the
function has just allocated. Steps by a factor, divisor or exponent of
exactly 1 (b_i = 1, a_i = 1, c = 1, aq = 1, a unit Gamma rate) are skipped
through ``samplers._scale`` and ``samplers._power``, and Theta multiplies
W_i directly at a_i = 1: x * 1, x / 1 and pow(x, 1) are x bit for bit, so
skipping them leaves the output bits as they were.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    InsufficientTailDataError,
    ParameterError,
    RiskscaleError,
    UnsupportedModelError,
)
from .moments import RatioMoments
from .radial import InvGamma, RadialLaw, regular_variation_index
from .rng import RngStream, _require_int, map_blocks, reduce_blocks
from .samplers import _positive_tuple, _power, _require_positive, _scale, gamma_sample


@dataclass(frozen=True)
class ClaytonSpec:
    """Gamma(theta_shape, 1) mixer dividing d unit exponentials."""

    theta_shape: float
    d: int

    def __post_init__(self):
        object.__setattr__(self, "theta_shape",
                           _require_positive("theta_shape", self.theta_shape))
        object.__setattr__(self, "d", _require_int("d", self.d, 1))


def archimedean_survival(spec: ClaytonSpec, x) -> float:
    """Joint survival P(X_1 > x_1, ..., X_d > x_d) = (1 + sum x_i)^(-a)."""
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.size != spec.d:
        raise ParameterError(f"x has length {x.size}, expected {spec.d}", "x")
    if np.any(x < 0.0) or not np.isfinite(x).all():
        raise ParameterError("coordinates must be finite and nonnegative", "x")
    return float((1.0 + x.sum()) ** (-spec.theta_shape))


@dataclass(frozen=True)
class MGB2Model:
    """Positive risks Theta^(1/a_i) * W_i with Gamma-power factors W_i.

    W_i^(a_i) ~ Gamma(p_i, b_i^(-a_i)), realized as W_i = b_i * G^(1/a_i)
    with G ~ Gamma(p_i, 1) (the two parameterizations coincide in law).
    ``theta_law`` is InvGamma(q) in the classical case; any positive law is
    accepted for sampling.
    """

    a: tuple[float, ...]
    b: tuple[float, ...]
    p: tuple[float, ...]
    theta_law: RadialLaw

    def __post_init__(self):
        for name in ("a", "b", "p"):
            object.__setattr__(self, name, _positive_tuple(name, getattr(self, name)))
            if len(getattr(self, name)) != len(self.a):
                raise ParameterError("a, b, p must be lists of equal length", name)
        if not isinstance(self.theta_law, RadialLaw):
            raise ParameterError("theta_law must be a RadialLaw", "theta_law")

    @property
    def dim(self) -> int:
        return len(self.a)


def _w_factors(model: MGB2Model, gen, m, count=None) -> list[np.ndarray]:
    """The first ``count`` (default: all d) columns W_i = b_i * G_i^(1/a_i),
    G_i ~ Gamma(p_i, 1), drawn in component order from ``gen``; each is a
    new contiguous array."""
    cols = []
    for i in range(model.dim if count is None else count):
        w = gamma_sample(model.p[i], 1.0, gen, size=m)
        cols.append(_scale(_power(w, 1.0 / model.a[i]), model.b[i]))
    return cols


def _mgb2_draws(model: MGB2Model, block: RngStream, m: int,
                count=None) -> tuple[np.ndarray, list[np.ndarray]]:
    """Theta and the first ``count`` (default: all d) unscaled columns W_i
    of the m rows that block stream ``block`` gives in :func:`mgb2_sample`."""
    theta = model.theta_law.sample(block.child(0).generator(), size=m)
    return theta, _w_factors(model, block.child(1).generator(), m, count)


def _scale_by_theta(model: MGB2Model, theta: np.ndarray,
                    cols: list[np.ndarray]) -> list[np.ndarray]:
    """Write Theta^(1/a_i) * W_i over each column W_i of ``cols``; at
    a_i = 1 the factor is theta itself."""
    for a_i, w in zip(model.a, cols):
        w *= theta if a_i == 1.0 else theta ** (1.0 / a_i)
    return cols


def mgb2_sample(model: MGB2Model, n: int, stream: RngStream) -> np.ndarray:
    """Scale-mixture route: rows (Theta^(1/a_1) W_1, ..., Theta^(1/a_k) W_k)."""

    def fill(block, lo, hi):
        return np.column_stack(
            _scale_by_theta(model, *_mgb2_draws(model, block, hi - lo)))

    return map_blocks(stream, n, fill, ncols=model.dim)


def scale_mixture_exp_sample(spec: ClaytonSpec, n: int, stream: RngStream) -> np.ndarray:
    """n rows of (Y_1/G, ..., Y_d/G), Y_i i.i.d. Exp(1), G ~ Gamma(theta_shape, 1).

    This is the MGB2 vector Theta * W_i at a = b = p = 1, with W_i ~
    Gamma(1, 1) = Exp(1) and Theta = 1/G ~ InvGamma(theta_shape), so the rows
    are those of :func:`mgb2_sample` on that model: Theta from
    ``block.child(0)`` and the W_i from ``block.child(1)`` of each block.
    """
    ones = (1.0,) * spec.d
    return mgb2_sample(MGB2Model(a=ones, b=ones, p=ones,
                                 theta_law=InvGamma(spec.theta_shape)), n, stream)


def mgb2_conditional_sample(model: MGB2Model, n: int, stream: RngStream) -> np.ndarray:
    """Conditional route: draw theta, then X_i = b_i U_i^(1/a_i) with
    U_i | theta ~ Gamma(p_i, 1/theta), realized as theta times a unit-rate
    Gamma draw. The paper's second representation of the law of
    :func:`mgb2_sample`, and under test beside it: ``verify`` judges each
    margin of both, and the ratio of the two margins in which Theta cancels,
    against their exact Beta-prime laws."""

    def fill(block, lo, hi):
        m = hi - lo
        theta = model.theta_law.sample(block.child(0).generator(), size=m)
        gen = block.child(1).generator()
        cols = []
        for i in range(model.dim):
            u = theta * gamma_sample(model.p[i], 1.0, gen, size=m)
            cols.append(model.b[i] * u ** (1.0 / model.a[i]))
        return np.column_stack(cols)

    return map_blocks(stream, n, fill, ncols=model.dim)


@dataclass(frozen=True)
class TailQuery:
    """Joint-tail query: scaling constants, increasing thresholds, sample size."""

    c1: float
    c2: float
    t_grid: tuple[float, ...]
    n: int

    def __post_init__(self):
        object.__setattr__(self, "c1", _require_positive("c1", self.c1))
        object.__setattr__(self, "c2", _require_positive("c2", self.c2))
        grid = _positive_tuple("t_grid", self.t_grid)
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ParameterError("t_grid must be strictly increasing", "t_grid")
        object.__setattr__(self, "t_grid", grid)
        object.__setattr__(self, "n", _require_int("n", self.n, 1))


#: Minimum exceedances of {X_1 > t} for any ratio estimate.
MIN_EXCEEDANCES = 20


def _exceedance_counts(x1: np.ndarray, x2: np.ndarray, c1: float, c2: float,
                       t_grid) -> np.ndarray:
    """Per threshold t, the counts of the joint event {X_1 > c_1 t, X_2 > c_2 t},
    the base event {X_1 > t} and both: an int64 array of shape (len(t_grid), 3).

    At c_1 = 1 the first half of the joint event is the base event itself
    (c_1 t is t). For c_1 >= 1, fl(c_1 t) >= t puts the joint event inside
    the base one, so the count of both is the joint count.
    """
    counts = np.empty((len(t_grid), 3), dtype=np.int64)
    for i, t in enumerate(t_grid):
        base = x1 > t
        joint = (base if c1 == 1.0 else x1 > c1 * t) & (x2 > c2 * t)
        n_joint = np.count_nonzero(joint)
        both = n_joint if c1 >= 1.0 else np.count_nonzero(joint & base)
        counts[i] = (n_joint, np.count_nonzero(base), both)
    return counts


def _ratio_from_counts(n: int, counts, t: float) -> tuple[float, float]:
    """Ratio of the joint to the base exceedance frequency, with its
    delta-method standard error, from one row of :func:`_exceedance_counts`."""
    joint, base, both = counts
    if base < MIN_EXCEEDANCES:
        raise InsufficientTailDataError(
            f"only {base} exceedances of t={t:g}; need at least {MIN_EXCEEDANCES}"
        )
    ratio, se = RatioMoments.of_indicators(n, joint, base, both).estimate()
    return float(ratio), float(se)


def tail_ratio_empirical(samples, c1: float, c2: float, t: float
                         ) -> tuple[float, float]:
    """Empirical P(X_1 > c_1 t, X_2 > c_2 t) / P(X_1 > t) with its standard error.

    The standard error is the delta-method value for the ratio of the two
    indicator means; for c_1 >= 1 (nested events) it reduces to the familiar
    binomial form sqrt(r (1 - r) / #exceedances).
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 2 or samples.shape[1] < 2:
        raise ParameterError("samples must be an n x 2 (or wider) matrix", "samples")
    c1 = _require_positive("c1", c1)
    c2 = _require_positive("c2", c2)
    t = _require_positive("t", t)
    counts = _exceedance_counts(samples[:, 0], samples[:, 1], c1, c2, (t,))
    return _ratio_from_counts(samples.shape[0], counts[0], t)


def _check_limit_regime(model: MGB2Model) -> tuple[float, float]:
    """(a, q) of a model the joint tail limit covers: at least 2 components
    with a common shape a = a_1 = a_2, then a regularly varying mixer of
    index q. The error's ``param`` is ``a`` or ``theta_law``."""
    if model.dim < 2:
        raise UnsupportedModelError("the joint tail limit needs at least 2 components",
                                    "a")
    if model.a[0] != model.a[1]:
        raise UnsupportedModelError(
            f"the tail limit assumes a_1 = a_2, got {model.a[0]} and {model.a[1]}", "a"
        )
    try:
        q = regular_variation_index(model.theta_law)
    except ParameterError as exc:
        raise UnsupportedModelError(str(exc), "theta_law") from exc
    return model.a[0], q


def _min_ratio_power(w1, w2, c1: float, c2: float, aq: float) -> np.ndarray:
    """min(w1 / c1, w2 / c2) ** aq as a new array; w1 and w2 are not written."""
    q1 = w1 / c1 if c1 != 1.0 else w1
    q2 = w2 / c2 if c2 != 1.0 else w2
    out = q1 if c1 != 1.0 else q2 if c2 != 1.0 else None
    return _power(np.minimum(q1, q2, out=out), aq)


def _limit_moments(w1, w2, c1: float, c2: float, aq: float) -> RatioMoments:
    """The ratio moments of min(w1 / c1, w2 / c2) ** aq over w1 ** aq; w1 and
    w2 are not written (at aq = 1 the denominator is w1 itself)."""
    den = w1 if aq == 1.0 else w1 ** aq
    return RatioMoments.of(_min_ratio_power(w1, w2, c1, c2, aq), den)


def tail_dependence_limit(model: MGB2Model, c1: float, c2: float, n: int,
                          stream: RngStream) -> tuple[float, float]:
    """Monte Carlo estimate of I(c_1, c_2) = E[min(W_1/c_1, W_2/c_2)^(aq)] / E[W_1^(aq)]
    and its standard error, from n draws of (W_1, W_2), drawn from
    ``block.child(1)`` of each block of ``stream`` as in :func:`mgb2_sample`.

    Requires a_1 = a_2 and a regularly varying mixing law (Pareto or
    inverse-Gamma), whose index q enters the moment exponent. The W factors
    are Gamma powers, so every moment used here is finite. Standard errors
    by the delta method on the ratio of means, whose moments are reduced
    block by block (memory does not grow with n).
    """
    a, q = _check_limit_regime(model)
    c1 = _require_positive("c1", c1)
    c2 = _require_positive("c2", c2)
    aq = a * q

    def fill(block, lo, hi):
        w1, w2 = _w_factors(model, block.child(1).generator(), hi - lo, 2)
        return _limit_moments(w1, w2, c1, c2, aq)

    moments = reduce_blocks(stream, n, fill, RatioMoments.merge)
    return tuple(float(v) for v in moments.estimate())


def _merge_table(left: tuple, right: tuple) -> tuple:
    """Combine two blocks' (exceedance counts, limit moments)."""
    return left[0] + right[0], left[1].merge(right[1])


def tail_convergence_table(model: MGB2Model, query: TailQuery, stream: RngStream) -> list[dict]:
    """Per-threshold comparison rows of empirical ratio vs the limit estimate.

    One pass over ``stream.child(0)`` gives both columns; nothing else is
    drawn. All thresholds share one MGB2 sample (shared random numbers), so
    the empirical column is monotone-comparable across the grid. The sample
    is never held: each block draws Theta and the unscaled W_1, W_2 of the
    rows :func:`mgb2_sample` would draw, reduces the limit's ratio moments
    (as :func:`tail_dependence_limit` does) from those W, then scales W by
    Theta^(1/a_i) in place and reduces it to exact per-threshold joint, base
    and joint-and-base exceedance counts, so memory is bounded in n.
    Thresholds whose exceedance count falls below the minimum are skipped.

    An X_i that overflows to inf still counts as exceeding every threshold.
    An X_i that is nan (Theta^(1/a_i) = inf times W_i = 0, say) exceeds
    none, so a block that holds one raises RiskscaleError instead of
    biasing the ratios.
    """
    a, q = _check_limit_regime(model)

    def fill(block, lo, hi):
        theta, (w1, w2) = _mgb2_draws(model, block, hi - lo, 2)
        # the moments read W before the Theta step below writes over it
        moments = _limit_moments(w1, w2, query.c1, query.c2, a * q)
        x1, x2 = _scale_by_theta(model, theta, [w1, w2])
        if np.isnan(x1.min()) or np.isnan(x2.min()):  # min carries a nan
            raise RiskscaleError("the MGB2 sample holds nan values (Theta^(1/a) "
                                 "* W is inf * 0); no tail ratio is formed")
        return _exceedance_counts(x1, x2, query.c1, query.c2, query.t_grid), moments

    counts, moments = reduce_blocks(stream.child(0), query.n, fill, _merge_table)
    limit, limit_se = (float(v) for v in moments.estimate())
    rows = []
    for t, row_counts in zip(query.t_grid, counts):
        try:
            ratio, se = _ratio_from_counts(query.n, row_counts, t)
        except InsufficientTailDataError:
            continue
        rows.append({"t": t, "empirical_ratio": ratio, "stderr": se,
                     "limit_estimate": limit, "limit_stderr": limit_se,
                     "exceedances": int(row_counts[1])})
    if not rows:
        raise InsufficientTailDataError(
            "no threshold in the grid kept enough exceedances"
        )
    return rows
