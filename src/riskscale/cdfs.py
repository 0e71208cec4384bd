"""Reference distribution functions used as goodness-of-fit oracles.

These are the *checking* side of every sampler/CDF pair: variates come from
numpy ``Generator`` kernels, while the CDFs lean on ``scipy.special``'s
incomplete beta routine and error function, so the two routes stay
independent. This is the one module of the package that imports scipy, and
within the package only ``verify`` imports it: the simulation side (the
samplers, and the CLI's ``sample``, ``premium`` and ``taildep``) needs numpy
only.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np
from scipy import special

from .errors import ParameterError

if TYPE_CHECKING:
    from .dirichlet import LpSpec


def normal_cdf(x):
    x = np.asarray(x, dtype=float)
    return 0.5 * (1.0 + special.erf(x / np.sqrt(2.0)))


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
