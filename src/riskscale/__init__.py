"""riskscale: simulation and verification of random-shift / random-scale risk models."""

from .config import RunConfig, parse_config
from .credibility import (
    EllipticalShiftModel,
    GaussianShiftModel,
    GenericShiftModel,
    premium_elliptical,
    premium_gaussian,
    premium_mc,
)
from .dirichlet import (
    LpSpec,
    RandomPSpec,
    WeightedSpec,
    angular_sample,
    beta_gamma_sample,
    lp_dirichlet_sample,
    random_p_sample,
    random_scale_sequence_sample,
    weighted_sample,
)
from .errors import (
    ConfigError,
    DegenerateDenominatorError,
    InsufficientTailDataError,
    ParameterError,
    RiskscaleError,
    ShapeError,
    SingularMatrixError,
    UnsupportedModelError,
)
from .radial import (
    GammaPower,
    InvGamma,
    Pareto,
    PointMass,
    RadialLaw,
)
from .rng import RngStream
from .samplers import (
    bernoulli_pm1,
    beta_sample,
    gamma_sample,
    inv_gamma_sample,
    pareto_sample,
)
from .tails import (
    ClaytonSpec,
    MGB2Model,
    TailQuery,
    archimedean_survival,
    mgb2_conditional_sample,
    mgb2_sample,
    scale_mixture_exp_sample,
    tail_convergence_table,
)

__version__ = "0.1.0"
