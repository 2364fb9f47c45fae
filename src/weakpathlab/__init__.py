"""weakpathlab: weak-error analysis of Euler-Maruyama schemes for
path-dependent functionals of scalar SDEs.

The package combines a reproducible coupled Monte-Carlo harness (weak bias
across a mesh ladder, log-log rate fits), a backward-window mollifier for
path functionals, and nested Monte-Carlo estimators for the conditional
functional F_t(x) = E f_eps(X^{t,x}) together with numerical verifications
of the martingale property, the backward Kolmogorov equation, the
functional Ito formula, and the weak-error representation identity.
"""

__version__ = "0.1.0"

from .core_paths import (
    DiscretePath,
    PathMode,
    TimeGrid,
    make_uniform_grid,
    refine_grid,
    sup_norm,
)
from .errors import (
    BudgetExceededError,
    ConfigError,
    InsufficientSignalError,
    InvalidArgumentError,
    NumericalOverflowError,
    OutOfRangeError,
    ResolutionTooCoarseError,
    UnknownNameError,
)
from .functional_calculus import (
    ErrorRepresentationReport,
    NestedEstimate,
    ResidualReport,
    VerticalDerivative,
    error_representation_sides,
    estimate_F,
    horizontal_derivative,
    ito_rms_study,
    kolmogorov_residual,
    martingale_gap,
    second_vertical_derivative,
    vertical_derivative,
)
from .functionals import (
    PathFunctional,
    integral_functional,
    point_functional,
    product_functional,
    smooth_max_functional,
)
from .models import (
    SdeModel,
    constant_model,
    ou_exact_moments,
    ou_model,
    sine_model,
)
from .mollifier import MollifierSpec, kernel_weights, mollify
from .randomness import (
    BrownianPath,
    SeedSpec,
    haar_coefficients,
    sample_brownian,
    schauder_reconstruct,
)
from .weak_error import (
    BiasPoint,
    ClosedFormReference,
    FineGridReference,
    GapStatsReport,
    RateExperiment,
    WeakErrorReport,
    coupled_bias,
    covariance_bias,
    fit_rate,
    interpolation_gap_stats,
    weak_rate_experiment,
)
