"""Conditional extremes of polar random vectors X = R u(T), Y = R v(T).

Given a light-tailed radial variable R and shape functions peaking at an
angular center t0, the package computes the normalizing sequences of the
conditional law given {X > x}, provides the limit distributions with
exact samplers, simulates the true conditional law by rare-event Monte
Carlo, and measures the distance between the two.
"""

__version__ = "0.28.0"

from .asymptotics import (
    Normalizers,
    PhiRoot,
    compute_normalizers,
    compute_phi,
    corollary_case,
    limit_law,
    tail_asymptotic,
)
from .errors import (
    BracketError,
    BudgetExceeded,
    CaseMismatch,
    ConfigError,
    MonotonicityError,
    NonConvergence,
    ParameterError,
    PolarTailError,
    UnknownFamilyError,
)
from .limitlaw import (
    CorollaryCase,
    CorollaryKind,
    LimitLaw,
    LimitSide,
    cdf,
    density,
    pushforward_corollary,
    sample,
)
from .model import (
    AngularLaw,
    CheckEntry,
    Condition,
    PolarModel,
    RadialLaw,
    ShapeU,
    ShapeV,
    SideFacts,
    ThresholdFacts,
    ValidationReport,
    build_builtin_model,
    load_config,
    parse_config_text,
    validate_model,
)
from .montecarlo import (
    AcceptanceStats,
    ConditionalSample,
    bivariate_normalized,
    empirical_sign_freq,
    estimate_tail_probability,
    sample_conditional,
)
from .oracle import (
    QuadratureResult,
    adaptive_quadrature,
    scaled_tail_quadrature,
    tail_probability_quadrature,
)
from .stats import (
    ConvergenceReport,
    ReportRow,
    chi_square_2d,
    convergence_report,
    ks_one_sample,
    ks_two_sample,
)

__all__ = [
    "__version__",
    "AcceptanceStats",
    "AngularLaw",
    "BracketError",
    "BudgetExceeded",
    "CaseMismatch",
    "CheckEntry",
    "Condition",
    "ConditionalSample",
    "ConfigError",
    "ConvergenceReport",
    "CorollaryCase",
    "CorollaryKind",
    "LimitLaw",
    "LimitSide",
    "MonotonicityError",
    "NonConvergence",
    "Normalizers",
    "ParameterError",
    "PhiRoot",
    "PolarModel",
    "PolarTailError",
    "QuadratureResult",
    "RadialLaw",
    "ReportRow",
    "ShapeU",
    "ShapeV",
    "SideFacts",
    "ThresholdFacts",
    "UnknownFamilyError",
    "ValidationReport",
    "adaptive_quadrature",
    "bivariate_normalized",
    "build_builtin_model",
    "cdf",
    "chi_square_2d",
    "compute_normalizers",
    "compute_phi",
    "convergence_report",
    "corollary_case",
    "density",
    "empirical_sign_freq",
    "estimate_tail_probability",
    "ks_one_sample",
    "ks_two_sample",
    "limit_law",
    "load_config",
    "parse_config_text",
    "pushforward_corollary",
    "sample",
    "sample_conditional",
    "scaled_tail_quadrature",
    "tail_asymptotic",
    "tail_probability_quadrature",
    "validate_model",
]
