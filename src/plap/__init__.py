"""Positive radial solutions of coupled p-Laplace systems with gradient terms.

The package solves the far-field power profile in closed form, integrates
positive radial solutions from the origin in a conserved flux formulation
stepped in log variables, and verifies at desk scale the comparison and
monotone-convergence structure those solutions obey: quotients against the
profile decrease to 1, ordered initial data give ordered solutions, and the
flux derivatives sit inside explicit convexity sandwiches.
"""

from .model import (
    CoefficientFunction,
    ExistenceConditionViolated,
    GradientExponentTooLarge,
    MalformedNonlinearity,
    Nonlinearity,
    SystemParams,
    ValidatedSystem,
    delta_constant,
    limiting_system,
    system_from_config,
    validate_system,
)
from .profile import (
    NotPurePowerCoefficients,
    PowerProfile,
    p_laplace_power,
    profile_eval,
    profile_residual,
    solve_amplitudes,
    solve_exponents,
    solve_profile,
)
from .integrator import (
    Overflow,
    State,
    StepSizeUnderflow,
    Trajectory,
    dormand_prince_step,
    flux_consistency,
    flux_rhs,
    geometric_grid,
    integrate_fixed_grid,
    integrate_radial,
    startup_state,
)
from .verify import (
    GridMismatch,
    InsufficientRange,
    LimitEstimate,
    QuotientSeries,
    VerificationReport,
    check_convexity_bounds,
    check_limit_identities,
    check_monotone_quotients,
    check_ordering,
    check_quotient_ordering,
    estimate_limits,
    quotient_series,
    run_verification,
    sample_profile_trajectory,
)

__version__ = "0.1.0"

__all__ = [
    "CoefficientFunction",
    "Nonlinearity",
    "SystemParams",
    "ValidatedSystem",
    "MalformedNonlinearity",
    "GradientExponentTooLarge",
    "ExistenceConditionViolated",
    "validate_system",
    "limiting_system",
    "system_from_config",
    "delta_constant",
    "NotPurePowerCoefficients",
    "PowerProfile",
    "p_laplace_power",
    "solve_exponents",
    "solve_amplitudes",
    "solve_profile",
    "profile_eval",
    "profile_residual",
    "State",
    "Trajectory",
    "StepSizeUnderflow",
    "Overflow",
    "startup_state",
    "flux_rhs",
    "integrate_radial",
    "integrate_fixed_grid",
    "dormand_prince_step",
    "geometric_grid",
    "flux_consistency",
    "QuotientSeries",
    "LimitEstimate",
    "VerificationReport",
    "GridMismatch",
    "InsufficientRange",
    "quotient_series",
    "check_monotone_quotients",
    "check_quotient_ordering",
    "check_ordering",
    "check_convexity_bounds",
    "estimate_limits",
    "check_limit_identities",
    "sample_profile_trajectory",
    "run_verification",
    "__version__",
]
