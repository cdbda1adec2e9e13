"""Finite-volume lab for a 2x2 relaxation system and its convection-diffusion limit.

Modules:
    model        parameters, fluxes, grids, quadratic entropy algebra
    schemes      splitting scheme, limit scheme, method-of-lines systems
    diagnostics  relative entropy budgets, residual estimates, error norms
    harness      paired runs, eps sweeps, rate fits, file output
    cli          run / study / verify command line
"""

from .model import (
    BURGERS,
    LINEAR,
    ConvexityBounds,
    Grid,
    ModelParams,
    check_subcharacteristic,
    convexity_bounds,
    entropy,
    entropy_flux,
    entropy_gradient,
    equilibrium_v,
    flux_eval,
    relative_entropy,
    riemann_initial,
)
from .schemes import (
    HyperbolicState,
    InstabilityError,
    LimitState,
    StepSize,
    limit_semi_discrete_rhs,
    marching_dt,
    semi_discrete_dt,
    semi_discrete_rhs,
)
from .diagnostics import (
    EntropyBudget,
    ErrorSeries,
    TheoremCheck,
    discrete_re_flux,
    entropy_budget,
    entropy_inequality_check,
    residual_sign_checks,
    residuals,
    theorem_bound_check,
)
from .harness import (
    RunConfig,
    RunResult,
    StudyResult,
    convergence_study,
    fit_rate,
    make_config,
    run_group,
    run_pair,
    study_cells,
    write_profile,
    write_series,
    write_study,
)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
