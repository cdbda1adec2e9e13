"""Finite-volume lab for a 2x2 relaxation system and its convection-diffusion limit.

Modules:
    model        parameters, fluxes, grids, quadratic entropy algebra
    schemes      splitting scheme, limit scheme, method-of-lines systems
    diagnostics  relative entropy budgets, residual estimates, error norms
    harness      paired runs, eps sweeps, rate fits, file output
    cli          run / study / verify command line
"""
