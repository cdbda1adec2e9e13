"""Entropy-based measurements for the semi-discrete pair.

The discrete relative entropy E_i of the relaxed state against the limit
state obeys an exact per-cell evolution law along the method-of-lines flow:

    dE_i/dt + (F_{i+1/2} - F_{i-1/2})/dx
        = -[a du_i - dv_i]^2 + eps^2 [a du_i - dv_i] dvbar_i/dt
          + R1_i + R2_i + R3_i + R4_i

with du = u - ubar, dv = v - vbar, an interface approximation F of the
relative entropy flux, and four viscous residuals.  Everything here either
evaluates that identity (it holds to rounding when time derivatives come
from the right-hand sides, not finite differences), integrates its pieces
in time, or checks the sign/size estimates and the resulting stability
bound sup_t phi(t) <= phi(0) + B eps^4.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (
    LINEAR,
    Grid,
    ModelParams,
    entropy_flux,
    entropy_gradient,
    pad_edges,
    relative_entropy,
)
from .schemes import (
    HyperbolicState,
    LimitState,
    limit_semi_discrete_rhs,
    semi_discrete_rhs,
)


def weighted_error_total(p: ModelParams, grid: Grid, du: np.ndarray, dv: np.ndarray) -> float | np.ndarray:
    """dx-weighted quadratic error lam^2 du^2/2 + eps^2 dv^2/2 - eps^2 a du dv.

    Sums along the last axis: one total per row of cells.  For the linear
    flux this is exactly the total relative entropy; for Burgers (no
    explicit entropy) the cross term is dropped and the same
    relaxation-scaled weights are kept, giving the norm in which the eps^4
    convergence rate is measured.
    """
    sums = (np.add.reduce(x * y, axis=-1) for x, y in ((du, du), (dv, dv), (du, dv)))
    return _weighted_form(p, p.eps, grid.dx, *sums)


def _weighted_form(p: ModelParams, eps, dx: float, du2, dv2, cross):
    """``weighted_error_total`` on the cell sums of du^2, dv^2 and du dv; ``eps`` may be one per column."""
    a_cross = p.a if p.flux == LINEAR else 0.0
    return dx * (0.5 * p.lam**2 * du2 + 0.5 * eps**2 * dv2 - eps**2 * a_cross * cross)


def discrete_re_flux(p: ModelParams, du_l, dv_l, du_r, dv_r):
    """Interface approximation of the relative entropy flux.

    For left/right cell differences (du_l, dv_l), (du_r, dv_r):
        -eps^2 a/2 dv_l dv_r - lam^2 a/2 du_l du_r
        + lam^2/2 (du_l dv_r + du_r dv_l)
    """
    if p.flux != LINEAR:
        raise ValueError("the relative entropy flux is only explicit for the linear flux")
    return (
        -0.5 * p.eps**2 * p.a * dv_l * dv_r
        - 0.5 * p.lam**2 * p.a * du_l * du_r
        + 0.5 * p.lam**2 * (du_l * dv_r + du_r * dv_l)
    )


def _dxx(dx: float, ext: np.ndarray) -> np.ndarray:
    """D_xx along the last axis of fields given with one copy ghost per side."""
    return (ext[..., 2:] - 2.0 * ext[..., 1:-1] + ext[..., :-2]) / dx**2


def _residuals(p: ModelParams, dx: float, du_ext: np.ndarray, dv_ext: np.ndarray, dxx_vbar: np.ndarray):
    """R1-R4 along the last axis, from differences given with one copy ghost per side."""
    if p.flux != LINEAR:
        raise ValueError("entropy residuals are only explicit for the linear flux")
    du, dv = du_ext[..., 1:-1], dv_ext[..., 1:-1]
    dxx_du = _dxx(dx, du_ext)
    dxx_dv = _dxx(dx, dv_ext)
    half_dx = 0.5 * dx
    r1 = p.lam**3 * half_dx * du * dxx_du
    r2 = p.eps**2 * p.lam * half_dx * dv * dxx_dv
    r3 = p.eps**2 * p.lam * half_dx * (dv - p.a * du) * dxx_vbar
    r4 = -p.eps**2 * p.a * p.lam * half_dx * (dv * dxx_du + du * dxx_dv)
    return r1, r2, r3, r4


def residuals(p: ModelParams, grid: Grid, hyp: HyperbolicState, lim: LimitState):
    """The four viscous residuals of the entropy evolution law, per cell.

    R1: lam^3/2 dx du D_xx(du)           (u-viscosity against du)
    R2: eps^2 lam/2 dx dv D_xx(dv)       (v-viscosity against dv)
    R3: eps^2 lam/2 dx (dv - a du) D_xx(vbar)   (forcing by D_xx of the limit v)
    R4: -eps^2 a lam/2 dx [dv D_xx(du) + du D_xx(dv)]  (cross coupling)
    """
    du = pad_edges(hyp.u - lim.ubar)
    dv = pad_edges(hyp.v - lim.vbar)
    return _residuals(p, grid.dx, du, dv, _dxx(grid.dx, pad_edges(lim.vbar)))


@dataclass
class EntropyBudget:
    """All pieces of the per-cell entropy evolution law at one instant."""

    e_cells: np.ndarray
    dedt: np.ndarray
    flux_interfaces: np.ndarray  # n+1 values, ghost closure included
    flux_divergence: np.ndarray
    dissipation: np.ndarray  # -[a du - dv]^2
    forcing: np.ndarray  # eps^2 [a du - dv] dvbar/dt
    r1: np.ndarray
    r2: np.ndarray
    r3: np.ndarray
    r4: np.ndarray
    mismatch: np.ndarray  # law LHS - RHS per cell
    rel_mismatch_max: float  # max |mismatch| / (1 + largest term magnitude)


def entropy_budget(p: ModelParams, grid: Grid, hyp: HyperbolicState, lim: LimitState) -> EntropyBudget:
    """Evaluate every term of the evolution law on the given state pair.

    dE/dt is expanded by the chain rule through the semi-discrete right-hand
    sides, so for any relaxed state and any closure-consistent limit state
    the mismatch is pure rounding noise.
    """
    du = hyp.u - lim.ubar
    dv = hyp.v - lim.vbar
    u_rhs, v_rhs = semi_discrete_rhs(p, grid, hyp)
    ub_rhs, vb_rhs = limit_semi_discrete_rhs(p, grid, lim)
    ddu = u_rhs - ub_rhs
    ddv = v_rhs - vb_rhs

    e_cells = relative_entropy(p, hyp.u, hyp.v, lim.ubar, lim.vbar)
    dedt = (
        p.lam**2 * du * ddu
        + p.eps**2 * dv * ddv
        - p.eps**2 * p.a * (ddu * dv + du * ddv)
    )

    du_e = pad_edges(du)
    dv_e = pad_edges(dv)
    flux = discrete_re_flux(p, du_e[:-1], dv_e[:-1], du_e[1:], dv_e[1:])
    flux_div = (flux[1:] - flux[:-1]) / grid.dx

    relax = p.a * du - dv
    dissipation = -relax * relax
    forcing = p.eps**2 * relax * vb_rhs
    r1, r2, r3, r4 = residuals(p, grid, hyp, lim)

    mismatch = dedt + flux_div - (dissipation + forcing + r1 + r2 + r3 + r4)
    terms = np.abs(dedt)
    for t in (flux_div, dissipation, forcing, r1, r2, r3, r4):
        terms = np.maximum(terms, np.abs(t))
    rel = np.abs(mismatch) / (1.0 + terms)

    return EntropyBudget(
        e_cells=e_cells,
        dedt=dedt,
        flux_interfaces=flux,
        flux_divergence=flux_div,
        dissipation=dissipation,
        forcing=forcing,
        r1=r1,
        r2=r2,
        r3=r3,
        r4=r4,
        mismatch=mismatch,
        rel_mismatch_max=float(rel.max()),
    )


def _residual_integrands(p: ModelParams, dx: float, du_ext, dv_ext, dxx_vbar) -> tuple[np.ndarray, ...]:
    """The cell integrands of the ``ResidualIntegrals`` fields, in order, along the last axis.

    Arguments as for ``_residuals``; ``dxx_vbar`` is D_xx of the limit v.
    """
    du, dv = du_ext[..., 1:-1], dv_ext[..., 1:-1]
    # interior interfaces only; the copy ghosts make the boundary
    # differences exactly zero, which is what the exact summation by
    # parts behind the R1/R2 equalities needs
    grad_du = np.diff(du) / dx
    grad_dv = np.diff(dv) / dx
    relax = dv - p.a * du
    return (
        *_residuals(p, dx, du_ext, dv_ext, dxx_vbar),
        grad_du * grad_du,
        grad_dv * grad_dv,
        dxx_vbar * dxx_vbar,
        relax * relax,
    )


@dataclass
class ResidualIntegrals:
    """Left-endpoint time integrals of the residual sums and companion norms.

    Each field but ``dx`` holds one running value per step: entry k is the
    dx-weighted spatial sum integrated over [0, (k+1) dt], so the sign
    estimates can be checked after every step.  ``harness.run_group``
    fills them.
    """

    dx: float
    int_r1: np.ndarray
    int_r2: np.ndarray
    int_r3: np.ndarray
    int_r4: np.ndarray
    norm_dx_du_sq: np.ndarray  # ||D_x du||^2 over [0,t]
    norm_dx_dv_sq: np.ndarray
    norm_dxx_vbar_sq: np.ndarray  # ||D_xx vbar||^2 over [0,t]
    relax_sq: np.ndarray  # integral of dx-sum of (dv - a du)^2


@dataclass
class ResidualReport:
    """Outcome of the four residual estimates along a trajectory."""

    r1_equality_ok: bool
    r1_rel_defect: float
    r2_equality_ok: bool
    r2_rel_defect: float
    sum124_ok: bool
    sum124_worst: float  # largest running value of int(R1+R2+R4); should be <= 0
    r3_bound_ok: bool
    r3_worst_margin: float  # most negative (bound - int_r3); >= 0 when satisfied
    theta: float

    @property
    def all_ok(self) -> bool:
        return self.r1_equality_ok and self.r2_equality_ok and self.sum124_ok and self.r3_bound_ok

    def lines(self) -> list[str]:
        return [
            f"R1 summation-by-parts equality: rel defect {self.r1_rel_defect:.3e} "
            f"-> {'PASS' if self.r1_equality_ok else 'FAIL'}",
            f"R2 summation-by-parts equality: rel defect {self.r2_rel_defect:.3e} "
            f"-> {'PASS' if self.r2_equality_ok else 'FAIL'}",
            f"int(R1+R2+R4) <= 0: worst running value {self.sum124_worst:.3e} "
            f"-> {'PASS' if self.sum124_ok else 'FAIL'}",
            f"R3 Young bound (theta={self.theta}): worst margin {self.r3_worst_margin:.3e} "
            f"-> {'PASS' if self.r3_bound_ok else 'FAIL'}",
        ]


EQUALITY_RTOL = 1e-12
SIGN_GUARD = 1e-12


def _rel_defect(got: np.ndarray, expected: np.ndarray) -> float:
    """Largest |got - expected| relative to the larger magnitude of the two."""
    scale = np.maximum(np.maximum(np.abs(got), np.abs(expected)), 1e-300)
    return float(np.max(np.abs(got - expected) / scale))


def residual_sign_checks(acc: ResidualIntegrals, p: ModelParams, theta: float = 0.5) -> ResidualReport:
    """Check the integrated residual estimates after every step, on the running arrays of ``acc``.

    (1) int R1 = -(lam^3/2) dx ||D_x du||^2 exactly,
    (2) int R2 = -(eps^2 lam/2) dx ||D_x dv||^2 exactly,
    (3) int (R1+R2+R4) <= 0,
    (4) int R3 <= eps^4 lam^2/(8 theta) dx^2 ||D_xx vbar||^2
               + theta/2 * int sum dx (dv - a du)^2.
    """
    dx = acc.dx
    r1_defect = _rel_defect(acc.int_r1, -0.5 * p.lam**3 * dx * acc.norm_dx_du_sq)
    r2_defect = _rel_defect(acc.int_r2, -0.5 * p.eps**2 * p.lam * dx * acc.norm_dx_dv_sq)
    sum124_worst = float(np.max(acc.int_r1 + acc.int_r2 + acc.int_r4))
    young = p.eps**4 * p.lam**2 / (8.0 * theta) * dx**2
    bound = young * acc.norm_dxx_vbar_sq + 0.5 * theta * acc.relax_sq
    r3_margin = float(np.min(bound - acc.int_r3))
    scale = max(abs(acc.int_r1[-1]), abs(acc.int_r2[-1]), abs(acc.int_r4[-1]), 1e-300)
    return ResidualReport(
        r1_equality_ok=r1_defect <= EQUALITY_RTOL,
        r1_rel_defect=r1_defect,
        r2_equality_ok=r2_defect <= EQUALITY_RTOL,
        r2_rel_defect=r2_defect,
        sum124_ok=sum124_worst <= SIGN_GUARD * scale,
        sum124_worst=sum124_worst,
        r3_bound_ok=r3_margin >= -SIGN_GUARD * max(abs(acc.int_r3[-1]), 1.0),
        r3_worst_margin=r3_margin,
        theta=theta,
    )


@dataclass
class ErrorSeries:
    """Per-run record: phi(t), cumulative error norms, and the K-norms.

    The columns hold the record points, ``sup_phi`` the max of phi over every
    step.  ``l2err_sq`` is the plain squared space-time error of (u, v) against
    (ubar, vbar); ``weighted_sq`` is the relaxation-scaled (entropy) version
    whose decay rate the convergence study certifies.  The two K-norm columns
    track ||d/dt vbar||^2 and ||D_xx vbar||^2 over [0, t], or read NaN.
    """

    dx: float
    t: np.ndarray
    phi: np.ndarray
    sup_phi: float
    l2err_sq: np.ndarray
    weighted_sq: np.ndarray
    k_dvbar_sq: np.ndarray
    k_dxxvbar_sq: np.ndarray


@dataclass(frozen=True)
class TheoremCheck:
    """sup_t phi(t) against phi(0) + B_meas eps^4 with measured constants."""

    phi0: float
    sup_phi: float
    b_meas: float
    bound: float
    satisfied: bool
    margin: float


BOUND_RTOL = 1e-8


def theorem_bound_check(series: ErrorSeries, p: ModelParams) -> TheoremCheck:
    """Instantiate the stability bound with the measured norms.

    B_meas = ||d/dt vbar||^2_{L2(Q_T)} + (lam^2 dx^2 / 4) ||D_xx vbar||^2_{L2(Q_T)},
    the explicit constant the proof yields with both Young parameters at 1/2.
    sup phi is ``series.sup_phi``, over every step; non-finite K norms raise ``ValueError``.
    """
    dvbar_sq, dxxvbar_sq = float(series.k_dvbar_sq[-1]), float(series.k_dxxvbar_sq[-1])
    if not np.isfinite((dvbar_sq, dxxvbar_sq)).all():
        raise ValueError("series carries no finite K norms: march it with the 'k-norms' accumulator")
    phi0 = float(series.phi[0])
    sup_phi = series.sup_phi
    b_meas = dvbar_sq + 0.25 * p.lam**2 * series.dx**2 * dxxvbar_sq
    bound = phi0 + b_meas * p.eps**4
    satisfied = sup_phi <= bound * (1.0 + BOUND_RTOL)
    return TheoremCheck(
        phi0=phi0,
        sup_phi=sup_phi,
        b_meas=b_meas,
        bound=bound,
        satisfied=satisfied,
        margin=bound - sup_phi,
    )


@dataclass
class EntropyInequalityReport:
    """Entropy production audit along a relaxed trajectory.

    ``production`` is dE(w_i)/dt + centered divergence of F(w_i); the
    continuous law bounds it by -(a u - v)^2, so ``slack`` (production plus
    the dissipation) is nonpositive up to the O(dx) viscous terms the
    space operator adds.
    """

    max_slack: float
    max_production: float
    min_production: float


def entropy_inequality_check(p: ModelParams, grid: Grid, states) -> EntropyInequalityReport:
    """Evaluate the entropy production budget on sampled relaxed states."""
    max_slack = -np.inf
    max_prod = -np.inf
    min_prod = np.inf
    for state in states:
        u_rhs, v_rhs = semi_discrete_rhs(p, grid, state)
        grad_u, grad_v = entropy_gradient(p, state.u, state.v)
        dedt = grad_u * u_rhs + grad_v * v_rhs
        flux_cells = entropy_flux(p, state.u, state.v)
        ext = pad_edges(flux_cells)
        divergence = (ext[2:] - ext[:-2]) / (2.0 * grid.dx)
        production = dedt + divergence
        relax = p.a * state.u - state.v
        slack = production + relax * relax
        max_slack = max(max_slack, float(slack.max()))
        max_prod = max(max_prod, float(production.max()))
        min_prod = min(min_prod, float(production.min()))
    return EntropyInequalityReport(
        max_slack=float(max_slack),
        max_production=float(max_prod),
        min_production=float(min_prod),
    )
