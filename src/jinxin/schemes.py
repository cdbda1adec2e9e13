"""Time advancement: splitting scheme, its eps->0 limit, and the semi-discrete systems.

Two families are provided on the same uniform grid and HLL space operator:

* a fully discrete 2-step splitting (explicit HLL convection at the frozen
  wave speeds +-lam, then a closed-form implicit relaxation solve), whose
  eps -> 0 limit is an explicit scheme for the convection-diffusion problem;
* the method-of-lines systems (continuous in time) for both the relaxed and
  the limiting equations, integrated with classical RK4 for the entropy
  diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    Grid,
    ModelParams,
    equilibrium_v,
    flux_derivative,
    flux_eval,
    pad_edges,
)


class InstabilityError(RuntimeError):
    """Raised when a scheme produces non-finite cell values."""


@dataclass
class HyperbolicState:
    """Relaxed pair (u, v) at time t."""

    u: np.ndarray
    v: np.ndarray
    t: float


@dataclass
class LimitState:
    """Limit pair (ubar, vbar) at time t; vbar obeys the discrete closure."""

    ubar: np.ndarray
    vbar: np.ndarray
    t: float


@dataclass(frozen=True)
class StepSize:
    """Time increment and the number of steps landing exactly on t_final."""

    dt: float
    n_steps: int


def _land_on_t_final(dt_raw: float, t_final: float) -> StepSize:
    # Round dt down so the march hits t_final exactly; space-time error
    # norms need both solutions sampled on the same uniform step ladder.
    n = max(1, math.ceil(t_final / dt_raw))
    return StepSize(dt=t_final / n, n_steps=n)


def marching_dt(p: ModelParams, grid: Grid) -> StepSize:
    """Step size used to march the splitting and limit schemes.

    On top of the convective CFL bound, the explicit lam^2-diffusion that
    surfaces in the eps -> 0 limit (the centered gradient inside the
    relaxation solve) demands dt <= cfl*dx^2/lam^2, i.e. a diffusion number
    at most cfl; without it the scheme amplifies mid-frequency modes once
    eps^2 << dt.  Still independent of eps.
    """
    dt_raw = p.cfl * min(grid.dx / (2.0 * p.lam), grid.dx**2 / p.lam**2)
    return _land_on_t_final(dt_raw, p.t_final)


def semi_discrete_dt(p: ModelParams, grid: Grid) -> StepSize:
    """RK4 step for the method-of-lines pair.

    Caps, in order: convective CFL, the O(lam/eps) wave speeds of the
    relaxed system, the stiff relaxation rate 1/eps^2, and the lam^2
    diffusion of the co-integrated limit system.
    """
    if p.eps <= 0:
        raise ValueError("semi-discrete integration requires eps > 0")
    dt_raw = min(
        p.cfl * grid.dx / (2.0 * p.lam),
        p.cfl * p.eps * grid.dx / p.lam,
        0.5 * p.eps**2,
        p.cfl * grid.dx**2 / p.lam**2,
    )
    return _land_on_t_final(dt_raw, p.t_final)


def _check_finite(*fields: np.ndarray) -> None:
    for w in fields:
        if not np.isfinite(w).all():
            raise InstabilityError("non-finite cell values: unstable step size or blow-up")


def _padded(*rows) -> np.ndarray:
    """Stack cell fields into one float64 block with a copy ghost at each end."""
    block = np.empty((len(rows), len(rows[0]) + 2))
    block[:, 1:-1] = rows
    _refresh_ghosts(block)
    return block


def _refresh_ghosts(block: np.ndarray) -> None:
    # the zero-gradient closure of model.pad_edges, for every row at once:
    # the strided slices pick the ghosts (0, n+1) and the edge cells (1, n)
    n = block.shape[-1] - 2
    block[..., :: n + 1] = block[..., 1 : n + 1 : n - 1]


class _HLLConvection:
    """HLL convection of the ghost-padded rows (u, v), in place on their cells.

    The interface fluxes
        F_u = (v_i + v_{i+1})/2 - lam (u_{i+1} - u_i)/2
        F_v = lam^2 (u_i + u_{i+1})/2 - lam (v_{i+1} - v_i)/2
    take one ufunc call per stage for both rows: the neighbour sums enter
    with the rows swapped and the column coefficients [1/2, lam^2/2].
    """

    def __init__(self, p: ModelParams, rows: np.ndarray) -> None:
        n_faces = rows.shape[1] - 1
        self.left, self.right, self.cells = rows[:, :-1], rows[:, 1:], rows[:, 1:-1]
        self.sum_coef = np.array([[0.5], [0.5 * p.lam**2]])
        self.half_lam = 0.5 * p.lam
        self.terms = np.empty((2, n_faces))
        self.swapped = self.terms[::-1]
        self.fluxes = np.empty((2, n_faces))
        self.east, self.west = self.fluxes[:, 1:], self.fluxes[:, :-1]
        self.change = np.empty((2, n_faces - 1))

    def step(self, dt_dx: float) -> None:
        terms, fluxes = self.terms, self.fluxes
        np.add(self.left, self.right, out=terms)
        np.multiply(self.sum_coef, self.swapped, out=fluxes)
        np.subtract(self.right, self.left, out=terms)
        np.multiply(self.half_lam, terms, out=terms)
        np.subtract(fluxes, terms, out=fluxes)
        np.subtract(self.east, self.west, out=self.change)
        np.multiply(dt_dx, self.change, out=self.change)
        np.subtract(self.cells, self.change, out=self.cells)
        _check_finite(self.cells)


class _Closure:
    """Per ghost-padded row w: f(w) - c (w_{i+1} - w_{i-1}) / (2 dx), into ``out``.

    With c = lam^2 this is the discrete closure of the limit pair (as in
    ``equilibrium_v``); with c = (1 - eps^2) lam^2 it is the target of the
    implicit relaxation solve.  ``coefs`` holds one c per row.
    """

    def __init__(self, p: ModelParams, dx: float, rows: np.ndarray, coefs, out: np.ndarray) -> None:
        self.flux, self.a = p.flux, p.a
        self.east, self.west, self.cells = rows[:, 2:], rows[:, :-2], rows[:, 1:-1]
        self.two_dx = 2.0 * dx
        self.coef = np.array(coefs, dtype=float)[:, None]
        self.grad = np.empty(out.shape)
        self.out = out

    def __call__(self) -> np.ndarray:
        grad, out = self.grad, self.out
        np.subtract(self.east, self.west, out=grad)
        np.divide(grad, self.two_dx, out=grad)
        np.multiply(self.coef, grad, out=grad)
        flux_eval(self.flux, self.a, self.cells, out=out)
        return np.subtract(out, grad, out=out)


def _relax(v: np.ndarray, target: np.ndarray, weight: float, scratch: np.ndarray) -> None:
    # v <- target + w (v - target), in place; this form keeps equilibria exact
    np.subtract(v, target, out=scratch)
    np.multiply(weight, scratch, out=scratch)
    np.add(target, scratch, out=v)


class _LimitRate:
    """dubar/dt of the limit scheme on the ghost-padded rows (ubar, vbar).

    The centered vbar flux plus the lam-viscosity of the HLL operator:
        (lam (ubar_{i+1} - 2 ubar_i + ubar_{i-1}) - (vbar_{i+1} - vbar_{i-1})) / (2 dx).
    The rate lives in the ghost-padded row ``padded``, so the closure chain
    rule can difference it.  With ``curvature`` the second difference of
    vbar is kept as well, as row 1 of ``second``.
    """

    def __init__(self, p: ModelParams, dx: float, rows: np.ndarray, curvature: bool = False) -> None:
        n = rows.shape[1] - 2
        k = 2 if curvature else 1
        self.lam = p.lam
        self.two_dx = 2.0 * dx
        self.east, self.center, self.west = rows[:k, 2:], rows[:k, 1:-1], rows[:k, :-2]
        self.vbar_east, self.vbar_west = rows[1, 2:], rows[1, :-2]
        self.second = np.empty((k, n))
        self.ubar_second = self.second[0]
        self.jump = np.empty(n)
        self.padded = np.empty(n + 2)
        self.rate = self.padded[1:-1]

    def __call__(self) -> np.ndarray:
        second, rate = self.second, self.rate
        np.multiply(2.0, self.center, out=second)
        np.subtract(self.east, second, out=second)
        np.add(second, self.west, out=second)
        np.multiply(self.lam, self.ubar_second, out=rate)
        np.subtract(self.vbar_east, self.vbar_west, out=self.jump)
        np.subtract(rate, self.jump, out=rate)
        return np.divide(rate, self.two_dx, out=rate)


class _ClosureRate:
    """dvbar/dt = f'(ubar) dubar/dt - lam^2 (r_{i+1} - r_{i-1}) / (2 dx), r = dubar/dt.

    The closure differentiated through dubar/dt (chain rule, no time
    differencing), which keeps the discrete entropy identity exact.
    ``rate_padded`` is dubar/dt with a ghost per side; its ghosts are
    refreshed on every call.
    """

    def __init__(
        self, p: ModelParams, dx: float, ubar: np.ndarray, rate_padded: np.ndarray, out: np.ndarray
    ) -> None:
        # for Burgers f'(ubar) is the ubar array itself, not a copy, so the
        # factor follows ubar when the caller marches it in place
        self.speed = flux_derivative(p.flux, p.a, ubar)
        self.lam2 = p.lam**2
        self.two_dx = 2.0 * dx
        self.padded = rate_padded
        self.rate, self.east, self.west = rate_padded[1:-1], rate_padded[2:], rate_padded[:-2]
        self.diffusive = np.empty(len(ubar))
        self.out = out

    def __call__(self) -> np.ndarray:
        diffusive, out = self.diffusive, self.out
        _refresh_ghosts(self.padded)
        np.subtract(self.east, self.west, out=diffusive)
        np.multiply(self.lam2, diffusive, out=diffusive)
        np.divide(diffusive, self.two_dx, out=diffusive)
        np.multiply(self.speed, self.rate, out=out)
        return np.subtract(out, diffusive, out=out)


class PairMarch:
    """The splitting pair and its eps -> 0 limit, marched in place side by side.

    u, v, ubar and vbar are the rows of one float64 block of shape (4, n+2),
    each with one copy ghost per side; the attributes ``u``, ``v``, ``ubar``
    and ``vbar`` view their cells.  One step of the shared dt is

        limit_rate()  dubar/dt of the current limit pair
        convect()     explicit half: HLL convection of (u, v), then the
                      forward-Euler limit update ubar += dt dubar/dt
        relax()       implicit half: one centered gradient of (u, ubar)
                      gives the relaxation target of v and the closure vbar

    and allocates nothing.  With ``curvature`` the march also serves
    ``closure_rates()``, the fields behind the K norms.
    """

    def __init__(
        self, p: ModelParams, grid: Grid, dt: float,
        u: np.ndarray, v: np.ndarray, ubar: np.ndarray, vbar: np.ndarray,
        curvature: bool = False,
    ) -> None:
        n = grid.n_cells
        self.block = block = _padded(u, v, ubar, vbar)
        self.u, self.v, self.ubar, self.vbar = block[:, 1:-1]
        self.relaxed, self.limit = block[:2, 1:-1], block[2:, 1:-1]
        self._dt = dt
        self._dt_dx = dt / grid.dx
        self._weight = p.eps**2 / (p.eps**2 + dt)
        self._hll = _HLLConvection(p, block[:2])
        self._rate = _LimitRate(p, grid.dx, block[2:], curvature)
        targets = np.empty((2, n))  # the relaxation target of v, the closure vbar
        self._target, self._closed_vbar = targets
        self._closure = _Closure(
            p, grid.dx, block[::2], ((1.0 - p.eps**2) * p.lam**2, p.lam**2), targets
        )
        self._scratch = np.empty(n)
        if curvature:
            self._k_fields = np.empty((2, n))
            self._closure_rate = _ClosureRate(
                p, grid.dx, self.ubar, self._rate.padded, self._k_fields[0]
            )
            self._vbar_second = self._rate.second[1]
            self._dx2 = grid.dx * grid.dx

    def limit_rate(self) -> np.ndarray:
        """dubar/dt of the current limit pair, as used by the next convect()."""
        return self._rate()

    def convect(self) -> None:
        """Explicit half step; limit_rate() must have been called for this step."""
        self._hll.step(self._dt_dx)
        np.multiply(self._dt, self._rate.rate, out=self._scratch)
        np.add(self.ubar, self._scratch, out=self.ubar)
        if not np.isfinite(self.ubar).all():
            raise InstabilityError("non-finite limit state during march")
        _refresh_ghosts(self.block)

    def relax(self) -> None:
        """Implicit half step: relaxation solve of v, algebraic closure of vbar."""
        self._closure()
        _relax(self.v, self._target, self._weight, self._scratch)
        np.copyto(self.vbar, self._closed_vbar)
        _refresh_ghosts(self.block)

    def closure_rates(self) -> np.ndarray:
        """Rows dvbar/dt and D_xx vbar of the current limit pair, after limit_rate().

        Needs ``curvature``.  Both rows are scratch, overwritten by the next call.
        """
        self._closure_rate()
        np.divide(self._vbar_second, self._dx2, out=self._k_fields[1])
        return self._k_fields

    def states(self, t: float) -> tuple[HyperbolicState, LimitState]:
        """Copies of the current pairs, stamped with time t."""
        u, v, ubar, vbar = self.block[:, 1:-1].copy()
        return HyperbolicState(u=u, v=v, t=t), LimitState(ubar=ubar, vbar=vbar, t=t)

    def load(self, u: np.ndarray, v: np.ndarray, ubar: np.ndarray, vbar: np.ndarray) -> None:
        """Overwrite the four fields, for a pair advanced by another stepper."""
        self.block[:, 1:-1] = (u, v, ubar, vbar)
        _refresh_ghosts(self.block)


def hll_convection_step(p: ModelParams, grid: Grid, state: HyperbolicState, dt: float) -> HyperbolicState:
    """Conservative update with the HLL fluxes (the non-stiff half step)."""
    block = _padded(state.u, state.v)
    _HLLConvection(p, block).step(dt / grid.dx)
    u, v = block[:, 1:-1]
    return HyperbolicState(u=u, v=v, t=state.t)


def relaxation_step(p: ModelParams, grid: Grid, half: HyperbolicState, dt: float) -> HyperbolicState:
    """Closed-form implicit solve of the stiff source; u is untouched.

    v^+ = w v + (1-w) [f(u) - (1-eps^2) lam^2 du/dx],  w = eps^2/(eps^2+dt),
    written as target + w*(v - target) so equilibrium states are exact fixed
    points in floating point.  Well defined down to eps = 0, where it lands
    on the discrete closure of the limit scheme.
    """
    target = np.empty((1, grid.n_cells))
    _Closure(p, grid.dx, _padded(half.u), ((1.0 - p.eps**2) * p.lam**2,), target)()
    v = np.array(half.v, dtype=float)
    _relax(v, target[0], p.eps**2 / (p.eps**2 + dt), np.empty_like(v))
    return HyperbolicState(u=half.u, v=v, t=half.t)


def jpt_step(p: ModelParams, grid: Grid, state: HyperbolicState, dt: float) -> HyperbolicState:
    """One full splitting step: HLL convection then implicit relaxation."""
    half = hll_convection_step(p, grid, state, dt)
    out = relaxation_step(p, grid, half, dt)
    out.t = state.t + dt
    return out


def limit_step(p: ModelParams, grid: Grid, state: LimitState, dt: float) -> LimitState:
    """Explicit step of the limit scheme (the eps -> 0 splitting step).

    ubar += dt dubar/dt, with the centered vbar flux plus the lam-viscosity
    of the HLL operator; vbar then re-closed algebraically.
    """
    block = _padded(state.ubar, state.vbar)
    ubar = block[0, 1:-1]
    ubar += dt * _LimitRate(p, grid.dx, block)()
    _check_finite(ubar)
    _refresh_ghosts(block)
    vbar = np.empty((1, grid.n_cells))
    _Closure(p, grid.dx, block[:1], (p.lam**2,), vbar)()
    return LimitState(ubar=ubar, vbar=vbar[0], t=state.t + dt)


def _hyperbolic_rhs_arrays(p: ModelParams, grid: Grid, u: np.ndarray, v: np.ndarray):
    ue = pad_edges(u)
    ve = pad_edges(v)
    two_dx = 2.0 * grid.dx
    du_dt = -(ve[2:] - ve[:-2]) / two_dx + p.lam * (ue[2:] - 2.0 * u + ue[:-2]) / two_dx
    dv_dt = (
        -p.lam**2 * (ue[2:] - ue[:-2]) / (two_dx * p.eps**2)
        + p.lam * (ve[2:] - 2.0 * v + ve[:-2]) / two_dx
        + (flux_eval(p.flux, p.a, u) - v) / p.eps**2
    )
    return du_dt, dv_dt


def semi_discrete_rhs(p: ModelParams, grid: Grid, state: HyperbolicState):
    """Method-of-lines right-hand side of the relaxed system (HLL fluxes).

    du_i/dt = -(v_{i+1}-v_{i-1})/(2dx) + lam (u_{i+1}-2u_i+u_{i-1})/(2dx)
    dv_i/dt = -lam^2 (u_{i+1}-u_{i-1})/(2 eps^2 dx)
              + lam (v_{i+1}-2v_i+v_{i-1})/(2dx) + (f(u_i)-v_i)/eps^2
    with copy-ghost closure.
    """
    if p.eps <= 0:
        raise ValueError("the semi-discrete relaxed system requires eps > 0")
    return _hyperbolic_rhs_arrays(p, grid, state.u, state.v)


def _limit_ubar_rhs(p: ModelParams, grid: Grid, ubar: np.ndarray) -> np.ndarray:
    vbar = equilibrium_v(p, grid, ubar)
    ue = pad_edges(ubar)
    ve = pad_edges(vbar)
    two_dx = 2.0 * grid.dx
    return -(ve[2:] - ve[:-2]) / two_dx + p.lam * (ue[2:] - 2.0 * ubar + ue[:-2]) / two_dx


ALGEBRAIC_TOL = 1e-12


def limit_semi_discrete_rhs(p: ModelParams, grid: Grid, state: LimitState):
    """Right-hand side of the limit pair.

    ubar evolves like the relaxed u with vbar in the flux; dvbar/dt follows
    by differentiating the closure through dubar/dt (chain rule, no time
    differencing), which keeps the discrete entropy identity exact.
    """
    gap = np.abs(state.vbar - equilibrium_v(p, grid, state.ubar)).max()
    if gap > ALGEBRAIC_TOL:
        raise ValueError(f"limit state violates the algebraic closure by {gap:.3e}")
    dubar_dt = _limit_ubar_rhs(p, grid, state.ubar)
    rate = _padded(dubar_dt)[0]
    dvbar_dt = _ClosureRate(p, grid.dx, state.ubar, rate, np.empty(grid.n_cells))()
    return dubar_dt, dvbar_dt


def rk4_hyperbolic_step(p: ModelParams, grid: Grid, state: HyperbolicState, dt: float) -> HyperbolicState:
    """Classical RK4 step of the relaxed method-of-lines system."""
    u0, v0 = state.u, state.v
    k1u, k1v = _hyperbolic_rhs_arrays(p, grid, u0, v0)
    k2u, k2v = _hyperbolic_rhs_arrays(p, grid, u0 + 0.5 * dt * k1u, v0 + 0.5 * dt * k1v)
    k3u, k3v = _hyperbolic_rhs_arrays(p, grid, u0 + 0.5 * dt * k2u, v0 + 0.5 * dt * k2v)
    k4u, k4v = _hyperbolic_rhs_arrays(p, grid, u0 + dt * k3u, v0 + dt * k3v)
    sixth = dt / 6.0
    u = u0 + sixth * (k1u + 2.0 * k2u + 2.0 * k3u + k4u)
    v = v0 + sixth * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
    _check_finite(u, v)
    return HyperbolicState(u=u, v=v, t=state.t + dt)


def rk4_limit_step(p: ModelParams, grid: Grid, state: LimitState, dt: float) -> LimitState:
    """Classical RK4 step of the limit system; vbar re-closed per stage."""
    y0 = state.ubar
    k1 = _limit_ubar_rhs(p, grid, y0)
    k2 = _limit_ubar_rhs(p, grid, y0 + 0.5 * dt * k1)
    k3 = _limit_ubar_rhs(p, grid, y0 + 0.5 * dt * k2)
    k4 = _limit_ubar_rhs(p, grid, y0 + dt * k3)
    ubar = y0 + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    _check_finite(ubar)
    return LimitState(ubar=ubar, vbar=equilibrium_v(p, grid, ubar), t=state.t + dt)
