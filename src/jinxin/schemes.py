"""Time advancement: splitting scheme, its eps->0 limit, and the semi-discrete systems.

Two families are provided on the same uniform grid and HLL space operator,
both marched in place by ``PairMarch``:

* a fully discrete 2-step splitting (explicit HLL convection at the frozen
  wave speeds +-lam, then a closed-form implicit relaxation solve), whose
  eps -> 0 limit is an explicit scheme for the convection-diffusion problem;
* the method-of-lines systems (continuous in time) for both the relaxed and
  the limiting equations, integrated with classical RK4 for the entropy
  diagnostics.

A march holds one relaxed pair per eps beside one shared limit pair; the
pairs never mix, so each behaves as if marched alone, bit for bit.  No step
checks its cells.  The kernels only add, subtract, multiply and divide by
constants, so a NaN or inf never turns finite again, and
``PairMarch.finite_pairs()`` at the caller's record points and at the end
catches every blow-up, pair by pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import Grid, ModelParams, equilibrium_v, flux_derivative, flux_eval


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


def _padded(*rows) -> np.ndarray:
    """Stack cell fields into one float64 block with a copy ghost at each end."""
    block = np.empty((len(rows), len(rows[0]) + 2))
    block[:, 1:-1] = rows
    _Ghosts(block)()
    return block


class _Ghosts:
    """Refreshes the copy ghosts of a ghost-padded block, every row at once.

    The zero-gradient closure of ``model.pad_edges``: the strided views pick
    the ghosts (0, n+1) and the edge cells (1, n) they copy.
    """

    def __init__(self, block: np.ndarray) -> None:
        n = block.shape[-1] - 2
        self.ghosts, self.edges = block[..., :: n + 1], block[..., 1 : n + 1 : n - 1]

    def __call__(self) -> None:
        self.ghosts[...] = self.edges


class _HLLConvection:
    """HLL convection of ghost-padded (u, v) pairs, in place on their cells.

    ``rows`` has shape (k, 2, n+2): k pairs, each marched on its own.  The
    interface fluxes
        F_u = (v_i + v_{i+1})/2 - lam (u_{i+1} - u_i)/2
        F_v = lam^2 (u_i + u_{i+1})/2 - lam (v_{i+1} - v_i)/2
    take one ufunc call per stage for all rows: the neighbour sums enter
    with each pair swapped and the coefficients [1/2, lam^2/2].
    """

    def __init__(self, p: ModelParams, rows: np.ndarray) -> None:
        shape = rows.shape[:-1] + (rows.shape[-1] - 1,)
        self.left, self.right, self.cells = rows[..., :-1], rows[..., 1:], rows[..., 1:-1]
        self.sum_coef = np.array([[0.5], [0.5 * p.lam**2]])
        self.half_lam = 0.5 * p.lam
        self.terms = np.empty(shape)
        self.swapped = self.terms[..., ::-1, :]
        self.fluxes = np.empty(shape)
        self.east, self.west = self.fluxes[..., 1:], self.fluxes[..., :-1]
        self.change = np.empty(self.cells.shape)

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


def _relax(v: np.ndarray, target: np.ndarray, weight, scratch: np.ndarray) -> None:
    # v <- target + w (v - target), in place, with one weight per row of v;
    # this form keeps equilibria exact, and w = eps^2/(eps^2 + dt) = 0 at
    # eps = 0 lands v on the limit closure
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
        self.refresh_ghosts = _Ghosts(rate_padded)
        self.rate, self.east, self.west = rate_padded[1:-1], rate_padded[2:], rate_padded[:-2]
        self.diffusive = np.empty(len(ubar))
        self.out = out

    def __call__(self) -> np.ndarray:
        diffusive, out = self.diffusive, self.out
        self.refresh_ghosts()
        np.subtract(self.east, self.west, out=diffusive)
        np.multiply(self.lam2, diffusive, out=diffusive)
        np.divide(diffusive, self.two_dx, out=diffusive)
        np.multiply(self.speed, self.rate, out=out)
        return np.subtract(out, diffusive, out=out)


class _PairRates:
    """Method-of-lines rates of the ghost-padded pairs in ``rows``, into ``out``.

    ``rows`` holds one relaxed pair (u, v) per entry of ``epsilons``, then,
    with ``limit``, the limit pair (ubar, vbar).  Terms are formed and summed
    as written:
        du/dt = -(v_{i+1} - v_{i-1})/(2dx) + lam ((u_{i+1} - 2u_i) + u_{i-1})/(2dx)
        dv/dt = -lam^2 (u_{i+1} - u_{i-1})/(2dx eps^2)
                + lam ((v_{i+1} - 2v_i) + v_{i-1})/(2dx) + (f(u) - v)/eps^2
    and dubar/dt as du/dt with vbar for v.  ``out`` holds the rates of the
    rows before vbar: the limit pair has no row of its own for dvbar/dt.
    One ufunc call per operation serves all rows (the jumps of a pair swapped).
    """

    def __init__(
        self, p: ModelParams, dx: float, rows: np.ndarray, epsilons: tuple[float, ...], limit: bool
    ) -> None:
        n = rows.shape[1] - 2
        eps2 = [eps**2 for eps in epsilons]
        n_pairs = len(eps2) + limit
        n_rates = 2 * n_pairs - limit
        self.jump_ends = rows[:, 2:], rows[:, :-2]
        self.east, self.center, self.west = rows[:n_rates, 2:], rows[:n_rates, 1:-1], rows[:n_rates, :-2]
        self.jumps, self.first = np.empty((2, n_pairs, 2, n))
        self.flat_jumps, self.swapped = self.jumps.reshape(-1, n), self.jumps[:, ::-1]
        self.first_rates = self.first.reshape(-1, n)[:n_rates]
        self.second = np.empty((n_rates, n))
        self.lam, self.two_dx = p.lam, 2.0 * dx
        self.coef = np.array([[[-1.0], [-p.lam**2]]] * len(eps2) + [[[-1.0], [0.0]]] * limit)
        self.denom = np.array(
            [[[2.0 * dx], [2.0 * dx * e2]] for e2 in eps2] + [[[2.0 * dx], [2.0 * dx]]] * limit
        )
        self.n_relaxed = r = 2 * len(eps2)
        self.relaxed_u, self.relaxed_v = self.center[0:r:2], self.center[1:r:2]
        self.flux, self.a, self.eps2 = p.flux, p.a, np.array(eps2)[:, None]
        self.source = np.empty((len(eps2), n))

    def __call__(self, out: np.ndarray) -> np.ndarray:
        first, second = self.first, self.second
        np.subtract(*self.jump_ends, out=self.flat_jumps)
        np.multiply(self.coef, self.swapped, out=first)
        np.divide(first, self.denom, out=first)
        np.multiply(2.0, self.center, out=second)
        np.subtract(self.east, second, out=second)
        np.add(second, self.west, out=second)
        np.multiply(self.lam, second, out=second)
        np.divide(second, self.two_dx, out=second)
        np.add(self.first_rates, second, out=out)
        if self.n_relaxed:
            dv_dt = out[1 : self.n_relaxed : 2]
            source = flux_eval(self.flux, self.a, self.relaxed_u, out=self.source)
            np.subtract(source, self.relaxed_v, out=source)
            np.divide(source, self.eps2, out=source)
            np.add(dv_dt, source, out=dv_dt)
        return out


class PairMarch:
    """Relaxed pairs and their shared eps -> 0 limit, marched in place side by side.

    One relaxed pair (u, v) per entry of ``epsilons`` (default: ``p.eps``
    alone) and the one limit pair (ubar, vbar) are the rows
    u_1, v_1, ..., u_k, v_k, ubar, vbar of one float64 block of shape
    (2k+2, n+2), each with one copy ghost per side; ``pairs`` views it as
    (k+1, 2, n+2).  Every relaxed pair starts from (u, v) and differs from
    the others only in its eps: the per-eps constants are columns, one entry
    per row, so no kernel mixes rows.  ``ubar`` and ``vbar`` view the limit
    cells; ``u`` and ``v`` view the relaxed cells, one row per eps, or the
    cells themselves when there is one eps.  Two steppers share the block
    and the dt.  One step of the splitting scheme is

        convect()     explicit half: HLL convection of every (u, v), then
                      the forward-Euler limit update ubar += dt dubar/dt
        relax()       implicit half: one centered gradient of (u, ubar)
                      gives the relaxation targets of v and the closure vbar

    and one step of the semi-discrete scheme is ``rk4_step()``: classical
    RK4 of all method-of-lines pairs, vbar re-closed after every stage.
    ``limit_rate()`` returns dubar/dt of the current limit pair; convect()
    computes it itself unless limit_rate() already did for this state.
    Neither stepper allocates nor checks finiteness: that is
    ``finite_pairs()``, for the caller to run where it reads the cells.
    With ``curvature`` the march also serves ``closure_rates()``, the fields
    behind the K norms.
    """

    def __init__(
        self, p: ModelParams, grid: Grid, dt: float,
        u: np.ndarray, v: np.ndarray, ubar: np.ndarray, vbar: np.ndarray,
        curvature: bool = False, epsilons: tuple[float, ...] | None = None,
    ) -> None:
        n = grid.n_cells
        epsilons = (p.eps,) if epsilons is None else tuple(epsilons)
        k = len(epsilons)
        self.block = block = _padded(*(u, v) * k, ubar, vbar)
        self.pairs = pairs = block.reshape(k + 1, 2, n + 2)
        self.relaxed, self.limit = pairs[:k, :, 1:-1], pairs[k, :, 1:-1]
        self.ubar, self.vbar = self.limit
        self.u, self.v = self.relaxed[0] if k == 1 else self.relaxed.transpose(1, 0, 2)
        self._v_rows = self.relaxed[:, 1]
        self._refresh_ghosts = _Ghosts(block)
        self._dt = dt
        self._dt_dx = dt / grid.dx
        self._weight = np.array([[eps**2 / (eps**2 + dt)] for eps in epsilons])
        self._hll = _HLLConvection(p, pairs[:k])
        self._rate = _LimitRate(p, grid.dx, block[-2:], curvature)
        self._rate_current = False
        # the relaxation targets of the v rows, then the closure vbar
        self._targets = np.empty((k + 1, n))
        coefs = [(1.0 - eps**2) * p.lam**2 for eps in epsilons] + [p.lam**2]
        self._closure = _Closure(p, grid.dx, block[::2], coefs, self._targets)
        self._scratch = np.empty((k, n))
        self._increment = np.empty(n)
        if curvature:
            self._k_fields = np.empty((2, n))
            self._closure_rate = _ClosureRate(
                p, grid.dx, self.ubar, self._rate.padded, self._k_fields[0]
            )
            self._vbar_second = self._rate.second[1]
            self._dx2 = grid.dx * grid.dx
        self._stage = stage = np.empty_like(block)
        self._k = np.empty((4, 2 * k + 1, n))  # RK4 rates of every row but vbar
        self._rates = [_PairRates(p, grid.dx, b, epsilons, limit=True) for b in (block, stage)]
        self._closings = [
            (
                _Ghosts(b[:-1]),
                _Closure(p, grid.dx, b[-2:-1], (p.lam**2,), b[-1:, 1:-1]),
                _Ghosts(b[-1]),
            )
            for b in (block, stage)
        ]

    def limit_rate(self) -> np.ndarray:
        """dubar/dt of the current limit pair, as used by the next convect()."""
        self._rate_current = True
        return self._rate()

    def convect(self) -> None:
        """Explicit half step of every pair."""
        if not self._rate_current:
            self._rate()
        self._rate_current = False
        self._hll.step(self._dt_dx)
        np.multiply(self._dt, self._rate.rate, out=self._increment)
        np.add(self.ubar, self._increment, out=self.ubar)
        self._refresh_ghosts()

    def relax(self) -> None:
        """Implicit half step: relaxation solve of every v, algebraic closure of vbar."""
        self._rate_current = False
        self._closure()
        _relax(self._v_rows, self._targets[:-1], self._weight, self._scratch)
        np.copyto(self.vbar, self._targets[-1])
        self._refresh_ghosts()

    def rk4_step(self) -> None:
        """Classical RK4 step of all method-of-lines pairs, vbar re-closed per stage.

        Stages y0 + (dt/2) k and y0 + dt k, then y0 + (((k1 + 2 k2) + 2 k3) + k4) dt/6.
        """
        self._rate_current = False
        k, y0, y = self._k, self.block[:-1, 1:-1], self._stage[:-1, 1:-1]
        self._rates[0](k[0])
        for i, h in enumerate((0.5 * self._dt, 0.5 * self._dt, self._dt)):
            np.multiply(h, k[i], out=y)
            np.add(y0, y, out=y)
            self._close(1)
            self._rates[1](k[i + 1])
        np.multiply(2.0, k[1:3], out=k[1:3])
        for i in (1, 2, 3):
            np.add(k[0], k[i], out=k[0])
        np.multiply(self._dt / 6.0, k[0], out=k[0])
        np.add(y0, k[0], out=y0)
        self._close(0)

    def _close(self, which: int) -> None:
        # the ghosts of every row but vbar, vbar re-closed, then its ghosts
        for step in self._closings[which]:
            step()

    def finite_pairs(self) -> list[bool]:
        """Per relaxed pair, whether its cells and those of the limit pair are all finite."""
        finite = np.isfinite(self.block).reshape(len(self.pairs), -1)
        *pairs, limit = np.logical_and.reduce(finite, axis=1).tolist()
        return [pair and limit for pair in pairs]

    def closure_rates(self) -> np.ndarray:
        """Rows dvbar/dt and D_xx vbar of the current limit pair, after limit_rate().

        Needs ``curvature``.  Both rows are scratch, overwritten by the next call.
        """
        self._closure_rate()
        np.divide(self._vbar_second, self._dx2, out=self._k_fields[1])
        return self._k_fields

    def states(self, t: float, row: int = 0) -> tuple[HyperbolicState, LimitState]:
        """Copies of relaxed pair ``row`` and of the limit pair, stamped with time t."""
        (u, v), (ubar, vbar) = self.pairs[[row, -1], :, 1:-1]
        return HyperbolicState(u=u, v=v, t=t), LimitState(ubar=ubar, vbar=vbar, t=t)


def semi_discrete_rhs(p: ModelParams, grid: Grid, state: HyperbolicState) -> np.ndarray:
    """Method-of-lines right-hand side of the relaxed system: rows du/dt and dv/dt.

    The HLL stencils of ``_PairRates``, with copy-ghost closure.
    """
    if p.eps <= 0:
        raise ValueError("the semi-discrete relaxed system requires eps > 0")
    rates = _PairRates(p, grid.dx, _padded(state.u, state.v), (p.eps,), limit=False)
    return rates(np.empty((2, grid.n_cells)))


ALGEBRAIC_TOL = 1e-12


def limit_semi_discrete_rhs(p: ModelParams, grid: Grid, state: LimitState):
    """Right-hand side of the limit pair.

    ubar evolves like the relaxed u with vbar in the flux; dvbar/dt follows
    by differentiating the closure through dubar/dt (chain rule, no time
    differencing), which keeps the discrete entropy identity exact.
    """
    vbar = equilibrium_v(p, grid, state.ubar)
    gap = np.abs(state.vbar - vbar).max()
    if gap > ALGEBRAIC_TOL:
        raise ValueError(f"limit state violates the algebraic closure by {gap:.3e}")
    block = _padded(state.ubar, vbar)
    rate = np.empty((1, grid.n_cells + 2))
    dubar_dt = _PairRates(p, grid.dx, block, (), limit=True)(rate[:, 1:-1])[0]
    dvbar_dt = _ClosureRate(p, grid.dx, block[0, 1:-1], rate[0], np.empty(grid.n_cells))()
    return dubar_dt, dvbar_dt
