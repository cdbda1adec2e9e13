"""Time advancement: splitting scheme, its eps->0 limit, and the semi-discrete systems.

Two families are provided on the same uniform grid and HLL space operator,
both marched in place by ``PairMarch``:

* a fully discrete 2-step splitting (explicit HLL convection at the frozen
  wave speeds +-lam, then a closed-form implicit relaxation solve), whose
  eps -> 0 limit is an explicit scheme for the convection-diffusion problem:
  the limit update is the HLL convection of the ubar row, with the closure
  vbar in its flux, and the relaxation solve at eps = 0 is that closure;
* the method-of-lines systems (continuous in time) for both the relaxed and
  the limiting equations, integrated with classical RK4 for the entropy
  diagnostics.

A march holds one relaxed pair per eps beside one shared limit pair; the
pairs never mix, so each behaves as if marched alone, bit for bit.  No step
checks its cells.  The kernels only add, subtract, multiply and divide by
constants, so a NaN or inf never turns finite again, and
``PairMarch.finite_pairs()`` at the caller's record points and at the end
catches every blow-up, pair by pair.

The arrays are short (a few hundred cells), so a step costs NumPy calls,
not arithmetic, and a call on one contiguous 1-D span costs about half of
one on a strided 2-D view.  So the march lays its rows out in two halves,
every u row and then every v row, and each kernel works on flat spans of
whole ghost-padded rows: a stencil reads ``f[2:]``, ``f[1:-1]`` and
``f[:-2]`` of the flattened rows at once, and a per-row constant becomes an
array with one entry per slot.  A stencil term takes its constants (dt/dx,
lam, 1/(2 dx), 1/eps^2) folded into one coefficient, so one multiply.  The
slots that fall on a ghost, or straddle two rows, carry junk: no cell reads
them, the ghost refresh that ends every step and RK4 stage overwrites the
junk written into the block's ghosts, and scratch buffers start zeroed.
A row's partner sits one half further on, so the only ops on 2-D views are
the pair swaps, on two contiguous rows, and the ghost refresh.  Each kernel
is a tuple of (ufunc, operands) calls, ``out`` last, built once with the
march; a step replays its tuple.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import Grid, ModelParams, equilibrium_v, flux_derivative, flux_ops


class InstabilityError(RuntimeError):
    """Raised when a scheme produces non-finite cell values."""


@dataclass
class HyperbolicState:
    """Cell values of the relaxed pair (u, v)."""

    u: np.ndarray
    v: np.ndarray


@dataclass
class LimitState:
    """Cell values of the limit pair (ubar, vbar); vbar obeys the discrete closure."""

    ubar: np.ndarray
    vbar: np.ndarray


@dataclass(frozen=True)
class StepSize:
    """Time increment and the number of steps landing exactly on t_final."""

    dt: float
    n_steps: int


def _land_on_t_final(dt_raw: float, t_final: float) -> StepSize:
    # Round dt down so the march hits t_final exactly; space-time error
    # norms need both solutions sampled on the same uniform step ladder.
    # A dt that underflows to 0, or a step count that overflows, is refused.
    ratio = t_final / dt_raw if dt_raw > 0 else math.inf
    if not math.isfinite(ratio):
        raise ValueError(f"the step rule gives dt = {dt_raw:g}: no finite step count reaches t_final")
    n = max(1, math.ceil(ratio))
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


def _zeros(shape) -> np.ndarray:
    """A float64 buffer for the march.

    Zero-filled, not empty: some junk slots are never written, and garbage
    read there could raise floating-point warnings.
    """
    return np.zeros(shape)


def _run(ops) -> None:
    """Replay a prebuilt op sequence: each (ufunc, operands) in order, ``out`` last."""
    for op, operands in ops:
        op(*operands)


def _per_row(values, width: int) -> np.ndarray:
    """One constant per row, repeated over the ``width`` slots of its padded row."""
    return np.repeat(np.asarray(values, dtype=float), width)


def _padded(*pairs) -> np.ndarray:
    """(u, v) pairs of cell fields as a block of ghost-padded rows: every u row, then every v row."""
    block = _zeros((2, len(pairs), len(pairs[0][0]) + 2))
    block.transpose(1, 0, 2)[:, :, 1:-1] = pairs
    _run(_ghost_ops(block))
    return block


def _ghost_ops(block: np.ndarray) -> tuple:
    """Refresh the copy ghosts of a ghost-padded block, every row at once.

    The zero-gradient closure of ``model.pad_edges``: the strided views pick
    the ghosts (0, n+1) and the edge cells (1, n) they copy.
    """
    n = block.shape[-1] - 2
    return ((np.copyto, (block[..., :: n + 1], block[..., 1 : n + 1 : n - 1])),)


def _second_difference_ops(row: np.ndarray, out: np.ndarray) -> tuple:
    """(w_{i+1} - 2 w_i) + w_{i-1} on the flat span ``row[1:-1]``, into ``out``."""
    return (
        (np.multiply, (2.0, row[1:-1], out)),
        (np.subtract, (row[2:], out, out)),
        (np.add, (out, row[:-2], out)),
    )


def _hll_ops(p: ModelParams, block: np.ndarray, dt: float, dx: float) -> tuple:
    """HLL convection of every u row and of the relaxed v rows, in place.

    ``block`` has shape (2, k+1, n+2), each half ending at its limit row.
    The interface fluxes, scaled by r = dt/dx,
        r F_u = r (v_i + v_{i+1})/2 - r lam (u_{i+1} - u_i)/2
        r F_v = r lam^2 (u_i + u_{i+1})/2 - r lam (v_{i+1} - v_i)/2
    take one call per stage: the neighbour sums on the whole block, entering
    with the halves swapped and the coefficients [r/2, r lam^2/2], and every
    later stage on the flat span of every row but vbar.  The ubar row is
    convected like a relaxed u row, with vbar in its flux: that is the
    eps -> 0 limit update of the splitting scheme.  vbar itself is left to
    the closure of the relaxation half.
    """
    width, r = block.shape[2], dt / dx
    flat = block.reshape(-1)
    end = flat.size - width
    left, right, cells = flat[: end - 1], flat[1:end], flat[1 : end - 1]
    terms, fluxes = _zeros((2, 2, block[0].size))
    sums, diffs = terms.reshape(-1)[:-1], terms.reshape(-1)[: end - 1]
    flat_fluxes = fluxes.reshape(-1)[: end - 1]
    change = _zeros(cells.shape)
    return (
        (np.add, (flat[:-1], flat[1:], sums)),
        (np.multiply, (np.array([[0.5 * r], [0.5 * p.lam**2 * r]]), terms[::-1], fluxes)),
        (np.subtract, (right, left, diffs)),
        (np.multiply, (0.5 * p.lam * r, diffs, diffs)),
        (np.subtract, (flat_fluxes, diffs, flat_fluxes)),
        (np.subtract, (flat_fluxes[1:], flat_fluxes[:-1], change)),
        (np.subtract, (cells, change, cells)),
    )


def _closure_ops(p: ModelParams, dx: float, rows: np.ndarray, coef, out: np.ndarray) -> tuple:
    """f(w) - (c / (2 dx)) (w_{i+1} - w_{i-1}) on the flat span ``rows[1:-1]``, into ``out``.

    With c = lam^2 this is the discrete closure of the limit pair (as in
    ``equilibrium_v``); with c = (1 - eps^2) lam^2 it is the target of the
    implicit relaxation solve.  ``coef`` is c, or one c per slot of the span.
    """
    grad = _zeros(out.shape)
    return (
        (np.subtract, (rows[2:], rows[:-2], grad)),
        (np.multiply, (coef / (2.0 * dx), grad, grad)),
        *flux_ops(p.flux, p.a, rows[1:-1], out),
        (np.subtract, (out, grad, out)),
    )


def _closure_rate_ops(p: ModelParams, dx: float, ubar, rate_padded: np.ndarray, out) -> tuple:
    """dvbar/dt = f'(ubar) dubar/dt - (lam^2 / (2 dx)) (r_{i+1} - r_{i-1}), r = dubar/dt.

    The closure differentiated through dubar/dt (chain rule, no time
    differencing), which keeps the discrete entropy identity exact.
    ``rate_padded`` is dubar/dt with a ghost per side, one row or a block of
    rows; the ops refresh its ghosts first, then work on the flat span
    ``rate_padded[1:-1]`` of the flattened rows, where ``ubar`` and ``out``
    line up.
    """
    # for Burgers f'(ubar) is the ubar array itself, not a copy, so the
    # factor follows ubar when the caller overwrites it in place
    speed = flux_derivative(p.flux, p.a, ubar)
    rate, diffusive = rate_padded.reshape(-1), _zeros(len(ubar))
    return (
        *_ghost_ops(rate_padded),
        (np.subtract, (rate[2:], rate[:-2], diffusive)),
        (np.multiply, (p.lam**2 / (2.0 * dx), diffusive, diffusive)),
        (np.multiply, (speed, rate[1:-1], out)),
        (np.subtract, (out, diffusive, out)),
    )


def _pair_rate_ops(
    p: ModelParams, dx: float, block: np.ndarray, epsilons: tuple[float, ...], out: np.ndarray
) -> tuple:
    """Method-of-lines rates of the ghost-padded pairs of ``block``, into the cells of ``out``.

    ``block`` has shape (2, m, n+2), the u half and the v half: its first
    pairs are the relaxed ones, one per entry of ``epsilons``, and each pair
    beyond them is a limit pair (ubar, vbar).  Terms are formed and
    summed as written, each constant folded into one coefficient:
        du/dt = (-1/(2dx)) (v_{i+1} - v_{i-1}) + (lam/(2dx)) ((u_{i+1} - 2u_i) + u_{i-1})
        dv/dt = (-lam^2/(2dx eps^2)) (u_{i+1} - u_{i-1})
                + (lam/(2dx)) ((v_{i+1} - 2v_i) + v_{i-1}) + (f(u) - v)/eps^2
    and dubar/dt as du/dt with vbar for v.  ``out`` holds the padded rows of
    the whole u half, then of the relaxed v rows, at their slots in
    ``block``; vbar has no rate of its own.  Each term is one call on a flat
    span, the jumps of the two halves entering swapped.
    """
    half, width, size = block[0].size, block.shape[2], out.size
    flat, rates = block.reshape(-1), out.reshape(-1)[1:-1]
    jumps, first = _zeros((2, 2, half))
    first_rates = first.reshape(-1)[1 : size - 1]
    eps2 = [eps**2 for eps in epsilons]
    # the swapped jumps, u's from v and v's from u; a vbar row takes 0.
    # Every march builds these ops, and a splitting march admits an eps
    # whose eps^2 is 0: its coefficient reads -inf, in ops that never run.
    stiff = np.zeros(block.shape[1])
    with np.errstate(divide="ignore", over="ignore"):
        stiff[: len(eps2)] = -p.lam**2 / (2.0 * dx * np.array(eps2, dtype=float))
    swap = np.stack((np.full(half, -1.0 / (2.0 * dx)), _per_row(stiff, width)))
    second = _zeros(size - 2)
    ops = (
        (np.subtract, (flat[2:], flat[:-2], jumps.reshape(-1)[1:-1])),
        (np.multiply, (swap, jumps[::-1], first)),
        *_second_difference_ops(flat[:size], second),
        (np.multiply, (p.lam / (2.0 * dx), second, second)),
        (np.add, (first_rates, second, rates)),
    )
    if not eps2:
        return ops
    # the source (f(u) - v)/eps^2 of the relaxed u rows, added to the rates
    # of the relaxed v rows; both spans end where the limit rows begin
    end = len(eps2) * width - 1
    source = _zeros(end - 1)
    dv_dt = rates[half : half + end - 1]
    return ops + (
        *flux_ops(p.flux, p.a, flat[1:end], source),
        (np.subtract, (source, flat[half + 1 : half + end], source)),
        (np.divide, (source, _per_row(eps2, width)[1:-1], source)),
        (np.add, (dv_dt, source, dv_dt)),
    )


class PairMarch:
    """Relaxed pairs and their shared eps -> 0 limit, marched in place side by side.

    One relaxed pair (u, v) per entry of ``epsilons`` (default: ``p.eps``
    alone) and the one limit pair (ubar, vbar) live in one float64 block of
    shape (2, k+1, n+2), in two halves: the rows u_1, ..., u_k, ubar, then
    v_1, ..., v_k, vbar, each with one copy ghost per side.  ``pairs`` is
    the transposed view (k+1, 2, n+2).  Every relaxed pair starts from
    (u, v) and differs from the others only in its eps: the per-eps
    constants are columns, one entry per row, so no kernel mixes pairs.
    ``ubar`` and ``vbar`` view the limit cells; ``u`` and ``v`` view the
    relaxed cells, one row per eps, or the cells themselves when there is
    one eps.  Two steppers share the block and the dt.  One step of the
    splitting scheme is

        convect()     explicit half: HLL convection of every (u, v) and, in
                      the same span, of the ubar row with vbar in its flux,
                      which is the limit update
        relax()       implicit half: one centered gradient of the u half
                      gives the relaxation targets of v and the closure vbar

    and one step of the semi-discrete scheme is ``rk4_step()``: classical
    RK4 of all method-of-lines pairs, vbar re-closed after every stage.
    Each of them replays an op sequence built here.  Neither stepper
    allocates nor checks finiteness: that is ``finite_pairs()``, for the
    caller to run where it reads the cells.
    """

    def __init__(
        self, p: ModelParams, grid: Grid, dt: float,
        u: np.ndarray, v: np.ndarray, ubar: np.ndarray, vbar: np.ndarray,
        epsilons: tuple[float, ...] | None = None,
    ) -> None:
        width, dx = grid.n_cells + 2, grid.dx
        epsilons = (p.eps,) if epsilons is None else tuple(epsilons)
        k = len(epsilons)
        self.block = block = _padded(*[(u, v)] * k, (ubar, vbar))
        self.pairs = pairs = block.transpose(1, 0, 2)
        self.relaxed, self.limit = pairs[:k, :, 1:-1], pairs[k, :, 1:-1]
        self.ubar, self.vbar = self.limit
        self.u, self.v = self.relaxed[0] if k == 1 else block[:, :k, 1:-1]
        flat = block.reshape(-1)
        refresh = _ghost_ops(block.reshape(-1, width))
        # the slots of one half, and the end of the relaxed rows in each half
        half, relaxed_end = block[0].size, k * width

        self._convect_ops = (*_hll_ops(p, block, dt, dx), *refresh)

        # the closure of the u half lines up with the v half: the
        # relaxation targets beside the v rows, the closure vbar beside vbar
        targets = _zeros(half)
        target_span, v_span = targets[1 : relaxed_end - 1], flat[half + 1 : half + relaxed_end - 1]
        scratch = _zeros(v_span.shape)
        coefs = [(1.0 - eps**2) * p.lam**2 for eps in epsilons] + [p.lam**2]
        weights = _per_row([eps**2 / (eps**2 + dt) for eps in epsilons], width)[1:-1]
        self._relax_ops = (
            *_closure_ops(p, dx, flat[:half], _per_row(coefs, width)[1:-1], targets[1:-1]),
            # v <- target + w (v - target): this form keeps equilibria exact,
            # and w = eps^2/(eps^2 + dt) = 0 at eps = 0 lands v on the closure
            (np.subtract, (v_span, target_span, scratch)),
            (np.multiply, (weights, scratch, scratch)),
            (np.add, (target_span, scratch, v_span)),
            (np.copyto, (self.vbar, targets[relaxed_end + 1 : -1])),
            *refresh,
        )

        # RK4 on the span of every row but vbar; the stage re-closes vbar
        span = half + relaxed_end
        stage = _zeros(block.shape)
        rates = _zeros((4, span))
        k_flat = [r[1:-1] for r in rates]
        y0, y = flat[1 : span - 1], stage.reshape(-1)[1 : span - 1]

        def close(b: np.ndarray) -> tuple:
            # every ghost, vbar re-closed, then the ghosts of vbar
            closure = _closure_ops(p, dx, b[0, k], p.lam**2, b[1, k, 1:-1])
            return (*_ghost_ops(b.reshape(-1, width)), *closure, *_ghost_ops(b[1, k]))

        ops = _pair_rate_ops(p, dx, block, epsilons, out=rates[0])
        for i, h in enumerate((0.5 * dt, 0.5 * dt, dt)):
            ops += (
                (np.multiply, (h, k_flat[i], y)),
                (np.add, (y0, y, y)),
                *close(stage),
                *_pair_rate_ops(p, dx, stage, epsilons, out=rates[i + 1]),
            )
        k2_k3 = rates[1:3].reshape(-1)
        self._rk4_ops = ops + (
            (np.multiply, (2.0, k2_k3, k2_k3)),
            *((np.add, (k_flat[0], k_flat[i], k_flat[0])) for i in (1, 2, 3)),
            (np.multiply, (dt / 6.0, k_flat[0], k_flat[0])),
            (np.add, (y0, k_flat[0], y0)),
            *close(block),
        )

    def convect(self) -> None:
        """Explicit half step: HLL convection of every pair, ubar with vbar in its flux."""
        _run(self._convect_ops)

    def relax(self) -> None:
        """Implicit half step: relaxation solve of every v, algebraic closure of vbar."""
        _run(self._relax_ops)

    def rk4_step(self) -> None:
        """Classical RK4 step of all method-of-lines pairs, vbar re-closed per stage.

        Stages y0 + (dt/2) k and y0 + dt k, then y0 + (((k1 + 2 k2) + 2 k3) + k4) dt/6.
        """
        _run(self._rk4_ops)

    def finite_pairs(self) -> list[bool]:
        """Per relaxed pair, whether its cells and those of the limit pair are all finite."""
        *pairs, limit = np.isfinite(self.block).all(axis=(0, 2)).tolist()
        return [pair and limit for pair in pairs]

    def states(self, row: int = 0) -> tuple[HyperbolicState, LimitState]:
        """Copies of the cells of relaxed pair ``row`` and of the limit pair."""
        (u, v), (ubar, vbar) = self.pairs[[row, -1], :, 1:-1]
        return HyperbolicState(u=u, v=v), LimitState(ubar=ubar, vbar=vbar)


def semi_discrete_rhs(p: ModelParams, grid: Grid, state: HyperbolicState) -> np.ndarray:
    """Method-of-lines right-hand side of the relaxed system: rows du/dt and dv/dt.

    The HLL stencils of ``_pair_rate_ops``, with copy-ghost closure.
    """
    if p.eps <= 0:
        raise ValueError("the semi-discrete relaxed system requires eps > 0")
    rates = _zeros((2, grid.n_cells + 2))
    _run(_pair_rate_ops(p, grid.dx, _padded((state.u, state.v)), (p.eps,), out=rates))
    return rates[:, 1:-1]


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
    block = _padded((state.ubar, vbar))
    rate, dvbar_dt = _zeros(grid.n_cells + 2), _zeros(grid.n_cells)
    _run(_pair_rate_ops(p, grid.dx, block, (), out=rate))
    _run(_closure_rate_ops(p, grid.dx, block[0, 0, 1:-1], rate, dvbar_dt))
    return rate[1:-1], dvbar_dt
