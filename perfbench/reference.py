"""A short NumPy re-implementation of one paired run, independent of jinxin.

Written from the formulas in the README and the scheme's documentation, not
from the program's code.  On [x_min, x_max] with n uniform cells, copy
ghosts at both ends and the linear flux f(u) = a u:

* closure:      vbar = f(ubar) - lam^2 (ubar_{i+1} - ubar_{i-1}) / (2 dx)
* step size:    dt = cfl min(dx / (2 lam), dx^2 / lam^2), rounded down so
                that a whole number of steps lands on t_final
* splitting:    HLL convection at the frozen speeds +-lam,
                  F_u = (v_i + v_{i+1})/2 - lam (u_{i+1} - u_i)/2
                  F_v = lam^2 (u_i + u_{i+1})/2 - lam (v_{i+1} - v_i)/2,
                then the implicit relaxation
                  v <- w v + (1 - w) [f(u) - (1 - eps^2) lam^2 du/dx],
                  w = eps^2 / (eps^2 + dt)
* limit step:   ubar <- ubar - dt/(2dx) (vbar_{i+1} - vbar_{i-1})
                             + lam dt/(2dx) (ubar_{i+1} - 2 ubar_i + ubar_{i-1}),
                then vbar re-closed
* error:        sum over steps k = 0 .. n-1 (left end point) of
                dt dx sum_i [lam^2 du^2/2 + eps^2 dv^2/2 - eps^2 a du dv]
"""

from __future__ import annotations

import math

import numpy as np


def _ghosted(w: np.ndarray) -> np.ndarray:
    return np.concatenate((w[:1], w, w[-1:]))


def weighted_error(
    eps: float,
    n_cells: int,
    lam: float = 0.72,
    a: float = 0.5,
    cfl: float = 0.95,
    t_final: float = 0.1,
    u_left: float = 2.0,
    u_right: float = 1.0,
    x_min: float = 0.0,
    x_max: float = 1.0,
) -> float:
    """Entropy-weighted squared space-time error of a well-prepared Riemann run."""
    dx = (x_max - x_min) / n_cells
    x = x_min + (np.arange(n_cells) + 0.5) * dx
    lam2, eps2 = lam * lam, eps * eps

    def closure(ub: np.ndarray) -> np.ndarray:
        g = _ghosted(ub)
        return a * ub - lam2 * (g[2:] - g[:-2]) / (2.0 * dx)

    u = np.where(x < 0.5 * (x_min + x_max), u_left, u_right).astype(float)
    ubar = u.copy()
    vbar = closure(ubar)
    v = vbar.copy()

    n_steps = math.ceil(t_final / (cfl * min(dx / (2.0 * lam), dx * dx / lam2)))
    dt = t_final / n_steps
    w = eps2 / (eps2 + dt)

    total = 0.0
    for _ in range(n_steps):
        du = u - ubar
        dv = v - vbar
        total += dt * dx * float(np.sum(0.5 * lam2 * du * du + 0.5 * eps2 * dv * dv - eps2 * a * du * dv))

        ug, vg = _ghosted(u), _ghosted(v)
        flux_u = 0.5 * (vg[:-1] + vg[1:]) - 0.5 * lam * (ug[1:] - ug[:-1])
        flux_v = 0.5 * lam2 * (ug[:-1] + ug[1:]) - 0.5 * lam * (vg[1:] - vg[:-1])
        u = u - dt / dx * np.diff(flux_u)
        v_half = v - dt / dx * np.diff(flux_v)
        g = _ghosted(u)
        target = a * u - (1.0 - eps2) * lam2 * (g[2:] - g[:-2]) / (2.0 * dx)
        v = w * v_half + (1.0 - w) * target

        ubg, vbg = _ghosted(ubar), _ghosted(vbar)
        ubar = ubar + dt / (2.0 * dx) * (-(vbg[2:] - vbg[:-2]) + lam * (ubg[2:] - 2.0 * ubar + ubg[:-2]))
        vbar = closure(ubar)
    return total
