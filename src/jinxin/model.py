"""Relaxation model: parameters, fluxes, grids, and the quadratic entropy algebra.

The hyperbolic system couples a conserved quantity u with a flux variable v
that relaxes toward f(u) on the fast time scale eps^2:

    d/dt u + d/dx v = 0
    eps^2 d/dt v + lam^2 d/dx u = f(u) - v

As eps -> 0 the solutions approach a convection-diffusion equation for u
with diffusivity lam^2, closed by v = f(u) - lam^2 du/dx.  For the linear
flux f(u) = a*u the system carries an explicit quadratic entropy pair (E, F)
whose relative version measures the squared distance between the relaxed and
the limiting solutions; everything in ``diagnostics`` builds on that algebra.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

LINEAR = "linear"
BURGERS = "burgers"
FLUX_KINDS = (LINEAR, BURGERS)


def _require_finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class ModelParams:
    """Physical and numerical constants shared by every scheme.

    ``eps`` is the relaxation parameter, ``lam`` the frozen wave speed,
    ``a`` the linear transport coefficient (ignored by the Burgers flux),
    ``cfl`` the time-step safety factor and ``t_final`` the horizon.
    """

    eps: float
    lam: float
    a: float = 0.0
    flux: str = LINEAR
    cfl: float = 0.95
    t_final: float = 0.1

    def __post_init__(self) -> None:
        for name in ("eps", "lam", "a", "cfl", "t_final"):
            _require_finite(name, getattr(self, name))
        # eps = 0 is admitted so the relaxation update can be evaluated in
        # its limit form; entropy/diagnostic routines insist on eps > 0.
        if self.eps < 0:
            raise ValueError(f"eps must be >= 0, got {self.eps}")
        if self.lam <= 0:
            raise ValueError(f"lam must be > 0, got {self.lam}")
        if not 0 < self.cfl <= 1:
            raise ValueError(f"cfl must lie in (0, 1], got {self.cfl}")
        if self.t_final <= 0:
            raise ValueError(f"t_final must be > 0, got {self.t_final}")
        if self.flux not in FLUX_KINDS:
            raise ValueError(f"unknown flux {self.flux!r}, expected one of {FLUX_KINDS}")


@dataclass(frozen=True)
class Grid:
    """Uniform 1-D cell grid on [x_min, x_max]."""

    n_cells: int
    x_min: float = 0.0
    x_max: float = 1.0

    def __post_init__(self) -> None:
        _require_finite("x_min", self.x_min)
        _require_finite("x_max", self.x_max)
        if self.n_cells < 3:
            raise ValueError(f"need at least 3 cells, got {self.n_cells}")
        if not self.x_max > self.x_min:
            raise ValueError(f"empty domain [{self.x_min}, {self.x_max}]")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.n_cells

    @property
    def centers(self) -> np.ndarray:
        return self.x_min + (np.arange(self.n_cells) + 0.5) * self.dx

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.x_min + self.x_max)


@dataclass(frozen=True)
class ConvexityBounds:
    """Extreme eigenvalues of the (constant) entropy Hessian."""

    beta0: float
    beta1: float


def pad_edges(w: np.ndarray) -> np.ndarray:
    """Extend a cell field with one copy ghost per side (zero-gradient).

    The far fields are constant states, so copying the edge cell keeps every
    flux difference zero at the boundary until a wave arrives.
    """
    return np.concatenate((w[:1], w, w[-1:]))


def flux_eval(flux: str, a: float, u):
    """Evaluate the scalar flux: a*u for linear, u^2/2 for Burgers."""
    if flux == LINEAR:
        return a * np.asarray(u, dtype=float) if np.ndim(u) else a * u
    if flux == BURGERS:
        return 0.5 * np.square(u) if np.ndim(u) else 0.5 * u * u
    raise ValueError(f"unknown flux {flux!r}")


def flux_ops(flux: str, a: float, u: np.ndarray, out: np.ndarray) -> tuple:
    """The flux of the array ``u`` written into ``out``, as (ufunc, operands) calls.

    For a prebuilt op sequence: the same float operations as ``flux_eval``.
    """
    if flux == LINEAR:
        return ((np.multiply, (a, u, out)),)
    if flux == BURGERS:
        return ((np.square, (u, out)), (np.multiply, (0.5, out, out)))
    raise ValueError(f"unknown flux {flux!r}")


def flux_derivative(flux: str, a: float, u):
    """df/du: constant a for linear, u itself for Burgers."""
    if flux == LINEAR:
        return a * np.ones_like(u) if np.ndim(u) else a
    if flux == BURGERS:
        return np.asarray(u, dtype=float) if np.ndim(u) else u
    raise ValueError(f"unknown flux {flux!r}")


def check_subcharacteristic(p: ModelParams, u_range: tuple[float, float] | None = None) -> bool:
    """True when the relaxation is dissipative: lam > eps*|df/du|.

    For the linear flux the criterion is lam > eps*|a|.  The Burgers entropy
    is not explicit, so the check falls back to the extreme wave speeds of
    the supplied initial-data range (maximum-principle heuristic).
    """
    if p.flux == LINEAR:
        return p.lam > p.eps * abs(p.a)
    if u_range is None:
        raise ValueError("Burgers subcharacteristic check needs the initial data range")
    return p.lam > p.eps * max(abs(u_range[0]), abs(u_range[1]))


def _require_linear(p: ModelParams, what: str) -> None:
    if p.flux != LINEAR:
        raise ValueError(f"{what} is only explicit for the linear flux")


def entropy(p: ModelParams, u, v):
    """Entropy E(u, v) = lam^2 u^2/2 + eps^2 v^2/2 - eps^2 a u v (linear flux)."""
    _require_linear(p, "the entropy")
    return 0.5 * p.lam**2 * u * u + 0.5 * p.eps**2 * v * v - p.eps**2 * p.a * u * v


def entropy_gradient(p: ModelParams, u, v):
    """Gradient of E: (lam^2 u - eps^2 a v, eps^2 v - eps^2 a u)."""
    _require_linear(p, "the entropy gradient")
    return (p.lam**2 * u - p.eps**2 * p.a * v, p.eps**2 * v - p.eps**2 * p.a * u)


def entropy_flux(p: ModelParams, u, v):
    """Entropy flux F(u, v) = -lam^2 a u^2/2 - eps^2 a v^2/2 + lam^2 u v."""
    _require_linear(p, "the entropy flux")
    return -0.5 * p.lam**2 * p.a * u * u - 0.5 * p.eps**2 * p.a * v * v + p.lam**2 * u * v


def relative_entropy(p: ModelParams, u, v, ubar, vbar):
    """First-order Taylor remainder of E around (ubar, vbar).

    E is quadratic, so the remainder is E evaluated on the differences:
    lam^2 du^2/2 + eps^2 dv^2/2 - eps^2 a du dv, nonnegative under the
    subcharacteristic condition.
    """
    return entropy(p, u - ubar, v - vbar)


def relative_entropy_flux(p: ModelParams, u, v, ubar, vbar):
    """Relative entropy flux: the F-algebra applied to the differences."""
    return entropy_flux(p, u - ubar, v - vbar)


def convexity_bounds(p: ModelParams) -> ConvexityBounds:
    """Eigenvalue range [beta0, beta1] of the entropy Hessian.

    The Hessian is the constant symmetric matrix [[lam^2, -eps^2 a],
    [-eps^2 a, eps^2]]; closed-form 2x2 eigenvalues via trace/discriminant.
    Strict convexity (beta0 > 0) requires eps > 0 and the subcharacteristic
    condition.
    """
    _require_linear(p, "the convexity bounds")
    if p.eps <= 0:
        raise ValueError("entropy Hessian degenerates at eps = 0")
    if not check_subcharacteristic(p):
        raise ValueError(
            f"subcharacteristic condition violated: lam={p.lam} <= eps*|a|={p.eps * abs(p.a)}"
        )
    half_trace = 0.5 * (p.lam**2 + p.eps**2)
    radius = math.hypot(0.5 * (p.lam**2 - p.eps**2), p.eps**2 * p.a)
    return ConvexityBounds(beta0=half_trace - radius, beta1=half_trace + radius)


def equilibrium_v(p: ModelParams, grid: Grid, ubar: np.ndarray) -> np.ndarray:
    """Discrete closure v = f(u) - lam^2 * centered gradient of u, as (lam^2/(2 dx)) (u_{i+1} - u_{i-1})."""
    ext = pad_edges(np.asarray(ubar, dtype=float))
    return flux_eval(p.flux, p.a, ext[1:-1]) - p.lam**2 / (2.0 * grid.dx) * (ext[2:] - ext[:-2])


def riemann_initial(
    p: ModelParams,
    grid: Grid,
    u_left: float,
    u_right: float,
    well_prepared: bool = False,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Riemann data with the jump at the domain midpoint.

    Returns (u, v, ubar, vbar).  The limit pair always satisfies the discrete
    closure.  With ``well_prepared`` the relaxed v starts on the closure too
    (zero initial relative entropy); otherwise v starts at the flat
    equilibrium f(u), which leaves a gradient spike of size
    lam^2*|u_left-u_right|/(2 dx) in v - vbar at the jump.
    """
    u = np.where(grid.centers < grid.midpoint, float(u_left), float(u_right))
    ubar = u.copy()
    vbar = equilibrium_v(p, grid, ubar)
    v = vbar.copy() if well_prepared else np.asarray(flux_eval(p.flux, p.a, u), dtype=float)
    return u, v, ubar, vbar
