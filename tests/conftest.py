import numpy as np
import pytest

from jinxin import model, schemes
from jinxin.model import Grid, ModelParams


@pytest.fixture
def base_params() -> ModelParams:
    """Linear test-case constants: lam=0.72, a=0.5, eps=1, T=0.1."""
    return ModelParams(eps=1.0, lam=0.72, a=0.5)


@pytest.fixture
def unit_grid() -> Grid:
    return Grid(n_cells=200)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(987654321)


def smooth_bump(x: np.ndarray, center: float = 0.5, width: float = 0.08) -> np.ndarray:
    """Gaussian bump, numerically flat at the domain ends."""
    return np.exp(-(((x - center) / width) ** 2))


def pair_march(p: ModelParams, grid: Grid, dt: float, u, v, ubar=None) -> schemes.PairMarch:
    """A march of (u, v) and of the limit pair (ubar, its closure), for either scheme.

    ubar defaults to u; the two pairs do not interact.
    """
    ubar = u if ubar is None else ubar
    return schemes.PairMarch(p, grid, dt, u, v, ubar, model.equilibrium_v(p, grid, ubar))


def split_steps(march: schemes.PairMarch, n: int = 1) -> schemes.PairMarch:
    """n splitting steps of both pairs, in the order ``harness.run_pair`` takes them."""
    for _ in range(n):
        march.convect()
        march.relax()
    return march
