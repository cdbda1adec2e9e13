import os
import select

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


def phi_oracle(p: ModelParams, grid: Grid, du: np.ndarray, dv: np.ndarray):
    """phi = dx sum(lam^2 du^2/2 + eps^2 dv^2/2 - eps^2 a du dv) along the last axis (linear flux).

    Written from the formula, apart from the program's quadratic form; the
    cell sums come first and the terms associate as the program's do, so a
    correct program matches it to the last bit.
    """
    assert p.flux == model.LINEAR
    du2, dv2, cross = (np.add.reduce(x * y, axis=-1) for x, y in ((du, du), (dv, dv), (du, dv)))
    return grid.dx * (0.5 * p.lam**2 * du2 + 0.5 * p.eps**2 * dv2 - p.eps**2 * p.a * cross)


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


@pytest.fixture
def meeting():
    """(wait, arrive): ``wait()`` returns once ``arrive()`` has been called, in any process.

    Each returns the pid of the process that ran it.  Run one after the
    other, ``wait()`` gives up after 10 s with an ``AssertionError``, so two
    calls that return normally ran at once.
    """
    read_end, write_end = os.pipe()

    def wait() -> int:
        assert select.select([read_end], [], [], 10.0)[0], "the other call never arrived"
        return os.getpid()

    def arrive() -> int:
        os.write(write_end, b"x")
        return os.getpid()

    yield wait, arrive
    os.close(read_end)
    os.close(write_end)


def assert_no_child_left() -> None:
    """This process has no child, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
