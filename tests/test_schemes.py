import itertools
from dataclasses import fields, replace

import numpy as np
import pytest

from jinxin import harness, model, schemes
from jinxin.model import Grid, ModelParams
from jinxin.schemes import HyperbolicState, LimitState

from conftest import pair_march, phi_oracle, smooth_bump, split_steps


def constant_equilibrium(p, grid, c):
    u = np.full(grid.n_cells, float(c))
    v = np.asarray(model.flux_eval(p.flux, p.a, u))
    return HyperbolicState(u=u, v=v, t=0.0)


class TestStepSizes:
    def test_cfl_formula_before_rounding(self):
        p = ModelParams(eps=1.0, lam=0.72, a=0.5, cfl=0.95, t_final=0.1)
        grid = Grid(n_cells=200)
        raw = p.cfl * min(grid.dx / (2.0 * p.lam), grid.dx**2 / p.lam**2)
        assert raw == pytest.approx(4.5814e-5, abs=1e-9)  # the diffusion number binds
        step = schemes.marching_dt(p, grid)
        assert step.dt <= raw
        assert step.n_steps * step.dt == pytest.approx(p.t_final, rel=1e-12)

    def test_unit_example(self):
        p = ModelParams(eps=1.0, lam=1.0, a=0.0, cfl=1.0, t_final=1.0)
        grid = Grid(n_cells=10)
        # raw dt = 1.0 * min(0.1 / 2, 0.1^2) = 0.01, divides T
        step = schemes.marching_dt(p, grid)
        assert step.dt == pytest.approx(0.01)
        assert step.n_steps == 100

    def test_doubling_lam_halves_dt(self):
        # lam <= 2 dx: the convective bound dx / (2 lam) binds, and it halves
        grid = Grid(n_cells=8)
        dt1 = schemes.marching_dt(ModelParams(eps=1.0, lam=0.1, t_final=1.0, cfl=1.0), grid)
        dt2 = schemes.marching_dt(ModelParams(eps=1.0, lam=0.2, t_final=1.0, cfl=1.0), grid)
        assert dt2.dt == pytest.approx(dt1.dt / 2)

    def test_independent_of_eps(self):
        grid = Grid(n_cells=100)
        steps = {
            schemes.marching_dt(ModelParams(eps=eps, lam=0.72, a=0.5), grid)
            for eps in (1.0, 0.1, 1e-4, 1e-8)
        }
        assert len(steps) == 1

    def test_marching_respects_both_bounds(self):
        p = ModelParams(eps=1e-6, lam=0.72, a=0.5)
        grid = Grid(n_cells=200)
        step = schemes.marching_dt(p, grid)
        assert step.dt * p.lam / grid.dx <= 0.5 * p.cfl + 1e-15
        assert step.dt * p.lam**2 / grid.dx**2 <= p.cfl * (1 + 1e-12)

    def test_semi_discrete_needs_positive_eps(self):
        with pytest.raises(ValueError):
            schemes.semi_discrete_dt(ModelParams(eps=0.0, lam=1.0), Grid(n_cells=10))


def convected(p, grid, state, dt):
    """A march of ``state`` after the explicit half step: HLL convection of (u, v)."""
    march = pair_march(p, grid, dt, state.u, state.v)
    march.convect()
    return march


def relaxed(p, grid, state, dt):
    """A march of ``state`` after the implicit half step: the relaxation solve of v."""
    march = pair_march(p, grid, dt, state.u, state.v)
    march.relax()
    return march


class TestHLLStep:
    def test_interface_flux_values(self):
        # two flat states: the faces inside each carry (v, lam^2 u), the
        # jump face F_u = (v_l + v_r)/2 - lam (u_r - u_l)/2,
        # F_v = lam^2 (u_l + u_r)/2 - lam (v_r - v_l)/2
        p = ModelParams(eps=1.0, lam=0.72, a=0.5)
        grid = Grid(n_cells=4)
        state = HyperbolicState(
            u=np.array([1.0, 1.0, 2.0, 2.0]), v=np.array([0.5, 0.5, 1.5, 1.5]), t=0.0
        )
        jump_u, jump_v = 1.0 - 0.36, 0.5184 * 1.5 - 0.36
        dt = 0.025
        out = convected(p, grid, state, dt)
        r = dt / grid.dx
        assert out.u[[0, 3]].tolist() == [1.0, 2.0] and out.v[[0, 3]].tolist() == [0.5, 1.5]
        assert out.u[1] == pytest.approx(1.0 - r * (jump_u - 0.5), abs=1e-12)
        assert out.v[1] == pytest.approx(0.5 - r * (jump_v - 0.5184), abs=1e-12)
        assert out.u[2] == pytest.approx(2.0 - r * (1.5 - jump_u), abs=1e-12)
        assert out.v[2] == pytest.approx(1.5 - r * (0.5184 * 2.0 - jump_v), abs=1e-12)

    def test_constant_state_unchanged(self, base_params):
        grid = Grid(n_cells=30)
        state = constant_equilibrium(base_params, grid, 2.0)
        out = convected(base_params, grid, state, 1e-3)
        assert np.array_equal(out.u, state.u)
        assert np.array_equal(out.v, state.v)

    def test_three_point_stencil_spread(self, base_params):
        grid = Grid(n_cells=21)
        state = constant_equilibrium(base_params, grid, 1.0)
        state.u[10] += 0.25
        out = convected(base_params, grid, state, 1e-3)
        changed = np.flatnonzero(out.u != state.u)
        assert set(changed) <= {9, 10, 11}
        assert 10 in changed
        changed_v = np.flatnonzero(out.v != state.v)
        assert set(changed_v) <= {9, 10, 11}

    def test_instability_signalled(self, base_params):
        # no step checks its cells: an inf stays non-finite through a full
        # splitting step, and finite_pairs() reports it
        grid = Grid(n_cells=10)
        state = constant_equilibrium(base_params, grid, 1.0)
        march = pair_march(base_params, grid, 1e-3, state.u, state.v)
        assert march.finite_pairs() == [True]
        march.u[3] = np.inf
        with np.errstate(invalid="ignore"):
            split_steps(march)
        assert not np.isfinite(march.u).all()
        assert march.finite_pairs() == [False]


class TestRelaxationStep:
    def test_large_eps_keeps_v(self):
        # weight eps^2/(eps^2+dt) -> 1; flat u so the gradient source is zero
        p = ModelParams(eps=1e8, lam=0.72, a=0.5)
        grid = Grid(n_cells=20)
        state = HyperbolicState(u=np.full(20, 2.0), v=np.linspace(1, 2, 20), t=0.0)
        out = relaxed(p, grid, state, dt=1e-3)
        assert np.allclose(out.v, state.v, rtol=1e-10)

    def test_eps_zero_lands_on_closure(self):
        grid = Grid(n_cells=32)
        p = ModelParams(eps=0.0, lam=0.72, a=0.5)
        u = np.sin(np.linspace(0, 3, 32))
        state = HyperbolicState(u=u, v=np.zeros(32), t=0.0)
        out = relaxed(p, grid, state, dt=1e-3)
        assert np.allclose(out.v, model.equilibrium_v(p, grid, u), rtol=1e-14)

    def test_constant_equilibrium_exact(self, base_params):
        grid = Grid(n_cells=16)
        state = constant_equilibrium(base_params, grid, 1.7)
        out = relaxed(base_params, grid, state, dt=2e-3)
        assert np.array_equal(out.v, state.v)


class TestJptAndLimitSteps:
    def test_constant_equilibrium_fixed_point_100_steps(self):
        p = ModelParams(eps=0.5, lam=0.72, a=0.5)
        grid = Grid(n_cells=50)
        hyp = constant_equilibrium(p, grid, 1.3)
        u0, v0 = hyp.u, hyp.v
        march = split_steps(pair_march(p, grid, schemes.marching_dt(p, grid).dt, u0, v0), 100)
        assert np.abs(march.u - u0).max() <= 1e-14
        assert np.abs(march.v - v0).max() <= 1e-14
        assert np.abs(march.ubar - u0).max() <= 1e-14
        assert np.abs(march.vbar - v0).max() <= 1e-14

    def test_tiny_eps_step_matches_limit_step(self):
        # asymptotic consistency at frozen grid/step
        p = ModelParams(eps=1e-8, lam=0.72, a=0.5)
        grid = Grid(n_cells=200)
        u, v, ub, vb = model.riemann_initial(p, grid, 2.0, 1.0, well_prepared=True)
        dt = schemes.marching_dt(p, grid).dt
        march = split_steps(schemes.PairMarch(p, grid, dt, u, v, ub, vb))
        rel_u = np.abs(march.u - march.ubar).max() / np.abs(march.ubar).max()
        rel_v = np.abs(march.v - march.vbar).max() / np.abs(march.vbar).max()
        assert rel_u <= 1e-6
        assert rel_v <= 1e-6

    def test_riemann_config_advances_stably(self, base_params, unit_grid):
        u, v, ub, vb = model.riemann_initial(base_params, unit_grid, 2.0, 1.0)
        step = schemes.marching_dt(base_params, unit_grid)
        march = schemes.PairMarch(base_params, unit_grid, step.dt, u, v, ub, vb)
        split_steps(march, step.n_steps)
        assert np.isfinite(march.u).all() and np.isfinite(march.v).all()
        assert march.u.max() <= 2.0 + 1e-6 and march.u.min() >= 1.0 - 1e-6

    def test_limit_step_conserves_mass_without_transport(self):
        # short window: the diffusing tails stay below rounding at the ends
        p = ModelParams(eps=1.0, lam=1.0, a=0.0)
        grid = Grid(n_cells=80)
        ubar = 1.0 + smooth_bump(grid.centers, width=0.05)
        mass0 = grid.dx * ubar.sum()
        march = pair_march(p, grid, schemes.marching_dt(p, grid).dt, ubar, np.zeros(80))
        split_steps(march, 5)
        assert grid.dx * march.ubar.sum() == pytest.approx(mass0, abs=1e-13)

    def test_limit_step_mass_balance_matches_boundary_fluxes(self):
        # telescoping is exact: mass change equals the boundary fluxes even
        # once the diffused profile reaches the domain ends
        p = ModelParams(eps=1.0, lam=1.0, a=0.0)
        grid = Grid(n_cells=80)
        ubar = 1.0 + smooth_bump(grid.centers)
        mass0 = grid.dx * ubar.sum()
        dt = schemes.marching_dt(p, grid).dt
        march = pair_march(p, grid, dt, ubar, np.zeros(80))
        inflow = 0.0
        for _ in range(50):
            # interface fluxes at the ends collapse to the edge vbar under copy ghosts
            inflow += dt * (march.vbar[0] - march.vbar[-1])
            split_steps(march)
        assert grid.dx * march.ubar.sum() - mass0 == pytest.approx(inflow, abs=1e-13)

    def test_hll_step_conserves_mass_for_flat_far_field(self, base_params):
        grid = Grid(n_cells=80)
        u = 1.0 + smooth_bump(grid.centers)
        v = np.asarray(model.flux_eval(base_params.flux, base_params.a, u))
        mass0 = grid.dx * u.sum()
        march = pair_march(base_params, grid, schemes.marching_dt(base_params, grid).dt, u, v)
        for _ in range(50):
            march.convect()  # no relax(): HLL convection alone
        assert grid.dx * march.u.sum() == pytest.approx(mass0, abs=1e-13)

    def test_limit_step_smooths_the_front(self, base_params, unit_grid):
        u, v, ub, vb = model.riemann_initial(base_params, unit_grid, 2.0, 1.0)
        step = schemes.marching_dt(base_params, unit_grid)
        march = schemes.PairMarch(base_params, unit_grid, step.dt, u, v, ub, vb)
        split_steps(march, step.n_steps)
        jumps = np.abs(np.diff(march.ubar)).max()
        assert jumps < 0.1  # the unit jump has diffused across many cells
        assert march.ubar.max() <= 2.0 + 1e-9 and march.ubar.min() >= 1.0 - 1e-9


class TestSemiDiscreteRhs:
    def test_constant_equilibrium_is_steady(self, base_params):
        grid = Grid(n_cells=25)
        state = constant_equilibrium(base_params, grid, 2.0)
        du_dt, dv_dt = schemes.semi_discrete_rhs(base_params, grid, state)
        assert np.abs(du_dt).max() == 0.0
        assert np.abs(dv_dt).max() == 0.0

    def test_linear_profile_pure_transport(self):
        p = ModelParams(eps=1.0, lam=1.0, a=0.5)
        grid = Grid(n_cells=50)
        u = grid.centers.copy()  # slope one
        v = p.a * u
        du_dt, _ = schemes.semi_discrete_rhs(p, grid, HyperbolicState(u, v, 0.0))
        assert np.allclose(du_dt[1:-1], -p.a)

    def test_relaxation_dominance(self):
        p = ModelParams(eps=0.05, lam=0.72, a=0.5)
        grid = Grid(n_cells=30)
        state = HyperbolicState(u=np.zeros(30), v=np.ones(30), t=0.0)
        _, dv_dt = schemes.semi_discrete_rhs(p, grid, state)
        assert np.allclose(dv_dt, -1.0 / p.eps**2)

    def test_eps_zero_rejected(self):
        p = ModelParams(eps=0.0, lam=1.0)
        grid = Grid(n_cells=10)
        with pytest.raises(ValueError):
            schemes.semi_discrete_rhs(p, grid, constant_equilibrium(p, grid, 1.0))


class TestLimitSemiDiscreteRhs:
    def test_constant_state_is_steady(self, base_params):
        grid = Grid(n_cells=25)
        ubar = np.full(25, 2.0)
        lim = LimitState(ubar=ubar, vbar=model.equilibrium_v(base_params, grid, ubar), t=0.0)
        dub, dvb = schemes.limit_semi_discrete_rhs(base_params, grid, lim)
        assert np.abs(dub).max() == 0.0
        assert np.abs(dvb).max() == 0.0

    def test_quadratic_profile_against_stencil_oracle(self):
        p = ModelParams(eps=1.0, lam=0.9, a=0.0)
        grid = Grid(n_cells=40)
        ubar = grid.centers**2
        vbar = model.equilibrium_v(p, grid, ubar)
        dub, dvb = schemes.limit_semi_discrete_rhs(p, grid, LimitState(ubar, vbar, 0.0))

        # independent loop evaluation of the same stencils
        dx = grid.dx
        ue = np.concatenate(([ubar[0]], ubar, [ubar[-1]]))
        ve = np.concatenate(([vbar[0]], vbar, [vbar[-1]]))
        expect_du = np.empty_like(ubar)
        for i in range(grid.n_cells):
            expect_du[i] = -(ve[i + 2] - ve[i]) / (2 * dx) + p.lam * (
                ue[i + 2] - 2 * ubar[i] + ue[i]
            ) / (2 * dx)
        de = np.concatenate(([expect_du[0]], expect_du, [expect_du[-1]]))
        for i in range(grid.n_cells):
            expected_dv = p.a * expect_du[i] - p.lam**2 * (de[i + 2] - de[i]) / (2 * dx)
            assert dvb[i] == pytest.approx(expected_dv, rel=1e-13, abs=1e-13)
        assert np.allclose(dub, expect_du, rtol=1e-13)

    def test_closure_violation_rejected(self, base_params):
        grid = Grid(n_cells=20)
        ubar = np.linspace(0, 1, 20)
        vbar = model.equilibrium_v(base_params, grid, ubar) + 1e-6
        with pytest.raises(ValueError):
            schemes.limit_semi_discrete_rhs(base_params, grid, LimitState(ubar, vbar, 0.0))

    def test_chain_rule_matches_time_differences(self):
        p = ModelParams(eps=0.1, lam=0.72, a=0.5, t_final=0.01)
        grid = Grid(n_cells=100)
        ubar = 1.0 + 0.5 * smooth_bump(grid.centers, width=0.1)
        lim0 = LimitState(ubar=ubar, vbar=model.equilibrium_v(p, grid, ubar), t=0.0)
        _, dvdt = schemes.limit_semi_discrete_rhs(p, grid, lim0)
        scale = np.abs(dvdt).max()

        def centered_gap(dt):
            march = pair_march(p, grid, dt, ubar, lim0.vbar, ubar)
            march.rk4_step()
            _, mid = march.states(dt)
            march.rk4_step()
            _, ahead = march.states(2 * dt)
            _, dmid = schemes.limit_semi_discrete_rhs(p, grid, mid)
            fd = (ahead.vbar - lim0.vbar) / (2 * dt)
            return np.abs(fd - dmid).max()

        dt = schemes.semi_discrete_dt(p, grid).dt
        gap1 = centered_gap(dt)
        gap2 = centered_gap(dt / 2)
        assert gap1 <= 5e-3 * scale
        assert gap2 <= 0.5 * gap1  # second-order centered differences


class TestIntegrator:
    def test_constant_trajectory(self, base_params):
        grid = Grid(n_cells=20)
        hyp = constant_equilibrium(base_params, grid, 1.5)
        lim = LimitState(hyp.u.copy(), model.equilibrium_v(base_params, grid, hyp.u), 0.0)
        dt = schemes.semi_discrete_dt(base_params, grid).dt
        march = pair_march(base_params, grid, dt, hyp.u, hyp.v, lim.ubar)
        for _ in range(16):
            march.rk4_step()
            assert np.array_equal(march.u, hyp.u)
            assert np.array_equal(march.v, hyp.v)
            assert np.array_equal(march.ubar, lim.ubar)

    def test_matches_splitting_scheme_within_splitting_error(self):
        p = ModelParams(eps=1.0, lam=0.72, a=0.5, t_final=0.05)
        grid = Grid(n_cells=100)
        u = 1.0 + 0.5 * smooth_bump(grid.centers, width=0.1)
        v = model.equilibrium_v(p, grid, u)
        step = schemes.semi_discrete_dt(p, grid)
        mol = pair_march(p, grid, step.dt, u, v)
        split = pair_march(p, grid, step.dt, u, v)
        for _ in range(step.n_steps):
            mol.rk4_step()
            split_steps(split)
        gap = max(np.abs(mol.u - split.u).max(), np.abs(mol.v - split.v).max())
        # first-order splitting gap, measured ~15*dt; generous headroom
        assert gap <= 50 * step.dt

    def test_fourth_order_in_time(self):
        p = ModelParams(eps=0.8, lam=0.72, a=0.5, t_final=0.1)
        grid = Grid(n_cells=20)
        u = 1.0 + 0.5 * smooth_bump(grid.centers, width=0.15)
        v = np.asarray(model.flux_eval(p.flux, p.a, u))

        def final(dt):
            march = pair_march(p, grid, dt, u, v)
            for _ in range(round(p.t_final / dt)):
                march.rk4_step()
            return march

        dt = schemes.semi_discrete_dt(p, grid).dt
        ref = final(dt / 8)
        err = []
        for d in (dt, dt / 2):
            s = final(d)
            err.append(np.abs(s.u - ref.u).max() + np.abs(s.v - ref.v).max())
        ratio = err[0] / err[1]
        assert err[0] > 1e-13  # above rounding floor, ratio is meaningful
        assert 8 <= ratio <= 32  # fourth order gives ~16

    def test_parity_preserved_without_transport(self):
        # even u, odd v about the midpoint stay that way when a = 0
        p = ModelParams(eps=0.5, lam=1.0, a=0.0)
        grid = Grid(n_cells=64)
        x = grid.centers
        u = 1.0 + smooth_bump(x, width=0.05)
        v = (x - 0.5) * smooth_bump(x, width=0.05)
        march = pair_march(p, grid, schemes.semi_discrete_dt(p, grid).dt, u, v)
        for _ in range(40):
            march.rk4_step()
        assert np.abs(march.u - march.u[::-1]).max() <= 1e-13
        assert np.abs(march.v + march.v[::-1]).max() <= 1e-13


def textbook_rk4(p, grid, y0, dt):
    """One RK4 step of the rows (u, v, ubar), written out with pad_edges.

    The stencils, the stages and their sum in the order of the formulas,
    each stencil term taking its constants in one coefficient; vbar is the
    closure of ubar at every stage.
    """
    two_dx = 2.0 * grid.dx

    def rates(u, v, ubar):
        ue, ve = model.pad_edges(u), model.pad_edges(v)
        be, ce = model.pad_edges(ubar), model.pad_edges(model.equilibrium_v(p, grid, ubar))
        du = -1.0 / two_dx * (ve[2:] - ve[:-2]) + p.lam / two_dx * (ue[2:] - 2.0 * u + ue[:-2])
        dv = (
            -p.lam**2 / (two_dx * p.eps**2) * (ue[2:] - ue[:-2])
            + p.lam / two_dx * (ve[2:] - 2.0 * v + ve[:-2])
            + (model.flux_eval(p.flux, p.a, u) - v) / p.eps**2
        )
        dub = -1.0 / two_dx * (ce[2:] - ce[:-2]) + p.lam / two_dx * (be[2:] - 2.0 * ubar + be[:-2])
        return np.array([du, dv, dub])

    k1 = rates(*y0)
    k2 = rates(*(y0 + 0.5 * dt * k1))
    k3 = rates(*(y0 + 0.5 * dt * k2))
    k4 = rates(*(y0 + dt * k3))
    return y0 + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def textbook_split(p, grid, y0, dt):
    """One splitting step of the rows (u, v, ubar, vbar), written out with pad_edges.

    HLL convection of (u, v) and of (ubar, vbar), the fluxes scaled by
    r = dt/dx, then the relaxation solve of v and the closure of ubar, each
    term formed in the order of the kernels.
    """
    r = dt / grid.dx
    ue, ve, be, ce = (model.pad_edges(w) for w in y0)

    def convected(u, ue, ve):
        flux_u = 0.5 * r * (ve[:-1] + ve[1:]) - 0.5 * p.lam * r * (ue[1:] - ue[:-1])
        flux_v = 0.5 * p.lam**2 * r * (ue[:-1] + ue[1:]) - 0.5 * p.lam * r * (ve[1:] - ve[:-1])
        return u - (flux_u[1:] - flux_u[:-1]), ve[1:-1] - (flux_v[1:] - flux_v[:-1])

    u, v = convected(y0[0], ue, ve)
    ubar, _ = convected(y0[2], be, ce)
    ue = model.pad_edges(u)
    target = model.flux_eval(p.flux, p.a, u) - (1.0 - p.eps**2) * p.lam**2 / (2.0 * grid.dx) * (ue[2:] - ue[:-2])
    v = target + p.eps**2 / (p.eps**2 + dt) * (v - target)
    return np.array([u, v, ubar, model.equilibrium_v(p, grid, ubar)])


def old_order_closure(p, grid, ubar):
    """The discrete closure with the gradient divided by 2 dx before its lam^2."""
    ext = model.pad_edges(ubar)
    return model.flux_eval(p.flux, p.a, ubar) - p.lam**2 * ((ext[2:] - ext[:-2]) / (2.0 * grid.dx))


def old_order_split(p, grid, y0, dt):
    """``textbook_split`` in the order of the kernels before the constants were folded.

    The fluxes unscaled, their difference times dt/dx; ubar by forward Euler
    on (lam D^2 ubar - (vbar_{i+1} - vbar_{i-1})) / (2 dx); the relaxation
    gradient divided by 2 dx before its coefficient.
    """
    u, v, ubar, vbar = y0
    two_dx = 2.0 * grid.dx
    ue, ve, be, ce = (model.pad_edges(w) for w in y0)
    flux_u = 0.5 * (ve[:-1] + ve[1:]) - 0.5 * p.lam * (ue[1:] - ue[:-1])
    flux_v = 0.5 * p.lam**2 * (ue[:-1] + ue[1:]) - 0.5 * p.lam * (ve[1:] - ve[:-1])
    u = u - dt / grid.dx * (flux_u[1:] - flux_u[:-1])
    v = v - dt / grid.dx * (flux_v[1:] - flux_v[:-1])
    ubar = ubar + dt * ((p.lam * ((be[2:] - 2.0 * ubar) + be[:-2]) - (ce[2:] - ce[:-2])) / two_dx)
    ue = model.pad_edges(u)
    grad = (ue[2:] - ue[:-2]) / two_dx
    target = model.flux_eval(p.flux, p.a, u) - (1.0 - p.eps**2) * p.lam**2 * grad
    v = target + p.eps**2 / (p.eps**2 + dt) * (v - target)
    return np.array([u, v, ubar, old_order_closure(p, grid, ubar)])


def old_order_rk4(p, grid, y0, dt):
    """``textbook_rk4`` in the order of the kernels before the constants were folded."""
    two_dx = 2.0 * grid.dx

    def rates(u, v, ubar):
        ue, ve = model.pad_edges(u), model.pad_edges(v)
        be, ce = model.pad_edges(ubar), model.pad_edges(old_order_closure(p, grid, ubar))
        du = -(ve[2:] - ve[:-2]) / two_dx + p.lam * (ue[2:] - 2.0 * u + ue[:-2]) / two_dx
        dv = (
            -p.lam**2 * (ue[2:] - ue[:-2]) / (two_dx * p.eps**2)
            + p.lam * (ve[2:] - 2.0 * v + ve[:-2]) / two_dx
            + (model.flux_eval(p.flux, p.a, u) - v) / p.eps**2
        )
        dub = -(ce[2:] - ce[:-2]) / two_dx + p.lam * (be[2:] - 2.0 * ubar + be[:-2]) / two_dx
        return np.array([du, dv, dub])

    k1 = rates(*y0)
    k2 = rates(*(y0 + 0.5 * dt * k1))
    k3 = rates(*(y0 + 0.5 * dt * k2))
    k4 = rates(*(y0 + dt * k3))
    return y0 + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


class TestPairMarch:
    @pytest.mark.parametrize("flux, lam", [("linear", 0.72), ("burgers", 3.0)])
    def test_matches_the_step_functions_bit_for_bit(self, flux, lam):
        p = ModelParams(eps=0.1, lam=lam, a=0.5, flux=flux)
        grid = Grid(n_cells=40)
        u, v, ub, vb = model.riemann_initial(p, grid, 2.0, 1.0)
        dt = schemes.marching_dt(p, grid).dt
        march = schemes.PairMarch(p, grid, dt, u, v, ub, vb)
        y = np.array([u, v, ub, vb])
        for _ in range(30):
            split_steps(march)
            y = textbook_split(p, grid, y, dt)
        assert np.array_equal(march.pairs[:, :, 1:-1].reshape(4, -1), y)
        assert march.block[..., 0].tolist() == march.block[..., 1].tolist()  # copy ghosts
        assert march.block[..., -1].tolist() == march.block[..., -2].tolist()

    @pytest.mark.parametrize("flux, lam", [("linear", 0.72), ("burgers", 3.0)])
    def test_rk4_step_keeps_the_textbook_order_bit_for_bit(self, flux, lam):
        p = ModelParams(eps=0.1, lam=lam, a=0.5, flux=flux)
        grid = Grid(n_cells=40)
        u, v, ub, vb = model.riemann_initial(p, grid, 2.0, 1.0)
        dt = schemes.semi_discrete_dt(p, grid).dt
        march = schemes.PairMarch(p, grid, dt, u, v, ub, vb)
        y = np.array([u, v, ub])
        for _ in range(30):
            march.rk4_step()
            y = textbook_rk4(p, grid, y, dt)
        assert np.array_equal(march.pairs[:, :, 1:-1].reshape(4, -1)[:3], y)
        assert np.array_equal(march.vbar, model.equilibrium_v(p, grid, march.ubar))
        assert march.block[..., 0].tolist() == march.block[..., 1].tolist()  # copy ghosts
        assert march.block[..., -1].tolist() == march.block[..., -2].tolist()

    @pytest.mark.parametrize("stepper", ["splitting", "rk4"])
    @pytest.mark.parametrize("flux, lam", [("linear", 0.72), ("burgers", 3.0)])
    def test_each_eps_row_marches_as_if_alone(self, flux, lam, stepper):
        # three relaxed pairs beside one limit pair in one block: no kernel
        # mixes rows, so every pair matches its lone march bit for bit
        epsilons = (0.1, 0.07, 0.05)
        p = ModelParams(eps=epsilons[0], lam=lam, a=0.5, flux=flux)
        grid = Grid(n_cells=40)
        u, v, ub, vb = model.riemann_initial(p, grid, 2.0, 1.0)
        rule = schemes.marching_dt if stepper == "splitting" else schemes.semi_discrete_dt
        dt = min(rule(replace(p, eps=eps), grid).dt for eps in epsilons)
        group = schemes.PairMarch(p, grid, dt, u, v, ub, vb, epsilons=epsilons)
        alone = [schemes.PairMarch(replace(p, eps=eps), grid, dt, u, v, ub, vb) for eps in epsilons]
        for _ in range(30):
            for march in (group, *alone):
                split_steps(march) if stepper == "splitting" else march.rk4_step()
        assert group.u.shape == group.v.shape == (3, 40)
        for i, march in enumerate(alone):
            assert np.array_equal(group.pairs[i], march.pairs[0]), i
            assert np.array_equal(group.pairs[-1], march.pairs[-1]), i

    @pytest.mark.parametrize("flux, lam", [("linear", 0.72), ("burgers", 3.0)])
    def test_no_cell_reads_a_junk_slot(self, flux, lam, monkeypatch):
        # every buffer starts as NaN, so a span off by one slot carries a NaN
        # (or a neighbouring row's value) into some cell; the spans of a lone
        # eps end at other slots than those of three.  The K norms come from
        # the chunk flush's spans over the stored pairs, whose unwritten
        # slots start as NaN too
        k_runs = [harness.RunConfig(eps=0.1, lam=lam, flux=flux, n_cells=40, scheme=scheme, record_every=5)
                  for scheme in harness.SCHEMES]
        k_series = [harness.run_pair(cfg, accumulate=("k-norms",)).series for cfg in k_runs]
        monkeypatch.setattr(schemes, "_zeros", lambda shape: np.full(shape, np.nan))
        for cfg, series in zip(k_runs, k_series):
            with np.errstate(invalid="ignore"):
                patched = harness.run_pair(cfg, accumulate=("k-norms",)).series
            for f in fields(series):
                assert np.array_equal(getattr(patched, f.name), getattr(series, f.name)), (cfg.scheme, f.name)
        p = ModelParams(eps=0.1, lam=lam, a=0.5, flux=flux)
        grid = Grid(n_cells=40)
        u, v, ub, vb = model.riemann_initial(p, grid, 2.0, 1.0)
        steppers = (
            (schemes.marching_dt, split_steps, textbook_split, 4),
            (schemes.semi_discrete_dt, schemes.PairMarch.rk4_step, textbook_rk4, 3),
        )
        for epsilons, (rule, step, textbook, rows) in itertools.product(((0.1, 0.07, 0.05), (0.1,)), steppers):
            dt = min(rule(replace(p, eps=eps), grid).dt for eps in epsilons)
            with np.errstate(invalid="ignore"):
                march = schemes.PairMarch(p, grid, dt, u, v, ub, vb, epsilons=epsilons)
                for _ in range(30):
                    step(march)
            assert np.isfinite(march.block).all()
            for i, eps in enumerate(epsilons):
                y = np.array([u, v, ub, vb][:rows])
                for _ in range(30):
                    y = textbook(replace(p, eps=eps), grid, y, dt)
                assert np.array_equal(march.pairs[[i, -1], :, 1:-1].reshape(4, -1)[:rows], y), i

    @pytest.mark.parametrize("scheme", ["jpt", "semi-discrete"])
    def test_the_folded_order_stays_within_1e12_of_the_old_order(self, scheme):
        # the declared rounding change of folding the constants into the
        # coefficients, bounded over the full default run at eps 0.1 by a
        # tolerance fixed before the change was measured
        config = harness.RunConfig(eps=0.1, scheme=scheme)
        result = harness.run_pair(config, accumulate=())
        p, grid, dt = config.params(), config.grid(), result.step.dt
        u, v, ubar, _ = model.riemann_initial(p, grid, 2.0, 1.0)
        y = np.array([u, v, ubar, old_order_closure(p, grid, ubar)])
        weighted = 0.0
        for _ in range(result.step.n_steps):
            weighted += dt * phi_oracle(p, grid, y[0] - y[2], y[1] - y[3])
            if scheme == "jpt":
                y = old_order_split(p, grid, y, dt)
            else:
                u, v, ubar = old_order_rk4(p, grid, y[:3], dt)
                y = np.array([u, v, ubar, old_order_closure(p, grid, ubar)])
        new = np.array([result.hyp.u, result.hyp.v, result.lim.ubar, result.lim.vbar])
        assert (grid.n_cells, result.step.n_steps) == (200, 2183)
        assert (np.abs(new - y).max(axis=1) <= 1e-12 * np.abs(y).max(axis=1)).all()
        assert abs(result.weighted_err_sq - weighted) <= 1e-12 * weighted
