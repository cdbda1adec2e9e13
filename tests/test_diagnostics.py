from dataclasses import replace

import numpy as np
import pytest

from jinxin import diagnostics, harness, model, schemes
from jinxin.diagnostics import ErrorSeries
from jinxin.harness import RunConfig
from jinxin.model import Grid, ModelParams
from jinxin.schemes import HyperbolicState, LimitState

from conftest import pair_march, phi_oracle, smooth_bump


def random_smooth(rng, x, scale=1.0):
    """Low-frequency random field, flat at the ends (constant far field)."""
    xi = (x - x[0]) / (x[-1] - x[0])
    window = np.sin(np.pi * xi) ** 2
    out = np.full_like(x, rng.uniform(-scale, scale))
    for k in range(1, 5):
        out += rng.normal(scale=scale / k) * np.sin(np.pi * k * xi) * window
    return out


def weighted_error(p, grid, hyp, lim):
    """phi: the dx-weighted relative entropy of the pair (linear flux)."""
    return phi_oracle(p, grid, hyp.u - lim.ubar, hyp.v - lim.vbar)


def random_pair(rng, p, grid):
    x = grid.centers
    hyp = HyperbolicState(u=random_smooth(rng, x), v=random_smooth(rng, x))
    ubar = random_smooth(rng, x)
    lim = LimitState(ubar=ubar, vbar=model.equilibrium_v(p, grid, ubar))
    return hyp, lim


class TestCellEntropyAndPhi:
    def test_zero_at_coincidence(self, base_params):
        assert model.relative_entropy(base_params, 1.0, 2.0, 1.0, 2.0) == 0.0

    def test_difference_value(self):
        p = ModelParams(eps=1.0, lam=0.72, a=0.5)
        got = model.relative_entropy(p, 1.0, 0.5, 0.0, 0.0)
        assert got == pytest.approx(0.1342, abs=1e-12)

    def test_nonnegative_under_subcharacteristic(self, rng):
        p = ModelParams(eps=1.0, lam=0.72, a=0.5)
        du, dv = rng.uniform(-10, 10, size=(2, 1_000_000))
        values = model.relative_entropy(p, du, dv, 0.0, 0.0)
        assert values.min() >= 0.0

    def test_phi_identical_states(self, base_params):
        grid = Grid(n_cells=20)
        u = np.linspace(0, 1, 20)
        hyp = HyperbolicState(u=u, v=u.copy())
        lim = LimitState(ubar=u.copy(), vbar=u.copy())
        assert weighted_error(base_params, grid, hyp, lim) == 0.0

    def test_phi_single_cell(self, base_params):
        grid = Grid(n_cells=20)
        u = np.zeros(20)
        v = np.zeros(20)
        hyp = HyperbolicState(u=u.copy(), v=v.copy())
        hyp.u[7] = 1.0
        hyp.v[7] = 0.5
        lim = LimitState(ubar=u, vbar=v)
        expected = grid.dx * model.relative_entropy(base_params, 1.0, 0.5, 0.0, 0.0)
        assert weighted_error(base_params, grid, hyp, lim) == pytest.approx(expected)

    def test_phi_bounded_by_beta1_norm(self, base_params, rng):
        grid = Grid(n_cells=30)
        hyp, lim = random_pair(rng, base_params, grid)
        phi = weighted_error(base_params, grid, hyp, lim)
        bounds = model.convexity_bounds(base_params)
        du = hyp.u - lim.ubar
        dv = hyp.v - lim.vbar
        norm = grid.dx * float((du * du + dv * dv).sum())
        assert 0.5 * bounds.beta0 * norm * (1 - 1e-12) <= phi <= 0.5 * bounds.beta1 * norm * (1 + 1e-12)

    def test_weighted_total_matches_phi_for_linear(self, base_params, rng):
        grid = Grid(n_cells=30)
        hyp, lim = random_pair(rng, base_params, grid)
        e_cells = model.relative_entropy(base_params, hyp.u, hyp.v, lim.ubar, lim.vbar)
        phi = grid.dx * float(np.sum(e_cells))
        assert weighted_error(base_params, grid, hyp, lim) == pytest.approx(phi, rel=1e-12)


class TestDiscreteReFlux:
    def test_zero_differences(self, base_params):
        assert diagnostics.discrete_re_flux(base_params, 0.0, 0.0, 0.0, 0.0) == 0.0

    def test_constant_differences_match_continuous_flux(self, base_params):
        du, dv = 0.7, -0.3
        got = diagnostics.discrete_re_flux(base_params, du, dv, du, dv)
        expected = model.entropy_flux(base_params, du, dv)
        assert got == pytest.approx(expected, rel=1e-14)

    def test_locality(self, base_params):
        # the interface flux multiplies left and right differences, so a
        # difference supported on one cell can only touch its two interfaces
        grid = Grid(n_cells=20)
        u = np.zeros(20)
        u[8] = 1.0
        v = np.zeros(20)
        v[8] = -0.4
        hyp = HyperbolicState(u=u, v=v)
        lim = LimitState(ubar=np.zeros(20), vbar=np.zeros(20))
        budget = diagnostics.entropy_budget(base_params, grid, hyp, lim)
        assert set(np.flatnonzero(budget.flux_interfaces)) <= {8, 9}

        # adjacent support: exactly the shared interface carries flux
        hyp.u[9] = 0.5
        hyp.v[9] = 0.1
        budget = diagnostics.entropy_budget(base_params, grid, hyp, lim)
        assert set(np.flatnonzero(budget.flux_interfaces)) == {9}

    def test_burgers_rejected(self):
        p = ModelParams(eps=1.0, lam=3.0, flux=model.BURGERS)
        with pytest.raises(ValueError):
            diagnostics.discrete_re_flux(p, 1.0, 1.0, 1.0, 1.0)


class TestResiduals:
    def test_identical_states_vanish(self, base_params, rng):
        grid = Grid(n_cells=24)
        ubar = random_smooth(rng, grid.centers)
        lim = LimitState(ubar=ubar, vbar=model.equilibrium_v(base_params, grid, ubar))
        hyp = HyperbolicState(u=lim.ubar.copy(), v=lim.vbar.copy())
        for r in diagnostics.residuals(base_params, grid, hyp, lim):
            assert np.abs(r).max() == 0.0

    def test_zero_transport_coefficient(self, rng):
        p = ModelParams(eps=0.5, lam=0.72, a=0.0)
        grid = Grid(n_cells=24)
        hyp, lim = random_pair(rng, p, grid)
        r1, r2, r3, r4 = diagnostics.residuals(p, grid, hyp, lim)
        assert np.abs(r4).max() == 0.0
        dv = hyp.v - lim.vbar
        ext = model.pad_edges(lim.vbar)
        dxx_vbar = (ext[2:] - 2 * lim.vbar + ext[:-2]) / grid.dx**2
        expected_r3 = 0.5 * p.eps**2 * p.lam * grid.dx * dv * dxx_vbar
        assert np.allclose(r3, expected_r3, rtol=1e-13)

    def test_constant_differences_kill_second_differences(self, base_params):
        grid = Grid(n_cells=24)
        ubar = np.full(24, 0.3)
        lim = LimitState(ubar=ubar, vbar=model.equilibrium_v(base_params, grid, ubar))
        hyp = HyperbolicState(u=ubar + 0.8, v=lim.vbar + 0.2)
        r1, r2, r3, r4 = diagnostics.residuals(base_params, grid, hyp, lim)
        assert np.abs(r1).max() == 0.0
        assert np.abs(r2).max() == 0.0
        assert np.abs(r4).max() == 0.0

    def test_summation_by_parts_identity(self, rng):
        # dx-weighted sum of w * D_xx w telescopes to -sum of squared
        # interior gradients when the far field is flat (copy ghosts)
        grid = Grid(n_cells=40)
        w = random_smooth(rng, grid.centers)
        ext = model.pad_edges(w)
        dxx = (ext[2:] - 2 * w + ext[:-2]) / grid.dx**2
        lhs = grid.dx * float((w * dxx).sum())
        grad = np.diff(w) / grid.dx
        rhs = -grid.dx * float((grad * grad).sum())
        assert lhs == pytest.approx(rhs, rel=1e-12)


class TestIdentityMismatch:
    def test_equilibrium_pair_exact(self, base_params):
        grid = Grid(n_cells=30)
        ubar = np.full(30, 1.2)
        lim = LimitState(ubar=ubar, vbar=model.equilibrium_v(base_params, grid, ubar))
        hyp = HyperbolicState(u=ubar.copy(), v=lim.vbar.copy())
        budget = diagnostics.entropy_budget(base_params, grid, hyp, lim)
        assert np.abs(budget.mismatch).max() == 0.0
        assert budget.rel_mismatch_max == 0.0

    @pytest.mark.parametrize("eps", [1.0, 0.1])
    def test_randomized_states_machine_exact(self, eps, rng):
        p = ModelParams(eps=eps, lam=0.72, a=0.5)
        grid = Grid(n_cells=50)
        worst = 0.0
        for _ in range(50):
            hyp, lim = random_pair(rng, p, grid)
            worst = max(worst, diagnostics.entropy_budget(p, grid, hyp, lim).rel_mismatch_max)
        assert worst <= 1e-10

    def test_scaling_keeps_relative_mismatch_small(self, rng):
        # every term is at most quadratic in the differences, so scaling the
        # relaxed state away from the limit state must not degrade the
        # relative defect
        p = ModelParams(eps=0.3, lam=0.72, a=0.5)
        grid = Grid(n_cells=40)
        hyp, lim = random_pair(rng, p, grid)
        for s in (1.0, 10.0, 100.0):
            scaled = HyperbolicState(
                u=lim.ubar + s * (hyp.u - lim.ubar),
                v=lim.vbar + s * (hyp.v - lim.vbar),
            )
            assert diagnostics.entropy_budget(p, grid, scaled, lim).rel_mismatch_max <= 1e-10


class TestResidualChecks:
    def trajectory_integrals(self, eps=0.1, n_cells=100, t_final=0.02):
        config = RunConfig(eps=eps, lam=0.72, a=0.5, n_cells=n_cells, t_final=t_final,
                           scheme="semi-discrete")
        result = harness.run_pair(config, accumulate=("residuals",))
        return config.params(), result.residual_integrals

    def test_estimates_along_trajectory(self):
        p, acc = self.trajectory_integrals()
        report = diagnostics.residual_sign_checks(acc, p)
        assert report.r1_equality_ok and report.r1_rel_defect <= 1e-12
        assert report.r2_equality_ok and report.r2_rel_defect <= 1e-12
        assert report.sum124_ok and report.sum124_worst <= 0.0
        assert report.r3_bound_ok and report.r3_worst_margin >= 0.0
        assert report.all_ok
        assert len(report.lines()) == 4

    def test_trivial_zero_trajectory(self, base_params):
        # a flat state on the closure: u = ubar = 1 and v = vbar on 100 cells (dx = 0.01)
        config = RunConfig(eps=base_params.eps, lam=base_params.lam, a=base_params.a, n_cells=100,
                           t_final=0.0005, u_left=1.0, u_right=1.0, scheme="semi-discrete")
        result = harness.run_pair(config, accumulate=("residuals",))
        acc = result.residual_integrals
        assert result.step.n_steps == 3 and acc.dx == 0.01
        report = diagnostics.residual_sign_checks(acc, base_params)
        assert report.all_ok
        assert np.all(acc.int_r1 == 0.0) and np.all(acc.int_r2 == 0.0)


class TestSpaceTimeError:
    """The left-endpoint space-time error sums that run_pair accumulates."""

    def test_identical_trajectories(self):
        result = harness.run_pair(RunConfig(u_left=1.5, u_right=1.5, n_cells=50, t_final=0.01))
        assert result.l2err_sq == 0.0
        assert result.weighted_err_sq == 0.0

    def test_constant_difference(self, monkeypatch):
        # flat equilibria of a pure relaxation (a = 0, so v = vbar = 0) are
        # fixed points of both schemes: du = d stays put on [0, T]
        d = 0.3

        def offset_start(p, grid, u_left, u_right, well_prepared=False):
            zero = np.zeros(grid.n_cells)
            return zero + d, zero.copy(), zero.copy(), zero.copy()

        monkeypatch.setattr(harness.model, "riemann_initial", offset_start)
        config = RunConfig(a=0.0, n_cells=50, t_final=0.1)  # unit domain
        for scheme in harness.SCHEMES:
            got = harness.run_pair(replace(config, scheme=scheme)).l2err_sq
            assert got == pytest.approx(d * d * 0.1, rel=1e-12)

    def test_entropy_sandwich_in_time(self):
        # linear flux: the weighted sum is the time integral of phi, and
        # beta0/2 |w|^2 <= E(w) <= beta1/2 |w|^2 cell by cell
        config = RunConfig(eps=1.0, lam=0.72, a=0.5, n_cells=30, t_final=0.02)
        for scheme in harness.SCHEMES:
            result = harness.run_pair(replace(config, scheme=scheme))
            err, wgt = result.l2err_sq, result.weighted_err_sq
            bounds = model.convexity_bounds(config.params())
            assert err > 0.0
            assert (2.0 / bounds.beta1) * wgt * (1 - 1e-12) <= err
            assert err <= (2.0 / bounds.beta0) * wgt * (1 + 1e-12)


class TestTheoremCheck:
    def test_well_prepared_constants_trivial(self, base_params):
        series = ErrorSeries(
            dx=0.01,
            t=np.array([0.0, 0.1]),
            phi=np.array([0.0, 0.0]),
            sup_phi=0.0,
            l2err_sq=np.array([0.0, 0.0]),
            weighted_sq=np.array([0.0, 0.0]),
            k_dvbar_sq=np.array([0.0, 0.0]),
            k_dxxvbar_sq=np.array([0.0, 0.0]),
        )
        check = diagnostics.theorem_bound_check(series, base_params)
        assert check.satisfied and check.bound == 0.0 and check.sup_phi == 0.0

    def test_bound_formula(self):
        p = ModelParams(eps=0.5, lam=2.0, a=0.0)
        series = ErrorSeries(
            dx=0.1,
            t=np.array([0.0, 1.0]),
            phi=np.array([0.01, 0.02]),
            sup_phi=0.02,
            l2err_sq=np.array([0.0, 1.0]),
            weighted_sq=np.array([0.0, 1.0]),
            k_dvbar_sq=np.array([0.0, 3.0]),
            k_dxxvbar_sq=np.array([0.0, 7.0]),
        )
        check = diagnostics.theorem_bound_check(series, p)
        b_expected = 3.0 + 0.25 * 4.0 * 0.01 * 7.0
        assert check.b_meas == pytest.approx(b_expected)
        assert check.bound == pytest.approx(0.01 + b_expected * 0.5**4)
        assert check.phi0 == 0.01
        assert check.sup_phi == 0.02
        assert check.satisfied
        assert check.margin == pytest.approx(check.bound - 0.02)

    def test_violation_detected(self, base_params):
        series = ErrorSeries(
            dx=0.01,
            t=np.array([0.0, 0.1]),
            phi=np.array([0.0, 1.0]),
            sup_phi=1.0,
            l2err_sq=np.array([0.0, 1.0]),
            weighted_sq=np.array([0.0, 1.0]),
            k_dvbar_sq=np.array([0.0, 1e-6]),
            k_dxxvbar_sq=np.array([0.0, 1e-6]),
        )
        check = diagnostics.theorem_bound_check(series, base_params)
        assert not check.satisfied

    def test_the_check_does_not_depend_on_the_record_points(self):
        # sup phi comes from every step, not from the recorded ones
        config = RunConfig(eps=0.05, n_cells=64, t_final=0.05, scheme="semi-discrete", well_prepared=True)
        checks = [
            diagnostics.theorem_bound_check(
                harness.run_pair(replace(config, record_every=every), accumulate=("k-norms",)).series,
                config.params(),
            )
            for every in (0, 1, 7)
        ]
        assert checks[0] == checks[1] == checks[2]
        assert checks[0].sup_phi > 0.0

    def test_a_series_without_k_norms_is_refused(self):
        config = RunConfig(eps=0.1, n_cells=40, t_final=0.01, scheme="semi-discrete", well_prepared=True)
        series = harness.run_pair(config, accumulate=()).series
        assert np.isnan(series.k_dvbar_sq).all()
        with pytest.raises(ValueError, match="no finite K norms"):
            diagnostics.theorem_bound_check(series, config.params())

    def test_halving_eps_shrinks_sup_phi_proportionally(self):
        # smooth well-prepared front (bounded K-norms): phi(0) = 0, the
        # eps^4 budget drops 16x and the measured sup follows it down
        results = {}
        for eps in (0.05, 0.025):
            p = ModelParams(eps=eps, lam=0.72, a=0.5, t_final=0.02)
            grid = Grid(n_cells=100)
            x = grid.centers
            u = 1.5 - 0.5 * np.tanh((x - 0.5) / 0.05)
            vb = model.equilibrium_v(p, grid, u)
            step = schemes.semi_discrete_dt(p, grid)
            march = pair_march(p, grid, step.dt, u, vb)
            sup_phi, kdv, kdxx = 0.0, 0.0, 0.0
            for _ in range(step.n_steps):
                _, lim = march.states()
                _, dvdt = schemes.limit_semi_discrete_rhs(p, grid, lim)
                kdv += step.dt * grid.dx * float((dvdt * dvdt).sum())
                ext = model.pad_edges(lim.vbar)
                dxx = (ext[2:] - 2 * lim.vbar + ext[:-2]) / grid.dx**2
                kdxx += step.dt * grid.dx * float((dxx * dxx).sum())
                march.rk4_step()
                sup_phi = max(sup_phi, weighted_error(p, grid, *march.states()))
            budget = (kdv + 0.25 * p.lam**2 * grid.dx**2 * kdxx) * eps**4
            results[eps] = (sup_phi, budget)
            assert sup_phi <= budget  # the stability bound, per eps
        sup_ratio = results[0.05][0] / results[0.025][0]
        budget_ratio = results[0.05][1] / results[0.025][1]
        assert budget_ratio >= 8.0  # ~16 up to mild K variation
        assert sup_ratio >= 12.0  # measured ~17: the sup tracks eps^4


class TestEntropyInequality:
    def test_equilibrium_budget_zero(self, base_params):
        grid = Grid(n_cells=30)
        u = np.full(30, 1.5)
        v = np.asarray(model.flux_eval(base_params.flux, base_params.a, u))
        # at equilibrium the dissipation vanishes, so the slack is the production
        max_slack = diagnostics.entropy_inequality_check(
            base_params, grid, [HyperbolicState(u=u, v=v)]
        )
        assert max_slack == 0.0

    def test_relaxation_dominated_production_negative(self):
        p = ModelParams(eps=0.1, lam=0.72, a=0.5)
        grid = Grid(n_cells=30)
        state = HyperbolicState(u=np.zeros(30), v=np.ones(30))
        max_slack = diagnostics.entropy_inequality_check(p, grid, [state])
        # production = -(a u - v)^2 = -1 exactly for flat data, so the slack
        # production + (a u - v)^2 vanishes
        assert max_slack == pytest.approx(0.0, abs=1e-14)

    def test_positive_slack_shrinks_linearly(self):
        slacks = []
        for n in (50, 100):
            p = ModelParams(eps=1.0, lam=0.72, a=0.5, t_final=0.02)
            grid = Grid(n_cells=n)
            u = 1.0 + 0.5 * smooth_bump(grid.centers)
            v = model.equilibrium_v(p, grid, u) + 0.05 * smooth_bump(grid.centers, center=0.45)
            step = schemes.semi_discrete_dt(p, grid)
            march = pair_march(p, grid, step.dt, u, v)
            states = [HyperbolicState(u=u, v=v)]
            for _ in range(step.n_steps):
                march.rk4_step()
                states.append(march.states()[0])
            slacks.append(diagnostics.entropy_inequality_check(p, grid, states))
        assert slacks[1] <= 0.75 * slacks[0]


def test_diagnostics_are_pure(base_params, rng):
    grid = Grid(n_cells=30)
    hyp, lim = random_pair(rng, base_params, grid)
    first = diagnostics.entropy_budget(base_params, grid, hyp, lim)
    second = diagnostics.entropy_budget(base_params, grid, hyp, lim)
    assert np.array_equal(first.mismatch, second.mismatch)
    assert first.rel_mismatch_max == second.rel_mismatch_max
    assert np.array_equal(first.flux_interfaces, second.flux_interfaces)
    r3 = [diagnostics.residuals(base_params, grid, hyp, lim)[2] for _ in range(2)]
    assert np.array_equal(*r3)
