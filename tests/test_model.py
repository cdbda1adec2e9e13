import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jinxin import model
from jinxin.model import Grid, ModelParams

finite_floats = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)

# parameter space respecting the subcharacteristic condition lam > eps|a|
subchar_params = st.tuples(
    st.floats(min_value=0.05, max_value=2.0),  # eps
    st.floats(min_value=0.1, max_value=5.0),  # lam
    st.floats(min_value=-2.0, max_value=2.0),  # a
).filter(lambda t: t[1] > t[0] * abs(t[2]) * 1.0001).map(
    lambda t: ModelParams(eps=t[0], lam=t[1], a=t[2])
)


class TestParamsAndGrid:
    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            ModelParams(eps=-1.0, lam=1.0)
        with pytest.raises(ValueError):
            ModelParams(eps=1.0, lam=0.0)
        with pytest.raises(ValueError):
            ModelParams(eps=1.0, lam=1.0, cfl=0.0)
        with pytest.raises(ValueError):
            ModelParams(eps=1.0, lam=1.0, t_final=-0.1)
        with pytest.raises(ValueError):
            ModelParams(eps=1.0, lam=1.0, flux="cubic")

    def test_grid_geometry(self):
        grid = Grid(n_cells=200)
        assert grid.dx == pytest.approx(1.0 / 200)
        assert grid.centers[0] == pytest.approx(grid.dx / 2)
        assert np.allclose(np.diff(grid.centers), grid.dx)
        assert grid.midpoint == pytest.approx(0.5)

    def test_grid_rejects_tiny(self):
        with pytest.raises(ValueError):
            Grid(n_cells=2)
        with pytest.raises(ValueError):
            Grid(n_cells=10, x_min=1.0, x_max=0.0)


class TestSubcharacteristic:
    def test_default_linear_config_holds(self):
        assert model.check_subcharacteristic(ModelParams(eps=1.0, lam=0.72, a=0.5))

    def test_equality_violates_strict_inequality(self):
        assert not model.check_subcharacteristic(ModelParams(eps=1.0, lam=0.5, a=0.5))

    def test_shrinking_eps_relaxes_the_condition(self):
        assert model.check_subcharacteristic(ModelParams(eps=0.01, lam=0.72, a=0.5))

    def test_burgers_uses_data_range(self):
        p = ModelParams(eps=1.0, lam=3.0, flux=model.BURGERS)
        assert model.check_subcharacteristic(p, u_range=(2.0, 1.0))
        assert not model.check_subcharacteristic(p, u_range=(4.0, 1.0))
        with pytest.raises(ValueError):
            model.check_subcharacteristic(p)


class TestFlux:
    def test_linear(self):
        assert model.flux_eval(model.LINEAR, 0.5, np.array([2.0, 0.0])).tolist() == [1.0, 0.0]

    def test_burgers(self):
        u = np.array([0.0, 1.0, 2.0])
        assert model.flux_eval(model.BURGERS, 0.0, u).tolist() == [0.0, 0.5, 2.0]

    def test_unknown_flux_rejected(self):
        with pytest.raises(ValueError, match="unknown flux"):
            model.flux_eval("cubic", 0.5, np.ones(3))

    def test_derivative(self):
        u = np.full(3, 7.0)
        assert model.flux_derivative(model.LINEAR, 0.5, u).tolist() == [0.5] * 3
        assert model.flux_derivative(model.BURGERS, 0.5, u) is u  # follows u when it is overwritten


class TestEntropyAlgebra:
    def test_entropy_hand_value(self):
        p = ModelParams(eps=1.0, lam=0.72, a=0.5)
        # 0.5184/2 + 0.25/2 - 0.5*0.5 = 0.2592 + 0.125 - 0.25
        assert model.entropy(p, 1.0, 0.5) == pytest.approx(0.1342, abs=1e-12)

    def test_entropy_zero_at_origin(self, base_params):
        assert model.entropy(base_params, 0.0, 0.0) == 0.0

    def test_entropy_decoupled(self):
        p = ModelParams(eps=1.0, lam=1.0, a=0.0)
        assert model.entropy(p, 1.0, 1.0) == pytest.approx(1.0)

    def test_entropy_flux_hand_value(self):
        p = ModelParams(eps=1.0, lam=0.72, a=0.5)
        # -0.12960 - 0.0625 + 0.2592
        assert model.entropy_flux(p, 1.0, 0.5) == pytest.approx(0.0671, abs=1e-12)

    def test_entropy_flux_trivia(self):
        p = ModelParams(eps=1.0, lam=1.0, a=0.0)
        assert model.entropy_flux(p, 0.0, 0.0) == 0.0
        assert model.entropy_flux(p, 1.0, 1.0) == pytest.approx(1.0)
        assert model.entropy_flux(p, 1.0, -1.0) == pytest.approx(-1.0)

    def test_burgers_entropy_rejected(self):
        p = ModelParams(eps=1.0, lam=3.0, flux=model.BURGERS)
        for fn in (model.entropy, model.entropy_flux):
            with pytest.raises(ValueError):
                fn(p, 1.0, 1.0)
        with pytest.raises(ValueError):
            model.relative_entropy(p, 1.0, 1.0, 0.0, 0.0)


class TestRelativeEntropy:
    def test_zero_at_coincidence(self, base_params):
        assert model.relative_entropy(base_params, 1.3, -0.2, 1.3, -0.2) == 0.0

    def test_equals_entropy_of_difference(self):
        # E is quadratic with zero gradient at the origin
        p = ModelParams(eps=1.0, lam=0.72, a=0.5)
        assert model.relative_entropy(p, 1.0, 0.5, 0.0, 0.0) == pytest.approx(0.1342, abs=1e-12)

    def test_decoupled_difference(self):
        p = ModelParams(eps=1.0, lam=1.0, a=0.0)
        assert model.relative_entropy(p, 2.0, 3.0, 1.0, 2.0) == pytest.approx(1.0)

    @settings(max_examples=200)
    @given(params=subchar_params, u=finite_floats, v=finite_floats,
           ub=finite_floats, vb=finite_floats)
    def test_taylor_expansion_identity(self, params, u, v, ub, vb):
        # quadratic entropy: remainder identity holds to rounding
        gu, gv = model.entropy_gradient(params, ub, vb)
        expected = (
            model.entropy(params, u, v)
            - model.entropy(params, ub, vb)
            - gu * (u - ub)
            - gv * (v - vb)
        )
        got = model.relative_entropy(params, u, v, ub, vb)
        scale = 1.0 + abs(model.entropy(params, u, v)) + abs(model.entropy(params, ub, vb))
        assert got == pytest.approx(expected, abs=1e-10 * scale)

    @settings(max_examples=200)
    @given(params=subchar_params, du=finite_floats, dv=finite_floats)
    def test_squared_norm_sandwich(self, params, du, dv):
        bounds = model.convexity_bounds(params)
        value = model.relative_entropy(params, du, dv, 0.0, 0.0)
        norm_sq = du * du + dv * dv
        slack = 1e-9 * (1.0 + params.lam**2) * (1.0 + norm_sq)  # rounding guard
        assert value >= 0.5 * bounds.beta0 * norm_sq - slack
        assert value <= 0.5 * bounds.beta1 * norm_sq + slack


class TestConvexityBounds:
    def test_identity_hessian(self):
        cb = model.convexity_bounds(ModelParams(eps=1.0, lam=1.0, a=0.0))
        assert cb.beta0 == pytest.approx(1.0)
        assert cb.beta1 == pytest.approx(1.0)

    def test_against_eig_solver(self):
        p = ModelParams(eps=0.1, lam=0.72, a=0.5)
        cb = model.convexity_bounds(p)
        hessian = np.array([[p.lam**2, -p.eps**2 * p.a], [-p.eps**2 * p.a, p.eps**2]])
        lo, hi = np.linalg.eigvalsh(hessian)
        assert cb.beta0 == pytest.approx(lo, rel=1e-14)
        assert cb.beta1 == pytest.approx(hi, rel=1e-14)

    @settings(max_examples=200)
    @given(params=subchar_params)
    def test_trace_and_determinant(self, params):
        cb = model.convexity_bounds(params)
        assert cb.beta0 > 0
        assert cb.beta0 <= cb.beta1
        assert cb.beta0 + cb.beta1 == pytest.approx(params.lam**2 + params.eps**2, rel=1e-12)
        det = params.eps**2 * (params.lam**2 - params.eps**2 * params.a**2)
        assert cb.beta0 * cb.beta1 == pytest.approx(det, rel=1e-9, abs=1e-300)

    def test_violated_condition_rejected(self):
        with pytest.raises(ValueError):
            model.convexity_bounds(ModelParams(eps=1.0, lam=0.5, a=0.5))


class TestEquilibriumV:
    def test_constant_data_gives_flat_flux(self, base_params):
        grid = Grid(n_cells=50)
        ubar = np.full(50, 3.0)
        assert np.allclose(model.equilibrium_v(base_params, grid, ubar), 1.5)

    @settings(max_examples=50)
    @given(c=st.floats(min_value=-5, max_value=5), burgers=st.booleans())
    def test_constant_data_any_flux(self, c, burgers):
        p = ModelParams(eps=1.0, lam=3.0, a=0.5, flux=model.BURGERS if burgers else model.LINEAR)
        grid = Grid(n_cells=17)
        vbar = model.equilibrium_v(p, grid, np.full(17, c))
        assert np.allclose(vbar, model.flux_eval(p.flux, p.a, c))

    def test_linear_profile_exact_gradient(self):
        p = ModelParams(eps=1.0, lam=1.0, a=0.0)
        grid = Grid(n_cells=40)
        ubar = grid.centers.copy()
        vbar = model.equilibrium_v(p, grid, ubar)
        # interior: centered difference of linear data is exact
        assert np.allclose(vbar[1:-1], -1.0)

    def test_riemann_spike_magnitude(self):
        p = ModelParams(eps=1.0, lam=0.72, a=0.5)
        grid = Grid(n_cells=200)
        ubar = np.where(grid.centers < 0.5, 2.0, 1.0)
        vbar = model.equilibrium_v(p, grid, ubar)
        jump = np.argmin(np.diff(ubar))  # last left-state cell
        spike = p.lam**2 * 1.0 / (2.0 * grid.dx)
        assert vbar[jump] == pytest.approx(p.a * 2.0 + spike)
        assert vbar[jump + 1] == pytest.approx(p.a * 1.0 + spike)
        flat = np.concatenate((vbar[: jump - 1], vbar[jump + 3 :]))
        assert np.all(np.abs(flat - model.flux_eval(p.flux, p.a, 1.0)) <= 0.5 + 1e-12)


class TestRiemannInitial:
    def test_riemann_jump_values(self, base_params, unit_grid):
        u, v, ubar, vbar = model.riemann_initial(base_params, unit_grid, 2.0, 1.0)
        mid = unit_grid.n_cells // 2
        assert np.all(u[:mid] == 2.0) and np.all(u[mid:] == 1.0)
        assert np.all(v[:mid] == 1.0) and np.all(v[mid:] == 0.5)  # v = a u
        assert np.array_equal(ubar, u)
        assert np.allclose(vbar, model.equilibrium_v(base_params, unit_grid, ubar))

    def test_constant_states(self, base_params):
        grid = Grid(n_cells=16)
        u, v, ubar, vbar = model.riemann_initial(base_params, grid, 1.5, 1.5)
        assert np.all(u == 1.5) and np.allclose(v, 0.75)
        assert np.allclose(vbar, 0.75)

    def test_well_prepared_matches_closure(self, base_params, unit_grid):
        u, v, ubar, vbar = model.riemann_initial(base_params, unit_grid, 2.0, 1.0, well_prepared=True)
        assert np.array_equal(v, vbar)
        # zero initial relative entropy
        assert model.relative_entropy(base_params, u, v, ubar, vbar).sum() == 0.0


def test_pad_edges_copies_ends():
    ext = model.pad_edges(np.array([3.0, 4.0, 5.0]))
    assert np.array_equal(ext, [3.0, 3.0, 4.0, 5.0, 5.0])
