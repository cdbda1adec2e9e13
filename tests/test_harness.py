import math
import os
import signal
import threading
import time
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import assume, example, given, seed, settings
from hypothesis import strategies as st

from jinxin import diagnostics, harness, model, schemes
from jinxin.diagnostics import ErrorSeries
from jinxin.harness import (
    BoundaryReachWarning,
    ConfigError,
    RunConfig,
    convergence_study,
    fit_rate,
    load_config_file,
    make_config,
    run_group,
    run_pair,
    study_cells,
    write_study,
)

from conftest import assert_no_child_left, phi_oracle, split_steps


def assert_same_run(got, expected):
    """Every output of two runs equal, bit for bit (NaN K norms equal NaN)."""
    for f in fields(ErrorSeries):
        a, b = getattr(got.series, f.name), getattr(expected.series, f.name)
        assert np.array_equal(a, b, equal_nan=True), f.name
    for a, b in ((got.hyp, expected.hyp), (got.lim, expected.lim)):
        for f in fields(a):
            assert np.array_equal(getattr(a, f.name), getattr(b, f.name)), f.name
    assert got.mass == expected.mass
    assert_same_integrals(got.residual_integrals, expected.residual_integrals)
    assert got.identity_rel_max == expected.identity_rel_max
    assert (got.config, got.grid, got.step) == (expected.config, expected.grid, expected.step)


def assert_same_integrals(got, expected):
    """Two residual-integral records equal field by field, bit for bit, or both None."""
    assert (got is None) == (expected is None)
    if got is not None:
        for f in fields(got):
            assert np.array_equal(getattr(got, f.name), getattr(expected, f.name)), f.name


def counted_forks(monkeypatch) -> list[int]:
    """The pids that call ``os.fork`` from now on, one entry per fork."""
    forks = []
    fork = os.fork

    def counted_fork():
        forks.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    return forks


def written(out) -> dict[str, bytes]:
    """The bytes of each file in the directory ``out``, by name."""
    return {path.name: path.read_bytes() for path in sorted(out.iterdir())}


class TestConfig:
    def test_defaults_are_the_linear_riemann_setup(self):
        cfg = RunConfig()
        cfg.validate()
        assert (cfg.eps, cfg.lam, cfg.a) == (1.0, 0.72, 0.5)
        assert (cfg.n_cells, cfg.cfl, cfg.t_final) == (200, 0.95, 0.1)
        assert (cfg.u_left, cfg.u_right) == (2.0, 1.0)

    def test_config_file_roundtrip(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "\n".join(
                [
                    "# comment line",
                    "eps = 0.25",
                    "lambda = 1.5",
                    "a = 0.1",
                    "flux = linear",
                    "n_cells = 64",
                    "x_min = -1.0",
                    "x_max = 3.0",
                    "cfl = 0.5",
                    "t_final = 0.2",
                    "u_left = 1.0",
                    "u_right = 0.0",
                    "well_prepared = true",
                    "scheme = semi-discrete",
                    "record_every = 7",
                ]
            )
        )
        cfg = make_config(**load_config_file(path))
        assert cfg.eps == 0.25 and cfg.lam == 1.5 and cfg.a == 0.1
        assert cfg.n_cells == 64 and cfg.x_min == -1.0 and cfg.x_max == 3.0
        assert cfg.well_prepared is True
        assert cfg.scheme == "semi-discrete" and cfg.record_every == 7

    def test_flag_overrides_beat_file_values(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("eps = 0.25\nlambda = 1.5\n")
        cfg = make_config(**{**load_config_file(path), "eps": 0.5})
        assert cfg.eps == 0.5 and cfg.lam == 1.5

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("epsilon = 0.25\n")
        with pytest.raises(ConfigError, match="epsilon"):
            make_config(**load_config_file(path))

    def test_bad_value_names_the_key(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("n_cells = many\n")
        with pytest.raises(ConfigError, match="n_cells"):
            make_config(**load_config_file(path))

    def test_subcharacteristic_gate(self):
        with pytest.raises(ConfigError, match="subcharacteristic"):
            make_config(eps=1.0, lam=0.3, a=0.5)

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ConfigError, match="scheme"):
            make_config(scheme="spectral")


def mostly(typical, *edges):
    """``typical`` three times in four, else one of ``edges``."""
    return st.one_of(typical, typical, typical, st.sampled_from(edges))


# small configs, with the values that once escaped as tracebacks among them
RUN_CONFIGS = st.builds(
    RunConfig,
    eps=mostly(st.floats(0.05, 1.0), 0.0, -0.1, 1e-300, 1e-160),
    lam=st.floats(0.2, 2.0),
    a=st.floats(-1.0, 1.0),
    flux=st.sampled_from(["linear", "burgers"]),
    n_cells=st.integers(2, 40),
    cfl=mostly(st.floats(0.2, 1.0), 1e-320),
    t_final=st.floats(1e-3, 0.01),
    u_left=mostly(st.floats(-2.0, 2.0), 1e150, 1e200, math.inf),
    u_right=st.floats(-2.0, 2.0),
    well_prepared=st.booleans(),
    scheme=st.sampled_from(["jpt", "semi-discrete"]),
    record_every=st.integers(-1, 30),
)


class TestAnyConfig:
    @seed(20261019)
    @settings(max_examples=500, database=None, deadline=None)
    @given(config=RUN_CONFIGS)
    # the configs of the command lines whose step rule once raised
    # ZeroDivisionError or OverflowError: the semi-discrete run and study
    # point at eps 1e-300, the residual check's run, the run at eps 1e-160,
    # the run at cfl 1e-320 and the splitting study point at eps 1e-300
    @example(config=RunConfig(eps=1e-300, scheme="semi-discrete", n_cells=10, t_final=0.001))
    @example(config=RunConfig(eps=1e-300, scheme="semi-discrete", n_cells=10**300, t_final=0.001,
                              well_prepared=True))
    @example(config=harness.residual_config(RunConfig(eps=1e-300)))
    @example(config=RunConfig(eps=1e-160, scheme="semi-discrete", n_cells=10, t_final=0.001))
    @example(config=RunConfig(cfl=1e-320, n_cells=10))
    @example(config=RunConfig(eps=1e-300, n_cells=10**300, t_final=0.001, well_prepared=True))
    def test_is_refused_or_ends_finite_or_unstable(self, config):
        # validate() refuses it, or the run gives finite outputs, or it
        # raises InstabilityError; nothing else, and never NaN as a success
        try:
            config.validate()
        except ConfigError:
            return
        assume(harness._step_size(config).n_steps <= 2000)
        with warnings.catch_warnings(), np.errstate(over="ignore", invalid="ignore"):
            warnings.simplefilter("ignore", BoundaryReachWarning)
            try:
                result = run_pair(config)
            except schemes.InstabilityError:
                return
        outputs = [*(getattr(result.series, f.name) for f in fields(ErrorSeries)),
                   result.hyp.u, result.hyp.v, result.lim.ubar, result.lim.vbar]
        if result.residual_integrals is not None:
            outputs += [getattr(result.residual_integrals, f.name) for f in fields(result.residual_integrals)]
        if result.mass is not None:
            outputs.append(result.mass.defect)
        assert all(np.isfinite(x).all() for x in outputs)


class TestStudyCells:
    def test_sweep_resolutions(self):
        cfg = RunConfig()
        expected = {
            1e-1: 200, 5e-2: 200, 2.5e-2: 200, 1.25e-2: 200,
            6.25e-3: 200, 3.125e-3: 320, 1.5e-3: 667,
        }
        for eps, cells in expected.items():
            n = study_cells(cfg, eps)
            assert n == cells
            assert (cfg.x_max - cfg.x_min) / n <= eps  # the dx <= eps guard

    def test_wide_domain_scales(self):
        cfg = RunConfig(x_min=0.0, x_max=2.0, lam=3.0, u_left=1.0, u_right=0.5)
        assert study_cells(cfg, 1e-3) == 2000

    @pytest.mark.parametrize("eps", [0.0, -0.1])
    def test_no_grid_resolves_eps_at_or_below_zero(self, eps):
        with pytest.raises(ConfigError, match="needs eps > 0"):
            study_cells(RunConfig(), eps)


class TestFitRate:
    def test_two_point_exact_fourth_order(self):
        slope, _ = fit_rate([(1.0, 1.0), (0.5, 0.0625)])
        assert slope == pytest.approx(4.0, abs=1e-12)

    def test_constant_data(self):
        slope, intercept = fit_rate([(1.0, 2.0), (0.1, 2.0)])
        assert slope == pytest.approx(0.0, abs=1e-12)
        assert intercept == pytest.approx(math.log(2.0))

    def test_synthetic_power_law_exact(self):
        eps = [1e-1, 5e-2, 2.5e-2, 1.25e-2, 6.25e-3, 3.125e-3, 1.5e-3]
        c = 3.7
        slope, intercept = fit_rate([(e, c * e**4) for e in eps])
        assert abs(slope - 4.0) <= 1e-12
        assert intercept == pytest.approx(math.log(c), abs=1e-10)

    def test_noisy_power_law_close_to_four(self, rng):
        eps = np.logspace(-1, -3, 9)
        noise = 1.0 + 0.01 * rng.standard_normal(9)
        pts = list(zip(eps, 2.0 * eps**4 * noise))
        slope, intercept = fit_rate(pts)
        # closed-form OLS oracle on the same data
        x = np.log(eps)
        y = np.log([v for _, v in pts])
        expected = float(((x - x.mean()) * (y - y.mean())).sum() / ((x - x.mean()) ** 2).sum())
        assert slope == pytest.approx(expected, rel=1e-12)
        assert abs(slope - 4.0) <= 0.1

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            fit_rate([(1.0, 1.0)])
        with pytest.raises(ValueError):
            fit_rate([(1.0, 1.0), (0.5, 0.0)])
        with pytest.raises(ValueError):
            fit_rate([(1.0, 1.0), (-0.5, 1.0)])


class TestRunPair:
    def test_equal_states_give_zero_error(self):
        cfg = RunConfig(eps=0.5, n_cells=40, u_left=1.0, u_right=1.0, t_final=0.01)
        result = run_pair(cfg)
        assert result.l2err_sq == 0.0
        assert result.weighted_err_sq == 0.0
        assert np.all(result.series.phi == 0.0)

    def test_series_invariants(self):
        cfg = RunConfig(eps=0.5, n_cells=60, t_final=0.02, record_every=5)
        result = run_pair(cfg)
        s = result.series
        assert np.all(s.phi >= 0.0)
        for cum in (s.l2err_sq, s.weighted_sq, s.k_dvbar_sq, s.k_dxxvbar_sq):
            assert np.all(cum >= 0.0)
            assert np.all(np.diff(cum) >= 0.0)
        assert s.t[0] == 0.0 and s.t[-1] == pytest.approx(cfg.t_final)

    def test_semi_discrete_tracks_entropy_budgets(self):
        cfg = RunConfig(eps=0.5, n_cells=40, t_final=0.01, scheme="semi-discrete")
        result = run_pair(cfg)
        assert result.identity_rel_max is not None
        assert result.identity_rel_max <= 1e-10
        assert result.residual_integrals is not None
        report = diagnostics.residual_sign_checks(result.residual_integrals, cfg.params())
        assert report.all_ok

    @pytest.mark.parametrize("scheme", ["jpt", "semi-discrete"])
    def test_states_and_series_end_on_t_final(self, scheme):
        # 23 steps of dt = 0.01/23 add up to 0.010000000000000002, not t_final
        cfg = RunConfig(eps=0.5, n_cells=64, t_final=0.01, scheme=scheme, record_every=5)
        result = run_pair(cfg, accumulate=())
        assert result.step.n_steps == 23
        assert result.hyp.t == result.lim.t == result.series.t[-1] == cfg.t_final
        assert result.series.t[1:-1].tolist() == [k * result.step.dt for k in (5, 10, 15, 20)]

    def test_burgers_run_is_stable_and_finite(self):
        cfg = RunConfig(eps=1.0, lam=3.0, flux="burgers", n_cells=100, t_final=0.02)
        result = run_pair(cfg)
        assert np.isfinite(result.hyp.u).all()
        assert result.l2err_sq > 0.0
        assert result.identity_rel_max is None  # entropy algebra is linear-only

    def test_mass_audit_on_the_riemann_run(self):
        result = run_pair(RunConfig(n_cells=200))
        assert result.mass is not None
        # net inflow v(-)-v(+) = 0.5 over T=0.1 moves real mass; the audit
        # nets it out against the boundary fluxes
        assert result.mass.boundary_inflow == pytest.approx(0.05, rel=1e-10)
        assert abs(result.mass.defect) <= 1e-12

    def test_unknown_accumulator_rejected(self):
        with pytest.raises(ValueError, match="unknown accumulators"):
            run_pair(RunConfig(n_cells=40, t_final=0.01), accumulate=("k-norms", "errors"))
        with pytest.raises(ValueError, match="unknown accumulators"):
            run_pair(RunConfig(n_cells=40, t_final=0.01), accumulate=("entropy",))

    @pytest.mark.parametrize("scheme", ["jpt", "semi-discrete"])
    def test_each_accumulator_is_opt_in(self, scheme):
        cfg = RunConfig(eps=0.5, n_cells=40, t_final=0.01, scheme=scheme, record_every=7)
        full = run_pair(cfg)
        for asked in ((), ("k-norms",), ("residuals",)):
            part = run_pair(cfg, accumulate=asked)
            for col in ("t", "phi", "l2err_sq", "weighted_sq"):
                assert np.array_equal(getattr(part.series, col), getattr(full.series, col)), (asked, col)
            for col in ("k_dvbar_sq", "k_dxxvbar_sq"):
                got, expected = getattr(part.series, col), getattr(full.series, col)
                if asked == ("k-norms",):
                    assert np.array_equal(got, expected), (asked, col)
                else:
                    assert np.isnan(got).all(), (asked, col)
            # the identity defect is formed for every linear semi-discrete run
            assert part.identity_rel_max == full.identity_rel_max
            if asked == ("residuals",) and scheme == "semi-discrete":
                assert_same_integrals(part.residual_integrals, full.residual_integrals)
            else:
                assert part.residual_integrals is None
            assert part.mass == full.mass
            assert np.array_equal(part.hyp.u, full.hyp.u) and np.array_equal(part.lim.vbar, full.lim.vbar)
        if scheme == "jpt":
            assert full.identity_rel_max is None and full.mass is not None
        else:
            assert full.identity_rel_max is not None and full.mass is None

    def test_boundary_warning_trigger_is_exact(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run_pair(RunConfig(eps=0.5, n_cells=16, lam=1.0, a=0.0, t_final=0.499,
                               u_left=1.0, u_right=1.0))
        with pytest.warns(BoundaryReachWarning):
            run_pair(RunConfig(eps=0.5, n_cells=16, lam=1.0, a=0.0, t_final=0.5,
                               u_left=1.0, u_right=1.0))

    def test_riemann_profiles_have_the_right_shape(self):
        # relaxed pair keeps steeper fronts than the diffused limit pair
        result = run_pair(RunConfig(eps=1.0, n_cells=200))
        u, ubar = result.hyp.u, result.lim.ubar
        assert np.abs(np.diff(u)).max() > 2.0 * np.abs(np.diff(ubar)).max()
        # both stay in the Riemann range and decrease left to right overall
        for w in (u, ubar):
            assert w.max() <= 2.0 + 1e-8 and w.min() >= 1.0 - 1e-8
        # waves at speed lam have not reached the ends, so u is still exact
        # there; the limit solution diffuses faster and only stays close
        assert u[0] == pytest.approx(2.0, abs=1e-9)
        assert u[-1] == pytest.approx(1.0, abs=1e-9)
        assert ubar[0] == pytest.approx(2.0, abs=0.1)
        assert ubar[-1] == pytest.approx(1.0, abs=0.15)
        # two-wave structure: gradient activity near x = 1/2 +- lam*T with a
        # quiet stretch between the waves
        x = result.grid.centers
        xi = 0.5 * (x[1:] + x[:-1])
        grad = np.abs(np.diff(u))
        left = grad[(xi >= 0.40) & (xi <= 0.46)].max()
        right = grad[(xi >= 0.54) & (xi <= 0.60)].max()
        middle = grad[(xi >= 0.48) & (xi <= 0.52)].max()
        assert left > 5.0 * middle
        assert right > 5.0 * middle


class TestOutputsAndDeterminism:
    def test_profile_and_series_formats(self, tmp_path):
        cfg = RunConfig(eps=0.5, n_cells=32, t_final=0.01, record_every=2,
                        out_dir=str(tmp_path))
        result = run_pair(cfg)
        assert result.step.n_steps > 2  # the stride produces a mid-run dump
        profile = (tmp_path / "profile_final.csv").read_text().splitlines()
        assert profile[0] == "x,u,v,ubar,vbar"
        assert len(profile) == 1 + 32
        assert all(len(line.split(",")) == 5 for line in profile[1:])
        series = (tmp_path / "series.csv").read_text().splitlines()
        assert series[0] == "t,phi,l2err_sq,k_dvbar_sq,k_dxxvbar_sq"
        assert (tmp_path / "profile_initial.csv").exists()
        assert (tmp_path / "profile_00000002.csv").exists()

    def test_reruns_are_byte_identical(self, tmp_path):
        outputs = []
        for name in ("one", "two"):
            out = tmp_path / name
            cfg = RunConfig(eps=0.5, n_cells=32, t_final=0.01, record_every=0,
                            out_dir=str(out))
            run_pair(cfg)
            outputs.append(
                ((out / "profile_final.csv").read_bytes(), (out / "series.csv").read_bytes())
            )
        assert outputs[0] == outputs[1]

    def test_study_file_format(self, tmp_path):
        result = harness.StudyResult(
            epsilons=[0.1, 0.05],
            errors=[1e-4, 6.25e-6],
            l2_errors=[1e-3, 1e-4],
            n_cells_used=[200, 200],
            slope=4.0,
            intercept=-2.5,
        )
        path = tmp_path / "study.csv"
        write_study(path, result)
        lines = path.read_text().splitlines()
        assert lines[0] == "eps,n_cells,l2err_sq"
        assert len(lines) == 1 + 2 + 2
        assert lines[-2].startswith("# slope=4")
        assert lines[-1].startswith("# intercept=-2.5")


class TestConvergenceStudy:
    def test_small_sweep_recovers_fourth_order(self):
        cfg = RunConfig(n_cells=100, well_prepared=True)
        result = convergence_study(cfg, epsilons=(1e-1, 5e-2, 2.5e-2))
        assert result.epsilons == [1e-1, 5e-2, 2.5e-2]  # strictly decreasing
        assert all(err > 0 for err in result.errors)
        assert all(e1 > e2 for e1, e2 in zip(result.errors, result.errors[1:]))
        assert result.n_cells_used == [100, 100, 100]
        assert not result.failures
        assert 3.5 <= result.slope <= 4.5
        # the plain squared L2 errors ride along, positive and larger
        assert all(l2 >= w for l2, w in zip(result.l2_errors, result.errors))

    def test_failures_are_recorded_and_sweep_continues(self):
        # eps = 2 violates the subcharacteristic gate (lam = 0.72 < 2*0.5)
        cfg = RunConfig(n_cells=64, well_prepared=True)
        result = convergence_study(cfg, epsilons=(2.0, 1e-1, 5e-2))
        assert [eps for eps, _ in result.failures] == [2.0]
        assert result.epsilons == [1e-1, 5e-2]

    def test_too_few_surviving_points_keep_their_failures(self):
        # at eps = 0.1 the squared errors overflow, so one point is left:
        # no rate, but the kept row and the failure both survive
        cfg = RunConfig(n_cells=64, well_prepared=True, u_left=2.5e153, u_right=1.25e153)
        with np.errstate(over="ignore", invalid="ignore"):
            result = convergence_study(cfg, epsilons=(1e-1, 2.5e-2))
        assert [eps for eps, _ in result.failures] == [1e-1]
        assert result.failures[0][1].startswith("non-finite error norms")
        assert result.epsilons == [2.5e-2] and result.n_cells_used == [64]
        assert math.isnan(result.slope) and math.isnan(result.intercept)

    def test_a_single_eps_is_refused_before_marching(self):
        with pytest.raises(ValueError, match="at least two points"):
            convergence_study(RunConfig(n_cells=64), epsilons=(1e-1, 1e-1))

    def test_overflowing_point_is_recorded_as_a_failure(self):
        # Riemann data near 1e153: the cells stay finite, but at eps = 0.1
        # the squared errors summed over the cells overflow; the finer
        # points stay finite
        cfg = RunConfig(n_cells=64, well_prepared=True, u_left=2.5e153, u_right=1.25e153)
        with np.errstate(over="ignore", invalid="ignore"):
            result = convergence_study(cfg, epsilons=(1e-1, 2.5e-2, 1.25e-2))
        assert [eps for eps, _ in result.failures] == [1e-1]
        assert result.failures[0][1].startswith("non-finite error norms")
        assert result.epsilons == [2.5e-2, 1.25e-2]
        assert np.isfinite(result.errors).all() and np.isfinite(result.l2_errors).all()


class TestRunGroup:
    @pytest.mark.parametrize("scheme", ["jpt", "semi-discrete"])
    @pytest.mark.parametrize("flux, lam, t_final", [("linear", 0.72, 0.02), ("burgers", 3.0, 0.005)])
    def test_study_errors_equal_lone_runs(self, flux, lam, t_final, scheme, monkeypatch):
        cfg = RunConfig(flux=flux, lam=lam, n_cells=64, t_final=t_final, well_prepared=True, scheme=scheme)
        epsilons = (1e-1, 5e-2, 2.5e-2, 1e-2)
        sizes = []
        real = harness.run_group

        def spy(config, group, accumulate):
            sizes.append(len(group))
            return real(config, group, accumulate)

        monkeypatch.setattr(harness, "run_group", spy)
        monkeypatch.setattr(harness, "_usable_cpus", lambda: 1)  # a forked child's spy records nothing here
        study = convergence_study(cfg, epsilons)
        assert sum(sizes) == len(epsilons) and max(sizes) >= 2  # some points march together
        lone = [
            run_pair(replace(cfg, eps=eps, n_cells=study_cells(cfg, eps)), accumulate=())
            for eps in epsilons
        ]
        assert study.errors == [r.weighted_err_sq for r in lone]
        assert study.l2_errors == [r.l2err_sq for r in lone]

    @pytest.mark.parametrize("scheme", ["jpt", "semi-discrete"])
    def test_one_eps_group_is_run_pair(self, scheme):
        cfg = RunConfig(eps=0.5, n_cells=40, t_final=0.01, scheme=scheme, record_every=7)
        (grouped,) = run_group(cfg, (cfg.eps,))
        assert_same_run(grouped, run_pair(cfg))

    @pytest.mark.parametrize("scheme", ["jpt", "semi-discrete"])
    def test_every_row_equals_its_lone_run(self, scheme):
        # 336 steps span more than one chunk of the running sums (at most
        # 256 steps each), with records on both sides of a flush
        cfg = RunConfig(n_cells=64, t_final=0.15, scheme=scheme, record_every=7)
        epsilons = (0.1, 0.07, 0.05)
        grouped = run_group(cfg, epsilons)
        assert grouped[0].step.n_steps > 256
        for eps, result in zip(epsilons, grouped):
            assert_same_run(result, run_pair(replace(cfg, eps=eps)))

    def test_running_sums_match_a_step_by_step_sum(self):
        # the chunked reduction adds the same terms in the same order as a
        # running float sum updated once per step
        cfg = RunConfig(eps=0.1, n_cells=64, t_final=0.15, record_every=7)
        result = run_pair(cfg, accumulate=())
        p, grid = cfg.params(), cfg.grid()
        step = schemes.marching_dt(p, grid)
        dt, dx = step.dt, grid.dx
        march = schemes.PairMarch(p, grid, dt, *model.riemann_initial(p, grid, 2.0, 1.0))
        l2 = weighted = inflow = 0.0
        l2_rec, weighted_rec = [], []
        for k in range(step.n_steps):
            if k % 7 == 0:
                l2_rec.append(l2)
                weighted_rec.append(weighted)
            du, dv = march.u - march.ubar, march.v - march.vbar
            du2, dv2, cross = float((du * du).sum()), float((dv * dv).sum()), float((du * dv).sum())
            l2 += dt * dx * (du2 + dv2)
            weighted += dt * dx * (0.5 * p.lam**2 * du2 + 0.5 * p.eps**2 * dv2 - p.eps**2 * p.a * cross)
            inflow += dt * (float(march.v[0]) - float(march.v[-1]))
            split_steps(march)
        assert step.n_steps > 256  # more than one chunk of the running sums
        assert result.series.l2err_sq.tolist() == l2_rec + [l2]
        assert result.series.weighted_sq.tolist() == weighted_rec + [weighted]
        assert result.mass.boundary_inflow == inflow

    @pytest.mark.parametrize("scheme", ["jpt", "semi-discrete"])
    def test_the_weighted_error_is_the_running_sum_of_dt_phi(self, scheme):
        # phi and the weighted error increment come from one quadratic form,
        # so with every step recorded the one is the left-endpoint sum of
        # the other, to the last bit (dx = 1/200 is not a power of two)
        result = run_pair(RunConfig(eps=0.1, scheme=scheme, record_every=1), accumulate=())
        series, dt = result.series, result.step.dt
        assert len(series.phi) == result.step.n_steps + 1 == 2184
        running = np.add.accumulate(np.concatenate(([0.0], dt * series.phi[:-1])))
        assert np.array_equal(series.weighted_sq, running)

    def test_chunked_residuals_and_phi_match_a_step_by_step_evaluation(self):
        # every step is a record point, and the two eps share each chunk;
        # the reference evaluates the public diagnostics on a lone march
        cfg = RunConfig(n_cells=64, t_final=0.12, scheme="semi-discrete", record_every=1)
        epsilons = (0.1, 0.05)
        grouped = run_group(cfg, epsilons, accumulate=("residuals",))
        grid, step = cfg.grid(), grouped[0].step
        dt, dx = step.dt, grid.dx
        assert step.n_steps > 256  # more than one chunk of the running sums
        for eps, result in zip(epsilons, grouped):
            p = replace(cfg, eps=eps).params()
            march = schemes.PairMarch(p, grid, dt, *model.riemann_initial(p, grid, 2.0, 1.0))
            phi, running, per_step = [], [0.0] * 8, []
            for k in range(step.n_steps + 1):
                hyp, lim = march.states(k * dt)
                du, dv = hyp.u - lim.ubar, hyp.v - lim.vbar
                phi.append(phi_oracle(p, grid, du, dv))
                if k == step.n_steps:
                    break
                vbar = model.pad_edges(lim.vbar)
                dxx_vbar = (vbar[2:] - 2.0 * vbar[1:-1] + vbar[:-2]) / dx**2
                grad_du, grad_dv, relax = np.diff(du) / dx, np.diff(dv) / dx, dv - p.a * du
                cells = (
                    *diagnostics.residuals(p, grid, hyp, lim),
                    grad_du * grad_du, grad_dv * grad_dv, dxx_vbar * dxx_vbar, relax * relax,
                )
                running = [total + dt * dx * float(c.sum()) for total, c in zip(running, cells)]
                per_step.append(running)
                march.rk4_step()
            assert np.array_equal(result.series.phi, phi), eps
            integrals = result.residual_integrals
            for f, expected in zip(fields(integrals)[1:], np.array(per_step).T):
                assert np.array_equal(getattr(integrals, f.name), expected), (eps, f.name)

    def test_the_phi_oracle_sees_a_flipped_cross_term(self, monkeypatch):
        # the oracle stands apart from diagnostics._weighted_form, so a
        # mutant of the form moves series.phi off it
        cfg = RunConfig(n_cells=64, t_final=0.02, scheme="semi-discrete", record_every=1)
        p, grid = cfg.params(), cfg.grid()

        def flipped(p, eps, dx, du2, dv2, cross):
            return dx * (0.5 * p.lam**2 * du2 + 0.5 * eps**2 * dv2 + eps**2 * p.a * cross)

        result = run_pair(cfg, accumulate=())
        step = result.step
        march = schemes.PairMarch(p, grid, step.dt, *model.riemann_initial(p, grid, 2.0, 1.0))
        oracle = []
        for k in range(step.n_steps + 1):
            hyp, lim = march.states(k * step.dt)
            oracle.append(phi_oracle(p, grid, hyp.u - lim.ubar, hyp.v - lim.vbar))
            march.rk4_step()
        assert np.array_equal(result.series.phi, oracle)
        monkeypatch.setattr(diagnostics, "_weighted_form", flipped)
        assert not np.array_equal(run_pair(cfg, accumulate=()).series.phi, oracle)

    @pytest.mark.parametrize("scheme", ["jpt", "semi-discrete"])
    @pytest.mark.parametrize("flux, lam, t_final", [("linear", 0.72, 0.15), ("burgers", 3.0, 0.02)])
    def test_k_norms_match_a_step_by_step_sum_of_the_limit_rhs(self, flux, lam, t_final, scheme):
        # the flush forms dvbar/dt by the ops of the RK4 rates on the chunk's
        # limit pairs: bit for bit the public right-hand side of each state
        cfg = RunConfig(eps=0.1, lam=lam, flux=flux, n_cells=64, t_final=t_final, scheme=scheme, record_every=1)
        result = run_pair(cfg, accumulate=("k-norms",))
        p, grid, step = cfg.params(), cfg.grid(), result.step
        dt, dx = step.dt, grid.dx
        march = schemes.PairMarch(p, grid, dt, *model.riemann_initial(p, grid, 2.0, 1.0))
        dvbar_sq = dxxvbar_sq = 0.0
        dvbar_rec, dxxvbar_rec = [], []
        for k in range(step.n_steps + 1):
            dvbar_rec.append(dvbar_sq)
            dxxvbar_rec.append(dxxvbar_sq)
            _, lim = march.states(k * dt)
            _, dvbar_dt = schemes.limit_semi_discrete_rhs(p, grid, lim)
            vbar = model.pad_edges(lim.vbar)
            dxx_vbar = (vbar[2:] - 2.0 * vbar[1:-1] + vbar[:-2]) / dx**2
            dvbar_sq += dt * dx * float((dvbar_dt * dvbar_dt).sum())
            dxxvbar_sq += dt * dx * float((dxx_vbar * dxx_vbar).sum())
            split_steps(march) if scheme == "jpt" else march.rk4_step()
        assert step.n_steps > 256  # more than one chunk of the running sums
        assert result.series.k_dvbar_sq.tolist() == dvbar_rec
        assert result.series.k_dxxvbar_sq.tolist() == dxxvbar_rec

    @pytest.mark.parametrize("scheme", ["jpt", "semi-discrete"])
    @pytest.mark.parametrize("flux, lam", [("linear", 0.72), ("burgers", 3.0)])
    @pytest.mark.parametrize("n_cells, t_final, peak", [
        (400, 1e-3, "after the first chunk"), (200, 1e-4, "on the final state"),
    ])
    def test_sup_phi_is_the_max_over_every_step(self, n_cells, t_final, peak, flux, lam, scheme):
        # the flush keeps the max of phi at every step, whatever is recorded
        cfg = RunConfig(lam=lam, flux=flux, n_cells=n_cells, t_final=t_final, scheme=scheme, well_prepared=True)
        epsilons = (1.0, 0.7)
        every_step = run_group(replace(cfg, record_every=1), epsilons, accumulate=())
        step = every_step[0].step
        chunk = harness._RunningSums([cfg.params()] * 2, cfg.grid(), step.dt, False, False).chunk
        for i, full in enumerate(every_step):
            phi = full.series.phi
            assert full.series.sup_phi == phi.max()
            if peak == "on the final state":
                assert phi.argmax() == step.n_steps
            else:
                assert chunk < phi.argmax() < step.n_steps and phi.argmax() % 7 != 0
            for every in (0, 7):
                sparse = run_group(replace(cfg, record_every=every), epsilons, accumulate=())[i]
                assert sparse.series.sup_phi == phi.max(), (every, i)

    @pytest.mark.parametrize("scheme", ["jpt", "semi-discrete"])
    def test_a_failed_row_stays_in_its_row(self, scheme, monkeypatch):
        cfg = RunConfig(n_cells=64, t_final=0.02, well_prepared=True, scheme=scheme)
        epsilons = (0.1, 0.07, 0.05)
        lone = [run_pair(replace(cfg, eps=eps)) for eps in epsilons]

        class Poisoned(schemes.PairMarch):
            """A march whose second relaxed pair starts with an inf cell."""

            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.u[1, 20] = np.inf

        monkeypatch.setattr(schemes, "PairMarch", Poisoned)
        with np.errstate(over="ignore", invalid="ignore"):
            grouped = run_group(cfg, epsilons)
        assert isinstance(grouped[1], schemes.InstabilityError)
        assert str(grouped[1]) == "non-finite cell values: unstable step size or blow-up"
        assert_same_run(grouped[0], lone[0])
        assert_same_run(grouped[2], lone[2])

    @pytest.mark.parametrize("n_cells, sizes", [(200, [3]), (20, [1, 1, 1])])
    def test_theorem_runs_equal_lone_runs(self, n_cells, sizes, monkeypatch):
        # on 200 cells the three eps share one step; on 20 each needs its own
        epsilons = harness.THEOREM_EPS
        assert epsilons == (0.1, 0.05, 0.025)
        seen, marched = [], []
        real = harness.run_group

        def spy(config, group, accumulate):
            seen.append(len(group))
            results = real(config, group, accumulate)
            marched.extend(results)
            return results

        monkeypatch.setattr(harness, "run_group", spy)
        monkeypatch.setattr(harness, "_usable_cpus", lambda: 1)  # a forked child's spy records nothing here
        assert harness.verify_theorem(RunConfig(eps=0.1, n_cells=n_cells)).passed
        assert seen == sizes
        # the largest group marches first: on 20 cells, the smallest eps takes the most steps
        marched_eps = [r.config.eps for r in marched]
        assert marched_eps == (list(epsilons) if sizes == [3] else list(epsilons)[::-1])
        for eps, result in zip(marched_eps, marched):
            cfg = RunConfig(eps=eps, n_cells=n_cells, scheme="semi-discrete", well_prepared=True)
            lone = run_pair(cfg, accumulate=("k-norms",))
            assert result.config == cfg
            assert result.series.sup_phi == lone.series.sup_phi
            for name in ("phi", "k_dvbar_sq", "k_dxxvbar_sq"):
                assert getattr(result.series, name).tolist() == getattr(lone.series, name).tolist()

    def test_refuses_groups_it_cannot_march_as_one(self, tmp_path):
        with pytest.raises(ValueError, match="at least one eps"):
            run_group(RunConfig(n_cells=64, t_final=0.02), ())
        with pytest.raises(ValueError, match="one step size"):
            run_group(RunConfig(n_cells=64, t_final=0.02, scheme="semi-discrete"), (0.1, 0.01))
        with pytest.raises(ValueError, match="one eps at a time"):
            run_group(RunConfig(n_cells=64, t_final=0.02, out_dir=str(tmp_path)), (0.1, 0.05))
        with pytest.raises(ConfigError, match="subcharacteristic"):
            run_group(RunConfig(n_cells=64, t_final=0.02), (0.1, 2.0))


class TestInParallel:
    def test_two_calls_run_at_once_in_two_processes(self, meeting, monkeypatch):
        monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
        pids = harness.in_parallel(meeting)
        assert len(set(pids)) == 2 and os.getpid() in pids
        assert_no_child_left()

    def test_results_equal_the_serial_path_bit_for_bit(self, monkeypatch):
        # four groups, one per grid and step, with every accumulator
        cfg = RunConfig(n_cells=20, t_final=0.01, well_prepared=True, scheme="semi-discrete")
        configs = [replace(cfg, eps=eps, n_cells=study_cells(cfg, eps)) for eps in (0.1, 0.05, 0.025, 0.0125)]
        runs = {}
        for cpus in (1, 2):
            monkeypatch.setattr(harness, "_usable_cpus", lambda: cpus)
            runs[cpus] = harness._march_sweep(configs, harness.ACCUMULATORS)
            assert_no_child_left()
        assert len({(r.grid.n_cells, r.step) for r in runs[1]}) == 4
        for config, serial, parallel in zip(configs, runs[1], runs[2]):
            assert parallel.config == config
            assert_same_run(parallel, serial)

    @pytest.mark.parametrize("first", [0, 1])
    def test_the_first_call_that_raised_raises(self, first, meeting, monkeypatch):
        # the two calls run at once, one in each process, and both raise
        monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)

        def raising(meet, name):
            def call():
                meet()
                raise ValueError(name)
            return call

        calls = [raising(meet, f"call {i}") for i, meet in enumerate(meeting)]
        with pytest.raises(ValueError, match="^call 0$"):
            harness.in_parallel(calls if first == 0 else [lambda: None, *calls])
        assert_no_child_left()

    def test_a_nested_call_runs_serially(self, meeting, monkeypatch):
        monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
        forks = counted_forks(monkeypatch)

        def nested(meet):
            def call():
                meet()
                inner = harness.in_parallel([os.getpid, os.getpid, os.getpid])
                return os.getpid(), set(inner), len(forks)
            return call

        outcomes = harness.in_parallel([nested(meet) for meet in meeting])
        assert len({pid for pid, _, _ in outcomes}) == 2
        # each inner list ran in its own caller's process, which forked no one
        assert all(inner == {pid} and n_forks == 1 for pid, inner, n_forks in outcomes)
        assert len(forks) == 1
        assert_no_child_left()

    def test_the_warnings_of_a_split_study_are_caught(self, monkeypatch):
        # every group warns that the waves reach the boundary
        cfg = RunConfig(n_cells=16, lam=1.0, t_final=0.5, well_prepared=True)
        caught = {}
        for cpus in (1, 2):
            monkeypatch.setattr(harness, "_usable_cpus", lambda: cpus)
            with pytest.warns(BoundaryReachWarning) as record:
                convergence_study(cfg, (0.5, 0.1, 0.05, 0.025))
            caught[cpus] = [str(w.message) for w in record if w.category is BoundaryReachWarning]
            assert_no_child_left()
        assert len(caught[1]) >= 2  # one per group
        assert caught[2] == caught[1]


class TestProfileWriter:
    @pytest.mark.parametrize("scheme", ["jpt", "semi-discrete"])
    def test_the_files_are_the_same_with_and_without_the_writer(self, scheme, tmp_path, monkeypatch):
        forks = counted_forks(monkeypatch)
        files = {}
        for cpus in (1, 2):
            monkeypatch.setattr(harness, "_usable_cpus", lambda: cpus)
            out = tmp_path / f"cpus{cpus}"
            run_pair(RunConfig(eps=0.5, n_cells=40, t_final=0.02, scheme=scheme, record_every=7, out_dir=str(out)))
            assert len(forks) == cpus - 1  # the writer formats the profiles of the second run
            assert_no_child_left()
            files[cpus] = written(out)
        assert len(files[1]) > 4 and "series.csv" in files[1]
        assert files[2] == files[1]

    def test_the_writer_forks_only_where_in_parallel_may(self, tmp_path, monkeypatch):
        forks = counted_forks(monkeypatch)
        monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
        cfg = RunConfig(eps=0.5, n_cells=32, t_final=0.01, record_every=2)
        # no profiles at the record points: no writer
        run_pair(replace(cfg, record_every=0, out_dir=str(tmp_path / "none")))
        assert forks == []
        # inside in_parallel, whose own child is the only fork that either process sees
        def nested(i):
            run_pair(replace(cfg, out_dir=str(tmp_path / f"nested{i}")))
            return len(forks)

        assert harness.in_parallel([lambda i=i: nested(i) for i in range(2)]) == [1, 1]
        assert len(forks) == 1
        # beside another live thread
        done = threading.Event()
        thread = threading.Thread(target=done.wait)
        thread.start()
        try:
            run_pair(replace(cfg, out_dir=str(tmp_path / "threaded")))
        finally:
            done.set()
            thread.join()
        assert len(forks) == 1
        assert_no_child_left()
        assert written(tmp_path / "threaded") == written(tmp_path / "nested0") == written(tmp_path / "nested1")

    def test_rows_that_all_fail_at_a_record_point_leave_no_child(self, tmp_path, monkeypatch):
        class Poisoned(schemes.PairMarch):
            """A march whose relaxed pair takes an inf cell at its tenth step."""

            steps = 0

            def relax(self):
                super().relax()
                Poisoned.steps += 1
                if Poisoned.steps == 10:
                    self.u[20] = np.inf

        monkeypatch.setattr(schemes, "PairMarch", Poisoned)
        files = {}
        for cpus in (1, 2):
            Poisoned.steps = 0
            monkeypatch.setattr(harness, "_usable_cpus", lambda: cpus)
            out = tmp_path / f"cpus{cpus}"
            with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
                schemes.InstabilityError, match="non-finite cell values"
            ):
                run_pair(RunConfig(eps=0.5, n_cells=40, t_final=0.02, record_every=7, out_dir=str(out)))
            assert_no_child_left()
            files[cpus] = written(out)
        # the rows failed at step 14, after the profiles of steps 0 and 7
        assert list(files[1]) == ["profile_00000007.csv", "profile_initial.csv"]
        assert files[2] == files[1]

    def test_a_writer_that_dies_raises_child_process_error(self, tmp_path, monkeypatch):
        parent = os.getpid()
        real = harness.write_profile

        def dying(*args):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            real(*args)

        monkeypatch.setattr(harness, "write_profile", dying)
        monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
        cfg = RunConfig(eps=0.5, n_cells=32, t_final=0.01, record_every=2, out_dir=str(tmp_path))
        with pytest.raises(ChildProcessError, match="^the profile writer process was killed by signal 9 "):
            run_pair(cfg)
        assert_no_child_left()
        assert list(tmp_path.iterdir()) == []

    def test_an_error_in_the_march_kills_the_writer(self, tmp_path, monkeypatch):
        # the writer would sleep for a minute on its first profile: the
        # march's error must not wait for it
        parent = os.getpid()

        def sleeping(*args):
            if os.getpid() != parent:
                time.sleep(60.0)

        class Broken(schemes.PairMarch):
            def relax(self):
                raise RuntimeError("broken step")

        monkeypatch.setattr(harness, "write_profile", sleeping)
        monkeypatch.setattr(schemes, "PairMarch", Broken)
        monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
        start = time.monotonic()
        with pytest.raises(RuntimeError, match="broken step"):
            run_pair(RunConfig(eps=0.5, n_cells=32, t_final=0.01, record_every=2, out_dir=str(tmp_path)))
        assert time.monotonic() - start < 30.0
        assert_no_child_left()
