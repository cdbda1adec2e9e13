"""Acceptance criteria, one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines inline.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from jinxin import diagnostics, harness, model, schemes
from jinxin.harness import RunConfig
from jinxin.model import Grid, ModelParams

from conftest import split_steps

RESULTS: list[str] = []


def report(number: int, label: str, passed: bool, detail: str) -> None:
    line = f"ACCEPTANCE {number} ({label}): {'PASS' if passed else 'FAIL'} -- {detail}"
    RESULTS.append(line)
    print(line)
    assert passed, line


def teardown_module(_module) -> None:
    print()
    for line in RESULTS:
        print(line)


def test_ac1_linear_rate_reproduction():
    t0 = time.perf_counter()
    config = RunConfig(flux="linear", lam=0.72, a=0.5, cfl=0.95, t_final=0.1,
                       u_left=2.0, u_right=1.0, n_cells=200, well_prepared=True)
    result = harness.convergence_study(config, harness.DEFAULT_EPS_SWEEP)
    elapsed = time.perf_counter() - t0
    ok = 3.5 <= result.slope <= 4.5 and not result.failures and elapsed < 120.0
    report(1, "linear eps^4 rate", ok,
           f"slope={result.slope:.4f} in [3.5, 4.5], {elapsed:.1f}s < 120s")


def test_ac2_burgers_rate_reproduction():
    t0 = time.perf_counter()
    config = RunConfig(flux="burgers", lam=3.0, a=0.5, cfl=0.95, t_final=0.1,
                       u_left=2.0, u_right=1.0, n_cells=200, well_prepared=True)
    result = harness.convergence_study(config, harness.DEFAULT_EPS_SWEEP)
    elapsed = time.perf_counter() - t0
    ok = 3.5 <= result.slope <= 4.5 and not result.failures and elapsed < 120.0
    report(2, "burgers eps^4 rate", ok,
           f"slope={result.slope:.4f} in [3.5, 4.5], {elapsed:.1f}s < 120s")


def test_ac3_discrete_identity_on_random_states():
    outcome = harness.verify_identity()  # 100 pairs on 50 cells, eps 1 and 0.1, tol 1e-10
    report(3, "entropy evolution identity", outcome.passed, outcome.lines[0])


def test_ac4_residual_estimates_along_trajectory():
    config = RunConfig(eps=0.1, lam=0.72, a=0.5, n_cells=200, t_final=0.1,
                       scheme="semi-discrete")
    result = harness.run_pair(config)
    rep = diagnostics.residual_sign_checks(result.residual_integrals, config.params())
    detail = (f"R1 defect {rep.r1_rel_defect:.2e} <= 1e-12, "
              f"R2 defect {rep.r2_rel_defect:.2e} <= 1e-12, "
              f"worst int(R1+R2+R4) {rep.sum124_worst:.2e} <= 0, "
              f"worst R3 margin {rep.r3_worst_margin:.2e} >= 0")
    ok = (rep.r1_rel_defect <= 1e-12 and rep.r2_rel_defect <= 1e-12
          and rep.sum124_worst <= 0.0 and rep.r3_worst_margin >= 0.0)
    report(4, "residual estimates", ok, detail)


def test_ac5_stability_bound_with_measured_constant():
    # the three eps share the 200-cell grid's step, so they march as one group;
    # the flush keeps sup phi over every step, so only the ends are recorded
    config = RunConfig(eps=0.1, lam=0.72, a=0.5, n_cells=200, t_final=0.1,
                       scheme="semi-discrete", well_prepared=True)
    results = harness.run_group(config, (0.1, 0.05, 0.025), accumulate=("k-norms",))
    margins = [
        (r.config.eps, diagnostics.theorem_bound_check(r.series, r.config.params()))
        for r in results
    ]
    ok = all(c.satisfied and c.margin >= 0.0 and c.phi0 == 0.0 for _, c in margins)
    detail = ", ".join(f"eps={e:g}: margin={c.margin:.3e}" for e, c in margins)
    report(5, "sup phi <= phi(0) + B_meas eps^4", ok, detail)


def test_ac6_convexity_sandwich_exhaustive():
    p = ModelParams(eps=1.0, lam=0.72, a=0.5)
    bounds = model.convexity_bounds(p)
    rng = np.random.default_rng(123456)
    du, dv = rng.uniform(-10.0, 10.0, size=(2, 1_000_000))
    values = model.relative_entropy(p, du, dv, 0.0, 0.0)
    norm_sq = du * du + dv * dv
    low_violations = int(np.count_nonzero(values < 0.5 * bounds.beta0 * norm_sq))
    high_violations = int(np.count_nonzero(values > 0.5 * bounds.beta1 * norm_sq))
    ok = low_violations == 0 and high_violations == 0
    report(6, "beta sandwich on 1e6 vectors", ok,
           f"{low_violations} lower / {high_violations} upper violations")


def test_ac7_asymptotic_consistency_single_step():
    p = ModelParams(eps=1e-8, lam=0.72, a=0.5)
    grid = Grid(n_cells=200)
    u, v, ub, vb = model.riemann_initial(p, grid, 2.0, 1.0, well_prepared=True)
    dt = schemes.marching_dt(p, grid).dt
    march = split_steps(schemes.PairMarch(p, grid, dt, u, v, ub, vb))
    rel_u = float(np.abs(march.u - march.ubar).max() / np.abs(march.ubar).max())
    rel_v = float(np.abs(march.v - march.vbar).max() / np.abs(march.vbar).max())
    ok = rel_u <= 1e-6 and rel_v <= 1e-6
    report(7, "one-step limit agreement at eps=1e-8", ok,
           f"rel_u={rel_u:.2e}, rel_v={rel_v:.2e} <= 1e-6")


def test_ac8_steady_states_and_conservation():
    # constant equilibrium data is a fixed point of every scheme
    p = ModelParams(eps=0.5, lam=0.72, a=0.5)
    grid = Grid(n_cells=50)
    c = 1.3
    u0 = np.full(50, c)
    v0 = np.asarray(model.flux_eval(p.flux, p.a, u0))
    vb0 = model.equilibrium_v(p, grid, u0)
    dt = schemes.marching_dt(p, grid).dt
    dts = schemes.semi_discrete_dt(p, grid).dt
    split = schemes.PairMarch(p, grid, dt, u0, v0, u0, vb0)
    mol = schemes.PairMarch(p, grid, dts, u0, v0, u0, vb0)
    for _ in range(100):
        split_steps(split)
        mol.rk4_step()
    drift = max(
        np.abs(split.u - u0).max(), np.abs(split.v - v0).max(),
        np.abs(split.ubar - u0).max(), np.abs(split.vbar - vb0).max(),
        np.abs(mol.u - u0).max(), np.abs(mol.v - v0).max(),
        np.abs(mol.ubar - u0).max(),
    )

    # mass balance over the Riemann run (far-field-safe horizon):
    # boundary fluxes are constant-in-time and fully accounted
    result = harness.run_pair(RunConfig(n_cells=200))
    defect = abs(result.mass.defect)
    ok = drift <= 1e-14 and defect <= 1e-12
    report(8, "fixed points and mass balance", ok,
           f"max drift {drift:.2e} <= 1e-14, mass defect {defect:.2e} <= 1e-12")


def test_ac9_synthetic_rate_fit_oracle():
    eps = list(harness.DEFAULT_EPS_SWEEP)
    slope, _ = harness.fit_rate([(e, 2.9 * e**4) for e in eps])
    gap = abs(slope - 4.0)
    report(9, "synthetic eps^4 slope recovery", gap <= 1e-12,
           f"|slope - 4| = {gap:.2e} <= 1e-12")


def test_ac10_semi_discrete_linear_rate():
    # the paper's rate on its own object: the semi-discrete relaxed pair
    # against the discrete convection-diffusion limit; the sweep marches
    # once, with the K norms, so the stability bound is checked at every
    # point of the fit (phi(0) = 0: the data are well prepared)
    t0 = time.perf_counter()
    config = RunConfig(flux="linear", lam=0.72, a=0.5, cfl=0.95, t_final=0.1,
                       u_left=2.0, u_right=1.0, n_cells=200, well_prepared=True,
                       scheme="semi-discrete")
    configs = [replace(config, eps=eps, n_cells=harness.study_cells(config, eps))
               for eps in harness.DEFAULT_EPS_SWEEP]
    results = harness._march_sweep(configs, accumulate=("k-norms",))
    failures = [r for r in results if isinstance(r, Exception)]
    marched = [r for r in results if not isinstance(r, Exception)]
    slope, _ = harness.fit_rate((r.config.eps, r.weighted_err_sq) for r in marched)
    checks = [diagnostics.theorem_bound_check(r.series, r.config.params()) for r in marched]
    elapsed = time.perf_counter() - t0
    ok = (3.5 <= slope <= 4.5 and not failures and elapsed < 120.0
          and all(c.satisfied and c.phi0 == 0.0 for c in checks))
    bounds = ", ".join(f"eps={r.config.eps:g}: bound/sup phi={c.bound / c.sup_phi:.3g}"
                       for r, c in zip(marched, checks))
    report(10, "semi-discrete linear eps^4 rate and bound", ok,
           f"slope={slope:.4f} in [3.5, 4.5], {elapsed:.1f}s < 120s, sup phi <= bound at {bounds}")
