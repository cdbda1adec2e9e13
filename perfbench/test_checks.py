"""The benchmark's checks pass on good output and fail on corrupted output.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import types
from dataclasses import replace

import numpy as np
import pytest

import checks
import workloads
from tracer import Tracer

jinxin = workloads.import_program()

STUDY = workloads.StudyLinear()


@pytest.fixture(scope="module")
def reference_error() -> float:
    return STUDY.reference_error


def synthetic_study(reference_error: float, **changes):
    """A StudyResult with the exact eps^4 decay through the reference point."""
    eps = sorted(STUDY.sweep, reverse=True)
    errors = [reference_error * (e / eps[0]) ** 4 for e in eps]
    slope, intercept = jinxin.harness.fit_rate(zip(eps, errors))
    fields = dict(
        epsilons=eps, errors=errors, l2_errors=errors,
        n_cells_used=[max(200, int(np.ceil(1.0 / e))) for e in eps],
        slope=slope, intercept=intercept, failures=[],
    )
    fields.update(changes)
    return types.SimpleNamespace(**fields)


def study_problems(result, reference_error):
    return checks.check_study(result, STUDY.sweep, 200, reference_error)


def test_study_check_passes_on_exact_rate(reference_error):
    assert study_problems(synthetic_study(reference_error), reference_error) == {}


def test_reference_matches_run_pair_at_largest_eps(reference_error):
    config = jinxin.harness.RunConfig(**{**STUDY.inputs, "eps": STUDY.sweep[0]})
    program = jinxin.harness.run_pair(config).weighted_err_sq
    assert abs(program - reference_error) <= checks.REFERENCE_RTOL * reference_error


def test_study_slope_of_two_fails_every_point(reference_error):
    problems = study_problems(synthetic_study(reference_error, slope=2.0), reference_error)
    assert set(problems) == set(STUDY.operations)
    assert all("slope" in p.reason and not p.failed for p in problems.values())


def test_study_misreported_slope_fails(reference_error):
    problems = study_problems(synthetic_study(reference_error, slope=4.2), reference_error)
    assert set(problems) == set(STUDY.operations)


def test_study_wrong_grid_fails_that_point(reference_error):
    result = synthetic_study(reference_error)
    result.n_cells_used[-1] = 600  # dx > eps at eps = 1.5e-3
    assert set(study_problems(result, reference_error)) == {"eps=0.0015"}


def test_study_error_not_decreasing_fails_that_point(reference_error):
    result = synthetic_study(reference_error)
    result.errors[3] = result.errors[2]
    result.slope = float(np.polyfit(np.log(result.epsilons), np.log(result.errors), 1)[0])
    assert set(study_problems(result, reference_error)) == {"eps=0.0125"}


def test_study_reference_mismatch_fails_largest_eps(reference_error):
    result = synthetic_study(reference_error)
    assert set(study_problems(result, reference_error * (1 + 1e-9))) == {"eps=0.1"}


def test_study_reported_failure_counts_as_failed(reference_error):
    result = synthetic_study(reference_error)
    for name in ("epsilons", "errors", "l2_errors", "n_cells_used"):
        setattr(result, name, getattr(result, name)[:-1])
    result.failures = [(1.5e-3, "non-finite cell values")]
    result.slope = jinxin.harness.fit_rate(zip(result.epsilons, result.errors))[0]
    problems = study_problems(result, reference_error)
    assert set(problems) == {"eps=0.0015"} and problems["eps=0.0015"].failed


GOOD_VERIFY = """\
[PASS] identity
    entropy evolution law, max relative defect 1.458e-14 (tol 1e-10)
[PASS] residuals
    semi-discrete run at eps=1, 2183 steps
    R1 summation-by-parts equality: rel defect 3.011e-15 -> PASS
    R2 summation-by-parts equality: rel defect 6.958e-15 -> PASS
    int(R1+R2+R4) <= 0: worst running value -8.864e-02 -> PASS
    R3 Young bound (theta=0.5): worst margin 1.268e+01 -> PASS
[PASS] theorem
    eps=0.1: sup phi 8.680833e-02 <= bound 2.672869e+01 (margin 2.664e+01) -> PASS
    eps=0.05: sup phi 1.829807e-02 <= bound 1.670543e+00 (margin 1.652e+00) -> PASS
    eps=0.025: sup phi 3.189947e-03 <= bound 1.044090e-01 (margin 1.012e-01) -> PASS
[PASS] entropy-ineq
    max positive production slack: dx -> 3.206924e+00, dx/2 -> 1.583140e+00
    refinement shrink factor <= 0.75: PASS
"""


def test_verify_check_passes_on_good_output():
    assert checks.check_verify(0, GOOD_VERIFY) == {}


@pytest.mark.parametrize(
    "old, new, op",
    [
        ("defect 1.458e-14 (tol", "defect 2.000e-10 (tol", "identity"),
        ("rel defect 6.958e-15", "rel defect 6.958e-11", "residuals"),
        ("worst running value -8.864e-02", "worst running value 8.864e-02", "residuals"),
        ("sup phi 1.829807e-02 <= bound 1.670543e+00", "sup phi 2.829807e+00 <= bound 1.670543e+00", "theorem"),
        ("dx/2 -> 1.583140e+00", "dx/2 -> 3.000000e+00", "entropy-ineq"),
        ("[PASS] theorem", "[THEOREM]", "theorem"),
    ],
)
def test_verify_check_catches_a_bad_defect(old, new, op):
    assert old in GOOD_VERIFY
    assert set(checks.check_verify(0, GOOD_VERIFY.replace(old, new))) == {op}


def test_verify_reported_fail_counts_as_failed():
    problems = checks.check_verify(1, GOOD_VERIFY.replace("[PASS] identity", "[FAIL] identity"))
    assert set(problems) == {"identity"} and problems["identity"].failed


SMALL_RUN = checks.RunCase(n_cells=60, record_every=40)


@pytest.fixture()
def small_run(tmp_path):
    """A real small profile run: (exit status, stdout, output directory)."""
    code, text = workloads.call_cli(jinxin.cli, SMALL_RUN.argv(str(tmp_path / "out")))[1]
    return code, text, tmp_path / "out"


def test_profile_check_passes_on_real_run(small_run):
    code, text, out = small_run
    assert len(SMALL_RUN.recorded_steps()) > 3
    assert checks.check_profile_run(SMALL_RUN, code, text, out) == {}


def test_profile_check_catches_perturbed_vbar(small_run):
    code, text, out = small_run
    path = out / SMALL_RUN.profile_name(SMALL_RUN.recorded_steps()[1])
    lines = path.read_text().splitlines()
    cells = lines[20].split(",")
    cells[4] = repr(float(cells[4]) * (1 + 1e-9))
    lines[20] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    problems = checks.check_profile_run(SMALL_RUN, code, text, out)
    assert "closure" in problems["run"].reason


def test_profile_check_catches_missing_profile(small_run):
    code, text, out = small_run
    (out / SMALL_RUN.profile_name(SMALL_RUN.recorded_steps()[2])).unlink()
    assert "missing" in checks.check_profile_run(SMALL_RUN, code, text, out)["run"].reason


def test_profile_check_catches_mass_defect(small_run):
    code, text, out = small_run
    path = out / "profile_final.csv"
    lines = path.read_text().splitlines()
    cells = lines[30].split(",")
    cells[1] = repr(float(cells[1]) + 1e-9)
    lines[30] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    assert "mass" in checks.check_profile_run(SMALL_RUN, code, text, out)["run"].reason


def test_profile_check_catches_other_inputs(small_run):
    code, text, out = small_run
    other = replace(SMALL_RUN, record_every=30)
    assert set(checks.check_profile_run(other, code, text, out)) == {"run"}


def test_tracer_counts_repeat_and_wrappers_come_off(tmp_path):
    model = jinxin.model
    original = model.pad_edges
    config = jinxin.harness.RunConfig(n_cells=40, t_final=0.01, record_every=50, out_dir=str(tmp_path))
    counts = []
    for _ in range(2):
        with Tracer(jinxin) as tracer:
            assert jinxin.schemes.pad_edges is not original  # wrapped where it is looked up
            jinxin.harness.run_pair(config)
        counts.append({name: tracer.metric(name) for name in (
            "model.pad_edges.calls", "harness.run_pair.steps", "harness.write_profile.bytes",
            "schemes.jpt_step.calls",
        )})
    assert counts[0] == counts[1]
    assert counts[0]["model.pad_edges.calls"] == 7 * counts[0]["harness.run_pair.steps"] + 1
    assert counts[0]["harness.write_profile.bytes"] > 0
    assert model.pad_edges is original and jinxin.schemes.pad_edges is original
