"""Output checks, run after the timed span of each round.

Each check takes what one round produced and returns ``{operation: Problem}``
for the operations that went wrong; an empty dict means the round is
correct.  A problem is ``failed`` when the program itself reported the
failure (an exit status, a FAIL line, a failed sweep point); otherwise the
program claimed success and its output disagrees with the check.

The checks recompute what they can from the formulas (fitted slope, grid
rule, closure, mass balance, stated tolerances) instead of comparing with a
stored copy of today's output.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SLOPE_RANGE = (3.5, 4.5)  # the paper's eps^4 rate
REFERENCE_RTOL = 1e-12  # study point against the NumPy re-implementation
CLOSURE_RTOL = 1e-12  # vbar column against f(ubar) - lam^2 D_x ubar
MASS_ATOL = 1e-12
EQUALITY_RTOL = 1e-12  # the R1/R2 summation-by-parts equalities (README)
PROFILE_HEADER = "x,u,v,ubar,vbar"
SERIES_HEADER = "t,phi,l2err_sq,k_dvbar_sq,k_dxxvbar_sq"


@dataclass(frozen=True)
class Problem:
    reason: str
    failed: bool = False  # reported by the program itself


def eps_label(eps: float) -> str:
    return f"eps={eps:g}"


# ---------------------------------------------------------------------------
# study-linear


def check_study(result, sweep, base_cells: int, reference_error: float) -> dict[str, Problem]:
    """One operation per sweep point.

    ``result`` is a ``StudyResult``; ``reference_error`` is the weighted
    error of the largest eps from ``reference.weighted_error``.
    """
    bad: dict[str, Problem] = {}

    def flag(label: str, reason: str) -> None:
        bad.setdefault(label, Problem(reason))

    sweep = sorted(sweep, reverse=True)
    for eps, message in result.failures:
        bad.setdefault(eps_label(eps), Problem(f"run failed: {message}", failed=True))
    for eps in sweep:
        if eps not in result.epsilons:
            flag(eps_label(eps), "missing from the study result")

    eps_arr = np.asarray(result.epsilons, dtype=float)
    err_arr = np.asarray(result.errors, dtype=float)
    lo, hi = SLOPE_RANGE
    slope_problem = None
    if not lo <= result.slope <= hi:
        slope_problem = f"fitted slope {result.slope:.6g} outside [{lo}, {hi}]"
    elif len(eps_arr) >= 2 and np.all(err_arr > 0):
        refit = float(np.polyfit(np.log(eps_arr), np.log(err_arr), 1)[0])
        if not math.isclose(refit, result.slope, rel_tol=1e-9):
            slope_problem = f"reported slope {result.slope:.12g} but the points fit {refit:.12g}"
    if slope_problem is not None:
        for eps in sweep:
            flag(eps_label(eps), slope_problem)

    previous = math.inf
    for eps, n, err in zip(result.epsilons, result.n_cells_used, result.errors):
        label = eps_label(eps)
        expected = max(base_cells, math.ceil(1.0 / eps))
        if n != expected or 1.0 / n > eps:
            flag(label, f"n_cells {n}, expected {expected} with dx <= eps")
        if not (math.isfinite(err) and err > 0):
            flag(label, f"error {err!r} is not finite and positive")
        elif not err < previous:
            flag(label, f"error {err:.6e} does not decrease with eps")
        previous = err

    top = sweep[0]
    if top in result.epsilons:
        err = result.errors[result.epsilons.index(top)]
        rel = abs(err - reference_error) / abs(reference_error)
        if not rel <= REFERENCE_RTOL:
            flag(eps_label(top), f"error {err:.17g} vs NumPy reference {reference_error:.17g} (rel {rel:.2e})")
    return bad


# ---------------------------------------------------------------------------
# verify-entropy

VERIFY_CHECKS = ("identity", "residuals", "theorem", "entropy-ineq")
_NUM = r"([-+0-9.eE]+|nan|inf)"


def _blocks(text: str) -> dict[str, tuple[str, list[str]]]:
    """`[STATUS] name` headers with their indented detail lines."""
    blocks: dict[str, tuple[str, list[str]]] = {}
    current = None
    for line in text.splitlines():
        head = re.fullmatch(r"\[(PASS|FAIL)\] (\S+)", line.strip())
        if head and not line.startswith(" "):
            current = head.group(2)
            blocks[current] = (head.group(1), [])
        elif current is not None and line.startswith(" "):
            blocks[current][1].append(line.strip())
    return blocks


def _numbers(pattern: str, lines: list[str]) -> list[tuple[float, ...]]:
    found = []
    for line in lines:
        m = re.search(pattern, line)
        if m:
            found.append(tuple(float(g) for g in m.groups()))
    return found


def _recheck(name: str, lines: list[str]) -> str | None:
    """Re-check the printed defects of one verify check; None when they hold."""
    if any(line.endswith("-> FAIL") or line.endswith(": FAIL") for line in lines):
        return "a detail line reports FAIL"
    if name == "identity":
        found = _numbers(rf"max relative defect {_NUM} \(tol {_NUM}\)", lines)
        if len(found) != 1:
            return "no identity defect line"
        defect, tol = found[0]
        return None if defect <= tol else f"defect {defect:g} above tol {tol:g}"
    if name == "residuals":
        equalities = _numbers(rf"summation-by-parts equality: rel defect {_NUM}", lines)
        sign = _numbers(rf"int\(R1\+R2\+R4\) <= 0: worst running value {_NUM}", lines)
        young = _numbers(rf"R3 Young bound .*worst margin {_NUM}", lines)
        if len(equalities) != 2 or len(sign) != 1 or len(young) != 1:
            return "residual lines missing"
        if not all(d <= EQUALITY_RTOL for (d,) in equalities):
            return f"equality defects {equalities} above {EQUALITY_RTOL:g}"
        if not sign[0][0] <= 0:
            return f"int(R1+R2+R4) = {sign[0][0]:g} > 0"
        if not young[0][0] >= 0:
            return f"R3 margin {young[0][0]:g} < 0"
        return None
    if name == "theorem":
        found = _numbers(rf"eps={_NUM}: sup phi {_NUM} <= bound {_NUM} \(margin {_NUM}\)", lines)
        if len(found) != 3:
            return f"{len(found)} theorem lines, expected 3"
        for eps, sup_phi, bound, margin in found:
            if not (sup_phi <= bound and margin >= 0):
                return f"eps={eps:g}: sup phi {sup_phi:g} above bound {bound:g}"
        return None
    if name == "entropy-ineq":
        slack = _numbers(rf"dx -> {_NUM}, dx/2 -> {_NUM}", lines)
        factor = _numbers(rf"shrink factor <= {_NUM}", lines)
        if len(slack) != 1 or len(factor) != 1:
            return "entropy-inequality lines missing"
        (coarse, fine), (shrink,) = slack[0], factor[0]
        if not (fine <= shrink * coarse or fine <= 1e-14):
            return f"slack {fine:g} did not shrink below {shrink:g} x {coarse:g}"
        return None
    return f"unexpected check {name!r}"


def check_verify(exit_code: int, text: str) -> dict[str, Problem]:
    """One operation per check of ``jinxin verify --check all``."""
    bad: dict[str, Problem] = {}
    blocks = _blocks(text)
    for name in VERIFY_CHECKS:
        if name not in blocks:
            bad[name] = Problem("no [PASS]/[FAIL] line")
            continue
        status, lines = blocks[name]
        if status != "PASS":
            bad[name] = Problem("reported FAIL", failed=True)
            continue
        problem = _recheck(name, lines)
        if problem is not None:
            bad[name] = Problem(problem)
    if exit_code != 0 and not any(p.failed for p in bad.values()):
        for name in VERIFY_CHECKS:
            bad[name] = Problem(f"exit status {exit_code}", failed=True)
    return bad


# ---------------------------------------------------------------------------
# profile-dump


@dataclass(frozen=True)
class RunCase:
    """A `jinxin run` of the linear-flux Riemann problem, every input explicit."""

    eps: float = 1.0
    lam: float = 0.72
    a: float = 0.5
    n_cells: int = 667
    cfl: float = 0.95
    t_final: float = 0.1
    u_left: float = 2.0
    u_right: float = 1.0
    record_every: int = 100

    def argv(self, out_dir: str) -> list[str]:
        return [
            "run", "--flux", "linear", "--scheme", "jpt", "--well-prepared", "false",
            "--eps", repr(self.eps), "--lambda", repr(self.lam), "--a", repr(self.a),
            "--n-cells", str(self.n_cells), "--x-min", "0", "--x-max", "1",
            "--cfl", repr(self.cfl), "--t-final", repr(self.t_final),
            "--u-left", repr(self.u_left), "--u-right", repr(self.u_right),
            "--record-every", str(self.record_every), "--out-dir", out_dir,
        ]

    @property
    def dx(self) -> float:
        return 1.0 / self.n_cells

    def step_count(self) -> int:
        dt_raw = self.cfl * min(self.dx / (2.0 * self.lam), self.dx**2 / self.lam**2)
        return math.ceil(self.t_final / dt_raw)

    def recorded_steps(self) -> list[int]:
        """Steps with a profile dump: 0, every record_every-th, and the last."""
        n = self.step_count()
        return [0, *range(self.record_every, n, self.record_every), n]

    def profile_name(self, step: int) -> str:
        if step == 0:
            return "profile_initial.csv"
        if step == self.step_count():
            return "profile_final.csv"
        return f"profile_{step:08d}.csv"


def _read_table(path: Path, header: str, rows: int) -> tuple[np.ndarray | None, str | None]:
    try:
        first, _, body = path.read_text().partition("\n")
        if first != header:
            return None, f"{path.name}: header {first!r}"
        table = np.loadtxt(body.splitlines(), delimiter=",", ndmin=2)
    except (OSError, ValueError) as exc:
        return None, f"{path.name}: {exc}"
    if table.shape[0] != rows:
        return None, f"{path.name}: {table.shape[0]} rows, expected {rows}"
    if not np.isfinite(table).all():
        return None, f"{path.name}: non-finite values"
    return table, None


def _check_profiles(case: RunCase, out_dir: Path) -> str | None:
    steps = case.recorded_steps()
    expected = {case.profile_name(k) for k in steps} | {"series.csv"}
    if not out_dir.is_dir():
        return f"no output directory {out_dir.name}"
    present = {p.name for p in out_dir.iterdir()}
    if present != expected:
        missing = sorted(expected - present)[:3]
        extra = sorted(present - expected)[:3]
        return f"file set differs: missing {missing}, unexpected {extra}"

    dx = case.dx
    centers = (np.arange(case.n_cells) + 0.5) * dx
    mass = {}
    for k in steps:
        name = case.profile_name(k)
        table, problem = _read_table(out_dir / name, PROFILE_HEADER, case.n_cells)
        if problem:
            return problem
        x, u, _, ubar, vbar = table.T
        if not np.allclose(x, centers, rtol=0.0, atol=1e-12):
            return f"{name}: x column is not the cell centers"
        g = np.concatenate((ubar[:1], ubar, ubar[-1:]))
        closure = case.a * ubar - case.lam**2 * (g[2:] - g[:-2]) / (2.0 * dx)
        gap = float(np.abs(vbar - closure).max()) / max(1.0, float(np.abs(vbar).max()))
        if not gap <= CLOSURE_RTOL:
            return f"{name}: vbar off the closure by {gap:.2e} (relative)"
        if k in (0, steps[-1]):
            mass[k] = dx * float(u.sum())

    # u moves at finite speeds +-lam, so the far fields feed exactly f(u_L) - f(u_R)
    expected_flow = case.t_final * case.a * (case.u_left - case.u_right)
    defect = mass[steps[-1]] - mass[0] - expected_flow
    if not abs(defect) <= MASS_ATOL:
        return f"mass change misses t_final (f(u_L) - f(u_R)) = {expected_flow:g} by {defect:.2e}"

    series, problem = _read_table(out_dir / "series.csv", SERIES_HEADER, len(steps))
    if problem:
        return problem
    dt = case.t_final / case.step_count()
    times = np.array([k * dt for k in steps[:-1]] + [case.t_final])
    if not np.allclose(series[:, 0], times, rtol=1e-12, atol=0.0):
        return "series.csv: t column does not match the profile steps"
    if (series[:, 1] < 0).any():
        return "series.csv: negative phi"
    if (np.diff(series[:, 2:], axis=0) < 0).any():
        return "series.csv: a running integral decreases"
    return None


def check_profile_run(case: RunCase, exit_code: int, text: str, out_dir: Path) -> dict[str, Problem]:
    """One operation: the whole run with its profile files and series."""
    if exit_code != 0:
        return {"run": Problem(f"exit status {exit_code}", failed=True)}
    m = re.search(r"in (\d+) steps", text)
    if not m or int(m.group(1)) != case.step_count():
        found = m.group(0) if m else None
        return {"run": Problem(f"step count line {found!r}, expected {case.step_count()} steps")}
    problem = _check_profiles(case, out_dir)
    return {"run": Problem(problem)} if problem else {}
