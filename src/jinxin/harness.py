"""Experiment orchestration: paired runs, eps sweeps, rate fits, file output.

A run always advances the relaxed and the limiting solution side by side on
the same grid and step ladder, accumulating the space-time error norms and
(for the semi-discrete scheme with the linear flux) the entropy budgets.
``run_group`` is the one march loop: it advances one relaxed pair per eps
beside a single limit pair, for eps that share the grid and the step,
copies the block once per step, and forms every diagnostic (error sums,
phi, K norms, residual integrals) from the copies once per chunk of steps.
``run_pair`` is its one-eps case.  The convergence study runs an eps sweep
with a grid refined so that dx <= eps, one group per grid and step, then
fits the log-log rate of the relaxation-scaled squared error.  The groups
of a sweep, like the checks of ``verify``, share no state: ``in_parallel``
runs them on two processes when two CPUs are free.  By the same rule
(``_can_fork``), a run that writes profiles at its record points hands
their formatting to a forked writer.  The ``verify`` checks run fixed
constants; only the residual and theorem runs read the config, and the
theorem check marches its own eps, ``THEOREM_EPS``.
"""

from __future__ import annotations

import functools
import math
import os
import pickle
import random
import threading
import warnings
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import diagnostics, model, schemes
from .diagnostics import ErrorSeries, ResidualIntegrals
from .model import Grid, ModelParams
from .schemes import HyperbolicState, LimitState, StepSize

JPT = "jpt"
SEMI_DISCRETE = "semi-discrete"
SCHEMES = (JPT, SEMI_DISCRETE)

# Default experiment: Riemann 2 -> 1 on [0, 1], T = 0.1.
DEFAULT_EPS_SWEEP = (1e-1, 5e-2, 2.5e-2, 1.25e-2, 6.25e-3, 3.125e-3, 1.5e-3)

# The largest march of the lab, the 667-cell Burgers point of a default
# study (either scheme), takes 667 cells x 421,474 steps = 2.81e8
# cell-steps.  A config above this cap, such as a sweep point at eps 1e-10
# (1e10 cells, 5.5e18 steps), is refused before its block is allocated.
MAX_CELL_STEPS = 10**9


class ConfigError(ValueError):
    """Invalid run configuration (bad key, bad value, or model violation)."""


class BoundaryReachWarning(UserWarning):
    """A wave at speed lam could reach the domain boundary before t_final."""


@dataclass(frozen=True)
class RunConfig:
    """Flat run description; field names mirror the config-file keys."""

    eps: float = 1.0
    lam: float = 0.72  # config key "lambda"
    a: float = 0.5
    flux: str = model.LINEAR
    n_cells: int = 200
    x_min: float = 0.0
    x_max: float = 1.0
    cfl: float = 0.95
    t_final: float = 0.1
    u_left: float = 2.0
    u_right: float = 1.0
    well_prepared: bool = False
    scheme: str = JPT
    record_every: int = 0  # 0: keep only the initial and final snapshots
    out_dir: str | None = None

    def params(self) -> ModelParams:
        return ModelParams(
            eps=self.eps, lam=self.lam, a=self.a, flux=self.flux,
            cfl=self.cfl, t_final=self.t_final,
        )

    def grid(self) -> Grid:
        return Grid(n_cells=self.n_cells, x_min=self.x_min, x_max=self.x_max)

    def validate(self) -> None:
        if self.scheme not in SCHEMES:
            raise ConfigError(f"unknown scheme {self.scheme!r}, expected one of {SCHEMES}")
        if self.record_every < 0:
            raise ConfigError("record_every must be >= 0")
        # the step rule builds the grid, and refuses a semi-discrete eps <= 0
        # and a step that yields no finite step count; a square in it that
        # overflows, or a lam^2 that underflows to a zero divisor, raises
        try:
            p = self.params()
            n_steps = _step_size(self).n_steps
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        except ArithmeticError as exc:
            raise ConfigError(
                f"the step rule leaves the float range at dx = {self.grid().dx:g}, "
                f"lambda = {self.lam:g}, eps = {self.eps:g}"
            ) from exc
        if self.n_cells * n_steps > MAX_CELL_STEPS:
            raise ConfigError(
                f"{self.n_cells} cells x {n_steps} steps exceed the cap of {MAX_CELL_STEPS:.0e} cell-steps per march"
            )
        for name in ("u_left", "u_right"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if not model.check_subcharacteristic(p, (self.u_left, self.u_right)):
            raise ConfigError(
                "subcharacteristic condition violated: "
                f"lam={self.lam} is not above eps*|wave speed| for eps={self.eps}"
            )


# config-file key -> dataclass field (only "lambda" differs: keyword clash)
CONFIG_KEYS: dict[str, str] = {
    "lambda" if f.name == "lam" else f.name: f.name for f in fields(RunConfig) if f.name != "out_dir"
}

_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


def parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {text!r}")


def parse_config_value(key: str, text: str):
    """Convert one config-file value to the type of its RunConfig field."""
    if key not in CONFIG_KEYS:
        raise ConfigError(f"unknown config key {key!r}")
    name = CONFIG_KEYS[key]
    kind = _FIELD_TYPES[name]
    text = text.strip()
    try:
        if kind == "float":
            return name, float(text)
        if kind == "int":
            return name, int(text)
        if kind == "bool":
            return name, parse_bool(text)
        return name, text
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {text!r}") from exc


def load_config_file(path: str | Path) -> dict[str, object]:
    """Read a flat ``key = value`` UTF-8 file into RunConfig field overrides."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not a UTF-8 text file ({exc.reason} at byte {exc.start})") from exc
    overrides: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, text = (part.strip() for part in line.split("=", 1))
        name, value = parse_config_value(key, text)
        overrides[name] = value
    return overrides


def make_config(**overrides) -> RunConfig:
    """Defaults <- keyword overrides (None keeps the default), then validate."""
    config = RunConfig(**{k: v for k, v in overrides.items() if v is not None})
    config.validate()
    return config


@dataclass(frozen=True)
class MassAudit:
    """Discrete mass balance of u: change minus integrated boundary fluxes."""

    mass_initial: float
    mass_final: float
    boundary_inflow: float  # time-integrated (flux in at left - flux out at right)

    @property
    def defect(self) -> float:
        return self.mass_final - self.mass_initial - self.boundary_inflow


@dataclass
class RunResult:
    """Everything a paired run produces."""

    config: RunConfig
    grid: Grid
    step: StepSize
    hyp: HyperbolicState
    lim: LimitState
    series: ErrorSeries
    residual_integrals: ResidualIntegrals | None = None
    identity_rel_max: float | None = None
    mass: MassAudit | None = None

    @property
    def l2err_sq(self) -> float:
        return float(self.series.l2err_sq[-1])

    @property
    def weighted_err_sq(self) -> float:
        return float(self.series.weighted_sq[-1])


def _format(value: float) -> str:
    return f"{value:.17g}"


@functools.lru_cache(maxsize=4)
def _profile_rows(grid: Grid) -> str:
    """The rows of a profile on ``grid``: x formatted, then a ``%.17g`` slot for each of u, v, ubar, vbar."""
    return "".join(f"{x:.17g},%.17g,%.17g,%.17g,%.17g\n" for x in grid.centers.tolist())


def write_profile(path: str | Path, grid: Grid, hyp: HyperbolicState, lim: LimitState) -> None:
    """One row per cell: x, u, v, ubar, vbar (17 significant digits)."""
    values = np.stack((hyp.u, hyp.v, lim.ubar, lim.vbar), axis=1)
    Path(path).write_text("x,u,v,ubar,vbar\n" + _profile_rows(grid) % tuple(values.ravel().tolist()))


def write_series(path: str | Path, series: ErrorSeries) -> None:
    """One row per recorded step: t, phi, cumulative error and K norms (17 significant digits)."""
    values = np.stack((series.t, series.phi, series.l2err_sq, series.k_dvbar_sq, series.k_dxxvbar_sq), axis=1)
    rows = "%.17g,%.17g,%.17g,%.17g,%.17g\n" * len(values)
    Path(path).write_text("t,phi,l2err_sq,k_dvbar_sq,k_dxxvbar_sq\n" + rows % tuple(values.ravel().tolist()))


def _write_profiles(tasks_fd: int, results_fd: int) -> None:
    """The forked profile writer: ``write_profile`` each message of the pipe until it ends.

    A write that raises is reported at once, through the results pipe, and
    no later message is written; the pipe is still read to its end, so the
    march never waits on a full pipe.  Leaves by ``os._exit``.
    """
    code = 1
    try:
        failed = False
        with open(tasks_fd, "rb") as tasks, open(results_fd, "wb") as results:
            while True:
                try:
                    message = pickle.load(tasks)
                except EOFError:
                    break
                if failed:
                    continue
                try:
                    write_profile(*message)
                except Exception as exc:  # raised again in the marching process
                    # read there at its next write or at its end: an error
                    # naming one path is far below the 64 KiB a pipe holds
                    results.write(pickle.dumps(exc))
                    results.flush()
                    failed = True
        code = 0
    finally:
        os._exit(code)


class _ProfileWriter:
    """Where ``run_group`` sends its profiles: a forked process that writes them, or this one.

    With ``fork`` true, entering the ``with`` block forks one writer,
    ``write()`` pickles its arguments into a pipe, and the march goes on
    while the writer formats; otherwise ``write()`` is ``write_profile``.
    Leaving the block drains the writer and reaps it, then raises what one
    of its writes raised, or ``ChildProcessError`` if it died.  A write
    that raised shows at the next ``write()`` already.  Leaving by an
    exception kills the writer before it is reaped.
    """

    def __init__(self, fork: bool) -> None:
        self.fork, self.pid = fork, None

    def __enter__(self) -> _ProfileWriter:
        if not self.fork:
            return self
        tasks_fd, self.tasks = os.pipe()
        self.results, results_in = os.pipe()
        try:
            self.pid = os.fork()
        except BaseException:
            for fd in (tasks_fd, self.tasks, self.results, results_in):
                os.close(fd)
            raise
        if self.pid == 0:
            os.close(self.tasks)
            os.close(self.results)
            _write_profiles(tasks_fd, results_in)
        # only the writer holds the read end of the tasks and the write end of the results
        os.close(tasks_fd)
        os.close(results_in)
        import select  # loaded by a run that forks a writer, not at import

        self.reports = select.poll()
        self.reports.register(self.results, select.POLLIN)
        return self

    def write(self, path: Path, grid: Grid, hyp: HyperbolicState, lim: LimitState) -> None:
        if self.pid is not None and self.reports.poll(0):
            self.close()  # a write failed or the writer died: this raises why
        if self.pid is None:
            write_profile(path, grid, hyp, lim)
            return
        message = memoryview(pickle.dumps((path, grid, hyp, lim), pickle.HIGHEST_PROTOCOL))
        try:
            while message:
                message = message[os.write(self.tasks, message) :]
        except BrokenPipeError:
            self.close()  # the writer died: this raises how

    def close(self, kill: bool = False) -> None:
        """Drain and reap the writer, killed first if ``kill``; unless killed, raise what it reported."""
        if self.pid is None:
            return
        pid, self.pid = self.pid, None
        os.close(self.tasks)
        payload = None
        try:
            with open(self.results, "rb") as results:
                if not kill:
                    payload = results.read()
        finally:
            status = _reap(pid, kill=payload is None)
        if payload is None:
            return
        if status != 0:
            raise _child_failed("profile writer", status)
        if payload:
            raise pickle.loads(payload)

    def __exit__(self, kind, value, traceback) -> None:
        self.close(kill=kind is not None)


ACCUMULATORS = ("k-norms", "residuals")


class _RunningSums:
    """Every diagnostic of a group's march, formed once per chunk of steps.

    The chunk is stored pair-major, shaped (k+1, 2, chunk, n+2): a step
    copies the march's pairs into slot ``j`` of ``store``, so each field of
    each pair lies over the chunk's steps as one contiguous span.
    ``flush()`` forms everything else from those copies, for the whole chunk
    at once: the boundary jump v_1 - v_n of every relaxed row, D_xx of vbar
    (four prebuilt ops in ``diagnostics._dxx``'s order on the flat span of
    the stored vbar), with ``k_norms`` dvbar/dt, and the padded differences
    of every relaxed pair from the limit pair, which overwrite the relaxed
    pairs.  dvbar/dt replays the ops of ``schemes._pair_rate_ops`` and
    ``schemes._closure_rate_ops``, built once here on the stored limit pair,
    a contiguous (2, chunk, n+2) block of its own.  Each field is reduced
    along its contiguous cells, row by row, to left-endpoint increments,
    which it adds with ``np.add.accumulate``: the same float sequence as one
    step at a time.  The cell sums of du^2, dv^2 and du dv of every slot,
    whose products go to ``cross`` and into the differences in place, pass
    through the quadratic form ``diagnostics._weighted_form`` once per
    chunk: its phi is what the records read, ``sup_phi`` keeps each row's
    max of it over every slot, and dt phi is what the weighted error gains
    per step.  ``totals`` holds the sums so far: the squared L2 error and
    the weighted error of each row, the boundary inflow of each row, the two
    K norms, then the eight residual integrals of each row; a column not
    asked for stays 0.  A record point's totals and phi are copied out when
    its chunk is flushed.
    """

    FIELD_BYTES = 1 << 19  # the stored pairs and the flush's fields of one chunk, at most 256 steps

    def __init__(
        self, params: list[ModelParams], grid: Grid, dt: float, k_norms: bool, residuals: bool
    ) -> None:
        k, n, dx, p = len(params), grid.n_cells, grid.dx, params[0]
        self.params, self.grid, self.k_norms, self.residuals = params, grid, k_norms, residuals
        self.k, self.dt, self.dtdx = k, dt, dt * dx
        self.eps = np.array([q.eps for q in params])
        # cell rows per step: the stored pairs and the cross products, the
        # two K fields, and the residual integrands
        rows = 3 * k + 2 + 2 * k_norms + 11 * residuals
        self.chunk = c = max(1, min(256, self.FIELD_BYTES // (8 * (n + 2) * rows)))
        # zeros, not garbage, in the slots that no step writes
        self.store = schemes._zeros((k + 1, 2, c, n + 2))
        self.slots = [self.store[:, :, j] for j in range(c)]
        self.cross = schemes._zeros((k, c, n + 2)) if p.flux == model.LINEAR else None  # du dv
        limit = self.store[k]
        if k_norms or residuals:
            self.dxx_vbar = schemes._zeros((c, n + 2))
            span = self.dxx_vbar.reshape(-1)[1:-1]
            self.dxx_ops = (
                *schemes._second_difference_ops(limit[1].reshape(-1), span),
                (np.divide, (span, dx**2, span)),
            )
        if k_norms:
            rates, self.dvbar_dt = schemes._zeros((2, c, n + 2))
            self.rate_ops = (
                *schemes._pair_rate_ops(p, dx, limit, (), rates),
                *schemes._closure_rate_ops(
                    p, dx, limit[0].reshape(-1)[1:-1], rates, self.dvbar_dt.reshape(-1)[1:-1]
                ),
            )
        self.res0 = 3 * k + 2  # the first residual column
        self.acc = np.zeros((c + 1, self.res0 + 8 * k * residuals))
        self.start = 0  # the step of slot 0
        self.pending: list[int] = []  # recorded steps not yet copied out
        self.recorded: list[np.ndarray] = []
        self.phi: list[np.ndarray] = []  # per recorded step, phi of each row
        self.sup_phi = np.full(k, -np.inf)  # per row, over the steps flushed
        self.steps: list[np.ndarray] = []  # per step, the running residual integrals

    @property
    def totals(self) -> np.ndarray:
        return self.acc[0]

    def flush(self, j: int) -> None:
        """Add the first ``j`` slots to the totals and copy out the records they reach.

        A record reaches at most slot ``j``, which it reads but does not add.
        """
        k, acc, dx = self.k, self.acc, self.grid.dx
        reached = [step - self.start for step in self.pending if step <= self.start + j]
        inc = acc[1 : j + 1]
        # every slot that holds a state: the j steps, and slot j when a record reaches it
        m = j + (j in reached)
        relaxed, limit = self.store[:k, :, :m], self.store[k:, :, :m]
        # boundary HLL fluxes collapse to the edge v under copy ghosts
        inc[:, 2 * k : 3 * k] = self.dt * (relaxed[:, 1, :j, 1] - relaxed[:, 1, :j, -2]).T
        if self.k_norms or self.residuals:
            schemes._run(self.dxx_ops)
        diffs = np.subtract(relaxed, limit, out=relaxed)
        if self.residuals:
            for i, q in enumerate(self.params):
                integrands = diagnostics._residual_integrands(
                    q, dx, diffs[i, 0, :j], diffs[i, 1, :j], self.dxx_vbar[:j, 1:-1]
                )
                for col, cells in enumerate(integrands, start=self.res0 + 8 * i):
                    inc[:, col] = self.dtdx * np.add.reduce(cells, axis=-1)
        if self.k_norms:
            schemes._run(self.rate_ops)
            # squared in place over the whole chunk, once the residuals have read D_xx vbar
            for col, cells in enumerate((self.dvbar_dt, self.dxx_vbar), start=3 * k):
                np.multiply(cells, cells, out=cells)
                inc[:, col] = self.dtdx * np.add.reduce(cells[:j, 1:-1], axis=-1)
        # the cross sums (none for Burgers), then the squares in place, on
        # whole padded rows; each row (k, slot) reduces over its cells
        cross = 0.0
        if self.cross is not None:
            products = np.multiply(diffs[:, 0], diffs[:, 1], out=self.cross[:, :m])
            cross = np.add.reduce(products[..., 1:-1], axis=-1).T
        squares = np.multiply(diffs, diffs, out=diffs)
        du2, dv2 = np.add.reduce(squares[..., 1:-1], axis=-1).transpose(1, 2, 0)
        phi = diagnostics._weighted_form(self.params[0], self.eps, dx, du2, dv2, cross)
        np.maximum(self.sup_phi, phi.max(axis=0, initial=-np.inf), out=self.sup_phi)
        if reached:
            self.phi.append(phi[reached])
        inc[:, :k] = self.dtdx * (du2 + dv2)[:j]
        # left-endpoint rule: the weighted error gains dt phi per step
        inc[:, k : 2 * k] = self.dt * phi[:j]
        np.add.accumulate(acc[: j + 1], axis=0, out=acc[: j + 1])
        if self.residuals:
            self.steps.append(acc[1 : j + 1, self.res0 :].copy())
        if reached:
            self.recorded.append(acc[reached])
            del self.pending[: len(reached)]
        acc[0] = acc[j]
        self.start += j

    def residual_integrals(self, row: int) -> ResidualIntegrals:
        """The running residual integrals of ``row``, one entry per step."""
        steps = np.concatenate(self.steps).reshape(-1, self.k, 8)
        return ResidualIntegrals(self.grid.dx, *steps[:, row].T.copy())


def run_group(
    config: RunConfig, epsilons, accumulate=ACCUMULATORS
) -> list[RunResult | schemes.InstabilityError]:
    """Advance ``config`` at every eps in ``epsilons`` to t_final, as one march.

    The grid, the step, the Riemann data and the limit pair do not depend on
    eps, so one ``schemes.PairMarch`` block holds a relaxed pair per eps
    beside a single limit pair, and each row comes out bit for bit as if
    marched alone.  The step comes from the scheme's stability rule, lands
    exactly on t_final, and must be the same for every eps.  All space-time
    integrals use left-endpoint quadrature, the same rule that defines the
    discrete L2(Q_t) norm.

    Every run accumulates the error sums, phi at the record points and its
    max over every step, the splitting scheme the mass audit, and the
    semi-discrete scheme with the linear flux the entropy budgets at the
    record points behind ``identity_rel_max``.  ``accumulate`` names the
    costly extras, both by default: the K norms ("k-norms", NaN when not
    asked for) and, for the linear semi-discrete runs, the residual integrals
    ("residuals", None when not asked for).  Profiles and the series file are
    written for a single eps only.  A step only copies the march's pairs into
    the chunk of ``_RunningSums``, whose flush forms every diagnostic from the
    copies; the entropy budgets alone, which need the states, are evaluated
    at the record points.  When profiles are written at record points
    (``record_every`` > 0) and ``_can_fork()``, a forked ``_ProfileWriter``
    formats them while the march goes on, into the same bytes.  It is
    drained and reaped before this returns or raises; what one of its writes
    raised is raised here, and a writer that died raises
    ``ChildProcessError``.

    Returns, per eps, its ``RunResult`` or the ``InstabilityError`` that
    ended its row when its cells or its sums stopped being finite; the other
    rows march on.  No step checks the cells: ``march.finite_pairs()`` runs
    at the record points and at the end, and the sums are checked at the
    end, the error sums before the residual integrals.  Raises
    ``ConfigError`` before marching when any eps makes an invalid config.
    """
    if not set(accumulate) <= set(ACCUMULATORS):
        raise ValueError(f"unknown accumulators in {accumulate!r}, expected some of {ACCUMULATORS}")
    configs = [replace(config, eps=eps) for eps in epsilons]
    if not configs:
        raise ValueError("a march needs at least one eps")
    for run_cfg in configs:
        run_cfg.validate()
    out_dir = Path(config.out_dir) if config.out_dir is not None else None
    if out_dir is not None and len(configs) != 1:
        raise ValueError("profiles and series are written for one eps at a time")
    params = [run_cfg.params() for run_cfg in configs]
    p = params[0]
    grid = config.grid()

    half_width = 0.5 * (grid.x_max - grid.x_min)
    if p.lam * p.t_final >= half_width:
        warnings.warn(
            f"lam*t_final = {p.lam * p.t_final:.3g} reaches the boundary "
            f"(jump-to-boundary distance {half_width:.3g}); far fields are no longer exact",
            BoundaryReachWarning,
            stacklevel=2,
        )

    u0, v0, ub0, vb0 = model.riemann_initial(
        p, grid, config.u_left, config.u_right, config.well_prepared
    )

    semi = config.scheme == SEMI_DISCRETE
    linear_semi = semi and p.flux == model.LINEAR
    k_norms = "k-norms" in accumulate
    residuals = "residuals" in accumulate and linear_semi
    steps = {_step_size(run_cfg) for run_cfg in configs}
    if len(steps) != 1:
        raise ValueError("the eps of one march must share one step size")
    (step,) = steps
    dt, n_steps = step.dt, step.n_steps
    march = schemes.PairMarch(p, grid, dt, u0, v0, ub0, vb0, epsilons=[q.eps for q in params])
    n_rows = len(configs)
    rows = range(n_rows)
    identity_rel_max = [0.0 if linear_semi else None for _ in rows]
    failed: list[schemes.InstabilityError | None] = [None for _ in rows]

    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
    record_every = config.record_every
    writer = _ProfileWriter(fork=out_dir is not None and record_every > 0 and _can_fork())

    sums = _RunningSums(params, grid, dt, k_norms, residuals)
    slots = sums.slots
    t_rec: list[float] = []
    mass0 = grid.dx * float(u0.sum())
    dx = grid.dx

    def check_cells() -> bool:
        """Fail the rows whose cells stopped being finite; whether any row is left."""
        for i, finite in enumerate(march.finite_pairs()):
            if not finite and failed[i] is None:
                failed[i] = schemes.InstabilityError(
                    "non-finite cell values: unstable step size or blow-up"
                )
        return not all(failed)

    def record(k: int, t_k: float, dump_tag: str) -> None:
        t_rec.append(t_k)
        sums.pending.append(k)
        for i in rows:
            if failed[i] is not None:
                continue
            states = march.states(t_k, i) if out_dir is not None or linear_semi else None
            if out_dir is not None:
                writer.write(out_dir / f"profile_{dump_tag}.csv", grid, *states)
            if linear_semi:
                rel = diagnostics.entropy_budget(params[i], grid, *states).rel_mismatch_max
                identity_rel_max[i] = max(identity_rel_max[i], rel)

    chunk = sums.chunk
    # a forked writer formats the profiles while the march goes on
    with writer:
        j = 0  # the slot of step k in the chunk
        for k in range(n_steps):
            np.copyto(slots[j], march.pairs)
            if k == 0 or (record_every > 0 and k % record_every == 0):
                if not check_cells():
                    return failed
                record(k, k * dt, "initial" if k == 0 else f"{k:08d}")

            if semi:
                march.rk4_step()
            else:
                march.convect()
                march.relax()
            j += 1
            if j == chunk:
                sums.flush(j)
                j = 0

        if not check_cells():
            return failed
        sums.flush(j)
        # the cells stay finite while their squares overflow (u ~ 1e200), or
        # while only the residual integrands do (u ~ 1e150); the K norms,
        # shared by every row, read 0 when not asked for
        for i in rows:
            errors, res = sums.totals[[i, n_rows + i, 3 * n_rows, 3 * n_rows + 1]], sums.res0 + 8 * i
            if failed[i] is None and not np.isfinite(errors).all():
                failed[i] = schemes.InstabilityError("non-finite error norms: the squared errors overflow")
            elif failed[i] is None and not np.isfinite(sums.totals[res : res + 8]).all():
                failed[i] = schemes.InstabilityError("non-finite residual integrals: the residual terms overflow")

        # after the flush, the final state takes slot 0
        np.copyto(slots[0], march.pairs)
        record(n_steps, p.t_final, "final")

    sums.flush(0)
    recorded, phi = np.concatenate(sums.recorded), np.concatenate(sums.phi)
    k_series = recorded[:, 3 * n_rows : sums.res0] if k_norms else np.full((len(t_rec), 2), math.nan)

    outcomes: list[RunResult | schemes.InstabilityError] = []
    for i, run_cfg in enumerate(configs):
        if failed[i] is not None:
            outcomes.append(failed[i])
            continue
        hyp, lim = march.states(p.t_final, i)
        series = ErrorSeries(
            dx=dx,
            t=np.asarray(t_rec),
            phi=phi[:, i].copy(),
            sup_phi=float(sums.sup_phi[i]),
            l2err_sq=recorded[:, i].copy(),
            weighted_sq=recorded[:, n_rows + i].copy(),
            k_dvbar_sq=k_series[:, 0].copy(),
            k_dxxvbar_sq=k_series[:, 1].copy(),
        )
        if out_dir is not None:
            write_series(out_dir / "series.csv", series)
        mass = None
        if not semi:
            mass = MassAudit(
                mass_initial=mass0,
                mass_final=dx * float(hyp.u.sum()),
                boundary_inflow=float(sums.totals[2 * n_rows + i]),
            )
        outcomes.append(
            RunResult(
                config=run_cfg,
                grid=grid,
                step=step,
                hyp=hyp,
                lim=lim,
                series=series,
                residual_integrals=sums.residual_integrals(i) if residuals else None,
                identity_rel_max=identity_rel_max[i],
                mass=mass,
            )
        )
    return outcomes


def run_pair(config: RunConfig, accumulate=ACCUMULATORS) -> RunResult:
    """``run_group`` at the one eps of ``config``; raises the ``InstabilityError`` that ended it."""
    (result,) = run_group(config, (config.eps,), accumulate)
    if isinstance(result, schemes.InstabilityError):
        raise result
    return result


def _step_size(config: RunConfig) -> StepSize:
    """The shared step of ``config``'s march, by its scheme's stability rule."""
    p, grid = config.params(), config.grid()
    if config.scheme == SEMI_DISCRETE:
        return schemes.semi_discrete_dt(p, grid)
    return schemes.marching_dt(p, grid)


def study_sweep(epsilons) -> list[float]:
    """The distinct eps of a rate study, in decreasing order; ``ConfigError`` if fewer than two."""
    sweep = sorted(set(float(e) for e in epsilons), reverse=True)
    if len(sweep) < 2:
        raise ConfigError(f"rate fit needs at least two points, got {len(sweep)} distinct eps")
    return sweep


def study_cells(config: RunConfig, eps: float) -> int:
    """Grid rule of the eps sweep: n = max(base, ceil(width / eps)).

    Keeps dx <= eps so the dx-dependent residual terms stay subdominant and
    no resolution floor contaminates the fitted rate.  Raises ``ConfigError``
    for eps <= 0, which no grid resolves, and for an eps so small that
    width / eps overflows.
    """
    if not eps > 0:
        raise ConfigError(f"the grid rule dx <= eps needs eps > 0, got {eps:g}")
    width = config.x_max - config.x_min
    if not math.isfinite(width / eps):
        raise ConfigError(f"the grid rule dx <= eps needs more cells than a float counts at eps={eps:g}")
    n = max(config.n_cells, math.ceil(width / eps))
    if width / n > eps:
        raise ConfigError(f"grid rule failed to reach dx <= eps for eps={eps}")
    return n


def fit_rate(points) -> tuple[float, float]:
    """Ordinary least squares of log(error) against log(eps).

    ``points`` is a sequence of (eps, error) pairs, all strictly positive.
    """
    pts = list(points)
    if len(pts) < 2:
        raise ValueError("rate fit needs at least two points")
    if any(e <= 0 or err <= 0 for e, err in pts):
        raise ValueError("rate fit needs strictly positive eps and error values")
    x = np.log([e for e, _ in pts])
    y = np.log([err for _, err in pts])
    xm = x - x.mean()
    slope = float((xm * (y - y.mean())).sum() / (xm * xm).sum())
    intercept = float(y.mean() - slope * x.mean())
    return slope, intercept


@dataclass
class StudyResult:
    """Per-eps errors of a sweep plus the fitted log-log line.

    ``errors`` holds the relaxation-scaled (entropy-weighted) squared
    space-time errors, the quantity with the eps^4 decay; the plain squared
    L2 errors are kept alongside for reference.
    """

    epsilons: list[float]
    errors: list[float]
    l2_errors: list[float]
    n_cells_used: list[int]
    slope: float
    intercept: float
    failures: list[tuple[float, str]] = field(default_factory=list)


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# True while in_parallel runs calls, in the parent and in its child, so a
# call made from inside one of them runs serially
_parallel_running = False


def _take(calls, tasks) -> list[tuple[int, bool, object]]:
    """Run the calls whose indices this process reads from the pipe ``tasks``, until it is drained.

    Returns (index, raised, result or exception) per call taken.
    """
    taken = []
    while index := tasks.read(4):
        i = int.from_bytes(index, "little")
        try:
            taken.append((i, False, calls[i]()))
        except Exception as exc:  # raised by in_parallel, in call order
            taken.append((i, True, exc))
    return taken


def _serve(calls, tasks, results) -> None:
    """The forked child of ``in_parallel``: take calls, send back what they gave, leave by ``os._exit``."""
    global _parallel_running
    code = 1
    try:
        _parallel_running = True
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            taken = _take(calls, tasks)
        raised = [(w.message, w.category, w.filename, w.lineno) for w in caught]
        results.write(pickle.dumps((taken, raised)))
        results.flush()
        code = 0
    finally:
        os._exit(code)


def _can_fork() -> bool:
    """Whether this process may fork a helper process.

    It needs two usable CPUs, ``os.fork``, no other live thread (a fork with
    live threads can deadlock) and no enclosing ``in_parallel`` at work in
    this process.
    """
    return (
        not _parallel_running and hasattr(os, "fork")
        and _usable_cpus() >= 2 and threading.active_count() == 1
    )


def _reap(pid: int, kill: bool) -> int:
    """Wait for the child ``pid``, sent SIGKILL first if ``kill``; its exit code, or minus its signal."""
    if kill:
        import signal  # loaded on this path only, not at import

        os.kill(pid, signal.SIGKILL)
    return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])


def _child_failed(what: str, status: int) -> ChildProcessError:
    """The error for a forked ``what`` that ended with ``status`` before it sent its results."""
    ended = f"was killed by signal {-status}" if status < 0 else f"exited with status {status}"
    return ChildProcessError(f"the {what} process {ended} before it sent its results")


def in_parallel(calls) -> list:
    """The results of the zero-argument ``calls``, in order, computed by up to two processes.

    With two calls or more and ``_can_fork()``, one child is forked;
    otherwise the calls run here, one after the other.  The child and this
    process take call indices in turn from one pipe, so the load balances
    itself and a list that puts its largest calls first ends soonest.  The
    child never writes to stdout: it pickles its results and the warnings
    its calls raised back through a second pipe and leaves by ``os._exit``.
    Its warnings are issued again here.

    As in a serial run, the first call in call order that raised raises
    here, although later calls may have run.  A child that dies or sends
    nothing raises ``ChildProcessError``.  The child is reaped on every
    exit path.
    """
    global _parallel_running
    calls = list(calls)
    if len(calls) < 2 or not _can_fork():
        return [call() for call in calls]
    # every index is in the pipe before the fork, so a read that finds it
    # empty finds its end; at 4 bytes per index a pipe's 64 KiB hold 16,384
    tasks_fd, tasks_in = os.pipe()
    with open(tasks_in, "wb") as stream:
        stream.write(b"".join(i.to_bytes(4, "little") for i in range(len(calls))))
    results_fd, results_in = os.pipe()
    with open(tasks_fd, "rb", buffering=0) as tasks, open(results_fd, "rb") as results:
        with open(results_in, "wb") as stream:
            pid = os.fork()
            if pid == 0:
                _serve(calls, tasks, stream)
        # only the child holds the write end now: the read ends when the child does
        payload = None
        try:
            _parallel_running = True
            taken = _take(calls, tasks)
            payload = results.read()
        finally:
            _parallel_running = False
            status = _reap(pid, kill=payload is None)
    if status != 0 or not payload:
        raise _child_failed("worker", status)
    child_taken, raised = pickle.loads(payload)
    # the registry that a warning raised here would use, so a warning shown
    # once per location stays shown once
    registry = globals().setdefault("__warningregistry__", {})
    for message, category, filename, lineno in raised:
        warnings.warn_explicit(message, category, filename, lineno, registry=registry)
    outcomes = {i: (failed, value) for i, failed, value in taken + child_taken}
    out = []
    for i in range(len(calls)):
        failed, value = outcomes[i]
        if failed:
            raise value
        out.append(value)
    return out


def _march_sweep(configs: list[RunConfig], accumulate) -> list[RunResult | Exception]:
    """March each config of an eps sweep; the eps sharing a grid and a step march as one group.

    The configs differ only in eps and n_cells.  Every config is validated
    before any marching; the valid ones are grouped by (n_cells, step), and
    each group is one ``run_group``.  The groups share no state, so they go
    to ``in_parallel`` as its calls, the largest in cells x steps x rows
    first (ties in order of first appearance): with two processes the
    sweep ends when its largest group does, or soon after.  Returns, per
    config in order, its ``RunResult``, or the ``ConfigError`` or
    ``InstabilityError`` that stopped it.
    """
    outcomes: list[RunResult | Exception | None] = [None] * len(configs)
    groups: dict[tuple[int, StepSize], list[int]] = {}
    for i, run_cfg in enumerate(configs):
        try:
            run_cfg.validate()
        except ConfigError as exc:
            outcomes[i] = exc
            continue
        groups.setdefault((run_cfg.n_cells, _step_size(run_cfg)), []).append(i)
    order = sorted(groups, key=lambda key: key[0] * key[1].n_steps * len(groups[key]), reverse=True)
    marched = in_parallel(
        lambda members=groups[key]: run_group(
            configs[members[0]], [configs[i].eps for i in members], accumulate=accumulate
        )
        for key in order
    )
    for key, results in zip(order, marched):
        for i, outcome in zip(groups[key], results):
            outcomes[i] = outcome
    return outcomes


def convergence_study(config: RunConfig, epsilons=DEFAULT_EPS_SWEEP) -> StudyResult:
    """Run the paired simulation per eps and fit the decay rate.

    Each eps gets the grid rule's resolution.  The eps that share a grid and
    a step march as one group (``_march_sweep``), with results identical to
    lone runs.  Failures are recorded and the sweep continues.  Results are
    keyed by eps, in decreasing order.  Fewer than two distinct eps raise
    ``ConfigError`` before marching; when fewer than two points survive, the
    slope and intercept are NaN and the failures say why.
    """
    sweep = study_sweep(epsilons)
    configs = [
        replace(config, eps=eps, n_cells=study_cells(config, eps), record_every=0, out_dir=None)
        for eps in sweep
    ]
    outcomes = _march_sweep(configs, accumulate=())

    kept_eps: list[float] = []
    errors: list[float] = []
    l2_errors: list[float] = []
    cells: list[int] = []
    failures: list[tuple[float, str]] = []
    for eps, outcome in zip(sweep, outcomes):
        if isinstance(outcome, Exception):
            failures.append((eps, str(outcome)))
            continue
        kept_eps.append(eps)
        errors.append(outcome.weighted_err_sq)
        l2_errors.append(outcome.l2err_sq)
        cells.append(outcome.grid.n_cells)
    slope = intercept = math.nan
    if len(kept_eps) >= 2:
        slope, intercept = fit_rate(zip(kept_eps, errors))
    return StudyResult(
        epsilons=kept_eps,
        errors=errors,
        l2_errors=l2_errors,
        n_cells_used=cells,
        slope=slope,
        intercept=intercept,
        failures=failures,
    )


def write_study(path: str | Path, result: StudyResult) -> None:
    """Study file: one row per eps, then slope/intercept footer lines."""
    lines = ["eps,n_cells,l2err_sq"]
    for eps, n, err in zip(result.epsilons, result.n_cells_used, result.errors):
        lines.append(f"{_format(eps)},{n},{_format(err)}")
    lines.append(f"# slope={_format(result.slope)}")
    lines.append(f"# intercept={_format(result.intercept)}")
    Path(path).write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# verification bundles (the `verify` CLI subcommand)


def _random_smooth_field(rng: random.Random, modes: list[np.ndarray]) -> np.ndarray:
    """Random low-frequency field: an offset in [-1, 1] plus ``modes[k-1]`` scaled into [-1/k, 1/k]."""
    out = np.full_like(modes[0], rng.uniform(-1.0, 1.0))
    for k, mode in enumerate(modes, start=1):
        out += rng.uniform(-1.0 / k, 1.0 / k) * mode
    return out


@dataclass
class CheckOutcome:
    name: str
    passed: bool
    lines: list[str]


def verify_identity() -> CheckOutcome:
    """Entropy evolution law on 100 randomized smooth state pairs, 50 at each eps.

    The law is exact algebra once the limit state sits on the closure, so
    the per-cell defect relative to the largest term must be rounding-level.
    The pairs are fixed: 50 cells, lam 0.72, a 0.5, eps 1 and 0.1, drawn from
    ``random.Random(20240)``, whose sequence Python keeps across versions.
    Four sine modes under a compact bump keep the far field constant, as the
    copy ghosts do.
    """
    rng = random.Random(20240)
    grid = Grid(n_cells=50)
    x = grid.centers
    xi = (x - x[0]) / (x[-1] - x[0])
    bump = np.exp(-1.0 / np.clip(xi * (1.0 - xi), 1e-12, None) * 0.05)
    modes = [np.sin(np.pi * k * xi) * bump for k in range(1, 5)]
    worst, tol = 0.0, 1e-10
    for eps in (1.0, 0.1):
        p = ModelParams(eps=eps, lam=0.72, a=0.5)
        for _ in range(50):
            u, v, ubar = (_random_smooth_field(rng, modes) for _ in range(3))
            lim = LimitState(ubar=ubar, vbar=model.equilibrium_v(p, grid, ubar), t=0.0)
            hyp = HyperbolicState(u=u, v=v, t=0.0)
            worst = max(worst, diagnostics.entropy_budget(p, grid, hyp, lim).rel_mismatch_max)
    passed = worst <= tol
    return CheckOutcome(
        name="identity",
        passed=passed,
        lines=[f"entropy evolution law, max relative defect {worst:.3e} (tol {tol:g})"],
    )


def _linear_semi_discrete(config: RunConfig, needs: str) -> RunConfig:
    """``config`` as an unrecorded semi-discrete run; ``ConfigError`` unless its flux is linear.

    ``needs`` names what the check reads that only the linear system has.
    """
    if config.flux != model.LINEAR:
        raise ConfigError(f"{needs} need the linear flux, not {config.flux!r}")
    return replace(config, scheme=SEMI_DISCRETE, record_every=0, out_dir=None)


def residual_config(config: RunConfig) -> RunConfig:
    """The semi-discrete run of ``config`` that the residual check marches; linear flux only."""
    return _linear_semi_discrete(config, "the residual integrals")


def theorem_config(config: RunConfig) -> RunConfig:
    """The well-prepared semi-discrete runs of ``config`` that the theorem check marches; linear flux only."""
    return replace(_linear_semi_discrete(config, "the stability bound and phi"), well_prepared=True)


def verify_residuals(config: RunConfig) -> CheckOutcome:
    """Residual equalities and sign estimates along a semi-discrete run of ``config``."""
    run_cfg = residual_config(config)
    result = run_pair(run_cfg, accumulate=("residuals",))
    report = diagnostics.residual_sign_checks(result.residual_integrals, run_cfg.params())
    lines = [f"semi-discrete run at eps={run_cfg.eps:g}, {result.step.n_steps} steps"]
    return CheckOutcome(name="residuals", passed=report.all_ok, lines=lines + report.lines())


THEOREM_EPS = (0.1, 0.05, 0.025)


def verify_theorem(config: RunConfig) -> CheckOutcome:
    """Stability bound on well-prepared semi-discrete runs of ``config`` at each eps of ``THEOREM_EPS``.

    The eps that share the grid's step march as one group (``_march_sweep``);
    the first failed run, in ``THEOREM_EPS`` order, raises.  sup phi covers every step.
    """
    base = theorem_config(config)
    results = _march_sweep([replace(base, eps=eps) for eps in THEOREM_EPS], accumulate=("k-norms",))
    for result in results:
        if isinstance(result, Exception):
            raise result
    lines: list[str] = []
    ok = True
    for eps, result in zip(THEOREM_EPS, results):
        check = diagnostics.theorem_bound_check(result.series, result.config.params())
        ok = ok and check.satisfied
        lines.append(
            f"eps={eps:g}: sup phi {check.sup_phi:.6e} <= bound {check.bound:.6e} "
            f"(margin {check.margin:.3e}) -> {'PASS' if check.satisfied else 'FAIL'}"
        )
    return CheckOutcome(name="theorem", passed=ok, lines=lines)


def _rk4_relaxed_states(p: ModelParams, grid: Grid, u: np.ndarray, v: np.ndarray):
    """(u, v) and its RK4 successors to t_final; the limit pair (u, its closure) goes unread."""
    step = schemes.semi_discrete_dt(p, grid)
    march = schemes.PairMarch(p, grid, step.dt, u, v, u, model.equilibrium_v(p, grid, u))
    yield march.states(0.0)[0]
    for k in range(1, step.n_steps + 1):
        march.rk4_step()
        yield march.states(k * step.dt)[0]


def verify_entropy_inequality() -> CheckOutcome:
    """Entropy production bounded by dissipation up to O(dx) viscosity.

    Runs the relaxed semi-discrete flow on smooth data at dx and dx/2 (64
    and 128 cells, eps 1, lam 0.72, a 0.5, to t = 0.02): the positive part
    of production + (a u - v)^2 must fall to at most 0.75 times its dx value.
    """
    p = ModelParams(eps=1.0, lam=0.72, a=0.5, t_final=0.02)
    slack, shrink_factor = [], 0.75
    for n in (64, 128):
        grid = Grid(n_cells=n)
        x = grid.centers
        u = 1.0 + 0.5 * np.exp(-(((x - 0.5) / 0.08) ** 2))
        v = model.equilibrium_v(p, grid, u) + 0.05 * np.exp(-(((x - 0.45) / 0.1) ** 2))
        states = _rk4_relaxed_states(p, grid, u, v)
        slack.append(max(diagnostics.entropy_inequality_check(p, grid, states), 0.0))
    coarse, fine = slack
    shrinks = fine <= shrink_factor * coarse or fine <= 1e-14
    lines = [
        f"max positive production slack: dx -> {coarse:.6e}, dx/2 -> {fine:.6e}",
        f"refinement shrink factor <= {shrink_factor}: {'PASS' if shrinks else 'FAIL'}",
    ]
    return CheckOutcome(name="entropy-ineq", passed=shrinks, lines=lines)
