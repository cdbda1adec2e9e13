"""Command-line entry point: run, study, and verify workflows."""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import harness, model
from .harness import CheckOutcome, ConfigError, RunConfig
from .schemes import InstabilityError

CHECK_NAMES = ("identity", "residuals", "theorem", "entropy-ineq", "all")
# RunConfig fields a command never reads get no flag, and a config file's values
# for them are dropped: a study marches its sweep's eps unrecorded, and the
# checks march the semi-discrete scheme unrecorded and write no file
UNREAD = {"run": (), "study": ("eps", "record_every"), "verify": ("record_every", "scheme", "out_dir")}


@dataclass(frozen=True)
class Command:
    """One parsed invocation: exactly one subcommand with its settings."""

    kind: str  # "run" | "study" | "verify"
    config: RunConfig
    eps_list: tuple[float, ...] = ()
    check: str = "all"
    out_dir: str = "out"


def _parse_bool_flag(text: str) -> bool:
    try:
        return harness.parse_bool(text)
    except ConfigError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _parse_eps_list(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad eps list {text!r}") from exc
    if not values:
        raise argparse.ArgumentTypeError("empty eps list")
    return values


def _add_config_flags(parser: argparse.ArgumentParser, unread: tuple[str, ...]) -> None:
    # flag names mirror the config-file keys one-to-one; --nx/--tfinal are
    # short aliases kept for convenience
    def add(dest: str, *flags: str, **kwargs) -> None:
        if dest not in unread:
            parser.add_argument(*flags, dest=dest, default=None, **kwargs)

    parser.add_argument("--config", metavar="PATH", help="flat key = value config file")
    add("out_dir", "--out-dir", help="directory for output files (default: out)")
    add("eps", "--eps", type=float, help="relaxation parameter")
    add("lam", "--lambda", type=float, help="frozen wave speed")
    add("a", "--a", type=float, help="linear transport coefficient")
    add("flux", "--flux", choices=model.FLUX_KINDS, help="flux function")
    add("n_cells", "--n-cells", "--nx", type=int, help="cell count")
    add("x_min", "--x-min", type=float, help="left domain end")
    add("x_max", "--x-max", type=float, help="right domain end")
    add("cfl", "--cfl", type=float, help="time-step safety factor in (0, 1]")
    add("t_final", "--t-final", "--tfinal", type=float, help="final time")
    add("u_left", "--u-left", type=float, help="left Riemann state")
    add("u_right", "--u-right", type=float, help="right Riemann state")
    add("well_prepared", "--well-prepared", type=_parse_bool_flag, metavar="BOOL",
        help="start v on the discrete closure (true/false)")
    add("scheme", "--scheme", choices=harness.SCHEMES, help="time marching scheme")
    add("record_every", "--record-every", type=int, help="step stride for profile dumps")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jinxin",
        description="Finite-volume lab for a relaxation system and its convection-diffusion limit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="advance the paired solutions and dump profiles/series")
    # no abbreviations, or --eps would be read as --eps-list
    study_p = sub.add_parser(
        "study", help="eps sweep with the grid rule and a log-log rate fit", allow_abbrev=False,
    )
    study_p.add_argument(
        "--eps-list", type=_parse_eps_list, default=None, metavar="E1,E2,...",
        help="comma-separated eps sweep (default: the standard sweep 1e-1 .. 1.5e-3)",
    )
    verify_p = sub.add_parser("verify", help="run the entropy/identity/bound checks")
    verify_p.add_argument(
        "--check", choices=CHECK_NAMES, default="all", help="which check to run",
    )
    for name, command in (("run", run_p), ("study", study_p), ("verify", verify_p)):
        _add_config_flags(command, UNREAD[name])
    return parser


def parse_args(argv) -> Command:
    """Merge defaults, config file, and flags into a validated Command."""
    parser = build_parser()
    ns = parser.parse_args(argv)
    overrides = {
        name: getattr(ns, name)
        for name in harness.CONFIG_KEYS.values()
        if getattr(ns, name, None) is not None
    }
    eps_list = ()
    if ns.command == "study":
        eps_list = ns.eps_list if ns.eps_list is not None else tuple(harness.DEFAULT_EPS_SWEEP)
    try:
        values = harness.load_config_file(ns.config) if ns.config is not None else {}
        values.update(overrides)  # flags beat the file
        for name in UNREAD[ns.command]:
            values.pop(name, None)
        if ns.command == "study":
            harness.study_sweep(eps_list)
            # the rate protocol starts from the closure so the initial relative
            # entropy vanishes; profile runs keep the flat-equilibrium start
            values.setdefault("well_prepared", True)
        elif ns.command == "verify":
            # the residual estimates are checked in the relaxation regime
            values.setdefault("eps", 0.1)
        config = RunConfig(**values)
        if ns.command == "run":  # the others are validated below, at the runs they march
            config.validate()
    except (ConfigError, OSError) as exc:
        parser.error(str(exc))
    if ns.command == "verify":
        # each check validates the runs it marches; only the residual run reads the config's eps
        try:
            if ns.check in ("residuals", "all"):
                harness.residual_config(config).validate()
        except ConfigError as exc:
            parser.error(f"residual check: {exc}")
        try:
            if ns.check in ("theorem", "all"):
                for run in harness.theorem_configs(config):
                    run.validate()
        except ConfigError as exc:
            parser.error(f"theorem check: {exc}")
    for eps in eps_list:
        try:
            replace(config, eps=eps).validate()
            replace(config, eps=eps, n_cells=harness.study_cells(config, eps)).validate()
        except ConfigError as exc:
            parser.error(f"eps={eps:g}: {exc}")
    out_dir = getattr(ns, "out_dir", None)
    return Command(
        kind=ns.command,
        config=config,
        eps_list=eps_list,
        check=getattr(ns, "check", "all"),
        out_dir=out_dir if out_dir is not None else "out",
    )


def _execute_run(cmd: Command) -> int:
    config = replace(cmd.config, out_dir=cmd.out_dir)
    # series.csv reads the K norms; nothing here reads the residual integrals
    result = harness.run_pair(config, accumulate=("k-norms",))
    print(f"advanced {config.scheme} pair to t={config.t_final:g} "
          f"in {result.step.n_steps} steps (dt={result.step.dt:.6e})")
    print(f"squared space-time L2 error: {result.l2err_sq:.17g}")
    print(f"entropy-weighted squared error: {result.weighted_err_sq:.17g}")
    print(f"outputs in {Path(cmd.out_dir).resolve()}")
    return 0


def _execute_study(cmd: Command) -> int:
    result = harness.convergence_study(cmd.config, cmd.eps_list)
    out_dir = Path(cmd.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "study.csv"
    harness.write_study(path, result)
    for eps, n, err in zip(result.epsilons, result.n_cells_used, result.errors):
        print(f"eps={eps:<12g} n_cells={n:<5d} err_sq={err:.6e}")
    for eps, message in result.failures:
        print(f"eps={eps:<12g} FAILED: {message}")
    print(f"slope={result.slope:.4f} intercept={result.intercept:.4f} -> {path}")
    return 1 if result.failures else 0


def _execute_verify(cmd: Command) -> int:
    # the checks share no state, so they run as independent calls
    checks = {
        "identity": harness.verify_identity,
        "residuals": lambda: harness.verify_residuals(cmd.config),
        "theorem": lambda: harness.verify_theorem(cmd.config),
        "entropy-ineq": harness.verify_entropy_inequality,
    }
    outcomes: list[CheckOutcome] = harness.in_parallel(
        check for name, check in checks.items() if cmd.check in (name, "all")
    )
    all_ok = True
    for outcome in outcomes:
        status = "PASS" if outcome.passed else "FAIL"
        print(f"[{status}] {outcome.name}")
        for line in outcome.lines:
            print(f"    {line}")
        all_ok = all_ok and outcome.passed
    return 0 if all_ok else 1


def execute(cmd: Command) -> int:
    # a blow-up is caught by explicit finiteness checks and reported as an
    # error line; NumPy's floating-point warnings would only bury it
    try:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            if cmd.kind == "run":
                return _execute_run(cmd)
            if cmd.kind == "study":
                return _execute_study(cmd)
            if cmd.kind == "verify":
                return _execute_verify(cmd)
    except (ConfigError, ValueError, OSError, InstabilityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    raise AssertionError(f"unknown command kind {cmd.kind!r}")


def main(argv=None) -> int:
    return execute(parse_args(sys.argv[1:] if argv is None else argv))


if __name__ == "__main__":
    sys.exit(main())
