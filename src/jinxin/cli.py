"""Command-line entry point: run, study, and verify workflows."""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import harness
from .harness import CheckOutcome, ConfigError, RunConfig
from .schemes import InstabilityError

CHECK_NAMES = ("identity", "residuals", "theorem", "entropy-ineq", "all")


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


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    # flag names mirror the config-file keys one-to-one; --nx/--tfinal are
    # short aliases kept for convenience
    parser.add_argument("--config", metavar="PATH", help="flat key = value config file")
    parser.add_argument("--out-dir", default=None, help="directory for output files (default: out)")
    parser.add_argument("--eps", type=float, default=None, help="relaxation parameter")
    parser.add_argument("--lambda", dest="lam", type=float, default=None, help="frozen wave speed")
    parser.add_argument("--a", type=float, default=None, help="linear transport coefficient")
    parser.add_argument("--flux", choices=("linear", "burgers"), default=None, help="flux function")
    parser.add_argument("--n-cells", "--nx", dest="n_cells", type=int, default=None, help="cell count")
    parser.add_argument("--x-min", type=float, default=None, help="left domain end")
    parser.add_argument("--x-max", type=float, default=None, help="right domain end")
    parser.add_argument("--cfl", type=float, default=None, help="time-step safety factor in (0, 1]")
    parser.add_argument("--t-final", "--tfinal", dest="t_final", type=float, default=None, help="final time")
    parser.add_argument("--u-left", type=float, default=None, help="left Riemann state")
    parser.add_argument("--u-right", type=float, default=None, help="right Riemann state")
    parser.add_argument(
        "--well-prepared", type=_parse_bool_flag, default=None, metavar="BOOL",
        help="start v on the discrete closure (true/false)",
    )
    parser.add_argument("--scheme", choices=harness.SCHEMES, default=None, help="time marching scheme")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jinxin",
        description="Finite-volume lab for a relaxation system and its convection-diffusion limit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="advance the paired solutions and dump profiles/series")
    study_p = sub.add_parser("study", help="eps sweep with the grid rule and a log-log rate fit")
    # no verify check reads the stride, so verify has no such flag
    for marching in (run_p, study_p):
        _add_config_flags(marching)
        marching.add_argument("--record-every", type=int, default=None, help="step stride for profile dumps")
    study_p.add_argument(
        "--eps-list", type=_parse_eps_list, default=None, metavar="E1,E2,...",
        help="comma-separated eps sweep (default: the standard sweep 1e-1 .. 1.5e-3)",
    )

    verify_p = sub.add_parser("verify", help="run the entropy/identity/bound checks")
    _add_config_flags(verify_p)
    verify_p.add_argument(
        "--check", choices=CHECK_NAMES, default="all", help="which check to run",
    )
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
        if ns.command == "study":
            harness.study_sweep(eps_list)
            # the rate protocol starts from the closure so the initial relative
            # entropy vanishes; profile runs keep the flat-equilibrium start
            values.setdefault("well_prepared", True)
        elif ns.command == "verify":
            # the residual estimates are checked in the relaxation regime
            values.setdefault("eps", 0.1)
        config = harness.make_config(**values)
    except (ConfigError, OSError) as exc:
        parser.error(str(exc))
    if ns.command == "verify":
        # both marching checks need the linear flux; the residual run also a valid eps
        try:
            if ns.check in ("residuals", "all"):
                harness.residual_config(config).validate()
        except ConfigError as exc:
            parser.error(f"residual check: {exc}")
        try:
            if ns.check in ("theorem", "all"):
                harness.theorem_config(config)
        except ConfigError as exc:
            parser.error(f"theorem check: {exc}")
    for eps in eps_list:
        try:
            replace(config, eps=eps).validate()
            replace(config, eps=eps, n_cells=harness.study_cells(config, eps)).validate()
        except ConfigError as exc:
            parser.error(f"eps={eps:g}: {exc}")
    return Command(
        kind=ns.command,
        config=config,
        eps_list=eps_list,
        check=getattr(ns, "check", "all"),
        out_dir=ns.out_dir if ns.out_dir is not None else "out",
    )


def _execute_run(cmd: Command) -> int:
    config = replace(cmd.config, out_dir=cmd.out_dir)
    result = harness.run_pair(config)
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
