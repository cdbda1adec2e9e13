"""The benchmark's workloads: fixed inputs, one timed round, and its checks.

A round is one whole workload: the full eps sweep, the four verify checks,
or one profile-writing run.  ``run`` times the span from the first call into
jinxin to the return of the last one and hands back what the round
produced; ``check`` examines that afterwards, outside the timed span.

The inputs are fixed reference configurations, not drawn from the seed: the
study is acceptance 1 as written, the verify call is the CLI's default, and
the profile run's checks (667 rows, mass change 0.05) are tied to its
inputs.
"""

from __future__ import annotations

import contextlib
import functools
import io
import sys
import time
from pathlib import Path

import checks
import reference

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class ProgramMissing(RuntimeError):
    """The checkout holds no importable jinxin under src/."""


def import_program():
    """Import jinxin from the checkout's src/ and from nowhere else."""
    package_dir = SRC / "jinxin"
    if not (package_dir / "__init__.py").is_file():
        raise ProgramMissing(f"no jinxin package under {SRC}")
    sys.path.insert(0, str(SRC))
    import jinxin
    import jinxin.cli
    import jinxin.harness

    if Path(jinxin.__file__).resolve().parent != package_dir.resolve():
        raise ProgramMissing(f"jinxin imported from {jinxin.__file__}, not from {package_dir}")
    return jinxin


def call_cli(cli, argv: list[str]) -> tuple[float, tuple[int, str]]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejected the arguments
            code = exc.code if isinstance(exc.code, int) else 2
        wall = time.perf_counter() - start
    return wall, (code, out.getvalue())


class StudyLinear:
    """Acceptance 1: the default linear rate study through harness.convergence_study."""

    name = "study-linear"
    sweep = (1e-1, 5e-2, 2.5e-2, 1.25e-2, 6.25e-3, 3.125e-3, 1.5e-3)
    inputs = dict(
        flux="linear", lam=0.72, a=0.5, cfl=0.95, t_final=0.1,
        u_left=2.0, u_right=1.0, n_cells=200, well_prepared=True,
    )
    operations = tuple(checks.eps_label(e) for e in sweep)

    def setup(self, jinxin):
        return jinxin.harness.RunConfig(**self.inputs)

    def run(self, jinxin, config, workdir: Path):
        start = time.perf_counter()
        result = jinxin.harness.convergence_study(config, self.sweep)
        return time.perf_counter() - start, result

    @functools.cached_property
    def reference_error(self) -> float:
        kw = {k: v for k, v in self.inputs.items() if k not in ("flux", "n_cells", "well_prepared")}
        return reference.weighted_error(self.sweep[0], self.inputs["n_cells"], **kw)

    def check(self, result, workdir: Path):
        return checks.check_study(result, self.sweep, self.inputs["n_cells"], self.reference_error)


class VerifyEntropy:
    """`jinxin verify --check all` through cli.main."""

    name = "verify-entropy"
    argv = ["verify", "--check", "all"]
    operations = checks.VERIFY_CHECKS

    def setup(self, jinxin):
        return jinxin.cli.parse_args(self.argv)

    def run(self, jinxin, command, workdir: Path):
        return call_cli(jinxin.cli, self.argv)

    def check(self, output, workdir: Path):
        return checks.check_verify(*output)


class ProfileDump:
    """`jinxin run` on 667 cells at eps = 1, a profile dump every 100 steps."""

    name = "profile-dump"
    case = checks.RunCase()
    operations = ("run",)

    def setup(self, jinxin):
        return jinxin.cli.parse_args(self.case.argv("out"))

    def run(self, jinxin, command, workdir: Path):
        return call_cli(jinxin.cli, self.case.argv(str(workdir / "out")))

    def check(self, output, workdir: Path):
        code, text = output
        return checks.check_profile_run(self.case, code, text, workdir / "out")


WORKLOADS = {w.name: w for w in (StudyLinear(), VerifyEntropy(), ProfileDump())}
