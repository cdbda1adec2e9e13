"""Byte-identity of the output files against stored reference files.

Each case is one ``jinxin`` command line.  Its reference outputs live in
``tests/data/<case>/``, exactly as the command writes them; for the cases in
``STDOUT`` the reference is the printed report, kept as ``stdout.txt``.  The march must
reproduce them to the last bit: a one-ulp drift in any cell changes the
17-digit CSV text.

Regenerate the reference files (only when an output change is intended)::

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import shutil
import sys
from pathlib import Path

import pytest

from jinxin import cli

DATA = Path(__file__).resolve().parent / "data"

CASES = {
    # short rate sweeps through the study command (well-prepared by default)
    "study_linear": ["study", "--eps-list", "1e-1,5e-2,2.5e-2", "--nx", "100"],
    "study_burgers": [
        "study", "--flux", "burgers", "--lambda", "3", "--eps-list", "1e-1,5e-2,2.5e-2",
        "--nx", "100", "--tfinal", "0.02",
    ],
    # sweeps whose points split into grid-and-step groups: three eps share
    # 64 cells and one runs alone on 100; under the semi-discrete step only
    # eps 0.1 and 0.05 share one
    "study_mixed_grids": [
        "study", "--eps-list", "1e-1,5e-2,2.5e-2,1e-2", "--nx", "64", "--tfinal", "0.02",
    ],
    "study_semi_discrete": [
        "study", "--eps-list", "1e-1,5e-2,2.5e-2,1e-2", "--nx", "64", "--tfinal", "0.02",
        "--scheme", "semi-discrete",
    ],
    # the README run: initial and final profiles plus the series
    "run_readme": [
        "run", "--eps", "1", "--lambda", "0.72", "--a", "0.5", "--nx", "200",
        "--cfl", "0.95", "--tfinal", "0.1",
    ],
    # small runs with intermediate profile dumps
    "run_linear": ["run", "--eps", "0.5", "--nx", "64", "--tfinal", "0.02", "--record-every", "10"],
    "run_burgers": [
        "run", "--flux", "burgers", "--lambda", "3", "--eps", "0.5", "--nx", "64",
        "--tfinal", "0.005", "--record-every", "50",
    ],
    "run_semi_discrete": [
        "run", "--scheme", "semi-discrete", "--eps", "0.5", "--nx", "48", "--tfinal", "0.01",
        "--record-every", "5",
    ],
    # printed reports of the verify checks that march no run config
    "verify_identity": ["verify", "--check", "identity"],
    "verify_entropy_ineq": ["verify", "--check", "entropy-ineq"],
    # printed reports of the verify checks that march semi-discrete runs
    "verify_residuals": ["verify", "--check", "residuals"],
    "verify_theorem": ["verify", "--check", "theorem"],
    # on 20 cells the three eps of the theorem check need three step sizes
    "verify_theorem_coarse": ["verify", "--check", "theorem", "--nx", "20"],
}
STDOUT = {
    "verify_identity", "verify_entropy_ineq", "verify_residuals", "verify_theorem",
    "verify_theorem_coarse",
}


def produce(case: str, out_dir: Path) -> None:
    """Run one case into ``out_dir``; stdout is kept only for the ``STDOUT`` cases."""
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        status = cli.main([*CASES[case], "--out-dir", str(out_dir)])
    if status != 0:
        raise RuntimeError(f"{case}: exit status {status}")
    if case in STDOUT:
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "stdout.txt").write_text(printed.getvalue())


@pytest.mark.parametrize("case", sorted(CASES))
def test_outputs_are_byte_identical(case, tmp_path):
    produce(case, tmp_path)
    expected = sorted(p.name for p in (DATA / case).iterdir())
    assert sorted(p.name for p in tmp_path.iterdir()) == expected
    for name in expected:
        assert (tmp_path / name).read_bytes() == (DATA / case / name).read_bytes(), name


if __name__ == "__main__":
    for case in sorted(CASES):
        target = DATA / case
        shutil.rmtree(target, ignore_errors=True)
        produce(case, target)
        print(f"{case}: {len(list(target.iterdir()))} files", file=sys.stderr)
