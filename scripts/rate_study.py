#!/usr/bin/env python3
"""Convergence-rate studies over the eps sweep, linear and Burgers.

Reproduces the eps^4 decay of the relaxation-scaled squared error between
the relaxed and the limiting discrete solutions (log-log slope ~ 4).  The
Burgers sweep takes about 12 s on 2 vCPUs (Python 3.11, NumPy 2.4): the
explicit limit diffusion lam^2 = 9 forces 421,474 steps on the finest grid,
and that one march bounds the sweep.
"""

import argparse
from pathlib import Path

from jinxin.harness import DEFAULT_EPS_SWEEP, RunConfig, convergence_study, write_study

OUT = Path(__file__).resolve().parent.parent / "out"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--flux", choices=("linear", "burgers", "both"), default="both")
    args = parser.parse_args()

    configs = {
        "linear": RunConfig(flux="linear", lam=0.72, a=0.5, well_prepared=True),
        "burgers": RunConfig(flux="burgers", lam=3.0, a=0.5, well_prepared=True),
    }
    chosen = configs if args.flux == "both" else {args.flux: configs[args.flux]}
    OUT.mkdir(parents=True, exist_ok=True)
    for name, config in chosen.items():
        result = convergence_study(config, DEFAULT_EPS_SWEEP)
        path = OUT / f"study_{name}.csv"
        write_study(path, result)
        print(f"{name}: slope={result.slope:.4f} intercept={result.intercept:.4f}")
        for eps, n, err in zip(result.epsilons, result.n_cells_used, result.errors):
            print(f"  eps={eps:<10g} n_cells={n:<5d} err_sq={err:.6e}")
        print(f"  -> {path}")


if __name__ == "__main__":
    main()
