"""Time one workload's set-up in a fresh process.

    python3 perfbench/setup_probe.py <workload>

Set-up is importing numpy and jinxin and building the workload's config
(``RunConfig`` for the study, ``cli.parse_args`` for the CLI workloads).
Prints ``{"setup_s": seconds}`` as one JSON line.
"""

import time

start = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

import numpy  # noqa: E402,F401

import workloads  # noqa: E402


def main() -> int:
    workload = workloads.WORKLOADS[sys.argv[1]]
    workload.setup(workloads.import_program())
    print(json.dumps({"setup_s": time.perf_counter() - start}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
