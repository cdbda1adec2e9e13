"""Run one jinxin benchmark workload and print its metrics.

    python3 perfbench/run.py --workload study-linear --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; jinxin is imported from its src/.  The
workload repeats whole rounds for about ``--seconds`` (one round at least,
and none that is expected to end later), checking each round's output
after its timed span.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``:

* ``--trace 0``: the end-to-end metrics of BENCHMARK.json, ``wall_s`` (median
  round), ``setup_s`` (median of fresh-process set-ups) and ``peak_rss_mb``;
* ``--trace 1``: untraced and traced rounds in turn, and the per-layer
  metrics of BENCHMARK.json from the traced ones, including the tracing
  overhead.  The seed's parity picks which kind of round goes first.

Exits 2 without a result when the checkout holds no jinxin to measure.
"""

from __future__ import annotations

import os

# one thread of work: keep any BLAS behind numpy single-threaded
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from checks import Problem  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import ROOT, WORKLOADS, ProgramMissing, import_program  # noqa: E402

HERE = Path(__file__).resolve().parent
TMP_ROOT = ROOT / ".perfbench_tmp"
SETUP_SAMPLES = 7
COUNT_STATS = ("calls", "steps", "bytes")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure_setup(name: str) -> float:
    """Median set-up time over fresh processes; the first fills the bytecode caches."""
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), name],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        if i:
            samples.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return statistics.median(samples)


class Runner:
    """Rounds of one workload with their times and check outcomes."""

    def __init__(self, workload, jinxin, state, workdir: Path) -> None:
        self.workload = workload
        self.jinxin = jinxin
        self.state = state
        self.workdir = workdir
        self.rounds = 0
        self.failed = 0
        self.wrong = 0

    def round(self, tracer: Tracer | None = None) -> float:
        """Run, time and check one round; returns its timed span."""
        round_dir = Path(tempfile.mkdtemp(prefix="round-", dir=self.workdir))
        start = time.perf_counter()
        try:
            if tracer is None:
                wall, output = self.workload.run(self.jinxin, self.state, round_dir)
            else:
                with tracer:
                    wall, output = self.workload.run(self.jinxin, self.state, round_dir)
            problems = self.workload.check(output, round_dir)
        except Exception:  # a round that raises fails all its operations
            traceback.print_exc()
            wall = time.perf_counter() - start
            problems = {op: Problem("raised", failed=True) for op in self.workload.operations}
        finally:
            shutil.rmtree(round_dir, ignore_errors=True)
        self.rounds += 1
        for op, problem in problems.items():
            print(f"{self.workload.name} round {self.rounds} {op}: {problem.reason}", file=sys.stderr)
        self.failed += sum(p.failed for p in problems.values())
        self.wrong += sum(not p.failed for p in problems.values())
        return wall

    def result(self, metrics: dict) -> dict:
        return {
            "correct": self.wrong == 0,
            "attempted": self.rounds * len(self.workload.operations),
            "failed": self.failed,
            "metrics": metrics,
        }


def repeat(seconds: float, step) -> None:
    """Call ``step`` at least once, and again while the next call should end within ``seconds``."""
    start = time.perf_counter()
    spans = []
    while True:
        begin = time.perf_counter()
        step()
        spans.append(time.perf_counter() - begin)
        if time.perf_counter() - start + statistics.median(spans) > seconds:
            return


def end_to_end(runner: Runner, seconds: float, setup_s: float, spec: dict) -> dict:
    walls: list[float] = []
    repeat(seconds, lambda: walls.append(runner.round()))
    values = {
        "wall_s": statistics.median(walls),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}


def per_layer(runner: Runner, seconds: float, seed: int, spec: dict) -> dict:
    unused = Tracer(runner.jinxin)
    for m in spec["per_layer"]:
        if not m["name"].startswith("bench.") and unused.metric(m["name"]) is None:
            raise ValueError(f"BENCHMARK.json names an unknown per-layer metric {m['name']!r}")
    walls: dict[bool, list[float]] = {False: [], True: []}
    tracers: list[Tracer] = []
    order = (seed % 2 == 1, seed % 2 == 0)

    def pair() -> None:
        for traced in order:
            tracer = Tracer(runner.jinxin) if traced else None
            walls[traced].append(runner.round(tracer))
            if tracer is not None:
                tracers.append(tracer)

    repeat(seconds, pair)

    # adjacent rounds share the host's speed, so compare within each pair
    pairs = list(zip(walls[True], walls[False]))
    metrics = {}
    for m in spec["per_layer"]:
        name = m["name"]
        if name == "bench.trace_overhead_s":
            value = statistics.median(t - u for t, u in pairs)
        elif name == "bench.trace_overhead_pct":
            value = statistics.median(100.0 * (t - u) / u for t, u in pairs)
        else:
            values = [t.metric(name) for t in tracers]
            if not tracers[0].known(name):
                print(f"note: {name} names no function of the program; it reads 0", file=sys.stderr)
            if name.rpartition(".")[2] in COUNT_STATS:
                if len(set(values)) > 1:
                    print(f"note: {name} differs between traced rounds: {values}", file=sys.stderr)
                value = values[0]
            else:
                value = statistics.median(values)
        metrics[name] = {"value": value, "unit": m["unit"]}
    return metrics


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    workload = WORKLOADS[args.workload]
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        jinxin = import_program()
    except (OSError, ValueError, ProgramMissing) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    TMP_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=TMP_ROOT))
    try:
        setup_s = measure_setup(workload.name) if not args.trace else None
        runner = Runner(workload, jinxin, workload.setup(jinxin), workdir)
        if args.trace:
            metrics = per_layer(runner, args.seconds, args.seed, spec)
        else:
            metrics = end_to_end(runner, args.seconds, setup_s, spec)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            TMP_ROOT.rmdir()  # left in place while another run still uses it
    print(json.dumps(runner.result(metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
