"""Layer timings taken from outside the program.

``Tracer`` wraps every public function (and every public method of a class)
that ``jinxin``'s modules define, for the duration of a ``with`` block.  A
function that one module imports by name from another (``schemes`` takes
``pad_edges`` and ``flux_eval`` from ``model``) is wrapped in every
namespace that holds it, because that is where the callers look it up.  The
wrappers count calls and self time: time in the function minus time in
wrapped functions it called.  A few keys carry more: the steps and the
inclusive time per step of ``harness.run_pair`` and ``schemes.jpt_step``,
split by grid size, and the bytes that the file writers leave on disk.

Leaving the block restores the original objects, so untraced rounds in the
same process run the program as it is.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time
from collections import defaultdict
from dataclasses import dataclass

MODULES = ("model", "schemes", "diagnostics", "harness", "cli")

RUN_PAIR = "harness.run_pair"
PER_STEP = (RUN_PAIR, "schemes.jpt_step")
WRITERS = ("harness.write_profile", "harness.write_series")


@dataclass
class Stat:
    calls: int = 0
    self_s: float = 0.0
    bytes: int = 0


class Tracer:
    """Counts and self times of the program's public functions."""

    def __init__(self, package) -> None:
        self.package = package
        self.modules = {
            short: importlib.import_module(f"{package.__name__}.{short}") for short in MODULES
        }
        self.stats: dict[str, Stat] = {}
        self.steps: dict[int, int] = defaultdict(int)  # run_pair steps by n_cells
        self.per_step_s: dict[tuple[str, int], float] = defaultdict(float)
        self._stack: list[float] = []  # time spent in wrapped children, per open call
        self._cells = 0  # n_cells of the run_pair call in progress
        self._undo: list[tuple[object, str, object]] = []

    # -- installing and removing the wrappers

    def _targets(self):
        """(key, owner, attribute, function) for each public function and method."""
        for short, module in self.modules.items():
            for name, obj in vars(module).items():
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    yield f"{short}.{name}", module, name, obj
                elif inspect.isclass(obj):
                    for attr, member in vars(obj).items():
                        if not attr.startswith("_") and inspect.isfunction(member):
                            yield f"{short}.{name}.{attr}", obj, attr, member

    def __enter__(self) -> "Tracer":
        wrapped: dict[int, object] = {}
        for key, owner, attr, fn in self._targets():
            wrapper = self._wrap(key, fn)
            if inspect.isclass(owner):
                self._patch(owner, attr, wrapper)
            else:
                wrapped[id(fn)] = wrapper
        namespaces = [self.package, *self.modules.values()]
        for namespace in namespaces:
            for attr, obj in list(vars(namespace).items()):
                if inspect.isfunction(obj) and id(obj) in wrapped:
                    self._patch(namespace, attr, wrapped[id(obj)])
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    # -- the wrappers

    def _wrap(self, key: str, fn):
        stat = self.stats.setdefault(key, Stat())
        stack = self._stack
        clock = time.perf_counter

        if key not in PER_STEP and key not in WRITERS:
            def traced(*args, **kwargs):
                stack.append(0.0)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    stat.calls += 1
                    stat.self_s += elapsed - stack.pop()
                    if stack:
                        stack[-1] += elapsed

            return functools.wraps(fn)(traced)

        def traced_with_extras(*args, **kwargs):
            outer_cells = self._cells
            if key == RUN_PAIR:
                config = args[0] if args else kwargs["config"]
                self._cells = config.n_cells
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stat.calls += 1
                stat.self_s += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
                cells, self._cells = self._cells, outer_cells
                if key in PER_STEP:
                    self.per_step_s[key, cells] += elapsed
            if key == RUN_PAIR:
                self.steps[cells] += result.step.n_steps
            elif key in WRITERS:
                stat.bytes += os.path.getsize(args[0] if args else kwargs["path"])
            return result

        return functools.wraps(fn)(traced_with_extras)

    # -- reading the figures

    def metric(self, name: str) -> float | None:
        """Value of a per-layer metric name, or None if the name is not a layer metric.

        Names are ``<module>.<function>.<stat>`` with stat ``calls``,
        ``self_s``, ``bytes`` or ``steps``, or
        ``<module>.<function>.us_per_step.n<cells>``.  A function that
        was never called reads 0.
        """
        head, _, stat = name.rpartition(".")
        if head.endswith(".us_per_step") and stat.startswith("n") and stat[1:].isdigit():
            key = head[: -len(".us_per_step")]
            cells = int(stat[1:])
            steps = self.steps.get(cells, 0)
            return 1e6 * self.per_step_s.get((key, cells), 0.0) / steps if steps else 0.0
        if stat == "steps" and head == RUN_PAIR:
            return sum(self.steps.values())
        if stat not in ("calls", "self_s", "bytes"):
            return None
        return getattr(self.stats.get(head, Stat()), stat)

    def known(self, name: str) -> bool:
        """True if the function a metric name refers to exists in the program."""
        key = name.rpartition(".")[0].removesuffix(".us_per_step")
        return key in self.stats
