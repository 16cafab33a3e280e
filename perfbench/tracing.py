"""Spans around the public functions of tvclust's modules, taken from outside.

`Tracer.install` replaces every public module-level function of the traced
modules, in every tvclust module that binds it, by a wrapper that records a
span (name, start, end, parent). Self time is a span's duration minus the part
its child spans cover. Observers turn return values into counts at the same
boundary. Nothing inside the program is changed on disk.

Run as a script, this file runs `python -m tvclust.cli <args>` under a tracer
and writes the tracer's summary to a JSON file:

    python3 perfbench/tracing.py TRACE.json generate-sbm --out data ...
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import runpy
import sys
import time
from collections import defaultdict

# The cli layer holds click commands, not plain functions; it is timed as whole
# processes by the caller instead.
TRACED_MODULES = (
    "generators",
    "graphs",
    "solver",
    "clustering",
    "metrics",
    "experiments",
    "fileio",
    "pointcloud",
)

# Per-iteration operators of the splitting loop: a span each would cost more
# than the work it measures, so their time stays in pds_solve's self time.
UNTRACED = frozenset(
    {
        "graphs.temporal_diff_frames",
        "graphs.temporal_diff_adjoint_frames",
        "graphs.temporal_diff",
        "graphs.temporal_diff_adjoint",
    }
)


def _observe_solve(tracer, args, kwargs, res):
    tracer.counts["solver.iters"] += res.iters
    tracer.counts["solver.settled"] += int(res.converged)


def _observe_beta(tracer, args, kwargs, res):
    tracer.counts["graphs.max_eigenvalue_unconverged"] += int(not res.converged)


def _observe_write(tracer, args, kwargs, res):
    tracer.counts["fileio.bytes_written"] += os.path.getsize(args[0])


OBSERVERS = {
    "solver.pds_solve": _observe_solve,
    "graphs.max_eigenvalue": _observe_beta,
    "fileio.write_tvg": _observe_write,
    "fileio.write_labels": _observe_write,
}


class Tracer:
    """In-memory spans and counts; summarised by `summary`, written by `dump`."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            span = [name, time.perf_counter(), None, self._stack[-1] if self._stack else -1]
            self.spans.append(span)
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        wrappers: dict[int, tuple[object, object]] = {}
        for layer in TRACED_MODULES:
            mod = importlib.import_module(f"tvclust.{layer}")
            for attr, obj in vars(mod).items():
                name = f"{layer}.{attr}"
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                    and name not in UNTRACED
                ):
                    wrappers[id(obj)] = (obj, self._wrap(name, obj))
        # rebind every alias, since modules import these names from each other
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "tvclust" or mod_name.startswith("tvclust.")):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
                    self._undo.append((mod, attr, obj))

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._undo):
            setattr(mod, attr, obj)
        self._undo.clear()

    def summary(self) -> dict:
        """{"calls": {name: n}, "total_s": {name: s}, "self_s": {name: s}, "counts": {...}}."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: dict[str, int] = defaultdict(int)
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        for idx, (name, start, end, _) in enumerate(self.spans):
            calls[name] += 1
            total[name] += end - start
            own[name] += end - start - child[idx]
        return {
            "calls": dict(calls),
            "total_s": dict(total),
            "self_s": dict(own),
            "counts": dict(self.counts),
        }

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"summary": self.summary(), "spans": self.spans}, fh)


def merge_summaries(parts: list[dict]) -> dict:
    out = {"calls": defaultdict(int), "total_s": defaultdict(float),
           "self_s": defaultdict(float), "counts": defaultdict(float)}
    for part in parts:
        for key, table in out.items():
            for name, value in part.get(key, {}).items():
                table[name] += value
    return out


def _run_cli(trace_path: str, cli_args: list[str]) -> int:
    tracer = Tracer()
    tracer.install()
    sys.argv = ["tvclust", *cli_args]
    code = 0
    try:
        runpy.run_module("tvclust.cli", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    finally:
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump({"summary": tracer.summary()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(_run_cli(sys.argv[1], sys.argv[2:]))
