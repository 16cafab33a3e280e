#!/usr/bin/env python3
"""Benchmark tvclust end to end and per layer.

    python3 perfbench/run.py --workload sbm-desk --seed 1 --seconds 25 --trace 0

Runs whole rounds of one workload (see workloads.py) until another round would
end past --seconds, always at least the workload's minimum. With --trace 0 the
last line of standard output is a JSON object with the end-to-end metrics; with
--trace 1 spans around the public functions of tvclust's modules give the
per-layer metrics instead. The line before it records the machine. The same
object, and the spans of a traced run, are also written to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 3

END_TO_END_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "pair_accuracy": "fraction",
}

# per-layer metric -> (summary table, traced function names) for span sums
SPAN_METRICS = {
    "generators.sbm_tv_sequence_s": ("total_s", ["generators.sbm_tv_sequence"]),
    "graphs.build_laplacian_s": ("total_s", ["graphs.build_laplacian"]),
    "graphs.max_eigenvalue_s": ("total_s", ["graphs.max_eigenvalue"]),
    "graphs.smallest_eigenvectors_s": ("total_s", ["graphs.smallest_eigenvectors"]),
    "solver.pds_solve_self_s": ("self_s", ["solver.pds_solve"]),
    "solver.solves": ("calls", ["solver.pds_solve"]),
    "clustering.kmeans_s": ("total_s", ["clustering.kmeans"]),
    "clustering.kmeans_calls": ("calls", ["clustering.kmeans"]),
    "clustering.align_labels_s": ("total_s", ["clustering.align_labels"]),
    "clustering.tv_cluster_self_s": (
        "self_s",
        ["clustering.tv_cluster_multi", "clustering.tv_cluster_multi_detailed",
         "clustering.tv_cluster_two"],
    ),
    "clustering.static_sc_self_s": ("self_s", ["clustering.static_sc"]),
    "metrics.pair_accuracy_s": ("total_s", ["metrics.pair_accuracy"]),
    "metrics.pair_accuracy_calls": ("calls", ["metrics.pair_accuracy"]),
    "experiments.total_mismatch_s": ("total_s", ["experiments.total_mismatch"]),
    "fileio.write_s": ("total_s", ["fileio.write_tvg", "fileio.write_labels"]),
    "fileio.read_s": ("total_s", ["fileio.read_tvg", "fileio.read_labels"]),
    "pointcloud.load_frames_s": ("total_s", ["pointcloud.load_frames"]),
    "pointcloud.downsample_s": ("total_s", ["pointcloud.downsample"]),
    "pointcloud.knn_graph_s": ("total_s", ["pointcloud.knn_graph"]),
}
COUNT_METRICS = (
    "graphs.max_eigenvalue_unconverged",
    "solver.iters",
    "solver.settled",
    "fileio.bytes_written",
)
CLI_METRICS = ("cli.startup_s", "cli.generate_sbm_s", "cli.cluster_s", "cli.evaluate_s")


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name == "solver.us_per_iter":
        return "us"
    if name == "fileio.bytes_written":
        return "bytes"
    if name == "solver.objective":
        return "objective"
    return "count"


def machine_facts() -> dict:
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def blas_threads():
    """Thread count reported by the OpenBLAS library this process has loaded."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {ln.split()[-1] for ln in fh if "openblas" in ln.lower() and ".so" in ln}
    for lib in sorted(libs):
        dll = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def cpu_seconds() -> float:
    """User plus system CPU of this process and its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def measure_setup(args, work: Path) -> float:
    """Median wall time of fresh processes that import tvclust and build the inputs."""
    times = []
    for i in range(SETUP_PROBES):
        probe = work / f"setup_{i}"
        argv = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
                "--seed", str(args.seed), "--seconds", "0", "--trace", "0",
                "--setup-probe", str(probe)]
        started = time.perf_counter()
        subprocess.run(argv, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - started)
        shutil.rmtree(probe, ignore_errors=True)
    return statistics.median(times)


def layer_metrics(workload, summary: dict, startup_s: float) -> dict[str, float]:
    """Per-layer metrics per round, from span sums, counts and the workload's own figures."""
    rounds = workload.rounds
    out: dict[str, float] = {}
    for name, (table, fns) in SPAN_METRICS.items():
        out[name] = sum(summary[table].get(fn, 0) for fn in fns) / rounds
    for name in COUNT_METRICS:
        out[name] = summary["counts"].get(name, 0) / rounds
    iters = out["solver.iters"]
    out["solver.us_per_iter"] = 1e6 * out["solver.pds_solve_self_s"] / iters if iters else 0.0
    for name in CLI_METRICS:
        out[name] = 0.0
    out.update(workload.layer_metrics())
    if startup_s:
        out["cli.startup_s"] = startup_s
    return out


def run(args) -> dict:
    sys.path.insert(0, str(SRC))
    import workloads
    from tracing import Tracer, merge_summaries

    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    out_dir = ROOT / ".perfbench_out"
    work.mkdir(parents=True)
    try:
        setup_s = measure_setup(args, work)
        wl = workloads.WORKLOADS[args.workload](args.seed, work, bool(args.trace))
        wl.setup()
        tracer = Tracer() if args.trace else None
        if tracer is not None:
            tracer.install()
        walls, cpus = [], []
        started = time.perf_counter()
        while True:
            c0, t0 = cpu_seconds(), time.perf_counter()
            outputs = wl.round()
            walls.append(time.perf_counter() - t0)
            cpus.append(cpu_seconds() - c0)
            wl.rounds += 1
            wl.check(outputs)
            elapsed = time.perf_counter() - started
            if wl.rounds >= wl.min_rounds and elapsed + max(walls) > args.seconds:
                break
        if tracer is not None:
            tracer.uninstall()
        for text in wl.problems:
            print(f"check failed: {text}", file=sys.stderr)
        if args.trace:
            summary = merge_summaries([tracer.summary(), *wl.traces])
            metrics = layer_metrics(wl, summary, wl.startup_probe())
            units = {name: layer_unit(name) for name in metrics}
        else:
            metrics = {
                "wall_s": statistics.median(walls),
                "cpu_s": statistics.median(cpus),
                "setup_s": setup_s,
                "peak_rss_mb": wl.peak_rss_mb(),
                "pair_accuracy": sum(wl.accuracy) / len(wl.accuracy) if wl.accuracy else 0.0,
            }
            units = END_TO_END_UNITS
        result = {
            "correct": not wl.problems,
            "attempted": wl.attempted,
            "failed": wl.failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        }
        out_dir.mkdir(exist_ok=True)
        stem = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}"
        detail = {"rounds": wl.rounds, "wall_s": walls, "cpu_s": cpus, "machine": machine_facts()}
        stem.with_suffix(".json").write_text(json.dumps({**result, **detail}, indent=1) + "\n")
        if tracer is not None:
            tracer.dump(f"{stem}.spans.json")
        print(json.dumps(detail))
        return result
    finally:
        shutil.rmtree(work, ignore_errors=True)


def setup_probe(args) -> None:
    sys.path.insert(0, str(SRC))
    import workloads

    work = Path(args.setup_probe)
    work.mkdir(parents=True, exist_ok=True)
    workloads.WORKLOADS[args.workload](args.seed, work, False).setup()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=["sbm-desk", "cli-static", "cloud-k5"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--setup-probe", default=None, help=argparse.SUPPRESS)
    args = ap.parse_args()
    if not (SRC / "tvclust" / "__init__.py").is_file():
        print(f"error: no tvclust sources under {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe is not None:
        setup_probe(args)
        return 0
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
