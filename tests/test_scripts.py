"""The example scripts and the console-script entry start and print their help;
the point-cloud example prints aligned label changes; the README's solver
example runs as written."""

import importlib
import importlib.util
import os
import subprocess
import sys
import tomllib
from pathlib import Path

import pytest

from tvclust.entry import THREAD_VARS

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script", ["run_synthetic.py", "run_pointcloud_toy.py", "bench_pairs.py"])
def test_script_help_runs(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    res = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), "--help"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert res.returncode == 0, res.stderr
    assert "usage:" in res.stdout


def test_pointcloud_toy_counts_aligned_label_changes():
    """k-means numbers the clusters of each frame afresh, so the printed label
    changes are counted after chain alignment: static-sc on a cloud of rigid
    parts recovers every frame and changes no label."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    args = ["--n-per-part", "6", "--t-len", "4", "--k", "4", "--seed", "0"]
    res = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_pointcloud_toy.py"), *args],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert res.returncode == 0, res.stderr
    (line,) = [ln for ln in res.stdout.splitlines() if ln.startswith("static-sc:")]
    assert "mean pair accuracy 1.0000" in line
    assert line.endswith("label changes after alignment 0")


def test_console_script_entry_runs_on_one_blas_thread():
    """The `tvclust` console script sets the BLAS default before the CLI loads."""
    with open(ROOT / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["tvclust"]
    module, func = target.split(":")
    assert callable(getattr(importlib.import_module(module), func))
    probe = (
        "import os, sys\n"
        f"from {module} import {func}\n"
        "try:\n"
        f"    {func}()\n"
        "except SystemExit as exc:\n"
        "    assert not exc.code, exc.code\n"
        "print('THREADS', os.environ.get('OPENBLAS_NUM_THREADS'))\n"
    )
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["PYTHONPATH"] = str(ROOT / "src")
    res = subprocess.run(
        [sys.executable, "-c", probe, "--help"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert res.returncode == 0, res.stderr
    assert "Usage:" in res.stdout
    assert res.stdout.splitlines()[-1] == "THREADS 1"


def test_readme_solver_example_runs():
    """The README's python block that calls pds_solve runs verbatim in a fresh
    interpreter: it imports and builds everything it uses."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = [b.split("```", 1)[0] for b in text.split("```python\n")[1:]]
    block = next(b for b in blocks if "pds_solve(" in b)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    res = subprocess.run(
        [sys.executable, "-c", block], env=env, capture_output=True, text=True, timeout=120,
    )
    assert res.returncode == 0, res.stderr


def _bench_pairs():
    path = ROOT / "scripts" / "bench_pairs.py"
    spec = importlib.util.spec_from_file_location("bench_pairs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_pairs_summary():
    """Medians, inclusive quartiles and pairs won, on made-up results."""
    bench_pairs = _bench_pairs()
    parent = [3.0, 1.0, 2.0, 4.0, 5.0]
    change = [2.0, 1.0, 2.5, 3.0, 1.0]
    pairs = [
        {"seed": s, "parent": {"cpu_s": p, "acc": p}, "change": {"cpu_s": c, "acc": c}}
        for s, p, c in zip(range(5), parent, change)
    ]
    got = bench_pairs.summarize(pairs, {"cpu_s": "lower", "acc": "higher"})
    assert got["cpu_s"]["parent"] == {"values": parent, "median": 3.0, "quartiles": [2.0, 4.0]}
    assert got["cpu_s"]["change"] == {"values": change, "median": 2.0, "quartiles": [1.0, 2.5]}
    assert (got["cpu_s"]["change_won"], got["cpu_s"]["tied"]) == (3, 1)
    assert (got["acc"]["change_won"], got["acc"]["tied"]) == (1, 1)
    assert got["acc"]["better"] == "higher"
    one = bench_pairs.summarize(pairs[:1], {"cpu_s": "lower"})["cpu_s"]
    assert one["parent"]["quartiles"] == [3.0, 3.0]
    # 3 of 5 pairs won is no gain; without a bound there is no bound verdict
    assert got["cpu_s"]["gain"] is False and got["cpu_s"]["within_bound"] is None
    bounded = bench_pairs.summarize(pairs, {"cpu_s": "lower", "acc": "higher"},
                                    {"cpu_s": 0.25, "acc": 0.25})
    # acc's median fell from 3.0 to 2.0, by more than a quarter of 3.0
    assert (bounded["cpu_s"]["within_bound"], bounded["acc"]["within_bound"]) == (True, False)


def _summary_of(parent, change, better="lower", bound=0.05):
    pairs = [{"seed": s, "parent": {"m": p}, "change": {"m": c}}
             for s, (p, c) in enumerate(zip(parent, change))]
    return _bench_pairs().summarize(pairs, {"m": better}, {"m": bound})["m"]


def test_bench_pairs_gain_and_bound():
    """A gain needs 9 of 10 pairs won, ties counting as no win, and a gap between
    the medians wider than the parent's interquartile distance; the bound is
    relative to the parent's median."""
    parent = [10.0, 11.0, 12.0, 10.5, 11.5, 10.0, 11.0, 12.0, 10.5, 11.5]  # median 11, IQR 1
    got = _summary_of(parent, [p - 2.0 for p in parent[:9]] + [13.0])
    assert (got["change_won"], got["gain"], got["within_bound"]) == (9, True, True)
    # 8 won and 2 tied is no gain
    got = _summary_of(parent, [p - 2.0 for p in parent[:8]] + parent[8:])
    assert (got["change_won"], got["tied"], got["gain"]) == (8, 2, False)
    # every pair won, but the medians are closer than the parent's spread
    got = _summary_of(parent, [p - 0.5 for p in parent])
    assert (got["change_won"], got["gain"]) == (10, False)
    # higher is better: the same gaps the other way round
    got = _summary_of(parent, [p + 2.0 for p in parent], better="higher")
    assert (got["change_won"], got["gain"], got["within_bound"]) == (10, True, True)
    # 5% of a median of 11 is 0.55: a change median of 11.5 is within, 11.66 is not
    assert _summary_of(parent, [p + 0.5 for p in parent], bound=0.05)["within_bound"] is True
    assert _summary_of(parent, [p + 0.66 for p in parent], bound=0.05)["within_bound"] is False
    assert _summary_of(parent, [p - 0.66 for p in parent], better="higher")["within_bound"] is False


def test_bench_pairs_records_differing_accuracy(capsys):
    """A seed whose pair_accuracy differs is recorded and the pairs go on; a failed
    check still stops the run."""
    bench_pairs = _bench_pairs()
    calls = []

    def run(tree, workload, seed, seconds):
        calls.append((tree, seed))
        acc = 0.5 if tree == "change" and seed == 11 else 0.75
        result = {"correct": True, "failed": 0,
                  "metrics": {"wall_s": {"value": float(seed)}, "pair_accuracy": {"value": acc}}}
        return result, {"machine": {"nproc": 2}}

    trees = {"parent": "parent", "change": "change"}
    better = {"wall_s": "lower", "pair_accuracy": "higher"}
    entry, machine = bench_pairs.run_pairs(run, trees, "w", 10, 3, 25, better)
    assert calls == [("parent", 10), ("change", 10), ("change", 11), ("parent", 11),
                     ("parent", 12), ("change", 12)]
    assert entry["seeds"] == [10, 11, 12]
    assert entry["first"] == ["parent", "change", "parent"]
    assert entry["pair_accuracy_differs"] == [{"seed": 11, "parent": 0.75, "change": 0.5}]
    assert entry["metrics"]["pair_accuracy"]["change"]["values"] == [0.75, 0.5, 0.75]
    assert entry["metrics"]["wall_s"]["tied"] == 3
    assert machine == {"nproc": 2}
    assert len(capsys.readouterr().out.splitlines()) == 3

    def failing(tree, workload, seed, seconds):
        result, detail = run(tree, workload, seed, seconds)
        result["failed"] = int(tree == "change")
        return result, detail

    with pytest.raises(SystemExit, match="change w seed 10: a check failed"):
        bench_pairs.run_pairs(failing, trees, "w", 10, 3, 25, better)
