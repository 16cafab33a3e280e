"""The example scripts and the console-script entry start and print their help."""

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


def test_bench_pairs_summary():
    """Medians, inclusive quartiles and pairs won, on made-up results."""
    path = ROOT / "scripts" / "bench_pairs.py"
    spec = importlib.util.spec_from_file_location("bench_pairs", path)
    bench_pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_pairs)
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
