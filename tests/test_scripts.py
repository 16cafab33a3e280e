"""The example scripts and the console-script entry start and print their help."""

import importlib
import os
import subprocess
import sys
import tomllib
from pathlib import Path

import pytest

from tvclust.entry import THREAD_VARS

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script", ["run_synthetic.py", "run_pointcloud_toy.py"])
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
