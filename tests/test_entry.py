"""The lazy package namespace and the one-BLAS-thread default of process entries."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import tvclust
from tvclust.cli import main
from tvclust.entry import THREAD_VARS, one_blas_thread

SRC = Path(__file__).resolve().parents[1] / "src"


def child_env(**extra):
    """This process's environment without any BLAS thread setting, plus extra."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["PYTHONPATH"] = str(SRC)
    env.update(extra)
    return env


def run_python(code, **kwargs):
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, **kwargs)


class TestLazyNamespace:
    def test_import_loads_neither_numpy_nor_scipy(self):
        res = run_python(
            "import sys, tvclust\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'scipy')))\n",
            env=child_env(),
        )
        assert res.returncode == 0, res.stderr
        assert res.stdout.strip() == "[]"

    def test_every_export_is_its_defining_modules_object(self):
        assert len(tvclust.__all__) == len(set(tvclust.__all__)) == 34
        for name in tvclust.__all__:
            module = importlib.import_module(f"tvclust.{tvclust._EXPORTS[name]}")
            assert getattr(tvclust, name) is getattr(module, name), name

    def test_dir_lists_exports_and_dunders(self):
        names = dir(tvclust)
        assert "__all__" in names and "__version__" in names
        assert set(tvclust.__all__) <= set(names)

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            tvclust.no_such_name  # noqa: B018

    def test_star_import_binds_every_export(self):
        ns = {}
        exec("from tvclust import *", ns)
        assert set(tvclust.__all__) <= ns.keys()


class TestOneBlasThread:
    def test_sets_one_thread_when_unset(self, monkeypatch):
        for var in THREAD_VARS:
            monkeypatch.delenv(var, raising=False)
        one_blas_thread()
        assert os.environ["OPENBLAS_NUM_THREADS"] == "1"

    @pytest.mark.parametrize("var", THREAD_VARS)
    def test_honours_a_caller_setting(self, monkeypatch, var):
        for other in THREAD_VARS:
            monkeypatch.delenv(other, raising=False)
        monkeypatch.setenv(var, "2")
        before = dict(os.environ)
        one_blas_thread()
        assert dict(os.environ) == before

    def test_import_cli_leaves_environ_unchanged(self):
        res = run_python(
            "import os\n"
            "before = dict(os.environ)\n"
            "import tvclust.cli\n"
            "assert dict(os.environ) == before\n"
            "assert 'OPENBLAS_NUM_THREADS' not in os.environ\n",
            env=child_env(),
        )
        assert res.returncode == 0, res.stderr

    def test_in_process_main_leaves_environ_unchanged(self):
        before = dict(os.environ)
        res = CliRunner().invoke(main, ["--help"])
        assert res.exit_code == 0, res.output
        assert dict(os.environ) == before


def test_cli_bytes_do_not_depend_on_thread_settings(tmp_path):
    """At n = 150 a two-thread eigh rounds differently from a one-thread one.

    `python -m tvclust.cli` defaults to one BLAS thread, so a caller without
    any thread setting gets the same bytes as one with OPENBLAS_NUM_THREADS=1,
    whatever the machine's core count. An explicit setting still takes effect.
    """
    def cli(*args, **extra):
        return subprocess.run([sys.executable, "-m", "tvclust.cli", *args], cwd=tmp_path,
                              env=child_env(**extra), capture_output=True, text=True,
                              timeout=300)

    res = cli("generate-sbm", "--n-per-cluster", "50", "--k", "3", "--t-len", "6",
              "--seed", "5", "--out", "data")
    assert res.returncode == 0, res.stderr
    graph = str(tmp_path / "data" / "graph_000.tvg")
    runs = {"default": {}, "one": {"OPENBLAS_NUM_THREADS": "1"},
            "two": {"OPENBLAS_NUM_THREADS": "2"}}
    for name, extra in runs.items():
        res = cli("eigengap", "--graph", graph, "--m", "4", "--out", name, **extra)
        assert res.returncode == 0, res.stderr
    default = (tmp_path / "default" / "eigengap.csv").read_bytes()
    assert default == (tmp_path / "one" / "eigengap.csv").read_bytes()
