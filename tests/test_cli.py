import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from oracle_utils import objective_oracle
from tvclust import fileio
from tvclust.cli import _solver_config, main
from tvclust.experiments import trial_seeds
from tvclust.clustering import LabelSequence, tv_cluster_multi
from tvclust.generators import SbmTvParams, sbm_tv_sequence
from tvclust.graphs import TVGraphSequence, WeightedGraph, dense_laplacian
from tvclust.solver import SolverConfig, SolverError


@pytest.fixture
def runner():
    return CliRunner()


def small_sequence(seed=0):
    params = SbmTvParams(n_per_cluster=6, k=2, t_len=4, p_intra=0.9, p_inter=0.1,
                         flip_prob=0.05, seed=seed)
    return sbm_tv_sequence(params)


def test_version_from_source_tree(runner):
    res = runner.invoke(main, ["--version"])
    assert res.exit_code == 0, res.output
    assert "0.1.0" in res.output


@pytest.mark.parametrize(
    "code",
    ["import tvclust", "import runpy; runpy.run_module('tvclust.cli', run_name='__main__')"],
    ids=["import", "cli-help"],
)
def test_import_and_help_leave_scipy_unloaded(code):
    probe = (
        "import sys\n"
        "sys.argv = ['tvclust', '--help']\n"
        "try:\n"
        f"    {code}\n"
        "except SystemExit:\n"
        "    pass\n"
        "loaded = {'scipy.sparse', 'scipy.linalg', 'scipy.optimize'} & sys.modules.keys()\n"
        "print('LOADED', sorted(loaded))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    res = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert res.stdout.splitlines()[-1] == "LOADED []"


@pytest.mark.parametrize(
    "args, forbidden",
    [
        (["evaluate", "--est", "runs", "--truth", "data", "--out", "eval", "--svg"], "scipy"),
        (["cluster", "--graph", "data", "--method", "static-sc", "--k", "2", "--out", "runs"],
         "scipy"),
        (["eigengap", "--graph", "data/graph_000.tvg", "--m", "3", "--out", "gaps"], "scipy"),
        (["cluster", "--graph", "data", "--method", "tv-pds", "--k", "3", "--max-iters", "20",
          "--out", "runs"], "scipy.linalg"),
        (["build-knn", "--cloud", "cloud", "--target-n", "8", "--k", "3", "--out", "knn"],
         "scipy"),
    ],
    ids=["evaluate", "cluster-static-sc", "eigengap", "cluster-tv-pds", "build-knn"],
)
def test_commands_leave_scipy_parts_unloaded(tmp_path, args, forbidden):
    seq, truth = small_sequence()
    (tmp_path / "data").mkdir()
    fileio.write_tvg(tmp_path / "data" / "graph_000.tvg", seq)
    fileio.write_labels(tmp_path / "data" / "truth_000.lbl", truth)
    (tmp_path / "runs").mkdir()
    fileio.write_labels(tmp_path / "runs" / "labels_000.lbl", truth)
    (tmp_path / "cloud").mkdir()
    for t in range(2):
        pts = np.random.default_rng(t).random((10, 3))
        np.savetxt(tmp_path / "cloud" / f"{t:03d}.csv", pts, delimiter=",")
    probe = (
        "import runpy, sys\n"
        f"sys.argv = ['tvclust', *{args!r}]\n"
        "try:\n"
        "    runpy.run_module('tvclust.cli', run_name='__main__')\n"
        "except SystemExit as exc:\n"
        "    assert not exc.code, exc.code\n"
        f"loaded = [m for m in sys.modules if m == {forbidden!r} or m.startswith({forbidden!r} + '.')]\n"
        "print('LOADED', sorted(loaded))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    res = subprocess.run(
        [sys.executable, "-c", probe], cwd=tmp_path, env=env, capture_output=True, text=True
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[-1] == "LOADED []"


@pytest.mark.parametrize("seed", [-1, np.int64(-5)])
def test_trial_seeds_reject_negative_seed(seed):
    with pytest.raises(ValueError, match="seed must be >= 0"):
        trial_seeds(seed, 3)
    # no trials used to give no seeds
    with pytest.raises(ValueError, match="trials must be >= 1"):
        trial_seeds(1, 0)


def test_one_config_file_serves_both_commands(runner, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "n_per_cluster": 5, "k": 2, "t_len": 3, "p_intra": 0.9, "p_inter": 0.1,
        "flip_prob": 0.05, "seed": 2, "trials": 1, "alpha": 2.0, "max_iters": 20,
    }), encoding="utf-8")
    data, run = tmp_path / "data", tmp_path / "run"
    res = runner.invoke(main, ["generate-sbm", "--out", str(data), "--config", str(cfg)])
    assert res.exit_code == 0, res.output
    res = runner.invoke(main, [
        "cluster", "--graph", str(data), "--method", "tv-pds", "--config", str(cfg),
        "--out", str(run),
    ])
    assert res.exit_code == 0, res.output
    report = json.loads((run / "report_graph_000.json").read_text())
    assert report["k"] == 2 and max(report["iterations"]) <= 20


class TestFileFormats:
    def test_tvg_round_trip(self, tmp_path):
        seq, _ = small_sequence()
        path = tmp_path / "g.tvg"
        fileio.write_tvg(path, seq)
        assert fileio.read_tvg(path) == seq
        first = path.read_text(encoding="utf-8").splitlines()[0]
        assert first == f"tvg 1 {seq.n} {seq.t_len}"

    def test_tvg_writer_matches_per_edge_repr(self, tmp_path):
        # the per-edge formatter the writer replaced, as the format defines each line
        def per_edge(seq):
            lines = [f"tvg 1 {seq.n} {seq.t_len}"]
            for t, g in enumerate(seq.graphs):
                lines += [f"{t} {a} {b} {float(c)!r}" for a, b, c in zip(*g.edge_arrays())]
            return "\n".join(lines) + "\n"

        weights = [1.0, 0.1, 3.0, 1e-300, 5e-324, 0.0, -0.0, 1 / 3, 1.0, 0.1, 2.5e10]
        edges = [(a, a + 1 + b, w) for a, (b, w) in enumerate(zip([0, 2, 1] * 4, weights))]
        seq = TVGraphSequence((
            WeightedGraph(14, edges),
            WeightedGraph(14),
            WeightedGraph(14, edges[::-2]),
            WeightedGraph(14, [(0, 13, 0.5)]),
        ))
        fileio.write_tvg(tmp_path / "g.tvg", seq)
        assert (tmp_path / "g.tvg").read_bytes() == per_edge(seq).encode("utf-8")
        assert fileio.read_tvg(tmp_path / "g.tvg") == seq
        sbm, _ = small_sequence(seed=5)
        fileio.write_tvg(tmp_path / "sbm.tvg", sbm)
        assert (tmp_path / "sbm.tvg").read_bytes() == per_edge(sbm).encode("utf-8")

    def test_tvg_fractional_weights_round_trip(self, tmp_path):
        g = WeightedGraph(3, [(0, 1, 0.1), (1, 2, 1 / 3)])
        seq = TVGraphSequence((g,))
        fileio.write_tvg(tmp_path / "g.tvg", seq)
        assert fileio.read_tvg(tmp_path / "g.tvg") == seq

    def test_tvg_reader_accepts_any_frame_order(self, tmp_path):
        # frames out of order, blank lines and a frame (1 of 4) with no edges
        path = tmp_path / "g.tvg"
        path.write_text(
            "\ntvg 1 4 4\n2 0 1 0.5\n\n0 2 3 1.0\n  \n3 1 2 0.25\n0 0 1 2.0\n2 2 3 1.5\n\n",
            encoding="utf-8",
        )
        want = TVGraphSequence((
            WeightedGraph(4, [(2, 3, 1.0), (0, 1, 2.0)]),
            WeightedGraph(4),
            WeightedGraph(4, [(0, 1, 0.5), (2, 3, 1.5)]),
            WeightedGraph(4, [(1, 2, 0.25)]),
        ))
        assert fileio.read_tvg(path) == want
        fileio.write_tvg(tmp_path / "again.tvg", want)
        assert fileio.read_tvg(tmp_path / "again.tvg") == want

    @pytest.mark.parametrize("body", ["", "\n\n"])
    def test_tvg_without_edges(self, tmp_path, body):
        path = tmp_path / "g.tvg"
        path.write_text("tvg 1 3 2\n" + body, encoding="utf-8")
        assert fileio.read_tvg(path) == TVGraphSequence((WeightedGraph(3), WeightedGraph(3)))

    def test_tvg_trailing_empty_frames_round_trip(self, tmp_path):
        seq = TVGraphSequence((WeightedGraph(3, [(0, 2, 1.0)]), WeightedGraph(3), WeightedGraph(3)))
        fileio.write_tvg(tmp_path / "g.tvg", seq)
        assert fileio.read_tvg(tmp_path / "g.tvg") == seq

    @pytest.mark.parametrize(
        "line, message",
        [
            ("0 1 2", "bad edge line"),
            ("0 1 2 0.5 7", "bad edge line"),
            ("2 0 1 0.5", "frame index 2 out of range"),
            ("-1 0 1 0.5", "frame index -1 out of range"),
            ("0.5 0 1 0.5", "bad edge line"),
            ("0 x 1 0.5", "bad edge line"),
            ("0 0 5 1.0", "edge endpoint out of range"),
            ("1 2 2 1.0", "self-loops"),
        ],
    )
    def test_tvg_bad_edge_lines_name_the_file(self, tmp_path, line, message):
        path = tmp_path / "broken.tvg"
        path.write_text(f"tvg 1 3 2\n0 0 1 1.0\n{line}\n", encoding="utf-8")
        with pytest.raises(ValueError, match=message) as info:
            fileio.read_tvg(path)
        assert str(path) in str(info.value)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("tvg 1 x 4\n", "bad graph header 'tvg 1 x 4'"),
            ("tvg 1 3\n", "bad graph header"),
            ("tvg 2 3 1\n", "unsupported graph format version 2"),
            ("\n", "empty graph file"),
        ],
    )
    def test_tvg_bad_headers_name_the_file(self, tmp_path, text, message):
        path = tmp_path / "broken.tvg"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match=message) as info:
            fileio.read_tvg(path)
        assert str(info.value).startswith(f"{path}: ")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("lbl 1 3 1 2\n0 1 z\n", "invalid literal"),
            ("lbl 1 3 1 2\n0 1 5\n", r"labels must lie in \[0, k\)"),
            ("lbl 1 3 1 2\n0 1\n", "expected 3 labels per row"),
            ("lbl 1 3 2 2\n0 1 1\n", "expected 2 label rows"),
            ("lbl 1 x 1 2\n0 1 1\n", "bad labels header"),
            ("lbl 1 3 1 0\n0 1 1\n", "k must be >= 1"),
            ("", "empty labels file"),
        ],
    )
    def test_labels_bad_lines_name_the_file(self, tmp_path, text, message):
        path = tmp_path / "broken.lbl"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match=message) as info:
            fileio.read_labels(path)
        assert str(info.value).startswith(f"{path}: ")

    def test_labels_round_trip(self, tmp_path):
        _, labels = small_sequence()
        path = tmp_path / "l.lbl"
        fileio.write_labels(path, labels)
        assert fileio.read_labels(path) == labels
        first = path.read_text(encoding="utf-8").splitlines()[0]
        assert first == f"lbl 1 {labels.n} {labels.t_len} {labels.k}"

    def test_lf_line_endings(self, tmp_path):
        seq, labels = small_sequence()
        fileio.write_tvg(tmp_path / "g.tvg", seq)
        fileio.write_labels(tmp_path / "l.lbl", labels)
        for name in ("g.tvg", "l.lbl"):
            raw = (tmp_path / name).read_bytes()
            assert b"\r" not in raw and raw.endswith(b"\n")

    def test_bad_headers(self, tmp_path):
        p = tmp_path / "bad.tvg"
        p.write_text("nope 1 2 3\n", encoding="utf-8")
        with pytest.raises(ValueError, match="header"):
            fileio.read_tvg(p)
        q = tmp_path / "bad.lbl"
        q.write_text("lbl 99 2 1 2\n0 1\n", encoding="utf-8")
        with pytest.raises(ValueError, match="version"):
            fileio.read_labels(q)


class TestGenerateSbm:
    def test_writes_files_and_summary(self, runner, tmp_path):
        out = tmp_path / "data"
        res = runner.invoke(main, [
            "generate-sbm", "--out", str(out), "--n-per-cluster", "5", "--k", "2",
            "--t-len", "3", "--p-intra", "0.9", "--p-inter", "0.1",
            "--flip-prob", "0.0", "--seed", "7",
        ])
        assert res.exit_code == 0, res.output
        assert (out / "graph_000.tvg").exists() and (out / "truth_000.lbl").exists()
        assert "N=10 T=3 K=2" in res.output

    def test_deterministic_bytes(self, runner, tmp_path):
        args = ["generate-sbm", "--n-per-cluster", "5", "--k", "2", "--t-len", "3",
                "--seed", "3"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert runner.invoke(main, args + ["--out", str(a)]).exit_code == 0
        assert runner.invoke(main, args + ["--out", str(b)]).exit_code == 0
        for name in ("graph_000.tvg", "truth_000.lbl"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_invalid_params_exit_1(self, runner, tmp_path):
        res = runner.invoke(main, [
            "generate-sbm", "--out", str(tmp_path / "x"),
            "--p-intra", "0.1", "--p-inter", "0.5",
        ])
        assert res.exit_code == 1

    def test_negative_seed_exit_1(self, runner, tmp_path):
        # numpy's SeedSequence used to reject it with its own message
        out = tmp_path / "x"
        res = runner.invoke(main, ["generate-sbm", "--out", str(out), "--seed", "-1"])
        assert res.exit_code == 1, res.output
        assert "Error: seed must be >= 0" in res.output
        assert not out.exists()

    def test_zero_trials_exit_1(self, runner, tmp_path):
        out = tmp_path / "x"
        res = runner.invoke(main, ["generate-sbm", "--out", str(out), "--trials", "0"])
        assert res.exit_code == 1, res.output
        assert "Error: trials must be >= 1" in res.output
        assert not out.exists()

    def test_trials_write_multiple(self, runner, tmp_path):
        out = tmp_path / "multi"
        res = runner.invoke(main, [
            "generate-sbm", "--out", str(out), "--n-per-cluster", "4", "--k", "2",
            "--t-len", "2", "--trials", "3", "--seed", "1",
        ])
        assert res.exit_code == 0
        assert sorted(p.name for p in out.glob("*.tvg")) == [
            "graph_000.tvg", "graph_001.tvg", "graph_002.tvg"
        ]

    @pytest.mark.parametrize(
        "config, key",
        [({"n_per_cluster": 2.5}, "n_per_cluster"), ({"p_intra": "high"}, "p_intra"),
         ({"trials": True}, "trials"), ({"seed": None}, "seed")],
    )
    def test_wrong_typed_config_value_exit_1(self, runner, tmp_path, config, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config), encoding="utf-8")
        out = tmp_path / "x"
        res = runner.invoke(main, ["generate-sbm", "--out", str(out), "--config", str(cfg)])
        assert res.exit_code == 1, res.output
        assert f"{key} must be" in res.output
        assert not list(out.glob("*.tvg"))

    def test_unknown_config_key_exit_1(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_per_cluster": 5, "p_intar": 0.5}), encoding="utf-8")
        out = tmp_path / "x"
        res = runner.invoke(main, ["generate-sbm", "--out", str(out), "--config", str(cfg)])
        assert res.exit_code == 1, res.output
        assert "unknown config keys: p_intar" in res.output
        assert not out.exists()


class TestCluster:
    def test_tv_pds_labels_shape(self, runner, tmp_path):
        seq, _ = small_sequence(seed=1)
        fileio.write_tvg(tmp_path / "g.tvg", seq)
        out = tmp_path / "run"
        res = runner.invoke(main, [
            "cluster", "--graph", str(tmp_path / "g.tvg"), "--method", "tv-pds",
            "--k", "2", "--seed", "5", "--out", str(out),
        ])
        assert res.exit_code == 0, res.output
        labels = fileio.read_labels(out / "est_g.lbl")
        assert labels.t_len == seq.t_len and labels.n == seq.n and labels.k == 2
        report = json.loads((out / "report_g.json").read_text())
        assert {
            "iterations", "converged", "final_objective", "beta", "wall_time_s"
        } <= report.keys()
        assert "beta_converged" not in report  # beta is exact, so it cannot fail to converge

    def test_final_objective_describes_returned_iterate(self, runner, tmp_path):
        # a capped solve: the last iterate visited is not the one returned
        seq, _ = sbm_tv_sequence(SbmTvParams(10, 2, 6, 0.5, 0.2, 0.05, seed=4))
        fileio.write_tvg(tmp_path / "g.tvg", seq)
        out = tmp_path / "run"
        res = runner.invoke(main, [
            "cluster", "--graph", str(tmp_path / "g.tvg"), "--method", "tv-pds",
            "--k", "2", "--alpha", "2.0", "--max-iters", "200", "--seed", "4",
            "--out", str(out),
        ])
        assert res.exit_code == 0, res.output
        report = json.loads((out / "report_g.json").read_text())
        cfg = SolverConfig(alpha=2.0, max_iters=200, seed=report["seed"])
        labels, _, (solve,) = tv_cluster_multi(seq, 2, cfg)
        assert np.array_equal(fileio.read_labels(out / "est_g.lbl").labels, labels.labels)
        want = objective_oracle([dense_laplacian(g) for g in seq.graphs], solve.c, cfg.alpha)
        assert report["converged"] is False
        assert report["final_objective"] == [pytest.approx(want, rel=1e-12)]
        assert report["beta"] == [solve.beta]

    def test_report_lists_beta_per_level(self, runner, tmp_path):
        seq, _ = sbm_tv_sequence(SbmTvParams(5, 3, 4, 0.8, 0.1, 0.05, seed=6))
        fileio.write_tvg(tmp_path / "g.tvg", seq)
        out = tmp_path / "run"
        res = runner.invoke(main, [
            "cluster", "--graph", str(tmp_path / "g.tvg"), "--method", "tv-pds",
            "--k", "3", "--max-iters", "50", "--seed", "2", "--out", str(out),
        ])
        assert res.exit_code == 0, res.output
        report = json.loads((out / "report_g.json").read_text())
        cfg = SolverConfig(max_iters=50, seed=report["seed"])
        _, _, results = tv_cluster_multi(seq, 3, cfg)
        assert report["beta"] == [r.beta for r in results]
        assert len(report["beta"]) == len(report["iterations"]) == 2

    def test_static_sc_report_has_no_solver_fields(self, runner, tmp_path):
        seq, _ = small_sequence(seed=2)
        fileio.write_tvg(tmp_path / "g.tvg", seq)
        out = tmp_path / "run"
        res = runner.invoke(main, [
            "cluster", "--graph", str(tmp_path / "g.tvg"), "--method", "static-sc",
            "--k", "2", "--seed", "5", "--out", str(out),
        ])
        assert res.exit_code == 0, res.output
        report = json.loads((out / "report_g.json").read_text())
        assert not {"iterations", "final_objective", "beta", "beta_converged"} & report.keys()
        assert "wall_time_s" in report

    @pytest.mark.parametrize(
        "flags, named",
        [
            (["--alpha", "5"], "--alpha"),
            (["--max-iters", "3"], "--max-iters"),
            (["--alpha", "5", "--max-iters", "3"], "--alpha, --max-iters"),
        ],
        ids=["alpha", "max-iters", "both"],
    )
    def test_static_sc_rejects_solver_flags(self, runner, tmp_path, flags, named):
        seq, _ = small_sequence(seed=2)
        fileio.write_tvg(tmp_path / "g.tvg", seq)
        out = tmp_path / "run"
        res = runner.invoke(main, [
            "cluster", "--graph", str(tmp_path / "g.tvg"), "--method", "static-sc",
            "--k", "2", *flags, "--out", str(out),
        ])
        assert res.exit_code == 1, res.output
        assert f"{named} only apply to --method tv-pds" in res.output
        assert not out.exists()

    @pytest.mark.parametrize("method", ["static-sc", "tv-pds"])
    def test_negative_seed_exit_1(self, runner, tmp_path, method):
        seq, _ = small_sequence()
        fileio.write_tvg(tmp_path / "g.tvg", seq)
        out = tmp_path / "run"
        res = runner.invoke(main, [
            "cluster", "--graph", str(tmp_path / "g.tvg"), "--method", method,
            "--seed", "-1", "--out", str(out),
        ])
        assert res.exit_code == 1, res.output
        assert "Error: seed must be >= 0" in res.output
        assert not out.exists()

    @pytest.mark.parametrize("method", ["static-sc", "tv-pds"])
    def test_refused_k_leaves_no_out_directory(self, runner, tmp_path, method):
        # the library refuses k only once it has read a graph, which used to be
        # after --out was made
        seq, _ = small_sequence()
        fileio.write_tvg(tmp_path / "g.tvg", seq)
        out = tmp_path / "run"
        res = runner.invoke(main, [
            "cluster", "--graph", str(tmp_path / "g.tvg"), "--method", method,
            "--k", str(seq.n + 1), "--out", str(out),
        ])
        assert res.exit_code == 1, res.output
        assert f"Error: k must be in [2, {seq.n}], got {seq.n + 1}" in res.output
        assert not out.exists()

    def test_static_sc_accepts_solver_config_keys(self, runner, tmp_path):
        seq, _ = small_sequence(seed=2)
        fileio.write_tvg(tmp_path / "g.tvg", seq)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"alpha": 5.0, "max_iters": 3}), encoding="utf-8")
        out = tmp_path / "run"
        res = runner.invoke(main, [
            "cluster", "--graph", str(tmp_path / "g.tvg"), "--method", "static-sc",
            "--k", "2", "--config", str(cfg), "--out", str(out),
        ])
        assert res.exit_code == 0, res.output
        assert (out / "est_g.lbl").exists()

    def test_config_file_with_flag_override(self, runner, tmp_path):
        seq, _ = small_sequence(seed=3)
        fileio.write_tvg(tmp_path / "g.tvg", seq)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"alpha": 2.0, "k": 2, "max_iters": 50}), encoding="utf-8")
        out = tmp_path / "run"
        res = runner.invoke(main, [
            "cluster", "--graph", str(tmp_path / "g.tvg"), "--method", "tv-pds",
            "--config", str(cfg), "--max-iters", "75", "--seed", "1", "--out", str(out),
        ])
        assert res.exit_code == 0, res.output
        report = json.loads((out / "report_g.json").read_text())
        assert max(report["iterations"]) <= 75

    @pytest.mark.parametrize(
        "config, key",
        [({"alpha": "abc"}, "alpha"), ({"max_iters": 2.7}, "max_iters"),
         ({"max_iters": True}, "max_iters"), ({"alpha": [0.1]}, "alpha"), ({"k": 2.5}, "k")],
    )
    def test_wrong_typed_config_value_exit_1(self, runner, tmp_path, config, key):
        seq, _ = small_sequence(seed=3)
        fileio.write_tvg(tmp_path / "g.tvg", seq)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config), encoding="utf-8")
        out = tmp_path / "run"
        res = runner.invoke(main, [
            "cluster", "--graph", str(tmp_path / "g.tvg"), "--method", "tv-pds",
            "--config", str(cfg), "--seed", "1", "--out", str(out),
        ])
        assert res.exit_code == 1, res.output
        assert f"{key} must be" in res.output
        assert not (out / "est_g.lbl").exists()

    @pytest.mark.parametrize(
        "config, keys",
        [({"alpah": 50, "max_iter": 3}, "alpah, max_iter"), ({"gamma1": 0.1}, "gamma1"),
         ({"gamma2": 0.1}, "gamma2"), ({"epsilon": None}, "epsilon"), ({"sigma": 1e-5}, "sigma")],
        ids=["typos", "gamma1", "gamma2", "epsilon", "sigma"],
    )
    def test_unknown_config_key_exit_1(self, runner, tmp_path, config, keys):
        """Misspelt keys, and the step-size, slab and stopping keys that the solver
        derives from the data, fail before anything is written."""
        seq, _ = small_sequence(seed=3)
        fileio.write_tvg(tmp_path / "g.tvg", seq)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config), encoding="utf-8")
        out = tmp_path / "run"
        res = runner.invoke(main, [
            "cluster", "--graph", str(tmp_path / "g.tvg"), "--method", "tv-pds",
            "--k", "2", "--config", str(cfg), "--out", str(out),
        ])
        assert res.exit_code == 1, res.output
        assert f"unknown config keys: {keys}" in res.output
        assert not out.exists()

    def test_solver_options_are_solver_config_fields(self):
        """Each SolverConfig field but seed is both a cluster flag and a config key."""
        fields = {f.name for f in dataclasses.fields(SolverConfig)} - {"seed"}
        other = {"graph_path", "method", "k", "seed", "out_path", "config_path"}
        options = {p.name for p in main.commands["cluster"].params} - other
        assert options == fields

        read = set()

        class Recording(dict):
            def get(self, key, default=None):
                read.add(key)
                return super().get(key, default)

        _solver_config(Recording(), seed=0)
        assert read == fields

    @pytest.mark.parametrize(
        "flags, config",
        [(["--alpha", "nan"], None), (["--alpha", "inf"], None),
         ([], '{"alpha": Infinity}'), ([], '{"alpha": NaN}')],
        ids=["alpha-nan", "alpha-inf", "config-infinity", "config-nan"],
    )
    def test_non_finite_solver_value_exit_1(self, runner, tmp_path, flags, config):
        seq, _ = small_sequence(seed=3)
        fileio.write_tvg(tmp_path / "g.tvg", seq)
        if config is not None:
            (tmp_path / "cfg.json").write_text(config, encoding="utf-8")
            flags = ["--config", str(tmp_path / "cfg.json")]
        out = tmp_path / "run"
        res = runner.invoke(main, [
            "cluster", "--graph", str(tmp_path / "g.tvg"), "--method", "tv-pds",
            "--k", "2", "--max-iters", "50", "--seed", "1", "--out", str(out), *flags,
        ])
        assert res.exit_code == 1, res.output
        assert "must be finite" in res.output
        assert not (out / "est_g.lbl").exists()

    def test_integral_float_config_values_are_accepted(self, runner, tmp_path):
        seq, _ = small_sequence(seed=3)
        fileio.write_tvg(tmp_path / "g.tvg", seq)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"max_iters": 30.0, "k": 2.0, "alpha": 1}), encoding="utf-8")
        out = tmp_path / "run"
        res = runner.invoke(main, [
            "cluster", "--graph", str(tmp_path / "g.tvg"), "--method", "tv-pds",
            "--config", str(cfg), "--seed", "1", "--out", str(out),
        ])
        assert res.exit_code == 0, res.output
        report = json.loads((out / "report_g.json").read_text())
        assert report["k"] == 2 and max(report["iterations"]) <= 30

    def test_solver_error_exit_2(self, runner, tmp_path, monkeypatch):
        def breakdown(*args):
            raise SolverError("all-zero frame at iteration 3")

        monkeypatch.setattr("tvclust.cli.tv_cluster_multi", breakdown)
        seq, _ = small_sequence(seed=3)
        fileio.write_tvg(tmp_path / "g.tvg", seq)
        out = tmp_path / "run"
        res = runner.invoke(main, [
            "cluster", "--graph", str(tmp_path / "g.tvg"), "--method", "tv-pds",
            "--seed", "1", "--out", str(out),
        ])
        assert res.exit_code == 2
        assert "error: all-zero frame at iteration 3" in res.output
        assert not (out / "est_g.lbl").exists()

    @pytest.mark.parametrize(
        "k, params, lbl_sha, report_sha",
        [
            (2, SbmTvParams(10, 2, 6, 0.5, 0.2, 0.05, seed=4),
             "e128dbf32c701a80bd157e8c02a05020ca556052a38114345dda90482645e489",
             "c95835812ae7200d369a6b8e4fb5882f502009a7d9610aa6141ecd4493d203a3"),
            (3, SbmTvParams(8, 3, 5, 0.7, 0.1, 0.05, seed=6),
             "7b6a88af626284a2bba455c790709f462ed652f45ba16a91d0c825d3a040b16e",
             "9873776b328c33071e6ee14ce11600732dad89ba3e51e59f0bec3747a6903e19"),
        ],
        ids=["k2", "k3"],
    )
    def test_tv_pds_output_is_pinned(self, runner, tmp_path, k, params, lbl_sha, report_sha):
        """SHA-256 of the label file and of the run report without wall_time_s.

        Both cases run capped solves, and the digests were recaptured when a
        capped solve began to return its re-projected start whenever that scores
        below its re-projected best iterate (k = 2 at its one level, k = 3 at its
        second). The k = 3 label digest was recaptured again when the k-means
        restarts of a frame began to draw from one generator: every frame keeps
        its partition under new label names. Both report digests were recaptured
        when beta became an exact eigenvalue, and the k = 2 label digest too: its
        warm start, now from numpy's eigh, has the opposite sign, which swaps
        labels 0 and 1 in every frame. The k = 3 report digest was recaptured
        once more when the warm start and the re-projection began to share one
        slab kernel: its final objectives moved in their last bits, its labels
        did not. Like tests/test_solver.py::TestBitIdentity they hold for one
        numpy, scipy and OpenBLAS build.
        """
        seq, _ = sbm_tv_sequence(params)
        fileio.write_tvg(tmp_path / "g.tvg", seq)
        out = tmp_path / "run"
        res = runner.invoke(main, [
            "cluster", "--graph", str(tmp_path / "g.tvg"), "--method", "tv-pds",
            "--k", str(k), "--alpha", "2.0", "--max-iters", "300", "--seed", "11",
            "--out", str(out),
        ])
        assert res.exit_code == 0, res.output
        report = json.loads((out / "report_g.json").read_text())
        del report["wall_time_s"]
        canonical = json.dumps(report, indent=2, sort_keys=True).encode()
        assert hashlib.sha256((out / "est_g.lbl").read_bytes()).hexdigest() == lbl_sha
        assert hashlib.sha256(canonical).hexdigest() == report_sha

    @pytest.mark.parametrize(
        "k, params, lbl_sha",
        [
            (2, SbmTvParams(10, 2, 6, 0.8, 0.3, 0.05, seed=4),
             "7885f7935150b91c590a2c7c19345ad2501ae97eaf0e4cd71317418ad0944975"),
            (3, SbmTvParams(8, 3, 5, 0.8, 0.2, 0.05, seed=6),
             "112e2fbbc032afc519b22cf121c6a9b10533b88eef0bd6116476327829f0c344"),
        ],
        ids=["k2", "k3"],
    )
    def test_static_sc_output_is_pinned(self, runner, tmp_path, k, params, lbl_sha):
        """SHA-256 of the static-sc label file on dense sequences.

        Every frame is connected and its k-th and (k+1)-th smallest Laplacian
        eigenvalues are at least 0.6 apart, so the k eigenvectors span a
        well-separated subspace and the labels do not depend on the LAPACK
        driver that computes them. Like test_tv_pds_output_is_pinned they hold
        for one numpy and OpenBLAS build.
        """
        seq, _ = sbm_tv_sequence(params)
        fileio.write_tvg(tmp_path / "g.tvg", seq)
        out = tmp_path / "run"
        res = runner.invoke(main, [
            "cluster", "--graph", str(tmp_path / "g.tvg"), "--method", "static-sc",
            "--k", str(k), "--seed", "11", "--out", str(out),
        ])
        assert res.exit_code == 0, res.output
        assert hashlib.sha256((out / "est_g.lbl").read_bytes()).hexdigest() == lbl_sha

    def test_directory_input_runs_all_trials(self, runner, tmp_path):
        data = tmp_path / "data"
        data.mkdir()
        for i in range(2):
            seq, _ = small_sequence(seed=10 + i)
            fileio.write_tvg(data / f"graph_{i:03d}.tvg", seq)
        out = tmp_path / "runs"
        res = runner.invoke(main, [
            "cluster", "--graph", str(data), "--method", "static-sc", "--k", "2",
            "--seed", "0", "--out", str(out),
        ])
        assert res.exit_code == 0, res.output
        assert len(list(out.glob("est_*.lbl"))) == 2

    def test_directory_input_names_the_broken_file(self, runner, tmp_path):
        data = tmp_path / "data"
        data.mkdir()
        seq, _ = small_sequence(seed=10)
        fileio.write_tvg(data / "graph_000.tvg", seq)
        (data / "graph_001.tvg").write_text("tvg 1 3 1\n0 0 5 1.0\n", encoding="utf-8")
        res = runner.invoke(main, [
            "cluster", "--graph", str(data), "--method", "static-sc", "--k", "2",
            "--seed", "0", "--out", str(tmp_path / "runs"),
        ])
        assert res.exit_code == 1
        assert f"{data / 'graph_001.tvg'}: edge endpoint out of range" in res.output


class TestEvaluate:
    def test_perfect_estimate_scores_one(self, runner, tmp_path):
        _, labels = small_sequence(seed=4)
        fileio.write_labels(tmp_path / "est.lbl", labels)
        fileio.write_labels(tmp_path / "truth.lbl", labels)
        out = tmp_path / "eval"
        res = runner.invoke(main, [
            "evaluate", "--est", str(tmp_path / "est.lbl"),
            "--truth", str(tmp_path / "truth.lbl"), "--out", str(out),
        ])
        assert res.exit_code == 0, res.output
        rows = (out / "accuracy.csv").read_text().splitlines()
        assert rows[0] == "t,acc_000,mean"
        for row in rows[1:]:
            assert row.split(",")[1] == "1.0"
        assert "mean=1.0" in (out / "summary.txt").read_text()

    def test_multi_trial_mean_column(self, runner, tmp_path):
        rng = np.random.default_rng(0)
        est_dir, truth_dir = tmp_path / "est", tmp_path / "truth"
        est_dir.mkdir(), truth_dir.mkdir()
        for i in range(3):
            t = LabelSequence(rng.integers(0, 2, (4, 8)), 2)
            e = LabelSequence(rng.integers(0, 2, (4, 8)), 2)
            fileio.write_labels(truth_dir / f"{i}.lbl", t)
            fileio.write_labels(est_dir / f"{i}.lbl", e)
        out = tmp_path / "eval"
        res = runner.invoke(main, [
            "evaluate", "--est", str(est_dir), "--truth", str(truth_dir),
            "--out", str(out),
        ])
        assert res.exit_code == 0, res.output
        rows = (out / "accuracy.csv").read_text().splitlines()
        assert rows[0] == "t,acc_000,acc_001,acc_002,mean"
        for row in rows[1:]:
            cells = [float(x) for x in row.split(",")[1:]]
            assert abs(cells[-1] - np.mean(cells[:-1])) <= 1e-12

    def test_svg_flag(self, runner, tmp_path):
        _, labels = small_sequence(seed=5)
        fileio.write_labels(tmp_path / "est.lbl", labels)
        fileio.write_labels(tmp_path / "truth.lbl", labels)
        out = tmp_path / "eval"
        res = runner.invoke(main, [
            "evaluate", "--est", str(tmp_path / "est.lbl"),
            "--truth", str(tmp_path / "truth.lbl"), "--out", str(out), "--svg",
        ])
        assert res.exit_code == 0
        svg = (out / "accuracy.svg").read_text()
        assert svg.startswith("<svg") and "polyline" in svg

    def test_shape_mismatch_exit_1(self, runner, tmp_path):
        _, l1 = small_sequence(seed=6)
        params = SbmTvParams(n_per_cluster=4, k=2, t_len=4, p_intra=0.9,
                             p_inter=0.1, flip_prob=0.0, seed=0)
        _, l2 = sbm_tv_sequence(params)
        fileio.write_labels(tmp_path / "est.lbl", l1)
        fileio.write_labels(tmp_path / "truth.lbl", l2)
        res = runner.invoke(main, [
            "evaluate", "--est", str(tmp_path / "est.lbl"),
            "--truth", str(tmp_path / "truth.lbl"), "--out", str(tmp_path / "o"),
        ])
        assert res.exit_code == 1


class TestBuildKnn:
    def write_cloud(self, root, t_len=3, n=12):
        rng = np.random.default_rng(0)
        root.mkdir()
        base = rng.random((n, 3))
        for t in range(t_len):
            pts = base + 0.01 * t
            with open(root / f"{t:03d}.csv", "w", encoding="utf-8", newline="\n") as fh:
                for row in pts:
                    fh.write(",".join(repr(float(v)) for v in row) + "\n")

    def test_negative_seed_exit_1(self, runner, tmp_path):
        cloud = tmp_path / "cloud"
        self.write_cloud(cloud)
        out = tmp_path / "out"
        res = runner.invoke(main, [
            "build-knn", "--cloud", str(cloud), "--target-n", "6", "--seed", "-1",
            "--out", str(out),
        ])
        assert res.exit_code == 1, res.output
        assert "Error: seed must be >= 0" in res.output
        assert not out.exists()

    def test_round_trip(self, runner, tmp_path):
        cloud = tmp_path / "cloud"
        self.write_cloud(cloud)
        out = tmp_path / "out"
        res = runner.invoke(main, [
            "build-knn", "--cloud", str(cloud), "--k", "3", "--out", str(out),
        ])
        assert res.exit_code == 0, res.output
        seq = fileio.read_tvg(out / "graph.tvg")
        assert seq.t_len == 3 and seq.n == 12
        degrees = np.zeros(12, int)
        for i, j, _ in zip(*seq.graphs[0].edge_arrays()):
            degrees[i] += 1
            degrees[j] += 1
        assert degrees.min() >= 3

    def test_downsampling(self, runner, tmp_path):
        cloud = tmp_path / "cloud"
        self.write_cloud(cloud)
        out = tmp_path / "out"
        res = runner.invoke(main, [
            "build-knn", "--cloud", str(cloud), "--k", "2", "--target-n", "6",
            "--seed", "1", "--out", str(out),
        ])
        assert res.exit_code == 0
        assert fileio.read_tvg(out / "graph.tvg").n == 6

    def test_k_too_large_exits_before_write(self, runner, tmp_path):
        cloud = tmp_path / "cloud"
        self.write_cloud(cloud, n=5)
        out = tmp_path / "out"
        res = runner.invoke(main, [
            "build-knn", "--cloud", str(cloud), "--k", "5", "--out", str(out),
        ])
        assert res.exit_code == 1
        assert not out.exists()


class TestEigengap:
    def test_csv_shape(self, runner, tmp_path):
        seq, _ = small_sequence(seed=7)
        fileio.write_tvg(tmp_path / "g.tvg", seq)
        out = tmp_path / "eig"
        res = runner.invoke(main, [
            "eigengap", "--graph", str(tmp_path / "g.tvg"), "--m", "4",
            "--out", str(out),
        ])
        assert res.exit_code == 0, res.output
        rows = (out / "eigengap.csv").read_text().splitlines()
        assert rows[0] == "t,gap_1,gap_2,gap_3"
        assert len(rows) == 1 + seq.t_len

    def test_m_exceeds_n_exit_1(self, runner, tmp_path):
        seq, _ = small_sequence(seed=8)
        fileio.write_tvg(tmp_path / "g.tvg", seq)
        for m in ("99", "1"):
            res = runner.invoke(main, [
                "eigengap", "--graph", str(tmp_path / "g.tvg"), "--m", m,
                "--out", str(tmp_path / "eig"),
            ])
            assert res.exit_code == 1
            assert not (tmp_path / "eig").exists()

    @pytest.mark.parametrize("m", ["1", "13"])
    def test_out_of_range_m_names_its_range(self, runner, tmp_path, m):
        seq, _ = small_sequence(seed=8)
        fileio.write_tvg(tmp_path / "g.tvg", seq)
        res = runner.invoke(main, [
            "eigengap", "--graph", str(tmp_path / "g.tvg"), "--m", m,
            "--out", str(tmp_path / "eig"),
        ])
        assert res.exit_code == 1
        assert f"Error: m must be in [2, {seq.n}], got {m}" in res.output
