import json

import numpy as np
import pytest
from click.testing import CliRunner

from tvclust import fileio
from tvclust.cli import main
from tvclust.clustering import LabelSequence, tv_cluster_two
from tvclust.generators import SbmTvParams, sbm_tv_sequence
from tvclust.graphs import (
    TVGraphSequence,
    WeightedGraph,
    build_laplacian,
    quadratic_form,
    temporal_diff,
)
from tvclust.solver import SolverConfig


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


class TestFileFormats:
    def test_tvg_round_trip(self, tmp_path):
        seq, _ = small_sequence()
        path = tmp_path / "g.tvg"
        fileio.write_tvg(path, seq)
        assert fileio.read_tvg(path) == seq
        first = path.read_text(encoding="utf-8").splitlines()[0]
        assert first == f"tvg 1 {seq.n} {seq.t_len}"

    def test_tvg_fractional_weights_round_trip(self, tmp_path):
        g = WeightedGraph(3, [(0, 1, 0.1), (1, 2, 1 / 3)])
        seq = TVGraphSequence((g,))
        fileio.write_tvg(tmp_path / "g.tvg", seq)
        assert fileio.read_tvg(tmp_path / "g.tvg") == seq

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
        assert {"iterations", "converged", "final_objective", "wall_time_s"} <= report.keys()

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
        labels, solve = tv_cluster_two(seq, cfg)
        assert np.array_equal(fileio.read_labels(out / "est_g.lbl").labels, labels.labels)
        C = solve.c
        quad = sum(quadratic_form(build_laplacian(g), c) for g, c in zip(seq.graphs, C))
        want = 0.5 * quad + cfg.alpha * float(np.abs(temporal_diff(C)).sum())
        assert report["converged"] is False
        assert report["final_objective"] == [pytest.approx(want, rel=1e-12)]

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
        assert "iterations" not in report and "final_objective" not in report
        assert "wall_time_s" in report

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
        for i, j, _ in seq.graphs[0].edges:
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
        assert not (out / "graph.tvg").exists()


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
        res = runner.invoke(main, [
            "eigengap", "--graph", str(tmp_path / "g.tvg"), "--m", "99",
            "--out", str(tmp_path / "eig"),
        ])
        assert res.exit_code == 1
