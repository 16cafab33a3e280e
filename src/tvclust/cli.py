"""Command line interface: dataset synthesis, clustering runs, evaluation, diagnostics.

Exit codes: 0 success, 1 validation error (bad parameters or config keys,
unreadable/unwritable paths, shape mismatches), 2 runtime failure (solver
breakdown and other errors) and command-line usage errors, which click reports
(an unknown flag, or a flag value of the wrong type).
"""

from __future__ import annotations

if __name__ == "__main__":  # python -m tvclust.cli: set before numpy loads
    from .entry import one_blas_thread

    one_blas_thread()

import dataclasses
import functools
import json
import sys
import time
from pathlib import Path

import click
import numpy as np

from . import __version__, fileio
from .clustering import static_sc, tv_cluster_multi
from .experiments import DENSE_FULL, cloud_to_graphs, total_mismatch, trial_seeds
from .generators import SbmTvParams, sbm_tv_sequence
from .graphs import dense_laplacian
from .metrics import accuracy_report, eigengap_profile
from .pointcloud import downsample, load_frames
from .solver import SolverConfig

_SBM_DEFAULTS = dataclasses.asdict(DENSE_FULL)
_SOLVER_DEFAULTS = dataclasses.asdict(SolverConfig())
# one config file may serve every command, so each accepts the keys any of them reads
_CONFIG_KEYS = {*_SBM_DEFAULTS, *_SOLVER_DEFAULTS, "trials", "k"}


def _guarded(f):
    @functools.wraps(f)
    def wrapper(*args, **kwargs):
        try:
            return f(*args, **kwargs)
        except click.ClickException:
            raise
        except (ValueError, OSError) as exc:
            raise click.ClickException(str(exc))  # exit code 1
        except Exception as exc:  # SolverError and any other runtime failure
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)

    return wrapper


def _load_config(path) -> dict:
    if path is None:
        return {}
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(data, dict):
        raise ValueError("config file must contain a JSON object of flat keys")
    unknown = sorted(data.keys() - _CONFIG_KEYS)
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")
    return data


def _pick(flag, config: dict, key: str, default):
    """Explicit CLI flag first, then config file, then the built-in default.

    Returns an int where the default is an int and a float otherwise. Any other
    value, null included, or a fractional one for an int, raises a ValueError
    naming the key.
    """
    value = flag if flag is not None else config.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{key} must be a number, got {value!r}")
    if isinstance(default, int):
        if isinstance(value, float) and not value.is_integer():
            raise ValueError(f"{key} must be an integer, got {value!r}")
        return int(value)
    return float(value)


def _outdir(path) -> Path:
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _solver_config(config: dict, seed: int, **flags) -> SolverConfig:
    kwargs = {
        key: _pick(flags.get(key), config, key, default)
        for key, default in _SOLVER_DEFAULTS.items()
        if key != "seed"
    }
    return SolverConfig(seed=seed, **kwargs)


@click.group()
@click.version_option(version=__version__)
def main():
    """Cluster the nodes of time-varying graphs with temporal label smoothness."""


@main.command("generate-sbm")
@click.option("--out", "out_path", required=True, type=click.Path(file_okay=False))
@click.option("--n-per-cluster", type=int, default=None, help="nodes per planted cluster")
@click.option("--k", type=int, default=None, help="number of planted clusters")
@click.option("--t-len", type=int, default=None, help="number of time slots")
@click.option("--p-intra", type=float, default=None, help="intra-cluster edge probability")
@click.option("--p-inter", type=float, default=None, help="inter-cluster edge probability")
@click.option("--flip-prob", type=float, default=None, help="per-node per-frame label change probability")
@click.option("--seed", type=int, default=None)
@click.option("--trials", type=int, default=None, help="independent sequences to generate")
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False), default=None)
@_guarded
def cmd_generate_sbm(out_path, config_path, trials, **flags):
    """Write seeded block-model graph sequences plus their ground-truth labels."""
    config = _load_config(config_path)
    params = {k: _pick(flags.get(k), config, k, v) for k, v in _SBM_DEFAULTS.items()}
    trials = _pick(trials, config, "trials", 1)
    seeds = trial_seeds(params["seed"], trials)
    out = _outdir(out_path)
    for idx in range(trials):
        p = SbmTvParams(**{**params, "seed": seeds[idx]})
        seq, truth = sbm_tv_sequence(p)
        fileio.write_tvg(out / f"graph_{idx:03d}.tvg", seq)
        fileio.write_labels(out / f"truth_{idx:03d}.lbl", truth)
        edges = sum(g.num_edges for g in seq.graphs)
        click.echo(f"trial {idx:03d}: N={p.n} T={p.t_len} K={p.k} edges={edges}")


def _inputs(path, suffix: str) -> list[Path]:
    """The file at `path`, or the files ending in `suffix` in that directory, sorted."""
    p = Path(path)
    if p.is_file():
        return [p]
    files = sorted(p.glob(f"*{suffix}"))
    if not files:
        raise ValueError(f"no {suffix} files found in {p}")
    return files


@main.command("cluster")
@click.option("--graph", "graph_path", required=True, type=click.Path(exists=True))
@click.option("--method", type=click.Choice(["static-sc", "tv-pds"]), required=True)
@click.option("--k", type=int, default=None, help="number of clusters (default 2)")
@click.option("--alpha", type=float, default=None)
@click.option("--max-iters", "max_iters", type=int, default=None)
@click.option("--seed", type=int, default=None)
@click.option("--out", "out_path", required=True, type=click.Path(file_okay=False))
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False), default=None)
@_guarded
def cmd_cluster(graph_path, method, k, seed, out_path, config_path, **flags):
    """Estimate cluster labels for one or many graph sequence files."""
    config = _load_config(config_path)
    if method == "static-sc":
        # config keys stay allowed there, since one file may serve both methods
        ignored = [f"--{key.replace('_', '-')}" for key, v in flags.items() if v is not None]
        if ignored:
            raise ValueError(f"{', '.join(ignored)} only apply to --method tv-pds")
    k = _pick(k, config, "k", 2)
    if k < 2:
        raise ValueError("k must be >= 2")
    seed = _pick(seed, config, "seed", 0)
    inputs = _inputs(graph_path, ".tvg")
    seeds = trial_seeds(seed, len(inputs))
    for idx, path in enumerate(inputs):
        seq = fileio.read_tvg(path)
        started = time.perf_counter()
        report = {"method": method, "k": k, "graph": path.name, "seed": seeds[idx]}
        if method == "static-sc":
            labels = static_sc(seq, k, seed=seeds[idx])
        else:
            cfg = _solver_config(config, seeds[idx], **flags)
            labels, _, results = tv_cluster_multi(seq, k, cfg)
            report.update(
                iterations=[r.iters for r in results],
                converged=all(r.converged for r in results),
                final_objective=[r.objective for r in results],
                beta=[r.beta for r in results],
            )
        report["wall_time_s"] = time.perf_counter() - started
        # made only after an input is clustered, so a first input the library
        # refuses leaves no directory behind
        out = _outdir(out_path)
        fileio.write_labels(out / f"est_{path.stem}.lbl", labels)
        report_path = out / f"report_{path.stem}.json"
        report_path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        click.echo(f"{path.name}: wrote est_{path.stem}.lbl ({method}, k={k})")


def _accuracy_svg(path, mean_curve: np.ndarray) -> None:
    """Minimal deterministic SVG line chart of accuracy against time."""
    w, h, pad = 640, 360, 45
    t_len = mean_curve.size
    xs = [pad + (w - 2 * pad) * (i / max(t_len - 1, 1)) for i in range(t_len)]
    ys = [h - pad - (h - 2 * pad) * float(v) for v in mean_curve]
    points = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(xs, ys))
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}">',
        f'<rect width="{w}" height="{h}" fill="white"/>',
        f'<line x1="{pad}" y1="{h - pad}" x2="{w - pad}" y2="{h - pad}" stroke="black"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{h - pad}" stroke="black"/>',
        f'<text x="{w // 2}" y="{h - 10}" text-anchor="middle" font-size="12">t</text>',
        f'<text x="12" y="{h // 2}" font-size="12" transform="rotate(-90 12 {h // 2})" '
        f'text-anchor="middle">mean accuracy</text>',
        f'<text x="{pad - 6}" y="{h - pad + 4}" text-anchor="end" font-size="10">0</text>',
        f'<text x="{pad - 6}" y="{pad + 4}" text-anchor="end" font-size="10">1</text>',
        f'<polyline fill="none" stroke="#1f6fb2" stroke-width="1.5" points="{points}"/>',
        "</svg>",
    ]
    fileio.write_lines(path, lines)


@main.command("evaluate")
@click.option("--est", "est_path", required=True, type=click.Path(exists=True))
@click.option("--truth", "truth_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_path", required=True, type=click.Path(file_okay=False))
@click.option("--svg", is_flag=True, help="also emit an SVG chart of mean accuracy vs t")
@_guarded
def cmd_evaluate(est_path, truth_path, out_path, svg):
    """Score estimated label files against ground truth, one column per trial."""
    est_files = _inputs(est_path, ".lbl")
    truth_files = _inputs(truth_path, ".lbl")
    if len(est_files) != len(truth_files):
        raise ValueError(
            f"got {len(est_files)} estimate files but {len(truth_files)} truth files"
        )
    out = _outdir(out_path)
    columns = []
    mismatch_total = 0
    for ef, tf in zip(est_files, truth_files):
        est = fileio.read_labels(ef)
        truth = fileio.read_labels(tf)
        if est.t_len != truth.t_len or est.n != truth.n:
            raise ValueError(f"shape mismatch between {ef.name} and {tf.name}")
        columns.append(accuracy_report(est, truth).per_frame)
        mismatch_total += total_mismatch(est)
    acc = np.asarray(columns).T  # (t_len, trials)
    mean_col = acc.mean(axis=1)
    header = "t," + ",".join(f"acc_{i:03d}" for i in range(acc.shape[1])) + ",mean"
    rows = [header]
    for t in range(acc.shape[0]):
        cells = ",".join(repr(float(v)) for v in acc[t])
        rows.append(f"{t},{cells},{float(mean_col[t])!r}")
    fileio.write_lines(out / "accuracy.csv", rows)
    summary = (
        f"mean={float(acc.mean())!r} min={float(acc.min())!r} "
        f"mismatch_total={mismatch_total} trials={acc.shape[1]} frames={acc.shape[0]}"
    )
    (out / "summary.txt").write_text(summary + "\n", encoding="utf-8")
    click.echo(summary)
    if svg:
        _accuracy_svg(out / "accuracy.svg", mean_col)


@main.command("build-knn")
@click.option("--cloud", "cloud_path", required=True, type=click.Path(exists=True, file_okay=False))
@click.option("--k", type=int, default=8, show_default=True, help="neighbors per point")
@click.option("--target-n", "target_n", type=int, default=None, help="downsample to this many points")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", "out_path", required=True, type=click.Path(file_okay=False))
@_guarded
def cmd_build_knn(cloud_path, k, target_n, seed, out_path):
    """Convert a registered point-cloud directory into a kNN graph sequence."""
    seq = load_frames(cloud_path)
    if target_n is not None:
        seq = downsample(seq, target_n, seed)
    graphs = cloud_to_graphs(seq, k)
    out = _outdir(out_path)
    fileio.write_tvg(out / "graph.tvg", graphs)
    edges = sum(g.num_edges for g in graphs.graphs)
    click.echo(f"wrote graph.tvg: N={graphs.n} T={graphs.t_len} k={k} edges={edges}")


@main.command("eigengap")
@click.option("--graph", "graph_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--m", type=int, default=4, show_default=True, help="number of smallest eigenvalues")
@click.option("--out", "out_path", required=True, type=click.Path(file_okay=False))
@_guarded
def cmd_eigengap(graph_path, m, out_path):
    """Write per-frame gaps between consecutive smallest Laplacian eigenvalues."""
    seq = fileio.read_tvg(graph_path)
    rows = ["t," + ",".join(f"gap_{i}" for i in range(1, m))]
    for t, g in enumerate(seq.graphs):
        gaps = eigengap_profile(dense_laplacian(g), m)
        rows.append(f"{t}," + ",".join(repr(float(x)) for x in gaps))
    fileio.write_lines(_outdir(out_path) / "eigengap.csv", rows)
    click.echo(f"wrote eigengap.csv: T={seq.t_len} gaps={m - 1}")


if __name__ == "__main__":
    main()
