"""Experiment harness: seeded multi-trial method comparisons and the toy cloud."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .clustering import LabelSequence, align_sequence, static_sc, tv_cluster_multi
from .generators import SbmTvParams, sbm_tv_sequence
from .graphs import TVGraphSequence, _require_int
from .metrics import accuracy_report, label_changes
from .pointcloud import PointFrameSequence, knn_graph
from .solver import SolverConfig

# Full-size synthetic presets (three equisized clusters of 50 nodes, 100 frames).
DENSE_FULL = SbmTvParams(
    n_per_cluster=50, k=3, t_len=100, p_intra=0.3, p_inter=0.2, flip_prob=0.01, seed=0
)
SPARSE_FULL = replace(DENSE_FULL, p_intra=0.1, p_inter=0.05)

# Desk-scale variants used by the test harness (3 x 30 nodes, 50 frames).
DENSE_DESK = replace(DENSE_FULL, n_per_cluster=30, t_len=50)
SPARSE_DESK = replace(SPARSE_FULL, n_per_cluster=30, t_len=50)


@dataclass(frozen=True)
class TrialOutcome:
    accuracy_tv: float
    accuracy_static: float
    mismatch_tv: int
    mismatch_static: int


def recommended_alpha(params: SbmTvParams) -> float:
    """Temporal weight calibrated to the edge-noise scale, 0.9 * N * (p_intra + p_inter).

    Below this scale the solve follows per-frame noise directions; far above it the
    labels freeze instead of tracking the drift.
    """
    return 0.9 * params.n * (params.p_intra + params.p_inter)


def total_mismatch(ls: LabelSequence) -> int:
    """Total frame-to-frame label changes after chain alignment."""
    return int(label_changes(align_sequence(ls).labels).sum())


def trial_seeds(seed: int, n: int) -> list[int]:
    """n independent 64-bit per-trial seeds derived from one base seed."""
    root = np.random.SeedSequence(_require_int("seed", seed, 0))
    return [int(s) for s in root.generate_state(_require_int("trials", n, 1), dtype=np.uint64)]


def run_sbm_trial(params: SbmTvParams, cfg: SolverConfig) -> TrialOutcome:
    """Generate one sequence and cluster it with both methods."""
    seq, truth = sbm_tv_sequence(params)
    est_tv, _, _ = tv_cluster_multi(seq, params.k, cfg)
    est_st = static_sc(seq, params.k, seed=cfg.seed)
    rep_tv = accuracy_report(est_tv, truth)
    rep_st = accuracy_report(est_st, truth)
    return TrialOutcome(
        accuracy_tv=rep_tv.mean,
        accuracy_static=rep_st.mean,
        mismatch_tv=total_mismatch(est_tv),
        mismatch_static=total_mismatch(est_st),
    )


def compare_methods(
    params: SbmTvParams,
    n_trials: int,
    base_seed: int,
    cfg: SolverConfig | None = None,
) -> list[TrialOutcome]:
    """Run seeded trials of the coupled method against the per-frame baseline."""
    if cfg is None:
        cfg = SolverConfig(alpha=recommended_alpha(params))
    return [
        run_sbm_trial(replace(params, seed=s), replace(cfg, seed=s))
        for s in trial_seeds(base_seed, n_trials)
    ]


def make_articulated_cloud(
    n_per_part: int = 30, t_len: int = 20, n_parts: int = 5, seed: int = 0
) -> tuple[PointFrameSequence, LabelSequence]:
    """Five (by default) rigid point blobs translating along smooth curves.

    Blob centers sit far apart relative to the blob radius, so per-frame kNN
    graphs never bridge blobs; ground-truth part labels are constant in time.
    """
    rng = np.random.default_rng(seed)
    base_angle = 2.0 * np.pi * np.arange(n_parts) / n_parts
    base = np.column_stack(
        [20.0 * np.cos(base_angle), 20.0 * np.sin(base_angle), 5.0 * np.sin(3.0 * base_angle)]
    )
    offsets = rng.normal(scale=0.8, size=(n_parts, n_per_part, 3))
    phases = rng.uniform(0.0, 2.0 * np.pi, size=n_parts)
    motion_dir = rng.normal(size=(n_parts, 3))
    motion_dir /= np.linalg.norm(motion_dir, axis=1, keepdims=True)
    frames = np.empty((t_len, n_parts * n_per_part, 3))
    for t in range(t_len):
        wave = 3.0 * np.sin(2.0 * np.pi * t / t_len + phases)
        centers = base + wave[:, None] * motion_dir
        frames[t] = (centers[:, None, :] + offsets).reshape(-1, 3)
    labels = np.repeat(np.arange(n_parts, dtype=np.int64), n_per_part)
    label_seq = LabelSequence(np.tile(labels, (t_len, 1)), n_parts)
    return PointFrameSequence(frames), label_seq


def cloud_to_graphs(seq: PointFrameSequence, k: int) -> TVGraphSequence:
    """Per-frame kNN graphs over the registered points."""
    return TVGraphSequence(tuple(knn_graph(seq.frame(t), k) for t in range(seq.t_len)))
