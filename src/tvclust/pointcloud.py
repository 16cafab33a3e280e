"""Dynamic point-cloud ingestion, registered downsampling, and per-frame kNN graphs."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .clustering import _sq_dists
from .graphs import WeightedGraph, _require_int


@dataclass(frozen=True, eq=False)
class PointFrameSequence:
    """Registered (x, y, z) frames: point i is the same physical point in every frame."""

    coords: np.ndarray  # (t_len, n, 3)

    def __post_init__(self):
        c = np.array(self.coords, dtype=float)
        if c.ndim != 3 or c.shape[2] != 3:
            raise ValueError("coords must have shape (t_len, n, 3)")
        if c.shape[0] < 1 or c.shape[1] < 1:
            raise ValueError("need at least one frame and one point")
        if not np.all(np.isfinite(c)):
            raise ValueError("coordinates must be finite")
        c.setflags(write=False)
        object.__setattr__(self, "coords", c)

    @property
    def t_len(self) -> int:
        return self.coords.shape[0]

    @property
    def n_points(self) -> int:
        return self.coords.shape[1]

    def frame(self, t: int) -> np.ndarray:
        return self.coords[t]


def load_frames(path) -> PointFrameSequence:
    """Read per-frame `x,y,z` CSV files (no header) in lexicographic filename order."""
    root = Path(path)
    if not root.is_dir():
        raise ValueError(f"not a directory: {root}")
    files = sorted(p for p in root.iterdir() if p.is_file() and p.suffix == ".csv")
    if not files:
        raise ValueError(f"no frames found in {root}")
    frames = []
    for f in files:
        try:
            pts = np.loadtxt(f, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise ValueError(f"could not parse frame {f.name}: {exc}") from exc
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ValueError(f"frame {f.name}: expected 3 columns, got shape {pts.shape}")
        frames.append(pts)
    n = frames[0].shape[0]
    for f, pts in zip(files, frames):
        if pts.shape[0] != n:
            raise ValueError(
                f"inconsistent point count: frame {f.name} has {pts.shape[0]}, expected {n}"
            )
    return PointFrameSequence(np.stack(frames))


def farthest_point_indices(points: np.ndarray, target_n: int, rng) -> np.ndarray:
    """Greedy farthest-point subset of one frame, from a seeded random start;
    squared distances come from `clustering._sq_dists`."""
    n = points.shape[0]
    X = points.T[:, None, :]
    chosen = np.empty(target_n, dtype=np.int64)
    chosen[0] = int(rng.integers(n))
    dist = _sq_dists(X, X[:, :, chosen[0] : chosen[0] + 1])[0, 0]
    for s in range(1, target_n):
        nxt = int(dist.argmax())
        chosen[s] = nxt
        dist = np.minimum(dist, _sq_dists(X, X[:, :, nxt : nxt + 1])[0, 0])
    return np.sort(chosen)


def downsample(seq: PointFrameSequence, target_n: int, seed: int) -> PointFrameSequence:
    """Farthest-point sampling on frame 0; the same index subset is kept in every
    frame so registration is preserved."""
    target_n = _require_int("target_n", target_n, 1, seq.n_points)
    rng = np.random.default_rng(_require_int("seed", seed, 0))
    idx = farthest_point_indices(seq.coords[0], target_n, rng)
    return PointFrameSequence(seq.coords[:, idx, :])


def knn_graph(points, k: int) -> WeightedGraph:
    """Directed k-nearest-neighbor edges by Euclidean distance, OR-symmetrized to an
    unweighted undirected graph; distance ties break toward the lower point index.

    Point i's neighbors are the first k points j != i in the order of (squared
    distance, j), the set a stable argsort of its distance row would give; the
    squared distances come from `clustering._sq_dists`. Each row's k-th
    smallest distance comes from np.partition; the points strictly closer are
    all taken, and the points at exactly that distance fill the remaining
    places in index order. Points must be finite, and so must each point's k
    smallest squared distances: a ValueError names the overflow otherwise.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise ValueError("points must be an (n, d) array")
    n = pts.shape[0]
    k = _require_int("k", k, 1, n - 1)
    if not np.isfinite(pts).all():
        raise ValueError("points must be finite")
    with np.errstate(over="ignore"):
        planes = pts.T[:, None, :]
        d2 = _sq_dists(planes, planes)[0]
    np.fill_diagonal(d2, np.inf)
    kth = np.partition(d2, k - 1, axis=1)[:, k - 1 : k]
    if np.isinf(kth).any():
        raise ValueError("squared distances overflow float64: the points are too far apart")
    chosen = d2 < kth
    tied = d2 == kth
    room = k - chosen.sum(axis=1, keepdims=True)
    # where more points tie at the threshold than places are left, the lowest
    # indices fill them
    surplus = np.flatnonzero(tied.sum(axis=1, keepdims=True) > room)
    tied[surplus] &= np.cumsum(tied[surplus], axis=1) <= room[surplus]
    chosen |= tied
    src, dst = np.nonzero(np.triu(chosen | chosen.T, 1))
    edges = np.column_stack([src, dst, np.ones(src.size)])
    return WeightedGraph(n, edges)
