"""Clustering pipelines: per-frame baseline, coupled two-way, sequential multi-way."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.optimize

from .graphs import TVGraphSequence, build_laplacian, smallest_eigenvectors
from .solver import OrthogonalityBasis, SolveResult, SolverConfig, pds_solve

# spawn_key tags keep the warm-start / k-means streams disjoint from the solver's
# per-restart streams, which are spawned from the bare seed inside pds_solve.
_WARM_TAG = (101,)
_KMEANS_TAG = (102,)
_STATIC_TAG = (103,)


@dataclass(frozen=True, eq=False)
class LabelSequence:
    """t_len x n integer cluster labels in [0, k)."""

    labels: np.ndarray
    k: int

    def __post_init__(self):
        arr = np.asarray(self.labels)
        if arr.ndim != 2 or arr.size == 0:
            raise ValueError("labels must be a nonempty (t_len, n) array")
        if not np.issubdtype(arr.dtype, np.integer):
            cast = arr.astype(np.int64)
            if not np.array_equal(cast, arr):
                raise ValueError("labels must be integers")
            arr = cast
        else:
            arr = arr.astype(np.int64)
        if int(self.k) < 1:
            raise ValueError("k must be >= 1")
        object.__setattr__(self, "k", int(self.k))
        if arr.min() < 0 or arr.max() >= self.k:
            raise ValueError("labels must lie in [0, k)")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "labels", arr)

    @property
    def t_len(self) -> int:
        return self.labels.shape[0]

    @property
    def n(self) -> int:
        return self.labels.shape[1]

    def frame(self, t: int) -> np.ndarray:
        return self.labels[t]

    def __eq__(self, other) -> bool:
        if not isinstance(other, LabelSequence):
            return NotImplemented
        return self.k == other.k and np.array_equal(self.labels, other.labels)


@dataclass(frozen=True, eq=False)
class EmbeddingSequence:
    """Per-frame n x m matrix whose column l is the l-th cluster vector."""

    vectors: np.ndarray  # (t_len, n, m)

    def __post_init__(self):
        v = np.array(self.vectors, dtype=float)
        if v.ndim != 3:
            raise ValueError("expected vectors of shape (t_len, n, m)")
        if not np.all(np.isfinite(v)):
            raise ValueError("vectors must be finite")
        v.setflags(write=False)
        object.__setattr__(self, "vectors", v)

    @property
    def t_len(self) -> int:
        return self.vectors.shape[0]

    @property
    def n(self) -> int:
        return self.vectors.shape[1]

    @property
    def m(self) -> int:
        return self.vectors.shape[2]


def _kmeans_pp(pts: np.ndarray, k: int, rng) -> np.ndarray:
    n = pts.shape[0]
    centers = np.empty((k, pts.shape[1]))
    centers[0] = pts[int(rng.integers(n))]
    d2 = ((pts - centers[0]) ** 2).sum(axis=1)
    for c in range(1, k):
        total = d2.sum()
        if total > 0.0:
            idx = int(rng.choice(n, p=d2 / total))
        else:
            idx = int(rng.integers(n))
        centers[c] = pts[idx]
        d2 = np.minimum(d2, ((pts - centers[c]) ** 2).sum(axis=1))
    return centers


def _lloyd(pts: np.ndarray, k: int, rng, max_iters: int) -> tuple[np.ndarray, float]:
    n = pts.shape[0]
    centers = _kmeans_pp(pts, k, rng)
    assign = None
    for _ in range(max_iters):
        d2 = ((pts[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new = d2.argmin(axis=1)
        for c in range(k):
            if not np.any(new == c):
                # re-seed an emptied cluster at the current worst-fit point
                far = int(d2[np.arange(n), new].argmax())
                centers[c] = pts[far]
                new[far] = c
                d2[:, c] = ((pts - centers[c]) ** 2).sum(axis=1)
        if assign is not None and np.array_equal(new, assign):
            break
        assign = new
        for c in range(k):
            centers[c] = pts[assign == c].mean(axis=0)
    wcss = 0.0
    for c in range(k):
        mask = assign == c
        if np.any(mask):
            ctr = pts[mask].mean(axis=0)
            wcss += float(((pts[mask] - ctr) ** 2).sum())
    return assign, wcss


def kmeans(points, k: int, seed, restarts: int = 50, max_iters: int = 300) -> np.ndarray:
    """Lloyd's iterations from k-means++ seeding; best of `restarts` runs by WCSS."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    n = pts.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    best_assign = None
    best_wcss = np.inf
    for child in root.spawn(restarts):
        assign, wcss = _lloyd(pts, k, np.random.default_rng(child), max_iters)
        if wcss < best_wcss:
            best_wcss = wcss
            best_assign = assign
    return best_assign


def align_labels(prev, cur, k: int) -> np.ndarray:
    """Rename cur's labels to maximize agreement with prev; partition is unchanged."""
    prev = np.asarray(prev)
    cur = np.asarray(cur)
    if prev.shape != cur.shape or prev.ndim != 1:
        raise ValueError("prev and cur must be 1-D label arrays of equal length")
    if prev.min() < 0 or prev.max() >= k or cur.min() < 0 or cur.max() >= k:
        raise ValueError("labels must lie in [0, k)")
    overlap = np.zeros((k, k), dtype=np.int64)
    np.add.at(overlap, (cur, prev), 1)
    rows, cols = scipy.optimize.linear_sum_assignment(overlap, maximize=True)
    perm = np.empty(k, dtype=np.int64)
    perm[rows] = cols
    return perm[cur]


def align_sequence(ls: LabelSequence) -> LabelSequence:
    """Chain align_labels over consecutive frames for presentation consistency."""
    out = ls.labels.copy()
    for t in range(1, ls.t_len):
        out[t] = align_labels(out[t - 1], out[t], ls.k)
    return LabelSequence(out, ls.k)


def static_sc(seq: TVGraphSequence, k: int, seed: int) -> LabelSequence:
    """Per-frame spectral clustering: k smallest eigenvectors, then seeded k-means."""
    if k < 2:
        raise ValueError("k must be >= 2")
    if k > seq.n:
        raise ValueError("k must not exceed the node count")
    frame_seeds = np.random.SeedSequence(entropy=seed, spawn_key=_STATIC_TAG).spawn(seq.t_len)
    labels = np.empty((seq.t_len, seq.n), dtype=np.int64)
    for t, g in enumerate(seq.graphs):
        _, vecs = smallest_eigenvectors(build_laplacian(g), k)
        labels[t] = kmeans(vecs, k, frame_seeds[t])
    return LabelSequence(labels, k)


def _warm_start(Ls, basis: OrthogonalityBasis, rng) -> np.ndarray:
    """Eigenvector of the time-averaged Laplacian, projected off the per-frame basis
    and scaled to norm sqrt(n) in every frame.

    Averaging pools the per-frame spectra, which separates slowly drifting cluster
    structure that no single frame resolves; per-frame eigenvectors start the solve
    inside frame-noise basins it cannot leave. For a single frame the average is
    that frame's Laplacian, so this reduces to its own spectral start.
    """
    t_len = len(Ls)
    n = Ls[0].shape[0]
    m = min(basis.n_dirs + 1, n)
    V = basis.vectors
    avg = sum(Ls).toarray() / t_len
    _, vecs = scipy.linalg.eigh(avg, subset_by_index=(0, m - 1))
    x0 = vecs[:, m - 1]
    C = np.empty((t_len, n))
    for t in range(t_len):
        x = x0.copy()
        for attempt in range(2):
            for l in range(basis.n_dirs):
                v = V[t, l]
                x -= (x @ v) / (v @ v) * v
            nrm = float(np.linalg.norm(x))
            if nrm >= 1e-8:
                break
            x = rng.standard_normal(n)
        x *= np.sqrt(n) / np.linalg.norm(x)
        if t > 0 and float(x @ C[t - 1]) < 0.0:
            x = -x
        C[t] = x
    return C


def tv_cluster_two(seq: TVGraphSequence, cfg: SolverConfig) -> tuple[LabelSequence, SolveResult]:
    """Two-way clustering of the whole sequence; labels read off the sign of c."""
    Ls = [build_laplacian(g) for g in seq.graphs]
    basis = OrthogonalityBasis.all_ones(seq.t_len, seq.n)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=cfg.seed, spawn_key=_WARM_TAG))
    res = pds_solve(Ls, basis, cfg, _warm_start(Ls, basis, rng))
    labels = (res.c < 0).astype(np.int64)
    return LabelSequence(labels, 2), res


def tv_cluster_multi_detailed(
    seq: TVGraphSequence, k: int, cfg: SolverConfig
) -> tuple[LabelSequence, EmbeddingSequence, list[SolveResult]]:
    """Like tv_cluster_multi, also returning the per-level solve results."""
    if k < 2:
        raise ValueError("k must be >= 2")
    if k - 1 > seq.n:
        raise ValueError("cannot compute more cluster vectors than nodes")
    Ls = [build_laplacian(g) for g in seq.graphs]
    warm_rng = np.random.default_rng(
        np.random.SeedSequence(entropy=cfg.seed, spawn_key=_WARM_TAG)
    )
    basis = OrthogonalityBasis.all_ones(seq.t_len, seq.n)
    results: list[SolveResult] = []
    cols = []
    for _ in range(k - 1):
        res = pds_solve(Ls, basis, cfg, _warm_start(Ls, basis, warm_rng))
        C = res.c
        results.append(res)
        cols.append(C)
        unit = C / np.linalg.norm(C, axis=1, keepdims=True)
        basis = basis.extended(unit)
    emb = np.stack(cols, axis=2)
    km_seeds = np.random.SeedSequence(entropy=cfg.seed, spawn_key=_KMEANS_TAG).spawn(seq.t_len)
    labels = np.empty((seq.t_len, seq.n), dtype=np.int64)
    for t in range(seq.t_len):
        labels[t] = kmeans(emb[t], k, km_seeds[t])
        if t > 0:
            labels[t] = align_labels(labels[t - 1], labels[t], k)
    return LabelSequence(labels, k), EmbeddingSequence(emb), results


def tv_cluster_multi(
    seq: TVGraphSequence, k: int, cfg: SolverConfig
) -> tuple[LabelSequence, EmbeddingSequence]:
    """K-way clustering by k-1 sequential solves, each orthogonality-constrained to
    the earlier cluster vectors, followed by per-frame k-means and label alignment."""
    labels, emb, _ = tv_cluster_multi_detailed(seq, k, cfg)
    return labels, emb
