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


def _kmeans_pp(pts: np.ndarray, k: int, rngs) -> np.ndarray:
    """(runs, k, d) k-means++ starting centers, one run per generator.

    Each run draws from its own generator as a lone run would: its first center
    uniformly, each later one with probability proportional to the squared
    distance to the nearest center so far, or uniformly once that is zero.
    """
    n = pts.shape[0]
    centers = np.empty((len(rngs), k, pts.shape[1]))
    centers[:, 0] = pts[[int(rng.integers(n)) for rng in rngs]]
    d2 = ((pts - centers[:, 0, None, :]) ** 2).sum(axis=2)
    for c in range(1, k):
        totals = d2.sum(axis=1)
        with np.errstate(invalid="ignore"):
            p = d2 / totals[:, None]
        idx = [
            int(rng.choice(n, p=p[r])) if totals[r] > 0.0 else int(rng.integers(n))
            for r, rng in enumerate(rngs)
        ]
        centers[:, c] = pts[idx]
        d2 = np.minimum(d2, ((pts - centers[:, c, None, :]) ** 2).sum(axis=2))
    return centers


def _reseed_empty(pts: np.ndarray, d2: np.ndarray, assign: np.ndarray, centers: np.ndarray):
    """Move each emptied cluster, in turn, to the current worst-fit point (in place)."""
    n = pts.shape[0]
    for c in range(centers.shape[0]):
        if not np.any(assign == c):
            far = int(d2[np.arange(n), assign].argmax())
            centers[c] = pts[far]
            assign[far] = c
            d2[:, c] = ((pts - centers[c]) ** 2).sum(axis=1)


def _bins(assign: np.ndarray, k: int) -> np.ndarray:
    """Flat (run, cluster) bin of every point of a (runs, n) assignment."""
    return (assign + k * np.arange(assign.shape[0])[:, None]).ravel()


def _block_sums(grouped: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Sum of each consecutive block of `counts` rows of `grouped`, one .sum() per block."""
    ends = np.cumsum(counts).tolist()
    return np.array([grouped[e - m : e].sum() for e, m in zip(ends, counts.tolist())])


def _cluster_means(pts: np.ndarray, assign: np.ndarray, k: int) -> np.ndarray:
    """(runs, k, d) means of the points in each cluster of each run's assignment.

    Each mean adds its points in the order pts[mask].mean(axis=0) adds them and
    divides by the count; an empty cluster gets NaN, as that mean does.
    """
    runs = assign.shape[0]
    d = pts.shape[1]
    bins = _bins(assign, k)
    counts = np.bincount(bins, minlength=runs * k)
    if d == 1:
        # numpy sums a single column pairwise, not in row order
        grouped = np.tile(pts[:, 0], runs)[np.argsort(bins, kind="stable")]
        sums = _block_sums(grouped, counts)[:, None]
    else:
        tiled = np.tile(pts, (runs, 1))
        sums = np.stack(
            [np.bincount(bins, weights=tiled[:, j], minlength=runs * k) for j in range(d)], axis=1
        )
    with np.errstate(invalid="ignore"):
        return (sums / counts[:, None]).reshape(runs, k, d)


def _lloyd(pts: np.ndarray, centers: np.ndarray, max_iters: int) -> np.ndarray:
    """Lloyd's iterations for every run at once from (runs, k, d) starting centers.

    A run stops once its assignment repeats, or after max_iters assignments; its
    emptied clusters are re-seeded as a lone run would re-seed them.
    """
    runs, k, _ = centers.shape
    n = pts.shape[0]
    assign = np.empty((runs, n), dtype=np.intp)
    active = np.arange(runs)
    for it in range(max_iters):
        # one center at a time keeps the temporary at (runs, n, d)
        d2 = np.empty((active.size, n, k))
        for c, center in enumerate(centers[active].transpose(1, 0, 2)):
            diff = pts - center[:, None, :]
            d2[:, :, c] = np.square(diff, out=diff).sum(axis=2)
        new = d2.argmin(axis=2)
        full = (new[:, :, None] == np.arange(k)).any(axis=1).all(axis=1)
        for i in np.flatnonzero(~full):
            _reseed_empty(pts, d2[i], new[i], centers[active[i]])
        if it > 0:
            moved = (new != assign[active]).any(axis=1)
            active, new = active[moved], new[moved]
            if active.size == 0:
                break
        assign[active] = new
        centers[active] = _cluster_means(pts, new, k)
    return assign


def _wcss(pts: np.ndarray, assign: np.ndarray, k: int) -> list[float]:
    """Within-cluster sum of squares of each run's assignment.

    Each cluster sums its squared deviations as one block, and the clusters add
    up in label order, so a run scores exactly as it would on its own.
    """
    runs = assign.shape[0]
    d = pts.shape[1]
    bins = _bins(assign, k)
    order = np.argsort(bins, kind="stable")
    means = _cluster_means(pts, assign, k).reshape(runs * k, d)
    dev = np.tile(pts, (runs, 1))[order] - means[bins[order]]
    terms = _block_sums(dev**2, np.bincount(bins, minlength=runs * k))
    scores = []
    for row in terms.reshape(runs, k).tolist():
        wcss = 0.0
        for term in row:
            wcss += term
        scores.append(wcss)
    return scores


def kmeans(points, k: int, seed, restarts: int = 50, max_iters: int = 300) -> np.ndarray:
    """Lloyd's iterations from k-means++ seeding; best of `restarts` runs by WCSS.

    The restarts run as one batch; ties in WCSS go to the earliest restart.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    n = pts.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    if max_iters < 1:
        raise ValueError(f"max_iters must be >= 1, got {max_iters}")
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    rngs = [np.random.default_rng(child) for child in root.spawn(restarts)]
    centers = _kmeans_pp(pts, k, rngs)
    assigns = _lloyd(pts, centers, max_iters)
    # identical assignments score identically, so only the first of each is scored
    first = {}
    for r, assign in enumerate(assigns):
        first.setdefault(assign.tobytes(), r)
    distinct = assigns[list(first.values())]
    best_assign = None
    best_wcss = np.inf
    for assign, wcss in zip(distinct, _wcss(pts, distinct, k)):
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
