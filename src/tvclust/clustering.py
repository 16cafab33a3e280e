"""Clustering pipelines: the per-frame baseline and the coupled sequential solves."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphs import TVGraphSequence, _require_int, dense_laplacian, smallest_eigenvectors
from .prox import prox_slab_frames, prox_sphere_frames
from .solver import BlockLaplacian, SolveResult, SolverConfig, pds_solve

# spawn_key tags keep the warm-start, k-means and static-sc streams drawn from
# one seed disjoint.
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
        object.__setattr__(self, "k", _require_int("k", self.k, 1))
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


KMEANS_RESTARTS = 50  # k-means runs per frame, of which the least WCSS wins
KMEANS_MAX_ITERS = 300  # Lloyd passes at most per run

# Each work array of one k-means batch holds about this many float64 values at
# most (runs x n x max(k, d)): larger batches cost memory and gain little time.
_KMEANS_BATCH_ELEMENTS = 1 << 16


def _sq_dists(X: np.ndarray, C: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """(runs, m, n) squared distances from each run's m centers to its n points,
    written to `out` when given.

    X holds the (d, runs, n) coordinate planes of each run's points and C the
    (d, runs, m) planes of its centers. The d squared differences are added in
    coordinate order, one plane at a time. This is the one squared-distance
    code of the package: k-means and its k-means++ seeding, `knn_graph` and
    `farthest_point_indices` all take their distances from it, so this order
    fixes their bits and with them how their distance ties break.
    """
    acc = np.subtract(X[0][:, None, :], C[0][:, :, None], out=out)
    np.square(acc, out=acc)
    buf = None
    for j in range(1, X.shape[0]):
        buf = np.subtract(X[j][:, None, :], C[j][:, :, None], out=buf)
        acc += np.square(buf, out=buf)
    return acc


def _nearest(d2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(runs, n) nearest center of every point, as d2.argmin(axis=1) picks it
    from the (runs, k, n) squared distances, ties going to the lower center;
    and the (runs, n) squared distance of every point to that center."""
    runs, k, n = d2.shape
    best = d2[:, 0].copy()
    nearest = np.zeros((runs, n), dtype=np.intp)
    closer = np.empty((runs, n), dtype=bool)
    hit = np.empty((runs, n), dtype=np.intp)
    for c in range(1, k):
        np.less(d2[:, c], best, out=closer)
        np.minimum(best, d2[:, c], out=best)
        # the last center that came strictly closer is the first of the minima
        np.maximum(nearest, np.multiply(closer, c, out=hit), out=nearest)
    return nearest, best


def _kmeans_pp(X: np.ndarray, first: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(d, runs, k) k-means++ starting centers from the (d, runs, n) coordinate
    planes of each run's points, and the (runs, k, n) squared distances from
    those centers, the rows that Lloyd's first pass assigns by.

    Run r starts at point first[r]. Its c-th later center is the point at which
    the uniform u[c - 1, r] falls in the cumulative distribution of the squared
    distances to the nearest center so far, or point floor(u[c - 1, r] * n)
    when all of those distances are zero.
    """
    _, runs, n = X.shape
    k = u.shape[0] + 1
    rows = np.arange(runs)
    C = np.empty((X.shape[0], runs, k))
    d2 = np.empty((runs, k, n))
    C[:, :, 0] = X[:, rows, first]
    _sq_dists(X, C[:, :, :1], out=d2[:, :1])
    nearest = d2[:, 0].copy()
    for c, uc in enumerate(u, start=1):
        totals = nearest.sum(axis=1)
        spread = totals > 0.0
        # the inverse-CDF step of Generator.choice(n, p=p[r]): the number of
        # entries of the nondecreasing cdf[r] that are <= u
        with np.errstate(invalid="ignore"):
            cdf = np.cumsum(nearest / totals[:, None], axis=1)
            cdf /= cdf[:, -1:]
        idx = (cdf <= uc[:, None]).sum(axis=1)
        idx[~spread] = (uc[~spread] * n).astype(np.intp)
        C[:, :, c] = X[:, rows, idx]
        _sq_dists(X, C[:, :, c : c + 1], out=d2[:, c : c + 1])
        np.minimum(nearest, d2[:, c], out=nearest)
    return C, d2


def _reseed_empty(x: np.ndarray, d2: np.ndarray, assign: np.ndarray, centers: np.ndarray):
    """Move each emptied cluster of one run, in turn, to the current worst-fit
    point of the clusters with at least two members, so no cluster is left
    empty; x holds the run's (d, n) point planes, d2 its (k, n) squared
    distances and centers its (d, k) center planes, all updated in place."""
    k, n = d2.shape
    for c in range(k):
        if not np.any(assign == c):
            fit = d2[assign, np.arange(n)]
            fit[np.bincount(assign, minlength=k)[assign] < 2] = -np.inf
            far = int(fit.argmax())
            centers[:, c] = x[:, far]
            assign[far] = c
            d2[c] = _sq_dists(x[:, None], centers[:, None, c : c + 1])[0, 0]


def _bins(assign: np.ndarray, k: int) -> np.ndarray:
    """Flat (run, cluster) bin of every point of a (runs, n) assignment."""
    return (assign + k * np.arange(assign.shape[0])[:, None]).ravel()


def _cluster_means(X: np.ndarray, assign: np.ndarray, k: int) -> np.ndarray:
    """(d, runs, k) means of each cluster of each run's (runs, n) assignment,
    from the (d, runs, n) coordinate planes of each run's points.

    Each mean adds its points in row order and divides by the count; an empty
    cluster gets NaN.
    """
    d, runs, _ = X.shape
    bins = _bins(assign, k)
    counts = np.bincount(bins, minlength=runs * k)
    sums = np.array([np.bincount(bins, weights=x.ravel(), minlength=runs * k) for x in X])
    with np.errstate(invalid="ignore"):
        return (sums / counts).reshape(d, runs, k)


def _lloyd(X: np.ndarray, C: np.ndarray, d2: np.ndarray, max_iters: int):
    """(runs, n) assignments of Lloyd's iterations for every run at once, and
    each run's WCSS where the last pass gave it, NaN elsewhere.

    X holds the (d, runs, n) point planes, C the (d, runs, k) starting centers
    and d2 their (runs, k, n) squared distances, which the first pass assigns
    by; every later pass computes its own into d2's memory. A run stops once
    its assignment repeats, or after max_iters assignments; its emptied
    clusters are re-seeded as a lone run would re-seed them. Stopped runs leave
    the work arrays.

    A run that stops on a repeat without a re-seed in that pass was measured
    against the means of its final assignment, so its WCSS is the .sum() of its
    points' distances to their nearest centers in that pass, bit for bit.
    """
    _, runs, n = X.shape
    k = C.shape[2]
    assign = np.empty((runs, n), dtype=np.intp)
    wcss = np.full(runs, np.nan)
    live = np.arange(runs)
    prev = None
    for it in range(max_iters):
        if it:
            # the last pass's distances are spent; their memory takes this pass's
            d2 = _sq_dists(X, C, out=d2[: X.shape[1]])
        new, best = _nearest(d2)
        counts = np.bincount(_bins(new, k), minlength=new.shape[0] * k).reshape(-1, k)
        reseeded = np.flatnonzero((counts == 0).any(axis=1))
        for i in reseeded:
            _reseed_empty(X[:, i], d2[i], new[i], C[:, i])
        if prev is not None:
            moved = (new != prev).any(axis=1)
            if not moved.all():
                assign[live[~moved]] = new[~moved]
                exact = ~moved
                exact[reseeded] = False
                wcss[live[exact]] = best[exact].sum(axis=1)
                live, new, X = live[moved], new[moved], X[:, moved]
        prev = new
        if live.size == 0:
            break
        C = _cluster_means(X, new, k)
    assign[live] = prev
    return assign, wcss


def _wcss(X: np.ndarray, assigns: np.ndarray, k: int) -> np.ndarray:
    """Each run's WCSS: the .sum() of each point's squared distance to the mean
    of its cluster, from the (d, runs, n) point planes and (runs, n) assignments."""
    d2 = _sq_dists(X, _cluster_means(X, assigns, k))
    return np.take_along_axis(d2, assigns[:, None, :], axis=1)[:, 0].sum(axis=1)


def _best_restarts(
    X: np.ndarray, assigns: np.ndarray, k: int, restarts: int, wcss: np.ndarray
) -> np.ndarray:
    """Each frame's assignment of least WCSS among its `restarts` consecutive
    runs, ties to the earliest. `wcss` holds the runs' WCSS as `_lloyd` gives
    it; its NaN entries are computed here."""
    runs = assigns.shape[0]
    redo = np.flatnonzero(np.isnan(wcss))
    if redo.size:
        wcss[redo] = _wcss(X[:, redo], assigns[redo], k)
    return assigns[np.arange(0, runs, restarts) + wcss.reshape(-1, restarts).argmin(axis=1)]


def kmeans(points, k: int, seed) -> np.ndarray:
    """Lloyd's iterations from k-means++ seeding; best of KMEANS_RESTARTS runs by WCSS.

    `points` is a (frames, n, d) stack and `seed` a sequence of one seed per
    frame, each a ``SeedSequence`` or an integer >= 0; the result is the
    (frames, n) labels. Each frame gets the labels it would get on its own,
    ties in WCSS going to the earliest restart. The restarts of many frames
    run together in one Lloyd loop, in batches of bounded size. Each squared
    distance is computed once: the seeding's distance rows serve Lloyd's first
    pass, and a restart that stops on a repeated assignment takes its WCSS from
    that last pass; only restarts that hit KMEANS_MAX_ITERS or re-seeded in
    their last pass are measured again.

    A frame's restarts all draw from one ``np.random.default_rng`` of its seed:
    first ``integers(n, size=KMEANS_RESTARTS)``, restart r's first center;
    then one ``random(KMEANS_RESTARTS)`` per later center, which picks restart
    r's next point by the inverse CDF of its squared distances to the nearest
    center so far, or, when those are all zero, point ``floor(u * n)`` of that
    same uniform u.
    Squared distances come from `_sq_dists`, a cluster's mean is its row-order
    sum over its count, and a restart's WCSS is the ``.sum()`` of its points'
    squared distances to their means.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 3:
        raise ValueError(f"points must be a (frames, n, d) stack, got shape {pts.shape}")
    seeds = [
        s if isinstance(s, np.random.SeedSequence) else _require_int("seed", s, 0) for s in seed
    ]
    if len(seeds) != pts.shape[0]:
        raise ValueError(f"expected {pts.shape[0]} seeds, one per frame, got {len(seeds)}")
    frames, n, d = pts.shape
    k = _require_int("k", k, 1, n)
    if not np.isfinite(pts).all():
        raise ValueError("points must be finite")
    restarts = KMEANS_RESTARTS
    rngs = [np.random.default_rng(s) for s in seeds]
    per_batch = max(1, _KMEANS_BATCH_ELEMENTS // (restarts * n * max(k, d)))
    labels = np.empty((frames, n), dtype=np.intp)
    for lo in range(0, frames, per_batch):
        hi = min(lo + per_batch, frames)
        X = np.repeat(pts[lo:hi].transpose(2, 0, 1), restarts, axis=1)
        first = np.concatenate([g.integers(n, size=restarts) for g in rngs[lo:hi]])
        # k - 1 calls of random(restarts) draw what one random((k - 1, restarts)) does
        u = np.concatenate([g.random((k - 1, restarts)) for g in rngs[lo:hi]], axis=1)
        assigns, wcss = _lloyd(X, *_kmeans_pp(X, first, u), KMEANS_MAX_ITERS)
        labels[lo:hi] = _best_restarts(X, assigns, k, restarts, wcss)
    return labels


def _max_assignment(table: np.ndarray) -> list[int]:
    """Column assigned to each row of a square table so that the sum is largest.

    Shortest augmenting paths on the negated table (Crouse 2016, "On implementing
    2D rectangular assignment algorithms"), breaking ties as scipy's
    linear_sum_assignment(table, maximize=True) does, so that both return the
    same assignment.
    """
    k = table.shape[0]
    cost = [[-float(x) for x in row] for row in table.tolist()]
    u = [0.0] * k
    v = [0.0] * k
    path = [-1] * k
    col4row = [-1] * k
    row4col = [-1] * k
    for cur_row in range(k):
        shortest = [math.inf] * k
        seen_rows = [False] * k
        seen_cols = [False] * k
        # reverse order makes a constant table give the identity
        remaining = list(range(k - 1, -1, -1))
        i = cur_row
        min_val = 0.0
        sink = -1
        while sink == -1:
            seen_rows[i] = True
            index = -1
            lowest = math.inf
            for it, j in enumerate(remaining):
                r = min_val + cost[i][j] - u[i] - v[j]
                if r < shortest[j]:
                    path[j] = i
                    shortest[j] = r
                # among equal costs take a free column, which ends the path
                if shortest[j] < lowest or (shortest[j] == lowest and row4col[j] == -1):
                    lowest = shortest[j]
                    index = it
            min_val = lowest
            j = remaining[index]
            if row4col[j] == -1:
                sink = j
            else:
                i = row4col[j]
            seen_cols[j] = True
            remaining[index] = remaining[-1]
            remaining.pop()
        u[cur_row] += min_val
        for i in range(k):
            if seen_rows[i] and i != cur_row:
                u[i] += min_val - shortest[col4row[i]]
        for j in range(k):
            if seen_cols[j]:
                v[j] -= min_val - shortest[j]
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur_row:
                break
    return col4row


def align_labels(prev, cur, k: int) -> np.ndarray:
    """Rename cur's labels to maximize agreement with prev; partition is unchanged."""
    prev = np.asarray(prev)
    cur = np.asarray(cur)
    if prev.shape != cur.shape or prev.ndim != 1:
        raise ValueError("prev and cur must be 1-D label arrays of equal length")
    k = _require_int("k", k, 1)
    if prev.min() < 0 or prev.max() >= k or cur.min() < 0 or cur.max() >= k:
        raise ValueError("labels must lie in [0, k)")
    overlap = np.bincount(cur * k + prev, minlength=k * k).reshape(k, k)
    perm = np.array(_max_assignment(overlap), dtype=np.int64)
    return perm[cur]


def align_sequence(ls: LabelSequence) -> LabelSequence:
    """Chain align_labels over consecutive frames for presentation consistency."""
    out = ls.labels.copy()
    for t in range(1, ls.t_len):
        out[t] = align_labels(out[t - 1], out[t], ls.k)
    return LabelSequence(out, ls.k)


def static_sc(seq: TVGraphSequence, k: int, seed: int) -> LabelSequence:
    """Per-frame spectral clustering: k smallest eigenvectors, then seeded k-means.

    Each frame's dense Laplacian gets its own ``np.linalg.eigh``, so this path
    loads no scipy. Every frame's eigensolve runs before any k-means: a LAPACK
    call wakes the BLAS worker threads, which then spin through whatever
    single-threaded work follows it, so interleaving the two about doubles the
    CPU time. The CLI runs on one BLAS thread, so no thread spins there at all;
    library callers can do the same with ``tvclust.entry.one_blas_thread``
    (README, "Performance notes"). One batched eigh over all frames is no
    faster and holds every frame's eigenbasis at once.
    """
    k = _require_int("k", k, 2, seq.n)
    root = np.random.SeedSequence(entropy=_require_int("seed", seed, 0), spawn_key=_STATIC_TAG)
    frame_seeds = root.spawn(seq.t_len)
    embeddings = np.stack([smallest_eigenvectors(dense_laplacian(g), k)[1] for g in seq.graphs])
    return LabelSequence(kmeans(embeddings, k, frame_seeds), k)


def _warm_start(x0: np.ndarray, V: np.ndarray, rng) -> np.ndarray:
    """x0 projected off each frame's constraint directions V[t], scaled to norm
    sqrt(n), and sign-aligned with the frame before.

    A frame where the projection leaves (almost) nothing, because x0 lies in the
    span of V[t], starts from a random draw of `rng` projected the same way, drawn
    in frame order. In tv_cluster_multi x0 is orthogonal to the earlier levels'
    starts, so this guards against an earlier level's solve ending on x0's
    direction.
    """
    t_len, _, n = V.shape
    C = prox_slab_frames(np.tile(x0, (t_len, 1)), V, 0.0)
    for t in np.flatnonzero(np.linalg.norm(C, axis=1) < 1e-8):
        C[t] = prox_slab_frames(rng.standard_normal((1, n)), V[t : t + 1], 0.0)[0]
    C = prox_sphere_frames(C)
    for t in range(1, t_len):
        if float(C[t] @ C[t - 1]) < 0.0:
            C[t] = -C[t]
    return C


def tv_cluster_multi(
    seq: TVGraphSequence, k: int, cfg: SolverConfig
) -> tuple[LabelSequence, EmbeddingSequence, list[SolveResult]]:
    """K-way clustering by k-1 sequential solves, each constrained orthogonal to the
    all-ones vector and to the cluster vectors found before it.

    Level l (1 to k-1) starts from the eigenvector of the l-th smallest
    eigenvalue (counting from 0) of the time-averaged Laplacian, the sum of the
    frames' dense_laplacian divided by t_len. Averaging pools
    the per-frame spectra, which separates slowly drifting cluster structure
    that no single frame resolves; per-frame eigenvectors start the solve inside
    frame-noise basins it cannot leave. All levels take their starts from one
    eigensolve, so the starts are orthonormal even where an eigenvalue repeats:
    on a graph with several components every level starts in the null space.
    All levels solve on one BlockLaplacian of the sequence, so its block and
    beta are built once.

    Returns the labels, the (t_len, n, k-1) cluster vectors and each solve's
    result. For k = 2 the labels are the signs of the one cluster vector; for
    larger k they come from per-frame k-means on the cluster vectors, aligned
    frame to frame.
    """
    k = _require_int("k", k, 2, seq.n)
    warm_rng = np.random.default_rng(
        np.random.SeedSequence(entropy=cfg.seed, spawn_key=_WARM_TAG)
    )
    mean_laplacian = sum(dense_laplacian(g) for g in seq.graphs) / seq.t_len
    _, starts = smallest_eigenvectors(mean_laplacian, k)
    op = BlockLaplacian(seq)  # every level solves on the same operator
    V = np.ones((seq.t_len, 1, seq.n))
    results: list[SolveResult] = []
    for level in range(1, k):
        res = pds_solve(op, V, cfg, _warm_start(starts[:, level], V, warm_rng))
        results.append(res)
        unit = res.c / np.linalg.norm(res.c, axis=1, keepdims=True)
        V = np.concatenate([V, unit[:, None, :]], axis=1)
    emb = np.stack([r.c for r in results], axis=2)
    if k == 2:
        labels = LabelSequence((emb[:, :, 0] < 0).astype(np.int64), 2)
    else:
        km_seeds = np.random.SeedSequence(entropy=cfg.seed, spawn_key=_KMEANS_TAG).spawn(seq.t_len)
        labels = align_sequence(LabelSequence(kmeans(emb, k, km_seeds), k))
    return labels, EmbeddingSequence(emb), results
