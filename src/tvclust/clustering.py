"""Clustering pipelines: the per-frame baseline and the coupled sequential solves."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphs import TVGraphSequence, build_laplacian, smallest_eigenvectors
from .solver import SolveResult, SolverConfig, pds_solve

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


# Each work array of one k-means batch holds about this many float64 values at
# most (runs x n x max(k, d)): larger batches cost memory and gain little time.
_KMEANS_BATCH_ELEMENTS = 1 << 16


def _plane_sum(term, d: int, start: int = 0) -> np.ndarray:
    """term(start) + ... + term(start + d - 1), added in the order in which
    ndarray.sum(axis=-1) adds the d entries of a C-contiguous last axis.

    That order is numpy's pairwise summation: fewer than 8 terms left to right;
    up to 128 terms as 8 interleaved partial sums, combined pairwise, then the
    rest in order; more terms as two halves, the first a multiple of 8 long.
    numpy starts from 0.0, which differs from starting at the first term only
    for a -0.0 total, and sums of squares never give one. term(j, out) returns
    the j-th term, written to `out` when that is given.
    """
    if d > 128:
        half = d // 2 - d // 2 % 8
        acc = _plane_sum(term, half, start)
        acc += _plane_sum(term, d - half, start + half)
        return acc
    if d < 8:
        acc, rest = term(start), range(start + 1, start + d)
    else:
        part = [term(start + j) for j in range(8)]
        tail = start + d - d % 8
        for i in range(start + 8, tail, 8):
            for j in range(8):
                part[j] += term(i + j)
        for a, b in ((0, 1), (2, 3), (4, 5), (6, 7), (0, 2), (4, 6), (0, 4)):
            part[a] += part[b]
        acc, rest = part[0], range(tail, start + d)
    buf = None
    for j in rest:
        buf = term(j, buf)
        acc += buf
    return acc


def _sq_dists(X: np.ndarray, C: np.ndarray) -> np.ndarray:
    """(runs, m, n) squared distances from each run's m centers to its n points.

    X holds the (d, runs, n) coordinate planes of each run's points and C the
    (d, runs, m) planes of its centers. The d squared differences add up as
    ((pts - center) ** 2).sum(axis=-1) adds them, one plane at a time.
    """

    def term(j, out=None):
        out = np.subtract(X[j][:, None, :], C[j][:, :, None], out=out)
        return np.square(out, out=out)

    return _plane_sum(term, X.shape[0])


def _nearest(d2: np.ndarray) -> np.ndarray:
    """(runs, n) nearest center of every point, as d2.argmin(axis=1) picks it
    from the (runs, k, n) squared distances; ties go to the lower center."""
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
    return nearest


def _kmeans_pp(X: np.ndarray, k: int, streams: _Streams) -> np.ndarray:
    """(d, runs, k) k-means++ starting centers, one run per stream, from the
    (d, runs, n) coordinate planes of each run's points.

    Each run draws from its stream exactly what a lone run draws from its own
    generator: its first center uniformly, each later one with probability
    proportional to the squared distance to the nearest center so far, or
    uniformly once that is zero.
    """
    _, runs, n = X.shape
    rows = np.arange(runs)
    C = np.empty((X.shape[0], runs, k))
    C[:, :, 0] = X[:, rows, streams.integers(n, rows)]
    d2 = _sq_dists(X, C[:, :, :1])[:, 0]
    for c in range(1, k):
        totals = d2.sum(axis=1)
        spread = totals > 0.0
        # the inverse-CDF draw Generator.choice(n, p=p[r]) makes: the number of
        # entries of the nondecreasing cdf[r] that are <= u
        with np.errstate(invalid="ignore"):
            cdf = np.cumsum(d2 / totals[:, None], axis=1)
            cdf /= cdf[:, -1:]
        u = np.full(runs, np.nan)
        u[spread] = streams.random(rows[spread])
        idx = (cdf <= u[:, None]).sum(axis=1)
        idx[~spread] = streams.integers(n, rows[~spread])
        C[:, :, c] = X[:, rows, idx]
        np.minimum(d2, _sq_dists(X, C[:, :, c : c + 1])[:, 0], out=d2)
    return C


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


def _block_sums(grouped: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Sum of each consecutive block of `counts` rows of `grouped`, one .sum() per block."""
    ends = np.cumsum(counts).tolist()
    return np.array([grouped[e - m : e].sum() for e, m in zip(ends, counts.tolist())])


def _cluster_means(X: np.ndarray, assign: np.ndarray, k: int) -> np.ndarray:
    """(d, runs, k) means of each cluster of each run's (runs, n) assignment,
    from the (d, runs, n) coordinate planes of each run's points.

    Each mean adds its points in the order pts[mask].mean(axis=0) adds them and
    divides by the count; an empty cluster gets NaN, as that mean does.
    """
    d, runs, _ = X.shape
    bins = _bins(assign, k)
    counts = np.bincount(bins, minlength=runs * k)
    if d == 1:
        # numpy sums a single column pairwise, not in row order
        sums = _block_sums(X.ravel()[np.argsort(bins, kind="stable")], counts)[None]
    else:
        # a bincount adds each cluster's coordinates in row order
        sums = np.array([np.bincount(bins, weights=x.ravel(), minlength=runs * k) for x in X])
    with np.errstate(invalid="ignore"):
        return (sums / counts).reshape(d, runs, k)


def _lloyd(X: np.ndarray, C: np.ndarray, max_iters: int) -> np.ndarray:
    """(runs, n) assignments of Lloyd's iterations for every run at once, from
    the (d, runs, n) point planes X and (d, runs, k) starting centers C.

    A run stops once its assignment repeats, or after max_iters assignments; its
    emptied clusters are re-seeded as a lone run would re-seed them. Stopped runs
    leave the work arrays.
    """
    _, runs, n = X.shape
    k = C.shape[2]
    assign = np.empty((runs, n), dtype=np.intp)
    live = np.arange(runs)
    prev = None
    for _ in range(max_iters):
        d2 = _sq_dists(X, C)
        new = _nearest(d2)
        counts = np.bincount(_bins(new, k), minlength=new.shape[0] * k).reshape(-1, k)
        for i in np.flatnonzero((counts == 0).any(axis=1)):
            _reseed_empty(X[:, i], d2[i], new[i], C[:, i])
        if prev is not None:
            moved = (new != prev).any(axis=1)
            if not moved.all():
                assign[live[~moved]] = new[~moved]
                live, new, X = live[moved], new[moved], X[:, moved]
        prev = new
        if live.size == 0:
            break
        C = _cluster_means(X, new, k)
    assign[live] = prev
    return assign


def _wcss(X: np.ndarray, assign: np.ndarray, k: int) -> list[float]:
    """Within-cluster sum of squares of each run's (runs, n) assignment, from
    the (d, runs, n) coordinate planes of each run's points.

    Each cluster sums its squared deviations as one block of rows, and the
    clusters add up in label order, so a run scores exactly as it would on its
    own.
    """
    d, runs, n = X.shape
    bins = _bins(assign, k)
    order = np.argsort(bins, kind="stable")
    means = _cluster_means(X, assign, k).reshape(d, runs * k).T
    dev = X.reshape(d, runs * n).T[order] - means[bins[order]]
    terms = _block_sums(dev**2, np.bincount(bins, minlength=runs * k))
    scores = []
    for row in terms.reshape(runs, k).tolist():
        wcss = 0.0
        for term in row:
            wcss += term
        scores.append(wcss)
    return scores


def _best_restarts(X: np.ndarray, assigns: np.ndarray, k: int, restarts: int) -> np.ndarray:
    """Each frame's assignment of least WCSS among its `restarts` consecutive
    runs, ties to the earliest; identical assignments score identically, so
    only the first of each is scored."""
    firsts = []
    for lo in range(0, assigns.shape[0], restarts):
        seen = {}
        for r in range(lo, lo + restarts):
            seen.setdefault(assigns[r].tobytes(), r)
        firsts.append(list(seen.values()))
    rows = [r for runs in firsts for r in runs]
    score = dict(zip(rows, _wcss(X[:, rows], assigns[rows], k)))
    best = []
    for runs in firsts:
        pick, least = runs[0], np.inf
        for r in runs:
            if score[r] < least:
                pick, least = r, score[r]
        best.append(pick)
    return assigns[best]


# SeedSequence's hash constants, as numpy defines them
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_M32 = 0xFFFFFFFF


def _hashmix(value, h: int | np.ndarray, mult: int = _MULT_A):
    """SeedSequence's hashmix of value under hash constant h, with the next
    constant; value and h are ints or uint32 arrays."""
    nxt = h * mult & _M32
    value = (value ^ h) * nxt & _M32
    return value ^ value >> 16, nxt


def _mix(x, y):
    r = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _M32
    return r ^ r >> 16


def _words(x) -> list[int]:
    """The uint32 words SeedSequence reads from entropy or a spawn key: the
    little-endian words of each int in turn, one word for 0."""
    if isinstance(x, str):
        return _words(int(x, 16) if x.startswith("0x") else int(x))
    if not isinstance(x, (int, np.integer)):
        return [w for v in x for w in _words(v)]
    x = int(x)
    words = [x & _M32]
    while x > _M32:
        x >>= 32
        words.append(x & _M32)
    return words


def _mixed_prefix(root) -> tuple[list[int], list[int]]:
    """Pool words 0..7 of root's children before the last entropy word, the
    child's index, is mixed in, and the hash constant that mixes it into each.

    A child's entropy is root's run entropy, zero-padded to the pool size, then
    root's spawn key and the index; only the index differs between children.
    Pool word j of the child feeds word j of its 8-word generate_state.
    """
    size = root.pool_size
    run = _words(root.entropy)
    words = run + [0] * (size - len(run)) + _words(root.spawn_key)
    h = _INIT_A
    pool = []
    for w in words[:size]:
        v, h = _hashmix(w, h)
        pool.append(v)
    for src in range(size):
        for dst in range(size):
            if src != dst:
                v, h = _hashmix(pool[src], h)
                pool[dst] = _mix(pool[dst], v)
    for w in words[size:]:
        for dst in range(size):
            v, h = _hashmix(w, h)
            pool[dst] = _mix(pool[dst], v)
    return (
        [pool[j % size] for j in range(8)],
        [h * pow(_MULT_A, j % size, 1 << 32) & _M32 for j in range(8)],
    )


# PCG64's 128-bit multiplier as (high, low) uint64 words
_MULT_HI, _MULT_LO = np.uint64(2549297995355413924), np.uint64(4865540595714422341)
# generate_state's hash constant before each of its 8 output words
_STATE_CONSTS = np.array(
    [_INIT_B * pow(_MULT_B, j, 1 << 32) & _M32 for j in range(8)], dtype=np.uint32
)[:, None]


class _Streams:
    """The PCG64 stream of every restart of a k-means batch, drawn for many
    restarts at once.

    Restart i of a frame seeded by root draws exactly what
    ``Generator(PCG64(SeedSequence(root.entropy, spawn_key=(*root.spawn_key, i),
    pool_size=root.pool_size)))`` draws through ``integers(n)`` (n <= 2**32) and
    ``random()``. Each 128-bit state is a (high, low) pair of uint64 arrays, one
    entry a run; uint64 array arithmetic wraps modulo 2**64.
    """

    def __init__(self, roots: list, restarts: int):
        pre, consts = zip(*(_mixed_prefix(root) for root in roots))
        pre = np.repeat(np.array(pre, dtype=np.uint32).T, restarts, axis=1)
        consts = np.repeat(np.array(consts, dtype=np.uint32).T, restarts, axis=1)
        index = np.tile(np.arange(restarts, dtype=np.uint32), len(roots))
        # mix the index into the pool, then generate_state(4, uint64)
        words, _ = _hashmix(_mix(pre, _hashmix(index, consts)[0]), _STATE_CONSTS, _MULT_B)
        w = words[0::2].astype(np.uint64) | words[1::2].astype(np.uint64) << 32
        # PCG64 seeding: seed = (w0, w1) and increment = (w2, w3), high word first
        self.inc_hi = w[2] << 1 | w[3] >> 63
        self.inc_lo = w[3] << 1 | 1
        lo = self.inc_lo + w[1]
        hi = self.inc_hi + w[0] + (lo < w[1])
        self.hi, self.lo = self._step(hi, lo, self.inc_hi, self.inc_lo)
        # the high half of a 64-bit draw, held for the next 32-bit draw
        self.held = np.zeros_like(lo)
        self.has_held = np.zeros(lo.shape, dtype=bool)

    @staticmethod
    def _step(hi, lo, inc_hi, inc_lo):
        """state * multiplier + increment, modulo 2**128."""
        # the high word of lo * _MULT_LO, from products of 32-bit halves
        a0, a1, b0, b1 = lo & _M32, lo >> 32, _MULT_LO & _M32, _MULT_LO >> 32
        p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
        mid = (p00 >> 32) + (p01 & _M32) + (p10 & _M32)
        carry = a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)
        new_lo = lo * _MULT_LO + inc_lo
        new_hi = carry + lo * _MULT_HI + hi * _MULT_LO + inc_hi + (new_lo < inc_lo)
        return new_hi, new_lo

    def _next64(self, rows: np.ndarray) -> np.ndarray:
        hi, lo = self._step(self.hi[rows], self.lo[rows], self.inc_hi[rows], self.inc_lo[rows])
        self.hi[rows], self.lo[rows] = hi, lo
        x, rot = hi ^ lo, hi >> 58
        return x >> rot | x << (-rot & 63)

    def _next32(self, rows: np.ndarray) -> np.ndarray:
        """Each row's held half if it holds one, else the low half of a fresh
        64-bit draw, holding its high half."""
        held = self.has_held[rows]
        out = self.held[rows]
        x = self._next64(rows[~held])
        out[~held] = x & _M32
        self.held[rows[~held]] = x >> 32
        self.has_held[rows] = ~held
        return out

    def integers(self, n: int, rows: np.ndarray) -> np.ndarray:
        """Generator.integers(n) of each row: Lemire's bounded draw on 32 bits."""
        out = np.zeros(rows.size, dtype=np.intp)
        if n == 1:
            return out
        floor = (2**32 - n) % n
        todo = np.arange(rows.size)
        while todo.size:
            m = self._next32(rows[todo]) * np.uint64(n)
            ok = (m & _M32) >= floor
            out[todo[ok]] = m[ok] >> 32
            todo = todo[~ok]
        return out

    def random(self, rows: np.ndarray) -> np.ndarray:
        """Generator.random() of each row; a held half stays held."""
        return (self._next64(rows) >> 11) * 2.0**-53


def kmeans(points, k: int, seed, restarts: int = 50, max_iters: int = 300) -> np.ndarray:
    """Lloyd's iterations from k-means++ seeding; best of `restarts` runs by WCSS.

    `points` is one (n, d) point set (or n values) with one `seed`, giving (n,)
    labels, or a (frames, n, d) stack with a sequence of one seed per frame,
    giving (frames, n) labels. Each frame gets the labels it would get on its
    own, ties in WCSS going to the earliest restart. The restarts of many
    frames run together in one Lloyd loop, in batches of bounded size.

    Restart i of a frame whose seed is the SeedSequence `root` (any other
    seed is read as SeedSequence(seed)) draws exactly what its own generator
    ``default_rng(SeedSequence(root.entropy, spawn_key=(*root.spawn_key, i),
    pool_size=root.pool_size))`` would draw, the i-th child that spawn gives a
    fresh root. No generator is built, and root is not advanced.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    stacked = pts.ndim == 3
    if stacked:
        seeds = list(seed)
        if len(seeds) != pts.shape[0]:
            raise ValueError(f"expected {pts.shape[0]} seeds, one per frame, got {len(seeds)}")
    elif pts.ndim == 2:
        pts = pts[None]
        seeds = [seed]
    else:
        raise ValueError("points must be an (n, d) array or a (frames, n, d) stack")
    frames, n, d = pts.shape
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    if max_iters < 1:
        raise ValueError(f"max_iters must be >= 1, got {max_iters}")
    if not np.isfinite(pts).all():
        raise ValueError("points must be finite")
    roots = [
        s if isinstance(s, np.random.SeedSequence) else np.random.SeedSequence(s) for s in seeds
    ]
    # sums over coordinates follow the C layout whatever the layout of points
    pts = np.ascontiguousarray(pts)
    per_batch = max(1, _KMEANS_BATCH_ELEMENTS // (restarts * n * max(k, d)))
    labels = np.empty((frames, n), dtype=np.intp)
    for lo in range(0, frames, per_batch):
        hi = min(lo + per_batch, frames)
        X = np.repeat(pts[lo:hi].transpose(2, 0, 1), restarts, axis=1)
        streams = _Streams(roots[lo:hi], restarts)
        assigns = _lloyd(X, _kmeans_pp(X, k, streams), max_iters)
        labels[lo:hi] = _best_restarts(X, assigns, k, restarts)
    # a copy, so that one frame's labels own their memory as a stack's do
    return labels if stacked else labels[0].copy()


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

    Every frame's eigensolve runs before any k-means: a LAPACK call wakes the
    BLAS worker threads, which then spin through whatever single-threaded work
    follows it, so interleaving the two about doubles the CPU time. The CLI
    runs on one BLAS thread, so no thread spins there at all; library callers
    can do the same with ``tvclust.entry.one_blas_thread`` (README,
    "Performance notes").
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    if k > seq.n:
        raise ValueError("k must not exceed the node count")
    frame_seeds = np.random.SeedSequence(entropy=seed, spawn_key=_STATIC_TAG).spawn(seq.t_len)
    embeddings = np.stack([smallest_eigenvectors(build_laplacian(g), k)[1] for g in seq.graphs])
    return LabelSequence(kmeans(embeddings, k, frame_seeds), k)


def _warm_start(Ls, V: np.ndarray, rng) -> np.ndarray:
    """Eigenvector of the time-averaged Laplacian, projected off each frame's
    constraint directions V[t] and scaled to norm sqrt(n) in every frame.

    Averaging pools the per-frame spectra, which separates slowly drifting cluster
    structure that no single frame resolves; per-frame eigenvectors start the solve
    inside frame-noise basins it cannot leave. For a single frame the average is
    that frame's Laplacian, so this reduces to its own spectral start.
    """
    import scipy.linalg

    t_len, n_dirs, n = V.shape
    m = min(n_dirs + 1, n)
    avg = sum(Ls).toarray() / t_len
    _, vecs = scipy.linalg.eigh(avg, subset_by_index=(0, m - 1))
    x0 = vecs[:, m - 1]
    C = np.empty((t_len, n))
    for t in range(t_len):
        x = x0.copy()
        for attempt in range(2):
            for v in V[t]:
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


def tv_cluster_multi(
    seq: TVGraphSequence, k: int, cfg: SolverConfig
) -> tuple[LabelSequence, EmbeddingSequence, list[SolveResult]]:
    """K-way clustering by k-1 sequential solves, each constrained orthogonal to the
    all-ones vector and to the cluster vectors found before it.

    Returns the labels, the (t_len, n, k-1) cluster vectors and each solve's
    result. For k = 2 the labels are the signs of the one cluster vector; for
    larger k they come from per-frame k-means on the cluster vectors, aligned
    frame to frame.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    if k > seq.n:
        raise ValueError("k must not exceed the node count")
    Ls = [build_laplacian(g) for g in seq.graphs]
    warm_rng = np.random.default_rng(
        np.random.SeedSequence(entropy=cfg.seed, spawn_key=_WARM_TAG)
    )
    V = np.ones((seq.t_len, 1, seq.n))
    results: list[SolveResult] = []
    for _ in range(k - 1):
        res = pds_solve(Ls, V, cfg, _warm_start(Ls, V, warm_rng))
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
