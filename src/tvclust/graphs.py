"""Graph containers, Laplacians, eigensolvers, and the frame-difference operator."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np
import scipy.linalg
import scipy.sparse


class WeightedGraph:
    """Undirected weighted graph on nodes 0..n-1, one entry per unordered pair.

    Edges are canonicalized to i < j and sorted lexicographically; weights must
    be finite and nonnegative; self-loops and duplicate pairs are rejected.
    """

    __slots__ = ("n", "_i", "_j", "_w")

    def __init__(self, n: int, edges=()):
        if int(n) < 1:
            raise ValueError("node count must be >= 1")
        self.n = int(n)
        arr = np.asarray(edges, dtype=float)
        if arr.size == 0:
            arr = np.empty((0, 3))
        if arr.ndim != 2 or arr.shape[1] != 3:
            raise ValueError("edges must be (i, j, w) triples")
        i, j, w = arr[:, 0], arr[:, 1], arr[:, 2]
        if not (np.all(i == np.floor(i)) and np.all(j == np.floor(j))):
            raise ValueError("edge endpoints must be integers")
        i = i.astype(np.int64)
        j = j.astype(np.int64)
        if np.any((i < 0) | (i >= self.n) | (j < 0) | (j >= self.n)):
            raise ValueError("edge endpoint out of range")
        if np.any(i == j):
            raise ValueError("self-loops are not allowed")
        if not np.all(np.isfinite(w)) or np.any(w < 0):
            raise ValueError("edge weights must be finite and nonnegative")
        lo, hi = np.minimum(i, j), np.maximum(i, j)
        order = np.lexsort((hi, lo))
        lo, hi, w = lo[order], hi[order], np.asarray(w, float)[order]
        if lo.size > 1 and np.any((lo[1:] == lo[:-1]) & (hi[1:] == hi[:-1])):
            raise ValueError("duplicate edge for an unordered pair")
        for a in (lo, hi, w):
            a.setflags(write=False)
        self._i, self._j, self._w = lo, hi, w

    @property
    def edges(self) -> list[tuple[int, int, float]]:
        return list(zip(self._i.tolist(), self._j.tolist(), self._w.tolist()))

    @property
    def num_edges(self) -> int:
        return int(self._i.size)

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(i, j, w) read-only arrays with i < j, lexicographically sorted."""
        return self._i, self._j, self._w

    def degrees(self) -> np.ndarray:
        d = np.zeros(self.n)
        np.add.at(d, self._i, self._w)
        np.add.at(d, self._j, self._w)
        return d

    def adjacency(self) -> scipy.sparse.csr_matrix:
        rows = np.concatenate([self._i, self._j])
        cols = np.concatenate([self._j, self._i])
        vals = np.concatenate([self._w, self._w])
        return scipy.sparse.csr_matrix((vals, (rows, cols)), shape=(self.n, self.n))

    def __eq__(self, other) -> bool:
        if not isinstance(other, WeightedGraph):
            return NotImplemented
        return (
            self.n == other.n
            and np.array_equal(self._i, other._i)
            and np.array_equal(self._j, other._j)
            and np.array_equal(self._w, other._w)
        )

    __hash__ = None

    def __repr__(self) -> str:
        return f"WeightedGraph(n={self.n}, num_edges={self.num_edges})"


@dataclass(frozen=True, eq=False)
class TVGraphSequence:
    """Graphs over a fixed registered node set, one per time slot."""

    graphs: tuple[WeightedGraph, ...]

    def __post_init__(self):
        graphs = tuple(self.graphs)
        if not graphs:
            raise ValueError("need at least one time slot")
        n = graphs[0].n
        if any(g.n != n for g in graphs):
            raise ValueError("all graphs must share the same node count")
        object.__setattr__(self, "graphs", graphs)

    @property
    def n(self) -> int:
        return self.graphs[0].n

    @property
    def t_len(self) -> int:
        return len(self.graphs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TVGraphSequence):
            return NotImplemented
        return self.graphs == other.graphs


class MaxEigenvalue(NamedTuple):
    value: float
    converged: bool


def build_laplacian(g: WeightedGraph) -> scipy.sparse.csr_matrix:
    """Combinatorial Laplacian in CSR: degrees on the diagonal, -w off it; rows sum to zero."""
    i, j, w = g.edge_arrays()
    diag = np.arange(g.n)
    rows = np.concatenate([i, j, diag])
    cols = np.concatenate([j, i, diag])
    vals = np.concatenate([-w, -w, g.degrees()])
    return scipy.sparse.csr_matrix((vals, (rows, cols)), shape=(g.n, g.n))


def quadratic_form(L: scipy.sparse.csr_matrix, f) -> float:
    """f' L f, the edge-weighted sum of squared signal differences (halved double sum)."""
    f = np.asarray(f, dtype=float)
    if f.shape != (L.shape[0],):
        raise ValueError(f"signal has shape {f.shape}, expected ({L.shape[0]},)")
    return float(f @ (L @ f))


_POWER_START_SEED = 0x5EED1E55


def _power_iteration(mat, tol: float, max_iters: int) -> tuple[float, bool]:
    n = mat.shape[0]
    rng = np.random.default_rng(_POWER_START_SEED)
    x = rng.standard_normal(n)
    x /= np.linalg.norm(x)
    lam_prev = np.inf
    for _ in range(max_iters):
        y = mat @ x
        lam = float(x @ y)
        norm_y = float(np.linalg.norm(y))
        if norm_y == 0.0:
            return 0.0, True
        if abs(lam - lam_prev) <= tol * max(abs(lam), np.finfo(float).tiny):
            return lam, True
        lam_prev = lam
        x = y / norm_y
    return lam_prev, False


def max_eigenvalue(
    Ls: Sequence[scipy.sparse.csr_matrix], tol: float = 1e-8, max_iters: int = 10000
) -> MaxEigenvalue:
    """Largest eigenvalue over a block-diagonal family, by per-block power iteration.

    The block-diagonal maximum equals the per-block maximum. On non-convergence
    the best estimate is returned with converged=False.
    """
    if len(Ls) == 0:
        raise ValueError("need at least one Laplacian")
    best = 0.0
    all_ok = True
    for L in Ls:
        lam, ok = _power_iteration(L, tol, max_iters)
        best = max(best, lam)
        all_ok = all_ok and ok
    return MaxEigenvalue(best, all_ok)


def smallest_eigenvectors(L: scipy.sparse.csr_matrix, m: int) -> tuple[np.ndarray, np.ndarray]:
    """m smallest eigenpairs, ascending; eigenvectors orthonormal, as columns."""
    n = L.shape[0]
    if not 1 <= m <= n:
        raise ValueError(f"m must be in [1, {n}], got {m}")
    vals, vecs = scipy.linalg.eigh(L.toarray(), subset_by_index=(0, m - 1))
    return vals, vecs


def temporal_diff(frames: np.ndarray) -> np.ndarray:
    """Frame 0 maps to zero; frame t >= 1 maps to frames[t] - frames[t-1]."""
    out = np.zeros_like(frames)
    out[1:] = frames[1:] - frames[:-1]
    return out


def temporal_diff_adjoint(frames: np.ndarray) -> np.ndarray:
    """Adjoint of temporal_diff; frame 0 of the input never contributes."""
    out = np.zeros_like(frames)
    out[1:] += frames[1:]
    out[:-1] -= frames[1:]
    return out
