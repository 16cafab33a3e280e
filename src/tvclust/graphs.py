"""Graph containers, Laplacians and eigensolvers."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

# scipy is imported by the functions that call it, so importing tvclust stays cheap
if TYPE_CHECKING:
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


def _laplacian_entries(g: WeightedGraph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rows, cols, vals) of the Laplacian: -w at both (i, j) and (j, i), then every
    degree on the diagonal, isolated nodes included; no position appears twice."""
    i, j, w = g.edge_arrays()
    diag = np.arange(g.n)
    rows = np.concatenate([i, j, diag])
    cols = np.concatenate([j, i, diag])
    vals = np.concatenate([-w, -w, g.degrees()])
    return rows, cols, vals


def dense_laplacian(g: WeightedGraph) -> np.ndarray:
    """The combinatorial Laplacian as an (n, n) numpy array: degrees on the
    diagonal, -w off it; rows sum to zero. Entries are added to zeros, as
    scipy's ``toarray`` adds them, so the -w of a zero-weight edge is stored as
    +0.0 and the array equals ``block_laplacian`` of the one-frame sequence
    made ``toarray()``, bit for bit. Needs no scipy."""
    rows, cols, vals = _laplacian_entries(g)
    L = np.zeros((g.n, g.n))
    L[rows, cols] += vals
    return L


def block_laplacian(seq: TVGraphSequence) -> scipy.sparse.csr_matrix:
    """The block-diagonal CSR Laplacian of the sequence, frame t in rows and
    columns t*n to (t+1)*n, the operator of the splitting iteration.

    One ``csr_matrix((vals, (rows, cols)))`` call on every frame's Laplacian
    entries, shifted by t*n. The result has sorted indices and no duplicates,
    and its ``indptr``, ``indices`` and ``data`` (index dtype included) equal
    ``scipy.sparse.block_diag`` of the per-frame CSR matrices built the same
    way; the -w of a zero-weight edge is stored as an explicit -0.0.
    """
    import scipy.sparse

    n = seq.n
    parts = [_laplacian_entries(g) for g in seq.graphs]
    for t, (r, c, _) in enumerate(parts):
        # each frame's entries are fresh arrays, so they are shifted in place
        r += t * n
        c += t * n
    rows, cols, vals = (np.concatenate(a) for a in zip(*parts))
    # the per-frame entries must not live on beside scipy's copies
    del parts
    size = seq.t_len * n
    return scipy.sparse.csr_matrix((vals, (rows, cols)), shape=(size, size))


def largest_eigenvalue(seq: TVGraphSequence) -> float:
    """Largest eigenvalue of the sequence's block-diagonal Laplacian: the
    maximum over its frames of the top eigenvalue of ``np.linalg.eigvalsh`` on
    the frame's dense_laplacian.

    Exact to LAPACK precision. Frames are solved one at a time, so only one
    dense (n, n) copy exists at once.
    """
    return max(float(np.linalg.eigvalsh(dense_laplacian(g))[-1]) for g in seq.graphs)


def smallest_eigenvectors(L: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """m smallest eigenpairs of a dense symmetric (n, n) array, such as
    dense_laplacian's, ascending; eigenvectors orthonormal, as columns.

    One full ``np.linalg.eigh`` (LAPACK syevd); the first m eigenvalues and
    columns are returned as copies, so the full eigenbasis can be freed. Where
    an eigenvalue repeats across the m-th place, any orthonormal basis of its
    eigenspace is an equally valid answer.
    """
    if not isinstance(L, np.ndarray) or L.ndim != 2 or L.shape[0] != L.shape[1]:
        raise ValueError(
            f"L must be a 2-D square numpy.ndarray, got {type(L).__name__}"
            f" of shape {getattr(L, 'shape', None)}"
        )
    n = L.shape[0]
    if not 1 <= m <= n:
        raise ValueError(f"m must be in [1, {n}], got {m}")
    vals, vecs = np.linalg.eigh(L)
    return vals[:m].copy(), vecs[:, :m].copy()

