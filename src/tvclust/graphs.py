"""Graph containers, Laplacians and eigensolvers."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

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


def build_laplacian(g: WeightedGraph) -> scipy.sparse.csr_matrix:
    """Combinatorial Laplacian in CSR: degrees on the diagonal, -w off it; rows sum to zero."""
    import scipy.sparse

    rows, cols, vals = _laplacian_entries(g)
    return scipy.sparse.csr_matrix((vals, (rows, cols)), shape=(g.n, g.n))


def dense_laplacian(g: WeightedGraph) -> np.ndarray:
    """The Laplacian of build_laplacian as an (n, n) numpy array, equal to its
    ``toarray()`` bit for bit: entries are added to zeros, as ``toarray`` adds
    them, so the -w of a zero-weight edge is stored as +0.0. Needs no scipy."""
    rows, cols, vals = _laplacian_entries(g)
    L = np.zeros((g.n, g.n))
    L[rows, cols] += vals
    return L


def block_laplacian(Ls: Sequence[scipy.sparse.csr_matrix]) -> scipy.sparse.csr_matrix:
    """The block-diagonal CSR of the blocks Ls, bit-identical to
    ``scipy.sparse.block_diag(Ls, format="csr")``: same index dtype, same
    ``indptr``, ``indices`` and ``data``, with sorted indices and no duplicates.

    Assembled from each block's CSR arrays, shifted by the rows and columns
    before it, without block_diag's round trip through COO. A block whose
    indices are unsorted or repeated is first brought to canonical form, as
    block_diag's conversion does.
    """
    import scipy.sparse

    if len(Ls) == 0:
        raise ValueError("need at least one Laplacian")
    blocks = []
    for L in Ls:
        L = L.tocsr()
        if not L.has_canonical_format:
            L = L.copy()
            L.sum_duplicates()
        blocks.append(L)
    rows = np.cumsum([0] + [L.shape[0] for L in blocks])
    cols = np.cumsum([0] + [L.shape[1] for L in blocks])
    nnz = np.cumsum([0] + [L.nnz for L in blocks])
    indptr = np.concatenate(
        [[0]] + [L.indptr[1:].astype(np.int64) + nnz[b] for b, L in enumerate(blocks)]
    )
    indices = np.concatenate(
        [L.indices.astype(np.int64) + cols[b] for b, L in enumerate(blocks)]
    )
    data = np.concatenate([L.data for L in blocks])
    return scipy.sparse.csr_matrix((data, indices, indptr), shape=(rows[-1], cols[-1]))


def largest_eigenvalue(Ls: Sequence[scipy.sparse.csr_matrix]) -> float:
    """Largest eigenvalue of a block-diagonal family: the maximum over its blocks
    of the top eigenvalue of ``np.linalg.eigvalsh`` on the dense block.

    Exact to LAPACK precision. Blocks are solved one at a time, so only one
    dense (n, n) copy exists at once.
    """
    if len(Ls) == 0:
        raise ValueError("need at least one Laplacian")
    return max(float(np.linalg.eigvalsh(L.toarray())[-1]) for L in Ls)


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

