"""Reference computations the benchmark checks the program's outputs against.

Everything here is written apart from `tvclust`: it imports nothing from the
package, so a fault in the program cannot hide in its own check.
"""

from __future__ import annotations

import itertools
from pathlib import Path

import numpy as np
import scipy.sparse
import scipy.sparse.csgraph


def pair_agreements(est, truth) -> int:
    """Number of unordered node pairs on which two labelings agree about
    co-membership, from the contingency table of the two labelings."""
    est = np.asarray(est, dtype=np.int64)
    truth = np.asarray(truth, dtype=np.int64)
    if est.shape != truth.shape or est.ndim != 1:
        raise ValueError("label vectors must be 1-D and of equal length")
    n = est.size
    _, e = np.unique(est, return_inverse=True)
    _, t = np.unique(truth, return_inverse=True)
    table = np.zeros((e.max() + 1, t.max() + 1), dtype=np.int64)
    np.add.at(table, (e, t), 1)

    def pairs(x):
        return int((x * (x - 1) // 2).sum())

    both = pairs(table)
    same_e = pairs(table.sum(axis=1))
    same_t = pairs(table.sum(axis=0))
    total = n * (n - 1) // 2
    # agree = together in both + apart in both
    return both + (total - same_e - same_t + both)


def pair_accuracy(est, truth) -> float:
    """Share of node pairs on which the two labelings agree, 2 * agree / (n (n - 1))."""
    n = np.asarray(est).size
    if n < 2:
        raise ValueError("need at least two nodes")
    return 2.0 * pair_agreements(est, truth) / (n * (n - 1))


def label_changes(prev, cur, k: int) -> int:
    """Fewest nodes whose label differs between two frames over all k!
    relabelings of `cur`, by brute force."""
    prev = np.asarray(prev, dtype=np.int64)
    cur = np.asarray(cur, dtype=np.int64)
    perms = np.array(list(itertools.permutations(range(k))), dtype=np.int64)
    return int((perms[:, cur] != prev[None, :]).sum(axis=1).min())


def total_label_changes(labels, k: int) -> int:
    """Sum of `label_changes` over consecutive frames of a (t_len, n) labeling."""
    labels = np.asarray(labels)
    return sum(label_changes(labels[t - 1], labels[t], k) for t in range(1, labels.shape[0]))


def _data_lines(path) -> list[str]:
    text = Path(path).read_bytes().decode("utf-8")
    if "\r" in text:
        raise ValueError(f"{path}: expected LF line endings")
    return [ln for ln in text.split("\n") if ln.strip()]


def parse_tvg(path) -> tuple[int, list[np.ndarray]]:
    """Read a `.tvg` file into (n, per-frame (m, 3) arrays of i, j, w)."""
    lines = _data_lines(path)
    head = lines[0].split()
    if len(head) != 4 or head[:2] != ["tvg", "1"]:
        raise ValueError(f"{path}: bad header {lines[0]!r}")
    n, t_len = int(head[2]), int(head[3])
    frames: list[list[tuple[int, int, float]]] = [[] for _ in range(t_len)]
    for ln in lines[1:]:
        t, i, j, w = ln.split()
        t, i, j = int(t), int(i), int(j)
        if not (0 <= t < t_len and 0 <= i < j < n):
            raise ValueError(f"{path}: bad edge line {ln!r}")
        frames[t].append((i, j, float(w)))
    return n, [np.array(f, dtype=float).reshape(-1, 3) for f in frames]


def parse_lbl(path) -> tuple[int, np.ndarray]:
    """Read a `.lbl` file into (k, (t_len, n) int64 labels)."""
    lines = _data_lines(path)
    head = lines[0].split()
    if len(head) != 5 or head[:2] != ["lbl", "1"]:
        raise ValueError(f"{path}: bad header {lines[0]!r}")
    n, t_len, k = int(head[2]), int(head[3]), int(head[4])
    rows = np.array([[int(x) for x in ln.split()] for ln in lines[1:]], dtype=np.int64)
    if rows.shape != (t_len, n) or rows.min() < 0 or rows.max() >= k:
        raise ValueError(f"{path}: labels do not match the header {lines[0]!r}")
    return k, rows


def laplacian(n: int, edges: np.ndarray) -> np.ndarray:
    """Dense combinatorial Laplacian D - W of an (m, 3) edge list."""
    L = np.zeros((n, n))
    i = edges[:, 0].astype(np.int64)
    j = edges[:, 1].astype(np.int64)
    w = edges[:, 2]
    np.add.at(L, (i, j), -w)
    np.add.at(L, (j, i), -w)
    np.add.at(L, (i, i), w)
    np.add.at(L, (j, j), w)
    return L


def objective(C: np.ndarray, laplacians: list[np.ndarray], alpha: float) -> float:
    """0.5 * sum_t c_t' L_t c_t + alpha * sum_{t>=1} ||c_t - c_{t-1}||_1."""
    quad = sum(float(c @ L @ c) for c, L in zip(C, laplacians))
    return 0.5 * quad + alpha * float(np.abs(np.diff(C, axis=0)).sum())


def components(n: int, edges: np.ndarray) -> tuple[int, np.ndarray]:
    """Connected components of an undirected edge list, by scipy.sparse.csgraph."""
    i = edges[:, 0].astype(np.int64)
    j = edges[:, 1].astype(np.int64)
    adj = scipy.sparse.coo_matrix((np.ones(i.size), (i, j)), shape=(n, n))
    return scipy.sparse.csgraph.connected_components(adj, directed=False)


def same_partition(a, b) -> bool:
    """True when two labelings group the nodes identically, names aside."""
    return pair_agreements(a, b) == np.asarray(a).size * (np.asarray(a).size - 1) // 2


def edge_density_ok(frames, labels, p_intra: float, p_inter: float, z: float = 5.0) -> bool:
    """Pooled over a sequence, intra- and inter-cluster edge shares lie within
    z binomial standard deviations of p_intra and p_inter."""
    hits = {True: 0, False: 0}
    pairs = {True: 0, False: 0}
    for edges, lab in zip(frames, labels):
        n = lab.size
        sizes = np.bincount(lab)
        intra_pairs = int((sizes * (sizes - 1) // 2).sum())
        pairs[True] += intra_pairs
        pairs[False] += n * (n - 1) // 2 - intra_pairs
        same = lab[edges[:, 0].astype(np.int64)] == lab[edges[:, 1].astype(np.int64)]
        hits[True] += int(same.sum())
        hits[False] += int((~same).sum())
    for intra, p in ((True, p_intra), (False, p_inter)):
        m = pairs[intra]
        sd = np.sqrt(p * (1.0 - p) / m)
        if abs(hits[intra] / m - p) > z * sd:
            return False
    return True
