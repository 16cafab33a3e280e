"""Evaluation: pair accuracy, label changes, eigengap profiles, accuracy reports."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clustering import LabelSequence
from .graphs import _require_int, _square_size, smallest_eigenvectors


def _same_pairs(counts: np.ndarray) -> int:
    """Number of unordered pairs drawn within groups of the given sizes."""
    counts = counts.astype(np.int64)
    return int((counts * (counts - 1) // 2).sum())


def pair_accuracy(est, truth) -> float:
    """Fraction of distinct node pairs on which the two labelings agree about
    co-membership. Invariant to renaming labels on either side. Counts pairs
    exactly from the contingency table of the two labelings, so no n x n
    indicator matrix is materialized."""
    est = np.asarray(est)
    truth = np.asarray(truth)
    if est.shape != truth.shape or est.ndim != 1:
        raise ValueError("label vectors must be 1-D and of equal length")
    n = est.size
    if n < 2:
        raise ValueError("need at least two nodes")
    # a NaN label equals no label, itself included, so each NaN is its own group
    _, e = np.unique(est, return_inverse=True, equal_nan=False)
    _, t = np.unique(truth, return_inverse=True, equal_nan=False)
    table = np.bincount(e * (t.max() + 1) + t)
    # pairs split by both labelings = all pairs - same in est - same in truth + same in both
    both = _same_pairs(table)
    agree = n * (n - 1) // 2 - _same_pairs(np.bincount(e)) - _same_pairs(np.bincount(t)) + 2 * both
    return 2.0 * agree / (n * (n - 1))


def label_changes(labels) -> np.ndarray:
    """Per consecutive frame pair of a (t_len, n) labeling (already aligned), the
    number of nodes whose label differs: t_len - 1 counts."""
    labels = np.asarray(labels)
    return (labels[1:] != labels[:-1]).sum(axis=1)


def eigengap_profile(L: np.ndarray, m: int) -> np.ndarray:
    """Consecutive differences of the m smallest eigenvalues (m - 1 gaps) of a
    dense (n, n) Laplacian, such as ``graphs.dense_laplacian``'s; needs no scipy."""
    vals, _ = smallest_eigenvectors(L, _require_int("m", m, 2, _square_size(L)))
    return np.diff(vals)


@dataclass(frozen=True, eq=False)
class AccuracyReport:
    """Per-frame accuracy against a reference labeling, plus the estimate's own
    frame-to-frame label changes (callers align the estimate first)."""

    per_frame: np.ndarray
    mean: float
    mismatch_per_frame: np.ndarray

    def __post_init__(self):
        pf = np.array(self.per_frame, dtype=float)
        mm = np.array(self.mismatch_per_frame, dtype=np.int64)
        if pf.ndim != 1 or mm.shape != (pf.size - 1,):
            raise ValueError("need T accuracies and T-1 mismatch counts")
        pf.setflags(write=False)
        mm.setflags(write=False)
        object.__setattr__(self, "per_frame", pf)
        object.__setattr__(self, "mismatch_per_frame", mm)


def accuracy_report(est: LabelSequence, truth: LabelSequence) -> AccuracyReport:
    if est.t_len != truth.t_len or est.n != truth.n:
        raise ValueError("estimate and reference must have the same shape")
    per_frame = np.array(
        [pair_accuracy(est.frame(t), truth.frame(t)) for t in range(est.t_len)]
    )
    return AccuracyReport(per_frame, float(per_frame.mean()), label_changes(est.labels))
