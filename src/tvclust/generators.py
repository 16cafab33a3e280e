"""Seeded synthesis of planted-partition time-varying graphs with slow label drift."""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .clustering import LabelSequence
from .graphs import TVGraphSequence, WeightedGraph


@dataclass(frozen=True)
class SbmTvParams:
    """Parameters for a block-model sequence: per-frame edges, per-node label flips.

    The generator is driven by PCG64 streams split from `seed` with one substream
    per frame, so sequences are reproducible across platforms and frames could be
    drawn in parallel.
    """

    n_per_cluster: int
    k: int
    t_len: int
    p_intra: float
    p_inter: float
    flip_prob: float
    seed: int

    def __post_init__(self):
        # a bool is an int to Python, and a float would fail only inside the generator
        for name in ("n_per_cluster", "k", "t_len", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.n_per_cluster < 1:
            raise ValueError("n_per_cluster must be >= 1")
        if self.k < 2:
            raise ValueError("k must be >= 2")
        if self.t_len < 1:
            raise ValueError("t_len must be >= 1")
        if not 0.0 <= self.p_inter <= self.p_intra <= 1.0:
            raise ValueError("need 0 <= p_inter <= p_intra <= 1")
        if not 0.0 <= self.flip_prob <= 1.0:
            raise ValueError("flip_prob must lie in [0, 1]")

    @property
    def n(self) -> int:
        return self.n_per_cluster * self.k


def sbm_static(labels, p_intra: float, p_inter: float, rng) -> WeightedGraph:
    """Draw each unordered pair independently: p_intra on matching labels, else p_inter."""
    labels = np.asarray(labels)
    n = labels.size
    if n == 0:
        raise ValueError("labels must be nonempty")
    if not (0.0 <= p_intra <= 1.0 and 0.0 <= p_inter <= 1.0):
        raise ValueError("edge probabilities must lie in [0, 1]")
    iu, ju = np.triu_indices(n, k=1)
    p = np.where(labels[iu] == labels[ju], p_intra, p_inter)
    keep = rng.random(iu.size) < p
    edges = np.column_stack([iu[keep], ju[keep], np.ones(int(keep.sum()))])
    return WeightedGraph(n, edges)


def sbm_tv_sequence(params: SbmTvParams) -> tuple[TVGraphSequence, LabelSequence]:
    """Equisized planted partition at frame 0; afterwards each node's label flips
    independently with flip_prob (reassigned uniformly over the other k-1 clusters)
    and every frame's edges are redrawn independently under that frame's labels."""
    frame_seeds = np.random.SeedSequence(params.seed).spawn(params.t_len)
    n, k = params.n, params.k
    labels = np.empty((params.t_len, n), dtype=np.int64)
    current = np.repeat(np.arange(k, dtype=np.int64), params.n_per_cluster)
    graphs = []
    for t in range(params.t_len):
        rng = np.random.default_rng(frame_seeds[t])
        if t > 0:
            flip = rng.random(n) < params.flip_prob
            n_flips = int(flip.sum())
            if n_flips:
                current = current.copy()
                draw = rng.integers(0, k - 1, size=n_flips)
                # shift past the current label so a flipped node always moves
                current[flip] = draw + (draw >= current[flip])
        labels[t] = current
        graphs.append(sbm_static(current, params.p_intra, params.p_inter, rng))
    return TVGraphSequence(tuple(graphs)), LabelSequence(labels, k)
