import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle_utils import kmeans_oracle
from tvclust.clustering import (
    LabelSequence,
    _cluster_means,
    align_labels,
    align_sequence,
    kmeans,
    static_sc,
    tv_cluster_multi,
    tv_cluster_two,
)
from tvclust.generators import sbm_static, sbm_tv_sequence, SbmTvParams
from tvclust.graphs import TVGraphSequence, WeightedGraph
from tvclust.metrics import pair_accuracy
from tvclust.solver import SolverConfig


def cliques(sizes, n):
    edges = []
    start = 0
    for s in sizes:
        for i in range(start, start + s):
            for j in range(i + 1, start + s):
                edges.append((i, j, 1.0))
        start += s
    return WeightedGraph(n, edges)


def wcss_of(points, assign, k):
    total = 0.0
    for c in range(k):
        mask = assign == c
        if mask.any():
            ctr = points[mask].mean(axis=0)
            total += float(((points[mask] - ctr) ** 2).sum())
    return total


class TestKmeans:
    def test_two_far_groups(self):
        rng = np.random.default_rng(0)
        pts = np.vstack([rng.normal(0, 0.1, (10, 2)), rng.normal(50, 0.1, (10, 2))])
        assign = kmeans(pts, 2, seed=1)
        assert len(set(assign[:10])) == 1 and len(set(assign[10:])) == 1
        assert assign[0] != assign[10]

    def test_n_equals_k(self):
        pts = np.arange(5.0)[:, None]
        assign = kmeans(pts, 5, seed=2)
        assert sorted(assign.tolist()) == [0, 1, 2, 3, 4]

    def test_matches_exhaustive_partition_oracle(self):
        rng = np.random.default_rng(3)
        for k in (2, 3):
            pts = rng.standard_normal((6, 1))
            got = wcss_of(pts, kmeans(pts, k, seed=4), k)
            best = min(
                wcss_of(pts, np.array(a), k)
                for a in itertools.product(range(k), repeat=6)
            )
            assert got == pytest.approx(best, rel=1e-9, abs=1e-12)

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            kmeans(np.zeros((3, 2)), 4, seed=0)

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        pts = rng.standard_normal((30, 3))
        a = kmeans(pts, 3, seed=6)
        b = kmeans(pts, 3, seed=6)
        assert np.array_equal(a, b)

    def test_rejects_no_restarts_or_iterations(self):
        pts = np.arange(6.0)[:, None]
        with pytest.raises(ValueError, match="restarts"):
            kmeans(pts, 2, seed=0, restarts=0)
        with pytest.raises(ValueError, match="max_iters"):
            kmeans(pts, 2, seed=0, max_iters=0)

    def test_reseeds_like_oracle_on_identical_points(self):
        # every point ties for the first center, so Lloyd's first pass empties
        # all other clusters and each is re-seeded
        pts = np.zeros((7, 2))
        for k in (2, 3, 7):
            got = kmeans(pts, k, seed=3, restarts=4)
            assert np.array_equal(got, kmeans_oracle(pts, k, seed=3, restarts=4))

    @given(
        seed=st.integers(0, 2**32 - 1),
        runs=st.integers(1, 4),
        n=st.integers(1, 60),
        d=st.integers(1, 9),
        k=st.integers(1, 5),
    )
    @settings(max_examples=100, deadline=None)
    def test_batched_means_match_masked_means(self, seed, runs, n, d, k):
        """Batched cluster means are bit-identical to pts[mask].mean(axis=0), whose
        summation order differs between one column and several."""
        rng = np.random.default_rng(seed)
        pts = rng.standard_normal((n, d)) * 10.0 ** rng.integers(-3, 4, (n, d))
        assign = rng.integers(0, k, (runs, n))
        got = _cluster_means(pts, assign, k)
        for r in range(runs):
            for c in range(k):
                mask = assign[r] == c
                if mask.any():
                    assert np.array_equal(got[r, c], pts[mask].mean(axis=0))
                else:
                    assert np.isnan(got[r, c]).all()

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 40),
        d=st.integers(1, 9),
        layout=st.sampled_from(["gaussian", "grid", "two_sites", "scaled"]),
        k_share=st.floats(0.0, 1.0),
        restarts=st.integers(1, 6),
        max_iters=st.sampled_from([1, 2, 3, 300]),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_sequential_oracle(self, seed, n, d, layout, k_share, restarts, max_iters):
        """The batched restarts give the labels of running them one at a time,
        including duplicate points and clusters emptied and re-seeded."""
        rng = np.random.default_rng(seed)
        if layout == "gaussian":
            pts = rng.standard_normal((n, d))
        elif layout == "grid":  # few distinct coordinates, so many duplicate points
            pts = rng.integers(0, 3, (n, d)).astype(float)
        elif layout == "two_sites":  # fewer distinct points than clusters once k > 2
            pts = np.zeros((n, d))
            pts[: n // 3] = 1.0
        else:
            pts = rng.standard_normal((n, d)) * np.resize([1e3, 1e-3, 1.0], d)
        k = 1 + int(k_share * (n - 1))
        want = kmeans_oracle(pts, k, seed, restarts=restarts, max_iters=max_iters)
        got = kmeans(pts, k, seed, restarts=restarts, max_iters=max_iters)
        assert np.array_equal(got, want)


class TestAlignLabels:
    def test_identity(self):
        prev = np.array([0, 1, 2, 0])
        assert np.array_equal(align_labels(prev, prev, 3), prev)

    def test_swap_undone(self):
        prev = np.array([0, 0, 1, 1])
        cur = np.array([1, 1, 0, 0])
        assert np.array_equal(align_labels(prev, cur, 2), prev)

    def test_one_changed_node(self):
        prev = np.array([0, 0, 1, 1, 2, 2])
        cur = np.array([2, 2, 0, 0, 1, 0])  # renamed, plus node 5 moved
        out = align_labels(prev, cur, 3)
        assert int((out == prev).sum()) == 5

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 30),
        k=st.integers(2, 5),
    )
    @settings(max_examples=50, deadline=None)
    def test_partition_is_unchanged(self, seed, n, k):
        rng = np.random.default_rng(seed)
        prev = rng.integers(0, k, n)
        cur = rng.integers(0, k, n)
        out = align_labels(prev, cur, k)
        assert pair_accuracy(out, cur) == 1.0


class TestStaticSc:
    def test_separable_two_block(self):
        rng = np.random.default_rng(7)
        labels = np.repeat([0, 1], 20)
        g = sbm_static(labels, 0.9, 0.05, rng)
        est = static_sc(TVGraphSequence((g,)), 2, seed=8)
        assert pair_accuracy(est.frame(0), labels) >= 0.99

    def test_disconnected_cliques_exact(self):
        g = cliques([4, 4], 8)
        est = static_sc(TVGraphSequence((g,)), 2, seed=9)
        truth = np.repeat([0, 1], 4)
        assert pair_accuracy(est.frame(0), truth) == 1.0

    def test_identical_graphs_give_identical_partitions(self):
        rng = np.random.default_rng(10)
        labels = np.repeat([0, 1, 2], 8)
        g = sbm_static(labels, 0.9, 0.05, rng)
        est = static_sc(TVGraphSequence((g, g, g)), 3, seed=11)
        for t in range(1, 3):
            assert pair_accuracy(est.frame(t), est.frame(0)) == 1.0


class TestTvClusterTwo:
    def test_disconnected_cliques_every_frame(self):
        g = cliques([5, 5], 10)
        seq = TVGraphSequence((g,) * 4)
        est, res = tv_cluster_two(seq, SolverConfig(alpha=1.0, seed=12))
        truth = np.repeat([0, 1], 5)
        for t in range(4):
            assert pair_accuracy(est.frame(t), truth) == 1.0

    def test_single_frame_matches_static(self):
        rng = np.random.default_rng(13)
        labels = np.repeat([0, 1], 20)
        g = sbm_static(labels, 0.9, 0.05, rng)
        seq = TVGraphSequence((g,))
        est, _ = tv_cluster_two(seq, SolverConfig(seed=14))
        st_est = static_sc(seq, 2, seed=14)
        assert pair_accuracy(est.frame(0), st_est.frame(0)) == 1.0

    def test_labels_depend_only_on_sign(self):
        g = cliques([5, 5], 10)
        seq = TVGraphSequence((g, g))
        est, res = tv_cluster_two(seq, SolverConfig(seed=15))
        scaled = (3.7 * res.c < 0).astype(np.int64)
        assert np.array_equal(scaled, est.labels)


class TestTvClusterMulti:
    def test_three_cliques_exact(self):
        g = cliques([4, 4, 4], 12)
        seq = TVGraphSequence((g,) * 3)
        est, emb = tv_cluster_multi(seq, 3, SolverConfig(alpha=1.0, seed=16))
        truth = np.repeat([0, 1, 2], 4)
        for t in range(3):
            assert pair_accuracy(est.frame(t), truth) == 1.0

    def test_k2_agrees_with_polarity(self):
        g = cliques([5, 5], 10)
        seq = TVGraphSequence((g, g))
        cfg = SolverConfig(alpha=1.0, seed=17)
        multi_est, _ = tv_cluster_multi(seq, 2, cfg)
        two_est, _ = tv_cluster_two(seq, cfg)
        for t in range(2):
            assert pair_accuracy(multi_est.frame(t), two_est.frame(t)) == 1.0

    def test_embedding_norms_and_orthogonality(self):
        params = SbmTvParams(n_per_cluster=8, k=3, t_len=3, p_intra=0.9, p_inter=0.05,
                             flip_prob=0.0, seed=18)
        seq, _ = sbm_tv_sequence(params)
        cfg = SolverConfig(alpha=1.0, seed=19)
        est, emb = tv_cluster_multi(seq, 3, cfg)
        n = seq.n
        eps = 1e-6 * np.sqrt(n)
        for t in range(seq.t_len):
            for m in range(emb.m):
                col = emb.vectors[t, :, m]
                assert float(col @ col) == pytest.approx(n, rel=1e-6)
            # later vectors are eps-orthogonal to earlier ones
            for a in range(emb.m):
                for b in range(a):
                    va = emb.vectors[t, :, a]
                    vb = emb.vectors[t, :, b]
                    assert abs(float(va @ vb)) <= (eps + 1e-8) * np.linalg.norm(vb)

    def test_k_bounds(self):
        g = cliques([2, 2], 4)
        seq = TVGraphSequence((g,))
        with pytest.raises(ValueError):
            tv_cluster_multi(seq, 1, SolverConfig(seed=0))
        with pytest.raises(ValueError):
            tv_cluster_multi(seq, 6, SolverConfig(seed=0))


class TestContainers:
    def test_label_sequence_validation(self):
        with pytest.raises(ValueError):
            LabelSequence(np.array([[0, 1], [2, 1]]), k=2)
        with pytest.raises(ValueError):
            LabelSequence(np.array([[0.5, 1.0]]), k=2)

    def test_align_sequence_preserves_partitions(self):
        rng = np.random.default_rng(20)
        labels = rng.integers(0, 3, size=(5, 12))
        ls = LabelSequence(labels, 3)
        aligned = align_sequence(ls)
        for t in range(5):
            assert pair_accuracy(aligned.frame(t), ls.frame(t)) == 1.0
