import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tvclust.clustering
import tvclust.solver
from oracle_utils import align_labels_oracle, kmeans_oracle, max_assignment_oracle, wcss_oracle
from tvclust.clustering import (
    _STATIC_TAG,
    LabelSequence,
    _best_restarts,
    _cluster_means,
    _kmeans_pp,
    _lloyd,
    _max_assignment,
    _sq_dists,
    _wcss,
    align_labels,
    align_sequence,
    kmeans,
    static_sc,
    tv_cluster_multi,
)
from tvclust.experiments import (
    DENSE_DESK,
    SPARSE_DESK,
    cloud_to_graphs,
    make_articulated_cloud,
    recommended_alpha,
)
from tvclust.generators import sbm_static, sbm_tv_sequence, SbmTvParams
from tvclust.graphs import TVGraphSequence, WeightedGraph, dense_laplacian, smallest_eigenvectors
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


def patched_kmeans(points, k, seed, restarts, max_iters=tvclust.clustering.KMEANS_MAX_ITERS):
    """kmeans with KMEANS_RESTARTS and KMEANS_MAX_ITERS set to these values."""
    with mock.patch.multiple(
        tvclust.clustering, KMEANS_RESTARTS=restarts, KMEANS_MAX_ITERS=max_iters
    ):
        return kmeans(points, k, seed)


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
        assign = kmeans(pts[None], 2, [1])[0]
        assert len(set(assign[:10])) == 1 and len(set(assign[10:])) == 1
        assert assign[0] != assign[10]

    def test_n_equals_k(self):
        pts = np.arange(5.0)[:, None]
        assign = kmeans(pts[None], 5, [2])[0]
        assert sorted(assign.tolist()) == [0, 1, 2, 3, 4]

    def test_matches_exhaustive_partition_oracle(self):
        rng = np.random.default_rng(3)
        for k in (2, 3):
            pts = rng.standard_normal((6, 1))
            got = wcss_of(pts, kmeans(pts[None], k, [4])[0], k)
            best = min(
                wcss_of(pts, np.array(a), k)
                for a in itertools.product(range(k), repeat=6)
            )
            assert got == pytest.approx(best, rel=1e-9, abs=1e-12)

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            kmeans(np.zeros((1, 3, 2)), 4, [0])

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        pts = rng.standard_normal((30, 3))
        a = kmeans(pts[None], 3, [6])[0]
        b = kmeans(pts[None], 3, [6])[0]
        assert np.array_equal(a, b)

    def test_labels_own_their_memory(self):
        # callers that keep one result per frame must not keep every restart's too
        pts = np.random.default_rng(5).standard_normal((30, 3))
        assert patched_kmeans(pts[None], 3, [6], restarts=8).base is None

    def test_same_seed_sequence_object_repeats(self):
        pts = np.random.default_rng(7).standard_normal((30, 2))
        ss = np.random.SeedSequence(8)
        first = patched_kmeans(pts[None], 4, [ss], restarts=3)[0]
        assert np.array_equal(patched_kmeans(pts[None], 4, [ss], restarts=3)[0], first)
        # and it draws what a generator seeded by a fresh copy draws
        want = kmeans_oracle(pts, 4, np.random.SeedSequence(8), restarts=3)
        assert np.array_equal(first, want)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_rejects_non_finite_points(self, bad):
        pts = np.arange(12.0).reshape(6, 2)
        pts[4, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            kmeans(pts[None], 2, [0])

    def test_reseeds_like_oracle_on_identical_points(self):
        # every point ties for the first center, so Lloyd's first pass empties
        # all other clusters and each is re-seeded
        pts = np.zeros((7, 2))
        for k in (2, 3, 7):
            got = patched_kmeans(pts[None], k, [3], restarts=4)[0]
            assert np.array_equal(got, kmeans_oracle(pts, k, seed=3, restarts=4))

    def test_reseeding_on_identical_points_does_not_cycle(self):
        # re-seeding takes points only from clusters that keep a member, so no
        # cluster is emptied again and the labels do not depend on the cap's parity
        pts = np.zeros((7, 2))
        got = [
            patched_kmeans(pts[None], 3, [3], restarts=4, max_iters=m)[0] for m in (50, 51, 300, 301)
        ]
        for labels in got:
            assert np.array_equal(labels, got[0])
        assert np.bincount(got[0], minlength=3).min() >= 1

    @given(
        seed=st.integers(0, 2**32 - 1),
        runs=st.integers(1, 4),
        n=st.integers(1, 60),
        d=st.integers(1, 9),
        k=st.integers(1, 5),
    )
    @settings(max_examples=100, deadline=None)
    def test_batched_means_match_masked_means(self, seed, runs, n, d, k):
        """Batched cluster means are bit-identical to the sum of pts[mask] added
        row by row, over the count."""
        rng = np.random.default_rng(seed)
        pts = rng.standard_normal((runs, n, d)) * 10.0 ** rng.integers(-3, 4, (runs, n, d))
        assign = rng.integers(0, k, (runs, n))
        got = _cluster_means(pts.transpose(2, 0, 1).copy(), assign, k)
        for r in range(runs):
            for c in range(k):
                mask = assign[r] == c
                if mask.any():
                    total = np.zeros(d)
                    for row in pts[r][mask]:
                        total += row
                    assert np.array_equal(got[:, r, c], total / mask.sum())
                else:
                    assert np.isnan(got[:, r, c]).all()

    @given(
        seed=st.integers(0, 2**128 - 1),
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
        got = patched_kmeans(pts[None], k, [seed], restarts=restarts, max_iters=max_iters)[0]
        assert np.array_equal(got, want)

    @given(
        seed=st.integers(0, 2**128 - 1),
        frames=st.integers(1, 4),
        n=st.integers(1, 25),
        d=st.integers(1, 11),
        layout=st.sampled_from(["gaussian", "grid", "two_sites", "coincident", "scaled"]),
        fortran=st.booleans(),
        k_share=st.floats(0.0, 1.0),
        restarts=st.integers(1, 59),
        max_iters=st.sampled_from([1, 2, 300]),
        per_batch=st.integers(1, 3),
    )
    @settings(max_examples=40, deadline=None)
    def test_stack_matches_per_frame_oracle(
        self, seed, frames, n, d, layout, fortran, k_share, restarts, max_iters, per_batch
    ):
        """A (frames, n, d) stack gets, frame by frame, the labels of the
        sequential oracle, whatever the memory layout of its frames and however
        they fall into batches."""
        rng = np.random.default_rng(seed)
        if layout == "gaussian":
            stack = rng.standard_normal((frames, n, d))
        elif layout == "grid":  # few distinct coordinates, so many duplicate points
            stack = rng.integers(0, 3, (frames, n, d)).astype(float)
        elif layout == "two_sites":  # fewer distinct points than clusters once k > 2
            stack = np.zeros((frames, n, d))
            stack[:, : n // 3] = 1.0
        elif layout == "coincident":  # all clusters but one emptied and re-seeded
            stack = np.broadcast_to(rng.standard_normal((frames, 1, d)), (frames, n, d)).copy()
        else:
            stack = rng.standard_normal((frames, n, d)) * np.resize([1e3, 1e-3, 1.0], d)
        if fortran:
            stack = np.asfortranarray(stack)
        k = 1 + int(k_share * (n - 1))
        seeds = [np.random.SeedSequence(seed, spawn_key=(f,)) for f in range(frames)]
        budget = per_batch * restarts * n * max(k, d)
        with mock.patch.object(tvclust.clustering, "_KMEANS_BATCH_ELEMENTS", budget):
            got = patched_kmeans(stack, k, seeds, restarts=restarts, max_iters=max_iters)
        assert got.shape == (frames, n)
        for f in range(frames):
            want = kmeans_oracle(stack[f], k, seeds[f], restarts=restarts, max_iters=max_iters)
            assert np.array_equal(got[f], want)

    def test_sq_dists_add_coordinates_in_index_order(self):
        rng = np.random.default_rng(21)
        for d in (1, 2, 3, 9, 20):
            X = rng.standard_normal((d, 3, 7)) * 10.0 ** rng.integers(-8, 9, (d, 3, 7))
            C = rng.standard_normal((d, 3, 4))
            want = np.zeros((3, 4, 7))
            for j in range(d):
                want += (X[j][:, None, :] - C[j][:, :, None]) ** 2
            assert _sq_dists(X, C).tobytes() == want.tobytes(), d

    def test_wcss_near_ties_follow_the_point_order(self):
        """Mirrored partitions of a mirror-symmetric point set tie in exact
        arithmetic, so only the rounding of the WCSS recipe picks between them."""
        second = 0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            half = rng.standard_normal((20, 3)) * 10.0 ** rng.integers(-3, 4, (20, 3))
            pts = np.vstack([half, -half[::-1]])
            a = rng.integers(0, 3, 40)
            assigns = np.stack([a, a[::-1]])
            X = np.repeat(pts.T[:, None, :], 2, axis=1)
            got = _best_restarts(X, assigns, 3, 2, np.full(2, np.nan))[0]
            pick = int(wcss_oracle(pts, assigns[1]) < wcss_oracle(pts, a))
            assert np.array_equal(got, assigns[pick]), seed
            second += pick
        # the rounding decides: some pairs go to the second restart
        assert 0 < second < 20

    def test_one_distance_pass_per_lloyd_pass(self, monkeypatch):
        """Far-apart groups settle in two Lloyd passes. The seeding's rows serve
        the first and the second gives the WCSS, so k-means computes distances
        once per seed and once more."""
        rng = np.random.default_rng(5)
        k = 3
        pts = np.concatenate([rng.normal(100.0 * c, 0.1, (12, 2)) for c in range(k)])
        real = tvclust.clustering._sq_dists
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[1].shape[2])
            return real(*args, **kwargs)

        monkeypatch.setattr(tvclust.clustering, "_sq_dists", counting)
        labels = patched_kmeans(pts[None], k, [2], restarts=6)[0]
        assert calls == [1] * k + [k]
        assert np.array_equal(labels, kmeans_oracle(pts, k, seed=2, restarts=6))

    def test_seeding_rows_are_the_centers_distances(self):
        rng = np.random.default_rng(9)
        X = rng.standard_normal((3, 4, 30))
        C, d2 = _kmeans_pp(X, rng.integers(30, size=4), rng.random((4, 4)))
        assert d2.tobytes() == _sq_dists(X, C).tobytes()

    def test_stopping_pass_wcss_is_the_recomputed_wcss(self):
        """On mirrored near-tie point sets, where only the rounding of the WCSS
        recipe picks between restarts, a run that stops on a repeated
        assignment reports the WCSS that recomputing it gives, bit for bit."""
        known = 0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            half = rng.standard_normal((20, 3)) * 10.0 ** rng.integers(-3, 4, (20, 3))
            pts = np.vstack([half, -half[::-1]])
            a = rng.integers(0, 3, 40)
            X = np.repeat(pts.T[:, None, :], 2, axis=1)
            C = _cluster_means(X, np.stack([a, a[::-1]]), 3)
            assigns, wcss = _lloyd(X, C, _sq_dists(X, C), 300)
            stopped = ~np.isnan(wcss)
            known += int(stopped.sum())
            want = _wcss(X[:, stopped], assigns[stopped], 3)
            assert wcss[stopped].tobytes() == want.tobytes(), seed
            for r in np.flatnonzero(stopped):
                assert wcss[r] == wcss_oracle(pts, assigns[r]), seed
            assert np.array_equal(
                _best_restarts(X, assigns, 3, 2, wcss.copy()),
                _best_restarts(X, assigns, 3, 2, np.full(2, np.nan)),
            )
        assert known > 20

    @pytest.mark.parametrize("max_iters", [1, 2])
    def test_reseeded_and_capped_runs_recompute_their_wcss(self, max_iters):
        """Identical points re-seed in every pass: with one pass every run hits
        the cap, with two every run stops on a repeat right after a re-seed.
        Neither knows its WCSS from the last pass, and both match the oracle."""
        pts = np.zeros((7, 2))
        X = np.repeat(pts.T[:, None, :], 4, axis=1)
        C, d2 = _kmeans_pp(X, np.arange(4), np.full((2, 4), 0.5))
        assert np.isnan(_lloyd(X, C, d2, max_iters)[1]).all()
        got = patched_kmeans(pts[None], 3, [3], restarts=4, max_iters=max_iters)[0]
        assert np.array_equal(got, kmeans_oracle(pts, 3, seed=3, restarts=4, max_iters=max_iters))

    def test_overflowing_wcss_keeps_the_first_restart(self):
        # every restart scores inf, so none is below the first; labels still come back
        pts = np.array([[1e200], [-1e200], [1e200]])
        with np.errstate(over="ignore"):
            got = patched_kmeans(pts[None], 1, [0], restarts=3)[0]
        assert got.tolist() == [0, 0, 0]

    @pytest.mark.parametrize("shape", [(5, 2), (5,)])
    def test_rejects_a_single_point_set(self, shape):
        with pytest.raises(ValueError, match="frames, n, d"):
            kmeans(np.zeros(shape), 2, [0])

    def test_stack_needs_one_seed_per_frame(self):
        with pytest.raises(ValueError, match="one per frame"):
            kmeans(np.zeros((3, 5, 2)), 2, seed=[1, 2])
        with pytest.raises(ValueError, match="frames, n, d"):
            kmeans(np.zeros((2, 3, 5, 2)), 2, seed=[1, 2])


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


    @given(
        data=st.data(),
        k=st.integers(1, 8),
        layout=st.sampled_from(["random", "constant", "permutation"]),
    )
    @settings(max_examples=300, deadline=None)
    def test_assignment_matches_scipy_on_ties(self, data, k, layout):
        """Small entries make most tables tie; the solver must break ties as scipy does."""
        if layout == "random":
            table = np.array(
                data.draw(st.lists(st.integers(0, 3), min_size=k * k, max_size=k * k))
            ).reshape(k, k)
        elif layout == "constant":
            table = np.full((k, k), data.draw(st.integers(0, 3)))
        else:
            perm = data.draw(st.permutations(range(k)))
            table = 3 * np.eye(k, dtype=np.int64)[list(perm)]
        assert _max_assignment(table) == max_assignment_oracle(table)

    @given(
        seed=st.integers(0, 2**128 - 1),
        n=st.integers(1, 40),
        k=st.integers(1, 8),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_scipy_oracle(self, seed, n, k):
        rng = np.random.default_rng(seed)
        prev = rng.integers(0, k, n)
        cur = rng.integers(0, k, n)
        assert np.array_equal(align_labels(prev, cur, k), align_labels_oracle(prev, cur, k))


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

    @pytest.mark.parametrize("k", [3, 4])
    def test_three_cliques_and_an_isolated_node(self, monkeypatch, k):
        """Four components, so the Laplacian's zero eigenvalue has multiplicity 4
        and any orthonormal basis of its eigenspace is a valid eigensolver answer.
        Every such basis maps each component to one point, so no component is
        split and every label is used. With k = 4 the points are pairwise
        1/m_a + 1/m_b apart in squared distance, whatever the basis, and the
        components come back exactly; with k = 3 two of them must share a label,
        and which two depends on the basis."""
        sizes = [5, 6, 7]
        n = sum(sizes) + 1
        g = cliques(sizes, n)
        comp = np.repeat(np.arange(4), sizes + [1])
        indicator = np.eye(4)[comp] / np.sqrt(np.bincount(comp))

        def check(est):
            frame = est.frame(0)
            assert np.unique(frame).size == k
            for c in range(4):
                assert np.unique(frame[comp == c]).size == 1
            if k == 4:
                assert pair_accuracy(frame, comp) == 1.0

        check(static_sc(TVGraphSequence((g,)), k, seed=9))
        rng = np.random.default_rng(23)
        for _ in range(10):
            q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
            basis = indicator @ q
            monkeypatch.setattr(
                tvclust.clustering, "smallest_eigenvectors",
                lambda L, m, basis=basis: (np.zeros(m), basis[:, :m]),
            )
            check(static_sc(TVGraphSequence((g,)), k, seed=int(rng.integers(100))))

    def test_identical_graphs_give_identical_partitions(self):
        rng = np.random.default_rng(10)
        labels = np.repeat([0, 1, 2], 8)
        g = sbm_static(labels, 0.9, 0.05, rng)
        est = static_sc(TVGraphSequence((g, g, g)), 3, seed=11)
        for t in range(1, 3):
            assert pair_accuracy(est.frame(t), est.frame(0)) == 1.0

    @pytest.mark.parametrize("k", [2, 3])
    def test_equals_frame_by_frame_composition(self, k):
        seq, _ = sbm_tv_sequence(SbmTvParams(5, k, 4, 0.7, 0.2, 0.1, seed=20 + k))
        seeds = np.random.SeedSequence(17, spawn_key=_STATIC_TAG).spawn(seq.t_len)
        want = [
            kmeans(smallest_eigenvectors(dense_laplacian(g), k)[1][None], k, [s])[0]
            for g, s in zip(seq.graphs, seeds)
        ]
        assert np.array_equal(static_sc(seq, k, seed=17).labels, np.array(want))


class TestTvClusterTwo:
    """k = 2: the labels are the signs of the one cluster vector."""

    def test_disconnected_cliques_every_frame(self):
        g = cliques([5, 5], 10)
        seq = TVGraphSequence((g,) * 4)
        est, _, (res,) = tv_cluster_multi(seq, 2, SolverConfig(alpha=1.0, seed=12))
        truth = np.repeat([0, 1], 5)
        for t in range(4):
            assert pair_accuracy(est.frame(t), truth) == 1.0

    def test_single_frame_matches_static(self):
        rng = np.random.default_rng(13)
        labels = np.repeat([0, 1], 20)
        g = sbm_static(labels, 0.9, 0.05, rng)
        seq = TVGraphSequence((g,))
        est, _, _ = tv_cluster_multi(seq, 2, SolverConfig(seed=14))
        st_est = static_sc(seq, 2, seed=14)
        assert pair_accuracy(est.frame(0), st_est.frame(0)) == 1.0

    def test_labels_depend_only_on_sign(self):
        g = cliques([5, 5], 10)
        seq = TVGraphSequence((g, g))
        est, _, (res,) = tv_cluster_multi(seq, 2, SolverConfig(seed=15))
        scaled = (3.7 * res.c < 0).astype(np.int64)
        assert np.array_equal(scaled, est.labels)


class TestTvClusterMulti:
    def test_three_cliques_exact(self):
        g = cliques([4, 4, 4], 12)
        seq = TVGraphSequence((g,) * 3)
        est, emb, _ = tv_cluster_multi(seq, 3, SolverConfig(alpha=1.0, seed=16))
        truth = np.repeat([0, 1, 2], 4)
        for t in range(3):
            assert pair_accuracy(est.frame(t), truth) == 1.0

    def test_embedding_norms_and_orthogonality(self):
        params = SbmTvParams(n_per_cluster=8, k=3, t_len=3, p_intra=0.9, p_inter=0.05,
                             flip_prob=0.0, seed=18)
        seq, _ = sbm_tv_sequence(params)
        cfg = SolverConfig(alpha=1.0, seed=19)
        est, emb, _ = tv_cluster_multi(seq, 3, cfg)
        n = seq.n
        eps = 1e-6 * np.sqrt(n)
        for t in range(seq.t_len):
            for m in range(emb.vectors.shape[2]):
                col = emb.vectors[t, :, m]
                assert float(col @ col) == pytest.approx(n, rel=1e-6)
            # later vectors are eps-orthogonal to earlier ones
            for a in range(emb.vectors.shape[2]):
                for b in range(a):
                    va = emb.vectors[t, :, a]
                    vb = emb.vectors[t, :, b]
                    assert abs(float(va @ vb)) <= (eps + 1e-8) * np.linalg.norm(vb)

    @pytest.mark.parametrize("params", [DENSE_DESK, SPARSE_DESK], ids=["dense", "sparse"])
    def test_capped_levels_stay_inside_every_slab(self, params):
        """Capped solves return a re-projected iterate; on the directions that
        tv_cluster_multi builds, that iterate lies in every slab of its level."""
        seq, _ = sbm_tv_sequence(params)
        cfg = SolverConfig(alpha=recommended_alpha(params), max_iters=200, seed=params.seed)
        _, _, results = tv_cluster_multi(seq, 3, cfg)
        eps = tvclust.solver.DEFAULT_EPSILON_SCALE * np.sqrt(seq.n)
        V = np.ones((seq.t_len, 1, seq.n))
        for res in results:
            assert not res.converged
            dots = np.einsum("tn,tln->tl", res.c, V)
            assert np.abs(dots).max() <= eps + tvclust.solver.SLAB_FEAS_TOL
            unit = res.c / np.linalg.norm(res.c, axis=1, keepdims=True)
            V = np.concatenate([V, unit[:, None, :]], axis=1)

    def test_disconnected_cloud_levels_settle_at_once(self, monkeypatch):
        """On kNN graphs of five far-apart blobs every frame has five components.
        All levels start from one eigenbasis of the averaged Laplacian, so each
        start lies in the null space, orthogonal to the earlier levels' starts,
        and no level needs the warm start's random fallback."""

        class NoDraws:
            def __getattr__(self, name):
                raise AssertionError(f"the warm start drew from its generator ({name})")

        real = tvclust.clustering._warm_start
        monkeypatch.setattr(
            tvclust.clustering, "_warm_start", lambda *args: real(*args[:-1], NoDraws())
        )
        cloud, truth = make_articulated_cloud(12, 8, seed=1)
        seq = cloud_to_graphs(cloud, 8)
        est, _, results = tv_cluster_multi(seq, 5, SolverConfig(alpha=1.0, seed=0))
        assert [(r.iters, r.converged) for r in results] == [(1, True)] * 4
        for t in range(seq.t_len):
            assert pair_accuracy(est.frame(t), truth.frame(t)) == 1.0

    def test_k_bounds(self, monkeypatch):
        def no_solve(*args):
            raise AssertionError("pds_solve ran for an invalid k")

        monkeypatch.setattr(tvclust.clustering, "pds_solve", no_solve)
        g = cliques([2, 2], 4)
        seq = TVGraphSequence((g,))
        for k in (1, 5, 6):
            with pytest.raises(ValueError, match="k must"):
                tv_cluster_multi(seq, k, SolverConfig(seed=0))


def test_operator_built_once_per_sequence(monkeypatch):
    """All k-1 levels solve on one BlockLaplacian: beta and the block are built once."""
    calls = {"largest_eigenvalue": 0, "block_laplacian": 0}

    def counting(name):
        real = getattr(tvclust.solver, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(tvclust.solver, name, counting(name))
    seq, _ = sbm_tv_sequence(SbmTvParams(5, 4, 4, 0.8, 0.1, 0.05, seed=31))
    _, _, results = tv_cluster_multi(seq, 4, SolverConfig(seed=2, max_iters=30))
    assert calls == {"largest_eigenvalue": 1, "block_laplacian": 1}
    assert len(results) == 3
    assert len({r.beta for r in results}) == 1


def test_one_kmeans_call_per_sequence(monkeypatch):
    """Both label paths hand kmeans the whole sequence as one stack."""
    calls = []
    real = tvclust.clustering.kmeans

    def counting(points, *args, **kwargs):
        calls.append(np.shape(points))
        return real(points, *args, **kwargs)

    monkeypatch.setattr(tvclust.clustering, "kmeans", counting)
    seq, _ = sbm_tv_sequence(SbmTvParams(5, 3, 4, 0.8, 0.1, 0.05, seed=30))
    static_sc(seq, 3, seed=1)
    tv_cluster_multi(seq, 3, SolverConfig(seed=2, max_iters=30))
    assert calls == [(4, 15, 3), (4, 15, 2)]


class TestContainers:
    def test_label_sequence_validation(self):
        with pytest.raises(ValueError):
            LabelSequence(np.array([[0, 1], [2, 1]]), k=2)
        with pytest.raises(ValueError):
            LabelSequence(np.array([[0.5, 1.0]]), k=2)

    @pytest.mark.parametrize("k", [2.7, 2.0, True, np.bool_(True), "2"])
    def test_label_sequence_rejects_non_integer_k(self, k):
        with pytest.raises(ValueError, match="k must be an integer"):
            LabelSequence(np.array([[0, 1]]), k)

    def test_label_sequence_accepts_numpy_integer_k(self):
        ls = LabelSequence(np.array([[0, 1]]), np.int32(2))
        assert ls.k == 2 and type(ls.k) is int

    def test_align_sequence_preserves_partitions(self):
        rng = np.random.default_rng(20)
        labels = rng.integers(0, 3, size=(5, 12))
        ls = LabelSequence(labels, 3)
        aligned = align_sequence(ls)
        for t in range(5):
            assert pair_accuracy(aligned.frame(t), ls.frame(t)) == 1.0
