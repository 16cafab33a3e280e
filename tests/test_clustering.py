import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tvclust.clustering
from oracle_utils import align_labels_oracle, kmeans_oracle, max_assignment_oracle
from tvclust.clustering import (
    _STATIC_TAG,
    LabelSequence,
    _Streams,
    _cluster_means,
    _max_assignment,
    _plane_sum,
    align_labels,
    align_sequence,
    kmeans,
    static_sc,
    tv_cluster_multi,
)
from tvclust.generators import sbm_static, sbm_tv_sequence, SbmTvParams
from tvclust.graphs import TVGraphSequence, WeightedGraph, build_laplacian, smallest_eigenvectors
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

    def test_labels_own_their_memory(self):
        # callers that keep one result per frame must not keep every restart's too
        pts = np.random.default_rng(5).standard_normal((30, 3))
        assert kmeans(pts, 3, seed=6, restarts=8).base is None

    def test_same_seed_sequence_object_repeats(self):
        pts = np.random.default_rng(7).standard_normal((30, 2))
        ss = np.random.SeedSequence(8)
        first = kmeans(pts, 4, ss, restarts=3)
        assert np.array_equal(kmeans(pts, 4, ss, restarts=3), first)
        # and it draws what a fresh root's spawned children draw
        want = kmeans_oracle(pts, 4, np.random.SeedSequence(8), restarts=3)
        assert np.array_equal(first, want)

    def test_rejects_no_restarts_or_iterations(self):
        pts = np.arange(6.0)[:, None]
        with pytest.raises(ValueError, match="restarts"):
            kmeans(pts, 2, seed=0, restarts=0)
        with pytest.raises(ValueError, match="max_iters"):
            kmeans(pts, 2, seed=0, max_iters=0)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_rejects_non_finite_points(self, bad):
        pts = np.arange(12.0).reshape(6, 2)
        pts[4, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            kmeans(pts, 2, seed=0)

    def test_reseeds_like_oracle_on_identical_points(self):
        # every point ties for the first center, so Lloyd's first pass empties
        # all other clusters and each is re-seeded
        pts = np.zeros((7, 2))
        for k in (2, 3, 7):
            got = kmeans(pts, k, seed=3, restarts=4)
            assert np.array_equal(got, kmeans_oracle(pts, k, seed=3, restarts=4))

    def test_reseeding_on_identical_points_does_not_cycle(self):
        # re-seeding takes points only from clusters that keep a member, so no
        # cluster is emptied again and the labels do not depend on the cap's parity
        pts = np.zeros((7, 2))
        got = [kmeans(pts, 3, seed=3, restarts=4, max_iters=m) for m in (50, 51, 300, 301)]
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
        """Batched cluster means are bit-identical to pts[mask].mean(axis=0), whose
        summation order differs between one column and several."""
        rng = np.random.default_rng(seed)
        pts = rng.standard_normal((runs, n, d)) * 10.0 ** rng.integers(-3, 4, (runs, n, d))
        assign = rng.integers(0, k, (runs, n))
        got = _cluster_means(pts.transpose(2, 0, 1).copy(), assign, k)
        for r in range(runs):
            for c in range(k):
                mask = assign[r] == c
                if mask.any():
                    assert np.array_equal(got[:, r, c], pts[r][mask].mean(axis=0))
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
        got = kmeans(pts, k, seed, restarts=restarts, max_iters=max_iters)
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
            got = kmeans(stack, k, seeds, restarts=restarts, max_iters=max_iters)
        assert got.shape == (frames, n)
        for f in range(frames):
            # the oracle's sums follow its input's layout; kmeans sums in C order
            want = kmeans_oracle(
                np.ascontiguousarray(stack[f]), k, seeds[f], restarts=restarts, max_iters=max_iters
            )
            assert np.array_equal(got[f], want)

    def test_plane_sum_follows_numpy_sum_order(self):
        """Adding planes one at a time gives ndarray.sum(axis=-1) bit for bit,
        across numpy's 8-way unrolled blocks and its pairwise split above 128."""
        rng = np.random.default_rng(21)
        for d in range(1, 301):
            a = rng.standard_normal((3, 4, d)) * 10.0 ** rng.integers(-8, 9, (3, 4, d))

            def term(j, out=None):
                if out is None:
                    return a[..., j].copy()
                out[...] = a[..., j]
                return out

            assert _plane_sum(term, d).tobytes() == a.sum(axis=-1).tobytes(), d

    def test_overflowing_wcss_keeps_the_first_restart(self):
        # every restart scores inf, so none is below the first; labels still come back
        pts = np.array([[1e200], [-1e200], [1e200]])
        with np.errstate(over="ignore"):
            got = kmeans(pts, 1, seed=0, restarts=3)
        assert got.tolist() == [0, 0, 0]

    def test_builds_no_numpy_generator(self, monkeypatch):
        """A stack's restarts draw from _Streams: building a Generator, a PCG64
        or a SeedSequence inside the call fails it."""
        stack = np.random.default_rng(40).standard_normal((3, 20, 2))
        seeds = np.random.SeedSequence(41).spawn(3)
        want = [kmeans_oracle(stack[f], 3, seeds[f], restarts=10) for f in range(3)]

        class Forbidden(type):
            def __instancecheck__(cls, obj):
                return isinstance(obj, cls.real)

            def __call__(cls, *args, **kwargs):
                raise AssertionError(f"kmeans built a {cls.__name__}")

        for name in ("Generator", "PCG64", "SeedSequence", "default_rng"):
            real = getattr(np.random, name)
            monkeypatch.setattr(np.random, name, Forbidden(name, (), {"real": real}))
        got = kmeans(stack, 3, seeds, restarts=10)
        monkeypatch.undo()
        assert np.array_equal(got, np.array(want))

    def test_stack_needs_one_seed_per_frame(self):
        with pytest.raises(ValueError, match="one per frame"):
            kmeans(np.zeros((3, 5, 2)), 2, seed=[1, 2])
        with pytest.raises(ValueError, match="frames, n, d"):
            kmeans(np.zeros((2, 3, 5, 2)), 2, seed=[1, 2])


@st.composite
def seed_roots(draw):
    """An int seed, or a SeedSequence with list entropy and a long spawn key."""
    if draw(st.booleans()):
        return draw(st.integers(0, 2**128 - 1))
    return np.random.SeedSequence(
        draw(st.lists(st.integers(0, 2**96), min_size=1, max_size=4)),
        spawn_key=tuple(draw(st.lists(st.integers(0, 2**70), max_size=3))),
        pool_size=draw(st.sampled_from([4, 8])),
    )


class TestStreams:
    @given(
        seeds=st.lists(seed_roots(), min_size=1, max_size=3),
        restarts=st.integers(1, 60),
        script=st.lists(
            st.tuples(st.sampled_from([None, 1, 2, 90, 2**31 + 1]), st.integers(0, 2**32 - 1)),
            max_size=12,
        ),
    )
    # 0 is one entropy word and 2**32 two; a pool of 16 words is wider than generate_state's 8
    @example(
        seeds=[0, 2**32, 2**128 - 1,
               np.random.SeedSequence([0, 2**40], spawn_key=(2**33,), pool_size=16)],
        restarts=3,
        script=[(None, 0), (2**31 + 1, 1)],
    )
    @settings(max_examples=100, deadline=None)
    def test_draws_what_numpy_generators_draw(self, seeds, restarts, script):
        """Every restart's integers(n) and random() equal, draw for draw, those of
        the numpy generator its SeedSequence child seeds, whichever restarts draw.

        integers(1) draws nothing; 2**31 + 1 rejects about half of its first
        draws, so Lemire's loop and the held 32-bit half both run."""
        roots = [np.random.SeedSequence(s) if isinstance(s, int) else s for s in seeds]
        children = [
            np.random.SeedSequence(
                root.entropy, spawn_key=(*root.spawn_key, i), pool_size=root.pool_size
            )
            for root in roots
            for i in range(restarts)
        ]
        # the children are those that spawn gives a fresh copy of each root
        spawned = [
            c
            for root in roots
            for c in np.random.SeedSequence(
                root.entropy, spawn_key=root.spawn_key, pool_size=root.pool_size
            ).spawn(restarts)
        ]
        assert [(c.entropy, c.spawn_key, c.pool_size) for c in spawned] == [
            (c.entropy, c.spawn_key, c.pool_size) for c in children
        ]
        gens = [np.random.Generator(np.random.PCG64(c)) for c in children]
        streams = _Streams(roots, restarts)
        for n, pick in script:
            rows = np.flatnonzero(np.random.default_rng(pick).random(len(gens)) < 0.7)
            if n is None:
                got = streams.random(rows)
                want = [gens[r].random() for r in rows]
            else:
                got = streams.integers(n, rows)
                want = [gens[r].integers(n) for r in rows]
            assert got.tolist() == want
        # and every stream is left where its generator is
        rows = np.arange(len(gens))
        assert streams.integers(2**31 + 1, rows).tolist() == [g.integers(2**31 + 1) for g in gens]


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
            kmeans(smallest_eigenvectors(build_laplacian(g), k)[1], k, s)
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
            for m in range(emb.m):
                col = emb.vectors[t, :, m]
                assert float(col @ col) == pytest.approx(n, rel=1e-6)
            # later vectors are eps-orthogonal to earlier ones
            for a in range(emb.m):
                for b in range(a):
                    va = emb.vectors[t, :, a]
                    vb = emb.vectors[t, :, b]
                    assert abs(float(va @ vb)) <= (eps + 1e-8) * np.linalg.norm(vb)

    def test_k_bounds(self, monkeypatch):
        def no_solve(*args):
            raise AssertionError("pds_solve ran for an invalid k")

        monkeypatch.setattr(tvclust.clustering, "pds_solve", no_solve)
        g = cliques([2, 2], 4)
        seq = TVGraphSequence((g,))
        for k in (1, 5, 6):
            with pytest.raises(ValueError, match="k must"):
                tv_cluster_multi(seq, k, SolverConfig(seed=0))


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

    def test_align_sequence_preserves_partitions(self):
        rng = np.random.default_rng(20)
        labels = rng.integers(0, 3, size=(5, 12))
        ls = LabelSequence(labels, 3)
        aligned = align_sequence(ls)
        for t in range(5):
            assert pair_accuracy(aligned.frame(t), ls.frame(t)) == 1.0
