import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tvclust.graphs import (
    TVGraphSequence,
    WeightedGraph,
    block_laplacian,
    dense_laplacian,
    largest_eigenvalue,
    smallest_eigenvectors,
)


def random_graph(rng, n, p=0.5):
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                edges.append((i, j, float(rng.random()) + 0.05))
    return WeightedGraph(n, edges)


def one_frame(g):
    return TVGraphSequence((g,))


def frame_laplacian(g):
    """The CSR Laplacian of g, as block_laplacian builds it for a one-frame sequence."""
    return block_laplacian(one_frame(g))


def draw_graph(data, n):
    """A hypothesis-drawn graph on n nodes: any set of pairs, possibly none, with
    weights that include 0.0 and subnormals."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = data.draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    weights = st.one_of(st.just(0.0), st.floats(0.0, 1e6, allow_subnormal=True))
    return WeightedGraph(n, [(i, j, data.draw(weights)) for i, j in chosen])


def quad_double_sum(g, f):
    """Brute-force half-sum of w_ij (f_i - f_j)^2 over both orderings."""
    total = 0.0
    for i, j, w in zip(*g.edge_arrays()):
        total += 0.5 * w * (f[i] - f[j]) ** 2
        total += 0.5 * w * (f[j] - f[i]) ** 2
    return total


class TestWeightedGraph:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            WeightedGraph(3, [(0, 0, 1.0)])

    def test_rejects_negative_weight(self):
        with pytest.raises(ValueError, match="nonnegative"):
            WeightedGraph(3, [(0, 1, -1.0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            WeightedGraph(3, [(0, 3, 1.0)])

    def test_rejects_duplicate_pair(self):
        with pytest.raises(ValueError, match="duplicate"):
            WeightedGraph(3, [(0, 1, 1.0), (1, 0, 2.0)])

    def test_canonical_order(self):
        g = WeightedGraph(4, [(2, 1, 0.5), (3, 0, 1.5)])
        assert list(zip(*g.edge_arrays())) == [(0, 3, 1.5), (1, 2, 0.5)]

    @pytest.mark.parametrize("n", [2.7, True])
    def test_rejects_node_count_that_is_no_integer(self, n):
        # int(n) used to make these 2 and 1 nodes
        with pytest.raises(ValueError, match="n must be an integer"):
            WeightedGraph(n)

    def test_equality(self):
        a = WeightedGraph(3, [(1, 0, 1.0)])
        b = WeightedGraph(3, [(0, 1, 1.0)])
        assert a == b
        assert a != WeightedGraph(3, [(0, 2, 1.0)])


class TestBuildLaplacian:
    """The CSR Laplacian of one frame."""

    def test_two_node_unit_edge(self):
        L = frame_laplacian(WeightedGraph(2, [(0, 1, 1.0)]))
        assert np.allclose(L.toarray(), [[1.0, -1.0], [-1.0, 1.0]])

    def test_empty_graph_is_zero(self):
        L = frame_laplacian(WeightedGraph(3))
        assert np.array_equal(L.toarray(), np.zeros((3, 3)))

    def test_unit_triangle(self):
        g = WeightedGraph(3, [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)])
        expect = np.full((3, 3), -1.0)
        np.fill_diagonal(expect, 2.0)
        assert np.allclose(frame_laplacian(g).toarray(), expect)

    def test_row_sums_and_degree_diagonal(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            g = random_graph(rng, int(rng.integers(2, 15)))
            L = frame_laplacian(g).toarray()
            max_deg = max(g.degrees().max(), 1.0)
            assert np.abs(L.sum(axis=1)).max() <= 1e-10 * max_deg
            assert np.allclose(np.diag(L), g.degrees())
            assert np.allclose(L, L.T)

    def test_psd_on_random_probes(self):
        rng = np.random.default_rng(12)
        g = random_graph(rng, 10)
        L = frame_laplacian(g)
        for _ in range(50):
            x = rng.standard_normal(10)
            assert float(x @ (L @ x)) >= -1e-10 * float(x @ x)


class TestDenseLaplacian:
    @staticmethod
    def assert_same_bits(g):
        dense = dense_laplacian(g)
        want = frame_laplacian(g).toarray()
        assert dense.dtype == want.dtype and dense.shape == want.shape == (g.n, g.n)
        assert dense.tobytes() == want.tobytes()

    def test_empty_graph(self):
        for n in (1, 4):
            self.assert_same_bits(WeightedGraph(n))
            assert not np.signbit(dense_laplacian(WeightedGraph(n))).any()

    def test_isolated_nodes_and_zero_weights(self):
        g = WeightedGraph(6, [(0, 1, 0.0), (1, 2, 2.5), (0, 2, 0.0), (4, 5, 1e-300)])
        self.assert_same_bits(g)
        # the -w of a zero-weight edge is stored as +0.0, as toarray stores it
        assert not np.signbit(dense_laplacian(g)[[0, 1, 0, 2], [1, 0, 2, 0]]).any()
        assert dense_laplacian(g)[3].tolist() == [0.0] * 6

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 12),
        data=st.data(),
    )
    def test_matches_build_laplacian(self, n, data):
        self.assert_same_bits(draw_graph(data, n))


class TestQuadraticForm:
    """The quadratic form x'Lx of a frame's CSR Laplacian."""

    def test_constant_signal_is_zero(self):
        g = WeightedGraph(4, [(0, 1, 2.0), (1, 2, 0.5), (2, 3, 1.0)])
        L = frame_laplacian(g)
        x = np.full(4, 3.7)
        assert abs(float(x @ (L @ x))) < 1e-12

    def test_two_node_antipodal(self):
        L = frame_laplacian(WeightedGraph(2, [(0, 1, 1.0)]))
        x = np.array([1.0, -1.0])
        assert float(x @ (L @ x)) == pytest.approx(4.0, abs=1e-12)

    def test_matches_double_sum_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(2, 12))
            g = random_graph(rng, n)
            f = rng.standard_normal(n)
            got = float(f @ (frame_laplacian(g) @ f))
            want = quad_double_sum(g, f)
            assert got == pytest.approx(want, rel=1e-10, abs=1e-10)


def complete_graph(n, size=None):
    """K_n, on the first n of `size` nodes (default n)."""
    return WeightedGraph(size or n, [(i, j, 1.0) for i in range(n) for j in range(i + 1, n)])


def star_graph(n, size=None):
    return WeightedGraph(size or n, [(0, j, 1.0) for j in range(1, n)])


def path_graph(n):
    return WeightedGraph(n, [(i, i + 1, 1.0) for i in range(n - 1)])


class TestMaxEigenvalue:
    """largest_eigenvalue against closed forms of the Laplacian's lambda_max."""

    def test_two_node_unit_edge(self):
        seq = one_frame(WeightedGraph(2, [(0, 1, 1.0)]))
        assert largest_eigenvalue(seq) == pytest.approx(2.0, rel=1e-12)

    def test_complete_graph(self):
        for n in (2, 3, 7, 30):
            assert largest_eigenvalue(one_frame(complete_graph(n))) == pytest.approx(n, rel=1e-12)

    @pytest.mark.parametrize("n", [3, 7, 30])
    def test_star_graph(self, n):
        assert largest_eigenvalue(one_frame(star_graph(n))) == pytest.approx(n, rel=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 7, 30])
    def test_path_graph(self, n):
        want = 2.0 + 2.0 * np.cos(np.pi / n)
        assert largest_eigenvalue(one_frame(path_graph(n))) == pytest.approx(want, rel=1e-12)

    def test_block_diagonal_maximum(self):
        # lambda_max 2 + 2 cos(pi/6), 5 and 4: the isolated nodes add zeros
        graphs = (path_graph(6), complete_graph(5, size=6), star_graph(4, size=6))
        assert largest_eigenvalue(TVGraphSequence(graphs)) == pytest.approx(5.0, rel=1e-12)
        assert largest_eigenvalue(TVGraphSequence(graphs[::-1])) == largest_eigenvalue(
            TVGraphSequence(graphs)
        )

    def test_empty_list_rejected(self):
        # an empty family never reaches the eigensolver: the sequence refuses it
        with pytest.raises(ValueError, match="need at least one time slot"):
            largest_eigenvalue(TVGraphSequence(()))

    def test_zero_matrix(self):
        value = largest_eigenvalue(one_frame(WeightedGraph(4)))
        assert type(value) is float
        assert value == 0.0

    def test_matches_dense_solver(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            g = random_graph(rng, int(rng.integers(3, 20)))
            want = float(np.linalg.eigvalsh(frame_laplacian(g).toarray()).max())
            assert largest_eigenvalue(one_frame(g)) == want


def per_frame_csr(g):
    """A frame's Laplacian as one CSR matrix of its own: -w at (i, j) and (j, i),
    then the degrees on the diagonal, from one csr_matrix((vals, (rows, cols)))."""
    import scipy.sparse

    i, j, w = g.edge_arrays()
    diag = np.arange(g.n)
    rows = np.concatenate([i, j, diag])
    cols = np.concatenate([j, i, diag])
    vals = np.concatenate([-w, -w, g.degrees()])
    return scipy.sparse.csr_matrix((vals, (rows, cols)), shape=(g.n, g.n))


class TestBlockLaplacian:
    """block_laplacian and largest_eigenvalue against the per-frame construction:
    one CSR matrix per frame, joined by scipy.sparse.block_diag(Ls, format="csr"),
    and beta as the top eigvalsh of each frame's toarray(); array by array and
    bit for bit."""

    @staticmethod
    def assert_same_csr(got, want):
        assert type(got) is type(want)
        assert got.shape == want.shape
        for name in ("indptr", "indices", "data"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype, name
            assert a.tobytes() == b.tobytes(), name
        assert got.has_sorted_indices == want.has_sorted_indices
        assert got.has_sorted_indices

    @classmethod
    def assert_matches_per_frame(cls, seq):
        import scipy.sparse

        Ls = [per_frame_csr(g) for g in seq.graphs]
        cls.assert_same_csr(block_laplacian(seq), scipy.sparse.block_diag(Ls, format="csr"))
        beta = max(float(np.linalg.eigvalsh(L.toarray())[-1]) for L in Ls)
        assert largest_eigenvalue(seq) == beta

    def test_frames_of_differing_nnz_and_an_edgeless_frame(self):
        rng = np.random.default_rng(11)
        graphs = [random_graph(rng, 9, p) for p in (0.2, 0.9, 0.5)]
        graphs.insert(1, WeightedGraph(9))
        assert len({g.num_edges for g in graphs}) == 4
        self.assert_matches_per_frame(TVGraphSequence(tuple(graphs)))

    def test_single_frame(self):
        self.assert_matches_per_frame(one_frame(random_graph(np.random.default_rng(12), 7)))

    def test_one_node(self):
        self.assert_matches_per_frame(TVGraphSequence((WeightedGraph(1), WeightedGraph(1))))

    def test_zero_weight_edges_stay_explicit(self):
        g = WeightedGraph(3, [(0, 1, 0.0), (1, 2, 1.0)])
        L = block_laplacian(TVGraphSequence((WeightedGraph(3), g)))
        self.assert_matches_per_frame(TVGraphSequence((WeightedGraph(3), g)))
        # frame 1 starts at row 3; its zero-weight edge is stored as -0.0 at (3, 4)
        start, stop = L.indptr[3], L.indptr[4]
        assert L.indices[start:stop].tolist() == [3, 4]
        assert np.signbit(L.data[start + 1]) and L.data[start + 1] == 0.0

    def test_empty_list_rejected(self):
        # an empty family never reaches the block build: the sequence refuses it
        with pytest.raises(ValueError, match="need at least one time slot"):
            block_laplacian(TVGraphSequence(()))

    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(1, 9), t_len=st.integers(1, 4), data=st.data())
    def test_matches_per_frame_construction(self, n, t_len, data):
        """Any sequence, edgeless frames, zero and subnormal weights, T = 1 and
        n = 1 included."""
        graphs = tuple(draw_graph(data, n) for _ in range(t_len))
        self.assert_matches_per_frame(TVGraphSequence(graphs))


class TestSmallestEigenvectors:
    def test_connected_graph_null_vector(self):
        rng = np.random.default_rng(3)
        g = WeightedGraph(6, [(i, i + 1, 1.0) for i in range(5)] + [(0, 3, 0.5)])
        vals, vecs = smallest_eigenvectors(dense_laplacian(g), 1)
        assert vals[0] >= -1e-10
        assert vals[0] == pytest.approx(0.0, abs=1e-10)
        unit = np.ones(6) / np.sqrt(6)
        assert abs(float(vecs[:, 0] @ unit)) > 1 - 1e-8

    def test_two_components_double_zero(self):
        g = WeightedGraph(4, [(0, 1, 1.0), (2, 3, 1.0)])
        vals, _ = smallest_eigenvectors(dense_laplacian(g), 2)
        assert np.allclose(vals, 0.0, atol=1e-10)

    def test_path_three_fiedler(self):
        g = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0)])
        vals, vecs = smallest_eigenvectors(dense_laplacian(g), 2)
        assert vals[1] == pytest.approx(1.0, abs=1e-10)
        fied = vecs[:, 1] / np.linalg.norm(vecs[:, 1])
        expect = np.array([1.0, 0.0, -1.0]) / np.sqrt(2)
        assert min(np.abs(fied - expect).max(), np.abs(fied + expect).max()) < 1e-8

    def test_residuals_and_orthonormality(self):
        rng = np.random.default_rng(17)
        g = random_graph(rng, 12)
        dense = dense_laplacian(g)
        vals, vecs = smallest_eigenvectors(dense, 5)
        scale = max(float(np.linalg.norm(dense, 2)), 1e-12)
        for i in range(5):
            res = np.linalg.norm(dense @ vecs[:, i] - vals[i] * vecs[:, i])
            assert res <= 1e-8 * scale
        assert np.abs(vecs.T @ vecs - np.eye(5)).max() < 1e-8

    def test_m_out_of_range(self):
        L = dense_laplacian(WeightedGraph(3))
        with pytest.raises(ValueError, match=r"m must be in \[1, 3\], got 4"):
            smallest_eigenvectors(L, 4)
        with pytest.raises(ValueError, match=r"m must be in \[1, 3\], got 0"):
            smallest_eigenvectors(L, 0)
        with pytest.raises(ValueError, match="m must be an integer"):
            smallest_eigenvectors(L, 2.0)

    @pytest.mark.parametrize(
        "L",
        [
            frame_laplacian(WeightedGraph(3, [(0, 1, 1.0)])),
            np.zeros(3),
            np.zeros((3, 2)),
            np.zeros((1, 3, 3)),
            [[1.0, -1.0], [-1.0, 1.0]],
        ],
        ids=["csr", "1-d", "non-square", "3-d", "list"],
    )
    def test_rejects_all_but_square_numpy_arrays(self, L):
        with pytest.raises(ValueError, match="2-D square numpy.ndarray"):
            smallest_eigenvectors(L, 1)

    def test_returns_copies_of_the_leading_columns(self):
        rng = np.random.default_rng(19)
        L = dense_laplacian(random_graph(rng, 9))
        vals, vecs = smallest_eigenvectors(L, 3)
        full_vals, full_vecs = np.linalg.eigh(L)
        assert vals.base is None and vecs.base is None
        assert vecs.flags.c_contiguous
        assert np.array_equal(vals, full_vals[:3]) and np.array_equal(vecs, full_vecs[:, :3])


class TestContainers:
    def test_tv_sequence_requires_shared_n(self):
        g2 = WeightedGraph(2, [(0, 1, 1.0)])
        g3 = WeightedGraph(3)
        with pytest.raises(ValueError):
            TVGraphSequence((g2, g3))

    def test_tv_sequence_nonempty(self):
        with pytest.raises(ValueError):
            TVGraphSequence(())
