import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tvclust.graphs import (
    TVGraphSequence,
    WeightedGraph,
    build_laplacian,
    max_eigenvalue,
    quadratic_form,
    smallest_eigenvectors,
    temporal_diff,
    temporal_diff_adjoint,
)


def random_graph(rng, n, p=0.5):
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                edges.append((i, j, float(rng.random()) + 0.05))
    return WeightedGraph(n, edges)


def quad_double_sum(g, f):
    """Brute-force half-sum of w_ij (f_i - f_j)^2 over both orderings."""
    total = 0.0
    for i, j, w in g.edges:
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
        assert g.edges == [(0, 3, 1.5), (1, 2, 0.5)]

    def test_equality(self):
        a = WeightedGraph(3, [(1, 0, 1.0)])
        b = WeightedGraph(3, [(0, 1, 1.0)])
        assert a == b
        assert a != WeightedGraph(3, [(0, 2, 1.0)])


class TestBuildLaplacian:
    def test_two_node_unit_edge(self):
        L = build_laplacian(WeightedGraph(2, [(0, 1, 1.0)]))
        assert np.allclose(L.toarray(), [[1.0, -1.0], [-1.0, 1.0]])

    def test_empty_graph_is_zero(self):
        L = build_laplacian(WeightedGraph(3))
        assert np.array_equal(L.toarray(), np.zeros((3, 3)))

    def test_unit_triangle(self):
        g = WeightedGraph(3, [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)])
        expect = np.full((3, 3), -1.0)
        np.fill_diagonal(expect, 2.0)
        assert np.allclose(build_laplacian(g).toarray(), expect)

    def test_row_sums_and_degree_diagonal(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            g = random_graph(rng, int(rng.integers(2, 15)))
            L = build_laplacian(g).toarray()
            max_deg = max(g.degrees().max(), 1.0)
            assert np.abs(L.sum(axis=1)).max() <= 1e-10 * max_deg
            assert np.allclose(np.diag(L), g.degrees())
            assert np.allclose(L, L.T)

    def test_psd_on_random_probes(self):
        rng = np.random.default_rng(12)
        g = random_graph(rng, 10)
        L = build_laplacian(g)
        for _ in range(50):
            x = rng.standard_normal(10)
            assert quadratic_form(L, x) >= -1e-10 * float(x @ x)


class TestQuadraticForm:
    def test_constant_signal_is_zero(self):
        g = WeightedGraph(4, [(0, 1, 2.0), (1, 2, 0.5), (2, 3, 1.0)])
        L = build_laplacian(g)
        assert abs(quadratic_form(L, np.full(4, 3.7))) < 1e-12

    def test_two_node_antipodal(self):
        L = build_laplacian(WeightedGraph(2, [(0, 1, 1.0)]))
        assert quadratic_form(L, np.array([1.0, -1.0])) == pytest.approx(4.0, abs=1e-12)

    def test_matches_double_sum_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(2, 12))
            g = random_graph(rng, n)
            f = rng.standard_normal(n)
            got = quadratic_form(build_laplacian(g), f)
            want = quad_double_sum(g, f)
            assert got == pytest.approx(want, rel=1e-10, abs=1e-10)

    def test_dimension_mismatch(self):
        L = build_laplacian(WeightedGraph(2, [(0, 1, 1.0)]))
        with pytest.raises(ValueError):
            quadratic_form(L, np.ones(3))


class TestMaxEigenvalue:
    def test_two_node_unit_edge(self):
        L = build_laplacian(WeightedGraph(2, [(0, 1, 1.0)]))
        res = max_eigenvalue([L])
        assert res.converged
        assert res.value == pytest.approx(2.0, rel=1e-7)

    def test_complete_graph(self):
        n = 7
        g = WeightedGraph(n, [(i, j, 1.0) for i in range(n) for j in range(i + 1, n)])
        res = max_eigenvalue([build_laplacian(g)])
        assert res.value == pytest.approx(n, rel=1e-7)

    def test_block_diagonal_maximum(self):
        L2 = build_laplacian(WeightedGraph(2, [(0, 1, 1.0)]))  # lambda_max = 2
        g5 = WeightedGraph(5, [(i, j, 1.0) for i in range(5) for j in range(i + 1, 5)])
        L5 = build_laplacian(g5)  # lambda_max = 5
        assert max_eigenvalue([L2, L5]).value == pytest.approx(5.0, rel=1e-7)

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            max_eigenvalue([])

    def test_zero_matrix(self):
        res = max_eigenvalue([build_laplacian(WeightedGraph(4))])
        assert res.converged
        assert res.value == 0.0

    def test_matches_dense_solver(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            g = random_graph(rng, int(rng.integers(3, 20)))
            L = build_laplacian(g)
            want = float(np.linalg.eigvalsh(L.toarray()).max())
            assert max_eigenvalue([L]).value == pytest.approx(want, rel=1e-6, abs=1e-9)


class TestSmallestEigenvectors:
    def test_connected_graph_null_vector(self):
        rng = np.random.default_rng(3)
        g = WeightedGraph(6, [(i, i + 1, 1.0) for i in range(5)] + [(0, 3, 0.5)])
        vals, vecs = smallest_eigenvectors(build_laplacian(g), 1)
        assert vals[0] >= -1e-10
        assert vals[0] == pytest.approx(0.0, abs=1e-10)
        unit = np.ones(6) / np.sqrt(6)
        assert abs(float(vecs[:, 0] @ unit)) > 1 - 1e-8

    def test_two_components_double_zero(self):
        g = WeightedGraph(4, [(0, 1, 1.0), (2, 3, 1.0)])
        vals, _ = smallest_eigenvectors(build_laplacian(g), 2)
        assert np.allclose(vals, 0.0, atol=1e-10)

    def test_path_three_fiedler(self):
        g = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0)])
        vals, vecs = smallest_eigenvectors(build_laplacian(g), 2)
        assert vals[1] == pytest.approx(1.0, abs=1e-10)
        fied = vecs[:, 1] / np.linalg.norm(vecs[:, 1])
        expect = np.array([1.0, 0.0, -1.0]) / np.sqrt(2)
        assert min(np.abs(fied - expect).max(), np.abs(fied + expect).max()) < 1e-8

    def test_residuals_and_orthonormality(self):
        rng = np.random.default_rng(17)
        g = random_graph(rng, 12)
        L = build_laplacian(g)
        vals, vecs = smallest_eigenvectors(L, 5)
        dense = L.toarray()
        scale = max(float(np.linalg.norm(dense, 2)), 1e-12)
        for i in range(5):
            res = np.linalg.norm(dense @ vecs[:, i] - vals[i] * vecs[:, i])
            assert res <= 1e-8 * scale
        assert np.abs(vecs.T @ vecs - np.eye(5)).max() < 1e-8

    def test_m_out_of_range(self):
        L = build_laplacian(WeightedGraph(3))
        with pytest.raises(ValueError):
            smallest_eigenvectors(L, 4)
        with pytest.raises(ValueError):
            smallest_eigenvectors(L, 0)


class TestTemporalDiff:
    def test_stationary_sequence_maps_to_zero(self):
        c = np.tile([1.0, 2.0, 3.0], (4, 1))
        assert np.array_equal(temporal_diff(c), np.zeros((4, 3)))

    def test_single_frame_maps_to_zero(self):
        c = np.array([[5.0, -1.0]])
        assert np.array_equal(temporal_diff(c), np.zeros((1, 2)))

    def test_two_frames_by_hand(self):
        c = np.array([[1.0, 1.0], [3.0, 0.0]])
        assert np.array_equal(temporal_diff(c), [[0.0, 0.0], [2.0, -1.0]])

    def test_adjoint_zero(self):
        d = np.zeros((2, 3))
        assert np.array_equal(temporal_diff_adjoint(d), np.zeros((2, 3)))

    def test_adjoint_two_frames_by_hand(self):
        d = np.array([[0.0, 0.0], [2.0, -1.0]])
        assert np.array_equal(temporal_diff_adjoint(d), [[-2.0, 1.0], [2.0, -1.0]])

    @given(
        t_len=st.integers(1, 6),
        n=st.integers(1, 5),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_adjoint_identity(self, t_len, n, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((t_len, n))
        y = rng.standard_normal((t_len, n))
        lhs = float(np.vdot(temporal_diff(x), y))
        rhs = float(np.vdot(x, temporal_diff_adjoint(y)))
        scale = max(1.0, abs(lhs))
        assert abs(lhs - rhs) <= 1e-12 * scale

    @given(
        t_len=st.integers(1, 6),
        n=st.integers(1, 5),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_operator_norm_bound(self, t_len, n, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((t_len, n))
        assert np.linalg.norm(temporal_diff(x)) <= 2.0 * np.linalg.norm(x) + 1e-12


class TestContainers:
    def test_tv_sequence_requires_shared_n(self):
        g2 = WeightedGraph(2, [(0, 1, 1.0)])
        g3 = WeightedGraph(3)
        with pytest.raises(ValueError):
            TVGraphSequence((g2, g3))

    def test_tv_sequence_nonempty(self):
        with pytest.raises(ValueError):
            TVGraphSequence(())
