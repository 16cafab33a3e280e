import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle_utils import pair_accuracy_oracle
from tvclust.clustering import LabelSequence
from tvclust.graphs import WeightedGraph, dense_laplacian
from tvclust.metrics import (
    accuracy_report,
    eigengap_profile,
    label_changes,
    pair_accuracy,
)


class TestPairAccuracy:
    def test_identical_labelings(self):
        labels = np.array([0, 1, 1, 0])
        assert pair_accuracy(labels, labels) == 1.0

    def test_name_permutation_scores_one(self):
        truth = np.array([0, 0, 1, 1, 2])
        est = np.array([2, 2, 0, 0, 1])
        assert pair_accuracy(est, truth) == 1.0

    def test_hand_case_one_third(self):
        truth = np.array([0, 0, 1])
        est = np.array([0, 1, 1])
        assert pair_accuracy(est, truth) == pytest.approx(1.0 / 3.0)

    def test_matches_bruteforce_oracle_exactly(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            n = int(rng.integers(2, 31))
            k1, k2 = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            truth = rng.integers(0, k1, n)
            est = rng.integers(0, k2, n)
            assert pair_accuracy(est, truth) == pair_accuracy_oracle(est, truth)

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 25))
    @settings(max_examples=50, deadline=None)
    def test_symmetric_and_permutation_invariant(self, seed, n):
        rng = np.random.default_rng(seed)
        a = rng.integers(0, 4, n)
        b = rng.integers(0, 4, n)
        assert pair_accuracy(a, b) == pair_accuracy(b, a)
        perm = rng.permutation(4)
        assert pair_accuracy(perm[a], b) == pair_accuracy(a, b)

    def test_one_iff_same_partition(self):
        a = np.array([0, 0, 1, 2])
        b = np.array([1, 1, 0, 0])  # merges clusters 1 and 2 of a
        assert pair_accuracy(a, b) < 1.0

    def test_input_validation(self):
        with pytest.raises(ValueError):
            pair_accuracy(np.array([0]), np.array([0]))
        with pytest.raises(ValueError):
            pair_accuracy(np.array([0, 1]), np.array([0, 1, 2]))


class TestMismatchCount:
    """label_changes: per frame pair, the nodes whose label differs."""

    def test_identical(self):
        assert label_changes(np.array([[0, 1, 2], [0, 1, 2]])).tolist() == [0]

    def test_one_changed(self):
        assert label_changes(np.array([[0, 1, 2], [0, 1, 1]])).tolist() == [1]

    def test_single_frame_has_no_pairs(self):
        assert label_changes(np.array([[0, 1, 2]])).shape == (0,)

    def test_matches_elementwise_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            t_len = int(rng.integers(1, 6))
            n = int(rng.integers(1, 40))
            labels = rng.integers(0, 3, (t_len, n))
            want = [
                sum(int(x != y) for x, y in zip(labels[t], labels[t - 1]))
                for t in range(1, t_len)
            ]
            assert label_changes(labels).tolist() == want

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 30))
    @settings(max_examples=50, deadline=None)
    def test_triangle_bound(self, seed, n):
        rng = np.random.default_rng(seed)
        a, b, c = (rng.integers(0, 3, n) for _ in range(3))
        direct = label_changes(np.stack([a, c]))[0]
        via_b = label_changes(np.stack([a, b, c])).sum()
        assert direct <= via_b


class TestEigengapProfile:
    def test_complete_graph(self):
        n = 6
        g = WeightedGraph(n, [(i, j, 1.0) for i in range(n) for j in range(i + 1, n)])
        gaps = eigengap_profile(dense_laplacian(g), 4)
        assert gaps[0] == pytest.approx(n, abs=1e-8)
        assert np.allclose(gaps[1:], 0.0, atol=1e-8)

    def test_two_cliques_first_gap_zero(self):
        g = WeightedGraph(6, [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0),
                              (3, 4, 1.0), (3, 5, 1.0), (4, 5, 1.0)])
        gaps = eigengap_profile(dense_laplacian(g), 3)
        assert gaps[0] == pytest.approx(0.0, abs=1e-10)

    def test_m_two_single_gap(self):
        g = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0)])
        gaps = eigengap_profile(dense_laplacian(g), 2)
        assert gaps.shape == (1,)
        assert gaps[0] == pytest.approx(1.0, abs=1e-10)
        # m = 1 used to give an empty profile
        with pytest.raises(ValueError, match=r"m must be in \[2, 3\], got 1"):
            eigengap_profile(dense_laplacian(g), 1)

    def test_m_above_n_names_the_range_from_two(self):
        # the upper bound used to be left to smallest_eigenvectors, whose message
        # named a lower bound of 1
        L = dense_laplacian(WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0)]))
        with pytest.raises(ValueError, match=r"^m must be in \[2, 3\], got 4$"):
            eigengap_profile(L, 4)

    def test_checks_the_array_before_m(self):
        # n bounds m, so a non-square array is refused whatever m is
        with pytest.raises(ValueError, match="L must be a 2-D square numpy.ndarray"):
            eigengap_profile(np.zeros((3, 4)), 1)


class TestAccuracyReport:
    def test_fields_and_mean(self):
        est = LabelSequence(np.array([[0, 0, 1, 1], [0, 0, 1, 1], [0, 1, 1, 1]]), 2)
        truth = LabelSequence(np.array([[0, 0, 1, 1]] * 3), 2)
        rep = accuracy_report(est, truth)
        assert rep.per_frame.shape == (3,)
        assert rep.mismatch_per_frame.tolist() == [0, 1]
        assert rep.mean == pytest.approx(float(rep.per_frame.mean()), abs=1e-12)

    def test_shape_mismatch(self):
        a = LabelSequence(np.zeros((2, 3), dtype=int), 1)
        b = LabelSequence(np.zeros((3, 3), dtype=int), 1)
        with pytest.raises(ValueError):
            accuracy_report(a, b)
