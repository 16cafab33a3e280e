import numpy as np
import pytest

from oracle_utils import knn_edges_oracle
from tvclust.pointcloud import PointFrameSequence, downsample, knn_graph, load_frames


def write_frame(path, pts):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for row in pts:
            fh.write(",".join(f"{v:.6f}" for v in row) + "\n")


class TestLoadFrames:
    def test_happy_path(self, tmp_path):
        rng = np.random.default_rng(0)
        for t in range(3):
            write_frame(tmp_path / f"{t + 1:03d}.csv", rng.random((5, 3)))
        seq = load_frames(tmp_path)
        assert seq.t_len == 3 and seq.n_points == 5

    def test_lexicographic_order_is_temporal(self, tmp_path):
        write_frame(tmp_path / "b.csv", np.full((2, 3), 2.0))
        write_frame(tmp_path / "a.csv", np.full((2, 3), 1.0))
        seq = load_frames(tmp_path)
        assert seq.frame(0)[0, 0] == 1.0 and seq.frame(1)[0, 0] == 2.0

    def test_inconsistent_point_count(self, tmp_path):
        write_frame(tmp_path / "001.csv", np.zeros((5, 3)))
        write_frame(tmp_path / "002.csv", np.zeros((4, 3)))
        with pytest.raises(ValueError, match="inconsistent point count"):
            load_frames(tmp_path)

    def test_empty_directory(self, tmp_path):
        with pytest.raises(ValueError, match="no frames found"):
            load_frames(tmp_path)

    def test_non_numeric_field(self, tmp_path):
        (tmp_path / "001.csv").write_text("1.0,2.0,oops\n", encoding="utf-8")
        with pytest.raises(ValueError, match="001.csv"):
            load_frames(tmp_path)

    def test_wrong_column_count(self, tmp_path):
        (tmp_path / "001.csv").write_text("1.0,2.0\n", encoding="utf-8")
        with pytest.raises(ValueError, match="3 columns"):
            load_frames(tmp_path)


class TestDownsample:
    def test_identity_when_target_is_n(self):
        rng = np.random.default_rng(1)
        seq = PointFrameSequence(rng.random((2, 6, 3)))
        out = downsample(seq, 6, seed=0)
        assert np.array_equal(out.coords, seq.coords)

    def test_two_clusters_one_point_each(self):
        near = np.random.default_rng(2).normal(0.0, 0.01, size=(4, 3))
        far = near + np.array([100.0, 0.0, 0.0])
        frame = np.vstack([near, far])
        seq = PointFrameSequence(frame[None, :, :])
        out = downsample(seq, 2, seed=3)
        sides = set(out.coords[0][:, 0] > 50.0)
        assert sides == {True, False}

    def test_registration_preserved(self):
        rng = np.random.default_rng(4)
        base = rng.random((8, 3))
        shift = np.array([1.0, 2.0, 3.0])
        seq = PointFrameSequence(np.stack([base, base + shift]))
        out = downsample(seq, 4, seed=5)
        assert np.allclose(out.coords[1] - out.coords[0], shift)

    def test_target_out_of_range(self):
        seq = PointFrameSequence(np.zeros((1, 3, 3)))
        with pytest.raises(ValueError, match=r"target_n must be in \[1, 3\], got 4"):
            downsample(seq, 4, seed=0)
        with pytest.raises(ValueError, match="target_n must be an integer"):
            downsample(seq, 2.0, seed=0)

    @pytest.mark.parametrize("seed", [-1, 1.0, True])
    def test_rejects_seed_that_is_no_count(self, seed):
        seq = PointFrameSequence(np.zeros((1, 3, 3)))
        with pytest.raises(ValueError, match="seed must be"):
            downsample(seq, 2, seed=seed)


class TestKnnGraph:
    def test_three_collinear_points(self):
        pts = np.array([[0.0, 0, 0], [1.0, 0, 0], [3.0, 0, 0]])
        g = knn_graph(pts, 1)
        assert list(zip(*g.edge_arrays())) == [(0, 1, 1.0), (1, 2, 1.0)]

    def test_min_degree_after_or_symmetrization(self):
        rng = np.random.default_rng(6)
        pts = rng.random((40, 3))
        k = 5
        g = knn_graph(pts, k)
        degrees = np.zeros(40, dtype=int)
        for i, j, _ in zip(*g.edge_arrays()):
            degrees[i] += 1
            degrees[j] += 1
        assert degrees.min() >= k

    def test_complete_graph_when_k_is_n_minus_1(self):
        rng = np.random.default_rng(7)
        pts = rng.random((6, 3))
        g = knn_graph(pts, 5)
        assert g.num_edges == 15

    def test_k_too_large(self):
        with pytest.raises(ValueError, match=r"k must be in \[1, 2\], got 3"):
            knn_graph(np.zeros((3, 3)), 3)
        with pytest.raises(ValueError, match="k must be an integer"):
            knn_graph(np.zeros((3, 3)), 2.0)

    def test_symmetric_no_self_loops_unit_weights(self):
        rng = np.random.default_rng(8)
        g = knn_graph(rng.random((20, 3)), 4)
        for i, j, w in zip(*g.edge_arrays()):
            assert i < j and w == 1.0

    def test_tie_breaks_toward_lower_index(self):
        # point 0 is equidistant from 1 and 2; the lower index must win
        pts = np.array([[0.0, 0, 0], [1.0, 0, 0], [-1.0, 0, 0], [5.0, 0, 0]])
        g = knn_graph(pts, 1)
        assert (0, 1, 1.0) in zip(*g.edge_arrays())

    def test_non_finite_points_rejected(self):
        pts = np.zeros((4, 3))
        pts[2, 1] = np.nan
        with pytest.raises(ValueError, match="finite"):
            knn_graph(pts, 1)

    def test_overflowing_distances_rejected(self):
        # the squared distances overflow to inf, which the inf diagonal would tie
        pts = np.array([[0.0, 0, 0], [1e200, 0, 0], [2e200, 0, 0]])
        with pytest.raises(ValueError, match="overflow"):
            knn_graph(pts, 1)


def _lattice(side, dim):
    axes = np.meshgrid(*[np.arange(side, dtype=float)] * dim, indexing="ij")
    return np.stack([a.ravel() for a in axes], axis=1)


def _duplicated(seed):
    base = np.random.default_rng(seed).integers(0, 3, size=(6, 3)).astype(float)
    return np.concatenate([base, base[::-1], base[:3]])


class TestKnnGraphMatchesOracle:
    """Every pair list against the brute-force (distance, index) order."""

    @pytest.mark.parametrize(
        "pts",
        [_lattice(4, 2), _lattice(3, 3), _duplicated(0), _duplicated(1), np.zeros((7, 3))],
        ids=["lattice-4x4", "lattice-3x3x3", "duplicated-0", "duplicated-1", "one-point-7x"],
    )
    def test_tie_heavy_clouds_every_k(self, pts):
        for k in range(1, len(pts)):
            edges = [(i, j) for i, j, _ in zip(*knn_graph(pts, k).edge_arrays())]
            assert edges == knn_edges_oracle(pts, k), f"k={k}"

    @pytest.mark.parametrize("seed", range(4))
    def test_random_clouds(self, seed):
        rng = np.random.default_rng(40 + seed)
        n = int(rng.integers(5, 40))
        pts = rng.normal(size=(n, int(rng.integers(1, 4))))
        for k in sorted({1, 2, n // 2, n - 1}):
            edges = [(i, j) for i, j, _ in zip(*knn_graph(pts, k).edge_arrays())]
            assert edges == knn_edges_oracle(pts, k), f"k={k}"
