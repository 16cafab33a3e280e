import hashlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tvclust.solver
from oracle_utils import objective_oracle, pds_iterate_oracle
from tvclust.generators import SbmTvParams, sbm_static, sbm_tv_sequence
from tvclust.graphs import (
    TVGraphSequence,
    WeightedGraph,
    block_laplacian,
    dense_laplacian,
    largest_eigenvalue,
    smallest_eigenvectors,
)
from tvclust.clustering import _warm_start, tv_cluster_multi
from tvclust.prox import prox_sphere_frames
from tvclust.solver import (
    SIGMA,
    BlockLaplacian,
    SolverConfig,
    SolverError,
    default_step_sizes,
    pds_solve,
)

EPS_TOL = 1e-8
NORM_TOL = 1e-6


def two_block_graph(seed, n=40, p_in=0.9, p_out=0.05):
    rng = np.random.default_rng(seed)
    labels = np.repeat([0, 1], n // 2)
    return sbm_static(labels, p_in, p_out, rng), labels


def operator(*graphs):
    """The solver's operator of the sequence of these graphs."""
    return BlockLaplacian(TVGraphSequence(graphs))


def assert_feasible(res, V, eps):
    C = res.c
    n = C.shape[1]
    sq = np.einsum("tn,tn->t", C, C)
    assert np.abs(sq - n).max() <= NORM_TOL * n
    dots = np.einsum("tn,tln->tl", C, V)
    assert np.abs(dots).max() <= eps + EPS_TOL


class TestSolverConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(alpha=-1.0)
        with pytest.raises(ValueError):
            SolverConfig(max_iters=0)

    @pytest.mark.parametrize("value", [2.5, 5.0, True, np.bool_(True), "5"])
    def test_rejects_non_integer_max_iters(self, value):
        # 2.5 used to fail inside the solve, and True to run one iteration
        with pytest.raises(ValueError, match="max_iters must be an integer"):
            SolverConfig(max_iters=value)

    def test_accepts_numpy_integer_max_iters(self):
        seq, _ = sbm_tv_sequence(SbmTvParams(10, 2, 6, 0.5, 0.2, 0.05, seed=4))
        cfg = SolverConfig(alpha=2.0, max_iters=np.int64(5))
        _, _, (res,) = tv_cluster_multi(seq, 2, cfg)
        assert (res.iters, res.converged) == (5, False)

    @pytest.mark.parametrize("value", [2.5, 1.0, True, np.bool_(True), "1"])
    def test_rejects_non_integer_seed(self, value):
        # 2.5 used to fail inside SeedSequence, and True to run as seed 1
        with pytest.raises(ValueError, match="seed must be an integer"):
            SolverConfig(seed=value)

    def test_accepts_numpy_integer_seed(self):
        seq, _ = sbm_tv_sequence(SbmTvParams(5, 3, 4, 0.8, 0.1, 0.05, seed=30))
        got = tv_cluster_multi(seq, 3, SolverConfig(max_iters=5, seed=np.uint64(7)))[0]
        assert got == tv_cluster_multi(seq, 3, SolverConfig(max_iters=5, seed=7))[0]

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("field", ["alpha"])
    def test_rejects_non_finite(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            SolverConfig(**{field: value})

    def test_default_steps_admissible(self):
        """Every solve's steps meet 1/gamma1 - 5*gamma2 >= beta/2 (Condat 2013)."""
        for beta in (0.0, 0.5, 4.0, 120.0):
            for alpha in (0.0, 1.0, 40.0):
                g1, g2 = default_step_sizes(beta, alpha)
                assert g1 > 0.0 and g2 > 0.0
                assert 1.0 / g1 - 5.0 * g2 >= beta / 2.0 - 1e-9 * max(1.0, beta / 2.0)


class TestSolveResult:
    def test_arrays_are_readonly_frames(self):
        g, _ = two_block_graph(seed=19, n=10)
        seq = TVGraphSequence((g, g))
        _, _, (res,) = tv_cluster_multi(seq, 2, SolverConfig(seed=0, max_iters=5))
        assert res.c.shape == (2, g.n)
        with pytest.raises(ValueError):
            res.c[0, 0] = 9.0


    def test_records_beta_used(self):
        g, _ = two_block_graph(seed=19, n=10)
        seq = TVGraphSequence((g, g))
        _, _, (res,) = tv_cluster_multi(seq, 2, SolverConfig(seed=0, max_iters=5))
        assert res.beta == largest_eigenvalue(seq)


def _sha256(a: np.ndarray) -> str:
    return hashlib.sha256(a.tobytes()).hexdigest()


class TestBitIdentity:
    """Iteration counts, objectives and SHA-256 digests of three small solves.

    A change meant only to make the solver faster must leave every value here
    bit for bit as it is. The digests cover float64 arithmetic with numpy 2.4,
    scipy 1.17 and OpenBLAS 0.3 on x86-64; recapture them only when the
    arithmetic is meant to change, or on another toolchain.
    """

    def assert_pinned(self, res, iters, converged, objective, c_sha, trace_sha):
        assert (res.iters, res.converged) == (iters, converged)
        assert res.objective == objective
        assert _sha256(res.c) == c_sha
        assert _sha256(res.objective_trace) == trace_sha

    def test_capped_unsettled_solve(self):
        seq, _ = sbm_tv_sequence(SbmTvParams(10, 2, 6, 0.5, 0.2, 0.05, seed=4))
        _, _, (res,) = tv_cluster_multi(seq, 2, SolverConfig(alpha=2.0, seed=4, max_iters=200))
        # the best iterate polishes to 523.70, so the polished start is returned
        self.assert_pinned(
            res, 200, False, 264.2388983102899,
            "86cf27bf28c03705ae8a6bf734a0c29a2ccaaa817372a8b2dff8b4e705c0218f",
            "f1b9b83948ed69080f6d6b6295b46b6d9b82b8623a70ece90fd3720318d7f65d",
        )

    def test_settled_solve(self):
        g = sbm_static(np.repeat([0, 1], 10), 0.9, 0.05, np.random.default_rng(3))
        init = np.random.default_rng(9).standard_normal((2, 20))
        init -= init.mean(axis=1, keepdims=True)
        init *= np.sqrt(20) / np.linalg.norm(init, axis=1, keepdims=True)
        V = np.ones((2, 1, 20))
        res = pds_solve(operator(g, g), V, SolverConfig(alpha=0.5, seed=3), init)
        self.assert_pinned(
            res, 655, True, 26.625657766031065,
            "c33dd27234105a3ad0dff9a7aa1d069d8742e13a3b4704af29a0aad84af597ce",
            "ed06a84c85e18496078ec0c79ce47aaa034d7d3fa17fb744e8710f2d0af15001",
        )

    def test_two_direction_basis(self):
        # the second deflation level keeps the all-ones and the first cluster vector
        seq, _ = sbm_tv_sequence(SbmTvParams(8, 3, 5, 0.7, 0.1, 0.05, seed=6))
        cfg = SolverConfig(alpha=1.0, seed=6, max_iters=300)
        _, _, results = tv_cluster_multi(seq, 3, cfg)
        self.assert_pinned(
            results[1], 300, False, 148.62482124735533,
            "f64fc5f97edd8c2d0c3951d6446efb77903fd7a24f326b799c988b96f1510417",
            "913f57996595ea08b8400377799827c624cadebf92087e93cfbe101a2e34b72b",
        )


class TestBlockLaplacian:
    """The operator built once per sequence."""

    def test_holds_block_beta_and_shape(self):
        seq, _ = sbm_tv_sequence(SbmTvParams(6, 2, 3, 0.8, 0.1, 0.05, seed=2))
        op = BlockLaplacian(seq)
        want = block_laplacian(seq)
        assert (op.t_len, op.n, op.matrix.shape) == (3, 12, (36, 36))
        for name in ("indptr", "indices", "data"):
            assert getattr(op.matrix, name).tobytes() == getattr(want, name).tobytes()
        dense = op.matrix.toarray()
        for t, g in enumerate(seq.graphs):
            frame = slice(12 * t, 12 * (t + 1))
            assert np.array_equal(dense[frame, frame], dense_laplacian(g))
            dense[frame, frame] = 0.0
        assert not dense.any()
        assert op.beta == largest_eigenvalue(seq)
        with pytest.raises(AttributeError):
            op.beta = 1.0


def _outcome(fn, *args):
    """fn's results, or the type and message of the error it raised."""
    try:
        return fn(*args)
    except (ValueError, SolverError) as exc:
        return type(exc).__name__, str(exc)


class TestIterateMatchesOperatorComposition:
    @given(
        seed=st.integers(0, 2**32 - 1),
        t_len=st.integers(1, 4),
        n=st.integers(4, 16),
        extra_directions=st.integers(0, 2),
        alpha=st.sampled_from([0.0, 0.5, 3.0]),
        eps_scale=st.sampled_from([0.0, 1e-6, 0.3, 50.0]),
        zero_row=st.booleans(),
        max_iters=st.sampled_from([1, 2, 40, 600]),
    )
    @settings(max_examples=40, deadline=None)
    def test_bit_identical(
        self, seed, t_len, n, extra_directions, alpha, eps_scale, zero_row, max_iters
    ):
        """The buffered loop returns exactly what composing the operators returns,
        including frames inside their slabs and settled runs; from a zero-row
        start both raise the same SolverError."""
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, 2, n)
        seq = TVGraphSequence(tuple(sbm_static(labels, 0.8, 0.2, rng) for _ in range(t_len)))
        V = np.ones((t_len, 1, n))
        if extra_directions:
            u = rng.standard_normal((t_len, extra_directions, n))
            unit = u / np.linalg.norm(u, axis=2, keepdims=True)
            V = np.concatenate([V, unit], axis=1)
        C0 = rng.standard_normal((t_len, n))
        if zero_row:
            C0[0] = 0.0
        g1, g2 = default_step_sizes(largest_eigenvalue(seq), alpha)
        eps = eps_scale * np.sqrt(n)
        Lblock = block_laplacian(seq)
        args = (eps, alpha, g1, g2, 1e-5, max_iters, C0)
        got = _outcome(tvclust.solver._iterate, Lblock, V, *args)
        want = _outcome(pds_iterate_oracle, Lblock, V, *args)
        if zero_row:
            assert got == ("SolverError", "all-zero frame at iteration 1")
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)


class TestObjective:
    @pytest.mark.parametrize("t_len", [1, 2, 7])
    def test_matches_definition(self, t_len):
        """The one objective of a solve, against the sum over frames and frame pairs;
        the difference buffer keeps row 0 at zero and has |C[t] - C[t-1]| below it."""
        rng = np.random.default_rng(t_len)
        n = 12
        Ls = [dense_laplacian(sbm_static(rng.integers(0, 3, n), 0.7, 0.3, rng))
              for _ in range(t_len)]
        C = rng.standard_normal((t_len, n))
        LC = np.stack([L @ c for L, c in zip(Ls, C)])
        alpha = float(rng.uniform(0.1, 5.0))
        diff = np.zeros((t_len, n))
        diff[1:] = rng.standard_normal((t_len - 1, n))  # stale contents are overwritten
        got = tvclust.solver._objective(C, LC, alpha, diff)
        assert got == pytest.approx(objective_oracle(Ls, C, alpha), rel=1e-12)
        assert not diff[0].any()
        assert np.array_equal(diff[1:], np.abs(C[1:] - C[:-1]))


class TestPdsSolve:
    def test_single_frame_matches_fiedler_signs(self):
        g, planted = two_block_graph(seed=0)
        seq = TVGraphSequence((g,))
        labels, _, (res,) = tv_cluster_multi(seq, 2, SolverConfig(seed=1))
        assert res.converged
        _, vecs = smallest_eigenvectors(dense_laplacian(g), 2)
        fied = (vecs[:, 1] < 0).astype(int)
        agree = (labels.frame(0) == fied).mean()
        assert max(agree, 1 - agree) == 1.0

    def test_feasibility_at_convergence(self):
        g, _ = two_block_graph(seed=2)
        seq = TVGraphSequence((g, g, g))
        cfg = SolverConfig(alpha=2.0, seed=3)
        labels, _, (res,) = tv_cluster_multi(seq, 2, cfg)
        assert res.converged
        eps = 1e-6 * np.sqrt(g.n)
        assert_feasible(res, np.ones((3, 1, g.n)), eps)

    def test_large_alpha_forces_frame_agreement(self):
        g, _ = two_block_graph(seed=4, n=20)
        seq = TVGraphSequence((g, g))
        V = np.ones((2, 1, g.n))
        rng = np.random.default_rng(9)
        init = rng.standard_normal((2, g.n))
        init -= init.mean(axis=1, keepdims=True)
        init *= np.sqrt(g.n) / np.linalg.norm(init, axis=1, keepdims=True)
        beta = largest_eigenvalue(seq)
        # steps 1/(beta + 50) and beta/10, not the default 1/(beta + 8 * alpha), which
        # is far smaller at alpha = 1e4, so the iteration is called directly: the
        # frame difference vanishes at the optimum, so the temporal dual stays
        # interior and modest steps converge fast
        Lblock = block_laplacian(seq)
        eps = tvclust.solver.DEFAULT_EPSILON_SCALE * np.sqrt(g.n)
        C, *_ = tvclust.solver._iterate(
            Lblock, V, eps, 1e4, 1.0 / (beta + 50.0), beta / 10.0, SIGMA, 20000, init
        )
        assert np.abs(C[1] - C[0]).max() <= 1e-3

    def test_alpha_zero_decouples_frames(self):
        rng = np.random.default_rng(6)
        frames = []
        planted = []
        for t in range(4):
            g, lab = two_block_graph(seed=60 + t)
            frames.append(g)
            planted.append(lab)
        seq = TVGraphSequence(tuple(frames))
        labels, _, (res,) = tv_cluster_multi(seq, 2, SolverConfig(alpha=0.0, seed=7))
        for t, g in enumerate(seq.graphs):
            _, vecs = smallest_eigenvectors(dense_laplacian(g), 2)
            fied = (vecs[:, 1] < 0).astype(int)
            agree = (labels.frame(t) == fied).mean()
            assert max(agree, 1 - agree) == 1.0

    def test_determinism_bitwise(self):
        g, _ = two_block_graph(seed=10, n=24)
        seq = TVGraphSequence((g, g))
        cfg = SolverConfig(alpha=1.0, seed=11)
        _, _, (r1,) = tv_cluster_multi(seq, 2, cfg)
        _, _, (r2,) = tv_cluster_multi(seq, 2, cfg)
        assert np.array_equal(r1.c, r2.c)
        assert r1.iters == r2.iters and r1.converged == r2.converged
        assert np.array_equal(r1.objective_trace, r2.objective_trace)

    def test_seed_does_not_reach_the_solve(self):
        g, _ = two_block_graph(seed=10, n=16)
        op = operator(g, g, g)
        init = np.random.default_rng(1).standard_normal((3, g.n))
        V = np.ones((3, 1, g.n))
        r1 = pds_solve(op, V, SolverConfig(alpha=1.0, seed=1, max_iters=300), init)
        r2 = pds_solve(op, V, SolverConfig(alpha=1.0, seed=2, max_iters=300), init)
        assert np.array_equal(r1.c, r2.c)
        assert (r1.iters, r1.converged, r1.objective) == (r2.iters, r2.converged, r2.objective)
        assert np.array_equal(r1.objective_trace, r2.objective_trace)

    @given(
        seed=st.integers(0, 2**32 - 1),
        t_len=st.integers(1, 6),
        n=st.integers(4, 16),
        # alpha > 0: at alpha = 0 the default gamma1 = 1/beta can step a frame in
        # the top eigenspace exactly onto zero, which raises SolverError (see
        # test_zero_frame_in_sphere_step_reports_iteration)
        alpha=st.sampled_from([0.5, 2.0, 10.0]),
        max_iters=st.integers(1, 60),
    )
    @example(seed=24, t_len=4, n=12, alpha=2.0, max_iters=30)  # polishes above its start
    @settings(max_examples=80, deadline=None)
    def test_never_ends_above_a_feasible_start(self, seed, t_len, n, alpha, max_iters):
        """From the drivers' warm start, feasible and often near a local minimum,
        a short run ends no higher than it began, though its iterates may climb."""
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, 2, n)
        seq = TVGraphSequence(tuple(sbm_static(labels, 0.5, 0.2, rng) for _ in range(t_len)))
        V = np.ones((t_len, 1, n))
        _, vecs = smallest_eigenvectors(sum(map(dense_laplacian, seq.graphs)) / t_len, 2)
        init = _warm_start(vecs[:, 1], V, rng)
        res = pds_solve(BlockLaplacian(seq), V, SolverConfig(alpha=alpha, max_iters=max_iters), init)
        start = res.objective_trace[0]
        assert res.objective <= start + 1e-9 * max(1.0, abs(start))

    @given(
        seed=st.integers(0, 2**32 - 1),
        t_len=st.integers(1, 4),
        n=st.integers(4, 30),
        alpha=st.sampled_from([0.0, 0.5, 3.0]),
        warm=st.booleans(),
        max_iters=st.sampled_from([1, 2, 40, 400]),
    )
    @example(seed=0, t_len=3, n=20, alpha=0.0, warm=True, max_iters=400)  # settles
    @example(seed=0, t_len=3, n=20, alpha=3.0, warm=False, max_iters=40)  # capped
    @settings(max_examples=40, deadline=None)
    def test_every_iterate_lies_on_the_sphere(self, seed, t_len, n, alpha, warm, max_iters):
        """Every iterate the solve visits, every re-projected candidate and the
        returned c have squared frame norms within 1e-12 * n of n: the primal step
        scales each frame onto the sphere, so no solve needs to check it."""
        rng = np.random.default_rng(seed)
        labels = np.repeat([0, 1], [n // 2, n - n // 2])
        seq = TVGraphSequence(tuple(sbm_static(labels, 0.9, 0.1, rng) for _ in range(t_len)))
        V = np.ones((t_len, 1, n))
        if warm:
            _, vecs = smallest_eigenvectors(sum(map(dense_laplacian, seq.graphs)) / t_len, 2)
            init = _warm_start(vecs[:, 1], V, rng)
        else:
            init = prox_sphere_frames(rng.standard_normal((t_len, n)))
        seen = []
        real = tvclust.solver._objective

        def recording(C, *args):
            seen.append(np.abs(np.einsum("tn,tn->t", C, C) - n).max())
            return real(C, *args)

        cfg = SolverConfig(alpha=alpha, max_iters=max_iters)
        with mock.patch.object(tvclust.solver, "_objective", recording):
            res = pds_solve(BlockLaplacian(seq), V, cfg, init)
        assert len(seen) >= res.iters + 1
        assert max(seen) <= 1e-12 * n
        assert np.abs(np.einsum("tn,tn->t", res.c, res.c) - n).max() <= 1e-12 * n

    def test_objective_trace_finite_and_improving(self):
        g, _ = two_block_graph(seed=12)
        seq = TVGraphSequence((g,) * 3)
        _, _, (res,) = tv_cluster_multi(seq, 2, SolverConfig(alpha=2.0, seed=13))
        trace = res.objective_trace
        assert np.all(np.isfinite(trace))
        assert trace[-1] <= trace[0] + 1e-9 * max(1.0, abs(trace[0]))

    def test_shape_validation(self):
        g, _ = two_block_graph(seed=15, n=10)
        init = np.ones((1, g.n))
        with pytest.raises(ValueError):
            pds_solve(operator(g), np.ones((2, 1, g.n)), SolverConfig(), init)

    @pytest.mark.parametrize(
        "shape, bad, match",
        [
            ((1, 1, 10), None, "directions shape"),
            ((2, 1, 9), None, "directions shape"),
            ((2, 10), None, "directions shape"),
            ((2, 2, 10), 0.0, "directions must be nonzero"),
            ((2, 2, 10), np.nan, "directions must be finite"),
            ((2, 2, 10), np.inf, "directions must be finite"),
        ],
        ids=["frames", "nodes", "flat", "zero", "nan", "inf"],
    )
    def test_rejects_bad_directions(self, shape, bad, match):
        g, _ = two_block_graph(seed=15, n=10)
        V = np.ones(shape)
        if bad is not None:
            V[1, 1] = bad
        with pytest.raises(ValueError, match=match):
            pds_solve(operator(g, g), V, SolverConfig(seed=0), np.ones((2, 10)))

    def test_non_finite_detection_reports_iteration(self):
        # a finite start whose first step overflows
        g, _ = two_block_graph(seed=16, n=10)
        init = np.ones((2, g.n))
        init[1, 0] = 1e200
        with np.errstate(over="ignore"), pytest.raises(SolverError, match="iteration 1"):
            pds_solve(operator(g, g), np.ones((2, 1, g.n)), SolverConfig(seed=0), init)

    def test_nan_slab_component_reports_iteration(self):
        # |v|^2 of a direction with entries 1e155 overflows, so the first slab
        # component is NaN after the first step; the coefficient step must pass the
        # NaN on rather than treat the frame as inside its slab
        g, _ = two_block_graph(seed=16, n=10)
        op = operator(g, g)
        V = np.full((2, 1, 10), 1e155)
        init = np.random.default_rng(1).standard_normal((2, 10))
        cfg = SolverConfig(alpha=1.0, max_iters=50)
        g1, g2 = default_step_sizes(op.beta, cfg.alpha)
        eps = 1e-6 * np.sqrt(10)
        args = (V, eps, cfg.alpha, g1, g2, SIGMA, cfg.max_iters, init)
        with np.errstate(all="ignore"):
            want = _outcome(pds_iterate_oracle, op.matrix, *args)
            assert want == ("SolverError", "non-finite iterate at iteration 1")
            with pytest.raises(SolverError, match=f"^{want[1]}$"):
                pds_solve(op, V, cfg, init)

    def test_zero_frame_in_sphere_step_reports_iteration(self):
        # on the complete graph K4, L c = 4c for a centred c, so the default primal
        # step 1/beta = 1/4 at alpha = 0 from that start lands exactly on zero
        edges = [(i, j, 1.0) for i in range(4) for j in range(i + 1, 4)]
        op = operator(WeightedGraph(4, edges))
        cfg = SolverConfig(alpha=0.0)
        init = np.array([[1.0, -1.0, 1.0, -1.0]])
        with pytest.raises(SolverError, match="all-zero frame at iteration 1"):
            pds_solve(op, np.ones((1, 1, 4)), cfg, init)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_rejects_non_finite_init(self, bad):
        g, _ = two_block_graph(seed=16, n=10)
        init = np.ones((2, g.n))
        init[1, 3] = bad
        with pytest.raises(ValueError, match="init must be finite"):
            pds_solve(operator(g, g), np.ones((2, 1, g.n)), SolverConfig(seed=0), init)

    def test_rejects_zero_frame_init(self):
        # a capped run whose start stays its best iterate would re-project the zero frame
        g = sbm_static(np.repeat([0, 1], 10), 0.5, 0.2, np.random.default_rng(4))
        init = np.random.default_rng(0).standard_normal((2, 20))
        init[1] = 0.0
        cfg = SolverConfig(alpha=2.0, seed=0, max_iters=1)
        with pytest.raises(ValueError, match="init frames must be nonzero"):
            pds_solve(operator(g, g), np.ones((2, 1, 20)), cfg, init)

    @pytest.mark.parametrize("max_iters", [1, 5, 50])
    def test_capped_run_outside_its_slabs_raises(self, max_iters):
        # with strongly correlated directions the re-projection does not reach the
        # slabs; such a run used to return its iterate with no error
        n, t_len = 20, 3
        rng = np.random.default_rng(0)
        labels = np.repeat([0, 1], n // 2)
        op = operator(*(sbm_static(labels, 0.5, 0.2, rng) for _ in range(t_len)))
        ones = np.ones((t_len, n))
        V = np.stack([ones, ones + 0.3 * rng.standard_normal((t_len, n))], axis=1)
        init = rng.standard_normal((t_len, n))
        cfg = SolverConfig(alpha=1.0, max_iters=max_iters)
        with pytest.raises(SolverError, match=r"outside its slabs: max \|c_t \. v\| = .*eps"):
            pds_solve(op, V, cfg, init)

    def test_objective_describes_returned_iterate(self):
        # a capped solve returns a polished iterate (here its start), not the last one visited
        seq, _ = sbm_tv_sequence(SbmTvParams(10, 2, 6, 0.5, 0.2, 0.05, seed=4))
        cfg = SolverConfig(alpha=2.0, seed=4, max_iters=200)
        _, _, (res,) = tv_cluster_multi(seq, 2, cfg)
        assert not res.converged
        want = objective_oracle([dense_laplacian(g) for g in seq.graphs], res.c, cfg.alpha)
        assert res.objective == pytest.approx(want, rel=1e-12)
        assert res.objective_trace[-1] != pytest.approx(want, rel=1e-3)
