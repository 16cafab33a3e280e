import hashlib

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

import tvclust.solver
from oracle_utils import pds_iterate_oracle
from tvclust.generators import SbmTvParams, sbm_static, sbm_tv_sequence
from tvclust.graphs import (
    MaxEigenvalue,
    TVGraphSequence,
    WeightedGraph,
    build_laplacian,
    max_eigenvalue,
    quadratic_form,
    smallest_eigenvectors,
    temporal_diff,
)
from tvclust.clustering import tv_cluster_multi_detailed, tv_cluster_two
from tvclust.solver import (
    OrthogonalityBasis,
    SolverConfig,
    SolverError,
    StepSizeError,
    check_step_sizes,
    default_step_sizes,
    pds_solve,
)

EPS_TOL = 1e-8
NORM_TOL = 1e-6


def two_block_graph(seed, n=40, p_in=0.9, p_out=0.05):
    rng = np.random.default_rng(seed)
    labels = np.repeat([0, 1], n // 2)
    return sbm_static(labels, p_in, p_out, rng), labels


def assert_feasible(res, basis, eps):
    C = res.c
    n = C.shape[1]
    sq = np.einsum("tn,tn->t", C, C)
    assert np.abs(sq - n).max() <= NORM_TOL * n
    dots = np.einsum("tn,tln->tl", C, basis.vectors)
    assert np.abs(dots).max() <= eps + EPS_TOL


class TestSolverConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(alpha=-1.0)
        with pytest.raises(ValueError):
            SolverConfig(gamma1=0.0)
        with pytest.raises(ValueError):
            SolverConfig(sigma=0.0)
        with pytest.raises(ValueError):
            SolverConfig(restarts=0)

    def test_default_steps_admissible(self):
        for beta in (0.0, 0.5, 4.0, 120.0):
            for alpha in (0.0, 1.0, 40.0):
                g1, g2 = default_step_sizes(beta, alpha)
                check_step_sizes(g1, g2, beta)

    def test_step_size_error(self):
        with pytest.raises(StepSizeError, match="inadmissible"):
            check_step_sizes(gamma1=1.0, gamma2=1.0, beta=10.0)


class TestOrthogonalityBasis:
    def test_shapes(self):
        b = OrthogonalityBasis.all_ones(3, 5)
        assert (b.t_len, b.n_dirs, b.n_nodes) == (3, 1, 5)

    def test_extended(self):
        b = OrthogonalityBasis.all_ones(2, 3)
        d = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        b2 = b.extended(d)
        assert b2.n_dirs == 2
        assert np.array_equal(b2.vectors[:, 1, :], d)

    def test_rejects_zero_direction(self):
        v = np.ones((2, 1, 3))
        v[1, 0] = 0.0
        with pytest.raises(ValueError):
            OrthogonalityBasis(v)


class TestSolveResult:
    def test_arrays_are_readonly_frames(self):
        g, _ = two_block_graph(seed=19, n=10)
        _, res = tv_cluster_two(TVGraphSequence((g, g)), SolverConfig(seed=0, max_iters=5))
        for v in (res.c, res.d1, res.d2):
            assert v.shape == (2, g.n)
            with pytest.raises(ValueError):
                v[0, 0] = 9.0


    def test_records_beta_used(self):
        g, _ = two_block_graph(seed=19, n=10)
        _, res = tv_cluster_two(TVGraphSequence((g, g)), SolverConfig(seed=0, max_iters=5))
        assert res.beta == max_eigenvalue([build_laplacian(g)] * 2).value
        assert res.beta_converged is True

    def test_records_unconverged_beta(self, monkeypatch):
        g, _ = two_block_graph(seed=19, n=10)
        beta = max_eigenvalue([build_laplacian(g)]).value
        unconverged = MaxEigenvalue(beta, False)
        monkeypatch.setattr(tvclust.solver, "max_eigenvalue", lambda Ls: unconverged)
        _, res = tv_cluster_two(TVGraphSequence((g, g)), SolverConfig(seed=0, max_iters=5))
        assert res.beta == beta
        assert res.beta_converged is False


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
        _, res = tv_cluster_two(seq, SolverConfig(alpha=2.0, seed=4, max_iters=200))
        self.assert_pinned(
            res, 200, False, 523.7039364519356,
            "f46b4482bb7558102e96b95cb96058661551b3cb7febd83a2c679c9082c86b18",
            "7445724cf8c7a08aa8fd6669026ee5a374f21e92143aabb98a1b839802d0f502",
        )

    def test_settled_solve(self):
        g = sbm_static(np.repeat([0, 1], 10), 0.9, 0.05, np.random.default_rng(3))
        init = np.random.default_rng(9).standard_normal((2, 20))
        init -= init.mean(axis=1, keepdims=True)
        init *= np.sqrt(20) / np.linalg.norm(init, axis=1, keepdims=True)
        basis = OrthogonalityBasis.all_ones(2, 20)
        res = pds_solve([build_laplacian(g)] * 2, basis, SolverConfig(alpha=0.5, seed=3), init)
        self.assert_pinned(
            res, 655, True, 26.625657766031072,
            "29958c896480e283b68127d205cac7c442517d10731c9575cba09c7ec660e6d4",
            "4f1770c36d7fbb409facfb4442e1d5d80b0a2b353e3b75504a2e0d768bc1bb12",
        )

    def test_two_direction_basis(self):
        # the second deflation level keeps the all-ones and the first cluster vector
        seq, _ = sbm_tv_sequence(SbmTvParams(8, 3, 5, 0.7, 0.1, 0.05, seed=6))
        cfg = SolverConfig(alpha=1.0, seed=6, max_iters=300)
        _, _, results = tv_cluster_multi_detailed(seq, 3, cfg)
        self.assert_pinned(
            results[1], 300, False, 148.62481900651704,
            "e4dd543b1826956ae6eb8420765e98473a25162950978c3fd4b57d9d7b3be3cd",
            "c1b10badb3874909ca1b062861ff3636f08987eadd3ab1bce4189a3b61e314bf",
        )


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
        extra_direction=st.booleans(),
        alpha=st.sampled_from([0.0, 0.5, 3.0]),
        eps_scale=st.sampled_from([0.0, 1e-6, 0.3, 50.0]),
        zero_row=st.booleans(),
        max_iters=st.sampled_from([1, 2, 40, 600]),
    )
    @settings(max_examples=40, deadline=None)
    def test_bit_identical(
        self, seed, t_len, n, extra_direction, alpha, eps_scale, zero_row, max_iters
    ):
        """The buffered loop returns exactly what composing the operators returns,
        including zero-row starts, frames inside their slabs and settled runs."""
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, 2, n)
        Ls = [build_laplacian(sbm_static(labels, 0.8, 0.2, rng)) for _ in range(t_len)]
        basis = OrthogonalityBasis.all_ones(t_len, n)
        if extra_direction:
            u = rng.standard_normal((t_len, n))
            basis = basis.extended(u / np.linalg.norm(u, axis=1, keepdims=True))
        C0 = rng.standard_normal((t_len, n))
        if zero_row:
            C0[0] = 0.0
        g1, g2 = default_step_sizes(max_eigenvalue(Ls).value, alpha)
        eps = eps_scale * np.sqrt(n)
        Lblock = scipy.sparse.block_diag(Ls, format="csr")
        V = basis.vectors
        Vsq = np.einsum("tln,tln->tl", V, V)
        slabs = [
            (np.ascontiguousarray(V[:, l]), np.ascontiguousarray(Vsq[:, l]))
            for l in range(basis.n_dirs)
        ]
        args = (eps, alpha, g1, g2, 1e-5, max_iters, C0)
        iterate = tvclust.solver._iterate
        got = _outcome(iterate, Lblock, V, slabs, *args, np.random.default_rng(seed))
        want = _outcome(pds_iterate_oracle, Lblock, V, *args, np.random.default_rng(seed))
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)


class TestPdsSolve:
    def test_single_frame_matches_fiedler_signs(self):
        g, planted = two_block_graph(seed=0)
        seq = TVGraphSequence((g,))
        labels, res = tv_cluster_two(seq, SolverConfig(seed=1))
        assert res.converged
        L = build_laplacian(g)
        _, vecs = smallest_eigenvectors(L, 2)
        fied = (vecs[:, 1] < 0).astype(int)
        agree = (labels.frame(0) == fied).mean()
        assert max(agree, 1 - agree) == 1.0

    def test_feasibility_at_convergence(self):
        g, _ = two_block_graph(seed=2)
        seq = TVGraphSequence((g, g, g))
        cfg = SolverConfig(alpha=2.0, seed=3)
        labels, res = tv_cluster_two(seq, cfg)
        assert res.converged
        basis = OrthogonalityBasis.all_ones(3, g.n)
        eps = 1e-6 * np.sqrt(g.n)
        assert_feasible(res, basis, eps)

    def test_large_alpha_forces_frame_agreement(self):
        g, _ = two_block_graph(seed=4, n=20)
        seq = TVGraphSequence((g, g))
        Ls = [build_laplacian(gr) for gr in seq.graphs]
        basis = OrthogonalityBasis.all_ones(2, g.n)
        rng = np.random.default_rng(9)
        init = rng.standard_normal((2, g.n))
        init -= init.mean(axis=1, keepdims=True)
        init *= np.sqrt(g.n) / np.linalg.norm(init, axis=1, keepdims=True)
        from tvclust.graphs import max_eigenvalue

        beta = max_eigenvalue(Ls).value
        # explicit steps: the frame difference vanishes at the optimum, so the
        # temporal dual stays interior and modest steps converge fast
        cfg = SolverConfig(
            alpha=1e4, gamma1=1.0 / (beta + 50.0), gamma2=beta / 10.0, seed=5, max_iters=20000
        )
        res = pds_solve(Ls, basis, cfg, init)
        C = res.c
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
        labels, res = tv_cluster_two(seq, SolverConfig(alpha=0.0, seed=7))
        for t, g in enumerate(seq.graphs):
            _, vecs = smallest_eigenvectors(build_laplacian(g), 2)
            fied = (vecs[:, 1] < 0).astype(int)
            agree = (labels.frame(t) == fied).mean()
            assert max(agree, 1 - agree) == 1.0

    def test_dual_l1_bound(self):
        g, _ = two_block_graph(seed=8, n=20)
        seq = TVGraphSequence((g,) * 4)
        cfg = SolverConfig(alpha=1.5, seed=9)
        _, res = tv_cluster_two(seq, cfg)
        assert np.abs(res.d2).max() <= cfg.alpha + 1e-12

    def test_determinism_bitwise(self):
        g, _ = two_block_graph(seed=10, n=24)
        seq = TVGraphSequence((g, g))
        cfg = SolverConfig(alpha=1.0, seed=11, restarts=3)
        _, r1 = tv_cluster_two(seq, cfg)
        _, r2 = tv_cluster_two(seq, cfg)
        assert np.array_equal(r1.c, r2.c)
        assert np.array_equal(r1.d1, r2.d1)
        assert np.array_equal(r1.d2, r2.d2)
        assert r1.iters == r2.iters and r1.converged == r2.converged
        assert np.array_equal(r1.objective_trace, r2.objective_trace)

    def test_objective_trace_finite_and_improving(self):
        g, _ = two_block_graph(seed=12)
        seq = TVGraphSequence((g,) * 3)
        _, res = tv_cluster_two(seq, SolverConfig(alpha=2.0, seed=13))
        trace = res.objective_trace
        assert np.all(np.isfinite(trace))
        assert trace[-1] <= trace[0] + 1e-9 * max(1.0, abs(trace[0]))

    def test_step_size_violation_raises(self):
        g, _ = two_block_graph(seed=14, n=10)
        Ls = [build_laplacian(g)]
        basis = OrthogonalityBasis.all_ones(1, g.n)
        init = np.ones((1, g.n))
        cfg = SolverConfig(gamma1=10.0, gamma2=10.0, seed=0)
        with pytest.raises(StepSizeError):
            pds_solve(Ls, basis, cfg, init)

    def test_shape_validation(self):
        g, _ = two_block_graph(seed=15, n=10)
        Ls = [build_laplacian(g)]
        basis = OrthogonalityBasis.all_ones(2, g.n)
        init = np.ones((1, g.n))
        with pytest.raises(ValueError):
            pds_solve(Ls, basis, SolverConfig(), init)

    def test_non_finite_detection_reports_iteration(self):
        g, _ = two_block_graph(seed=16, n=10)
        Ls = [build_laplacian(gr) for gr in (g, g)]
        basis = OrthogonalityBasis.all_ones(2, g.n)
        init = np.ones((2, g.n))
        init[1, 0] = np.inf
        with pytest.raises(SolverError, match="iteration 1"):
            pds_solve(Ls, basis, SolverConfig(seed=0), init)

    def test_restarts_return_best_objective(self):
        g, _ = two_block_graph(seed=17, n=20)
        seq = TVGraphSequence((g, g))
        _, res1 = tv_cluster_two(seq, SolverConfig(alpha=1.0, seed=18, restarts=1))
        _, res5 = tv_cluster_two(seq, SolverConfig(alpha=1.0, seed=18, restarts=5))
        assert res5.objective <= res1.objective + 1e-9

    def test_objective_describes_returned_iterate(self):
        # a capped solve returns its polished best iterate, not the last one visited
        seq, _ = sbm_tv_sequence(SbmTvParams(10, 2, 6, 0.5, 0.2, 0.05, seed=4))
        cfg = SolverConfig(alpha=2.0, seed=4, max_iters=200)
        _, res = tv_cluster_two(seq, cfg)
        assert not res.converged
        quad = sum(quadratic_form(build_laplacian(g), c) for g, c in zip(seq.graphs, res.c))
        want = 0.5 * quad + cfg.alpha * float(np.abs(temporal_diff(res.c)).sum())
        assert res.objective == pytest.approx(want, rel=1e-12)
        assert res.objective_trace[-1] != pytest.approx(want, rel=1e-3)
