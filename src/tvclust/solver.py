"""Primal-dual splitting solver for temporally coupled, sphere/slab-constrained cuts.

One solve minimizes 0.5 * c'Lc + alpha * ||frame differences||_1 over frame-major
vectors c, with each frame forced onto the sphere of squared radius n and into the
slabs |c_t . v| <= eps for every constraint direction v of that frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.sparse

from .graphs import max_eigenvalue, temporal_diff
from .prox import prox_sphere_frames

SLAB_FEAS_TOL = 1e-8
SPHERE_FEAS_TOL = 1e-6
DEFAULT_EPSILON_SCALE = 1e-6


class StepSizeError(ValueError):
    """Raised when the admissibility condition 1/gamma1 - 5*gamma2 >= beta/2 fails."""


class SolverError(RuntimeError):
    """Raised when the iteration produces non-finite values."""


@dataclass(frozen=True)
class SolverConfig:
    """Solve parameters; gamma1/gamma2/epsilon default from the data at solve time."""

    alpha: float = 1.0
    gamma1: float | None = None
    gamma2: float | None = None
    epsilon: float | None = None
    sigma: float = 1e-5
    max_iters: int = 20000
    restarts: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.alpha < 0:
            raise ValueError("alpha must be >= 0")
        if self.gamma1 is not None and self.gamma1 <= 0:
            raise ValueError("gamma1 must be > 0")
        if self.gamma2 is not None and self.gamma2 <= 0:
            raise ValueError("gamma2 must be > 0")
        if self.epsilon is not None and self.epsilon < 0:
            raise ValueError("epsilon must be >= 0")
        if self.sigma <= 0:
            raise ValueError("sigma must be > 0")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")


@dataclass(frozen=True, eq=False)
class OrthogonalityBasis:
    """Per-frame constraint directions; the primal must keep |c_t . v| <= eps for each.

    Directions are stored as given: the all-ones direction is kept raw so the slab
    bound applies to the plain coordinate sum, while deflation directions are unit
    vectors appended via `extended`.
    """

    vectors: np.ndarray  # (t_len, n_dirs, n)

    def __post_init__(self):
        v = np.array(self.vectors, dtype=float)
        if v.ndim != 3:
            raise ValueError("expected directions of shape (t_len, n_dirs, n)")
        if not np.all(np.isfinite(v)):
            raise ValueError("directions must be finite")
        if np.any(np.linalg.norm(v, axis=2) == 0.0):
            raise ValueError("directions must be nonzero")
        v.setflags(write=False)
        object.__setattr__(self, "vectors", v)

    @property
    def t_len(self) -> int:
        return self.vectors.shape[0]

    @property
    def n_dirs(self) -> int:
        return self.vectors.shape[1]

    @property
    def n_nodes(self) -> int:
        return self.vectors.shape[2]

    @classmethod
    def all_ones(cls, t_len: int, n: int) -> "OrthogonalityBasis":
        return cls(np.ones((t_len, 1, n)))

    def extended(self, directions: np.ndarray) -> "OrthogonalityBasis":
        """Append one direction per frame; `directions` has shape (t_len, n)."""
        d = np.asarray(directions, dtype=float)
        if d.shape != (self.t_len, self.n_nodes):
            raise ValueError("expected one direction per frame")
        return OrthogonalityBasis(np.concatenate([self.vectors, d[:, None, :]], axis=1))


@dataclass(frozen=True, eq=False)
class SolveResult:
    """Returned primal iterate, its dual variables, its objective, and iteration diagnostics.

    `c`, `d1` and `d2` are read-only (t_len, n) arrays; `objective` is the objective
    of `c`, while `objective_trace` holds the objectives of the iterates visited.
    `beta` is the largest-eigenvalue estimate the step sizes were checked against;
    `beta_converged` is False when its power iteration hit its cap, in which case
    beta may underestimate the bound.
    """

    c: np.ndarray
    d1: np.ndarray
    d2: np.ndarray
    iters: int
    converged: bool
    objective: float
    objective_trace: np.ndarray
    beta: float
    beta_converged: bool

    def __post_init__(self):
        for name in ("c", "d1", "d2"):
            v = np.array(getattr(self, name), dtype=float)
            v.setflags(write=False)
            object.__setattr__(self, name, v)


def default_step_sizes(beta: float, alpha: float = 0.0) -> tuple[float, float]:
    """gamma1 = 1/(beta + 8*alpha), gamma2 = beta/10.

    The alpha term keeps the primal step times the temporal dual field (entries
    bounded by 2*alpha) a fraction of the unit entry scale; without it the sphere
    projection amplifies the field into sustained oscillation once alpha is a
    sizable fraction of beta. Satisfies 1/gamma1 - 5*gamma2 >= beta/2 for any
    alpha >= 0.
    """
    if beta <= 0.0:
        return 1.0 / (1.0 + 8.0 * alpha), 0.1
    return 1.0 / (beta + 8.0 * alpha), beta / 10.0


def check_step_sizes(gamma1: float, gamma2: float, beta: float) -> None:
    lhs = 1.0 / gamma1 - 5.0 * gamma2
    rhs = beta / 2.0
    if lhs < rhs - 1e-9 * max(1.0, abs(rhs)):
        g1, g2 = default_step_sizes(beta)
        raise StepSizeError(
            f"step sizes inadmissible: 1/gamma1 - 5*gamma2 = {lhs:.6g} < beta/2 = {rhs:.6g}; "
            f"for this problem any gamma1 <= {g1:.6g} with gamma2 = {g2:.6g} is admissible"
        )


def _project_all_slabs(out: np.ndarray, slabs, eps: float) -> np.ndarray:
    """Sequential per-direction slab projections of the rows of `out`, in place.

    `slabs` holds one (directions, squared norms) pair per constraint direction,
    the directions a contiguous (t_len, n) array. Frames already inside a slab
    stay as they are; usually every frame lies outside, and then no frame needs
    selecting.
    """
    for vl, vsq in slabs:
        s = np.einsum("tn,tn->t", out, vl)
        over = np.abs(s) > eps
        if over.all():
            out -= ((s - np.sign(s) * eps) / vsq)[:, None] * vl
        elif over.any():
            coef = (s[over] - np.sign(s[over]) * eps) / vsq[over]
            out[over] -= coef[:, None] * vl[over]
    return out


def _is_feasible(C: np.ndarray, V: np.ndarray, eps: float) -> bool:
    n = C.shape[1]
    sq = np.einsum("tn,tn->t", C, C)
    if np.any(np.abs(sq - n) > SPHERE_FEAS_TOL * n):
        return False
    dots = np.einsum("tn,tln->tl", C, V)
    return bool(np.all(np.abs(dots) <= eps + SLAB_FEAS_TOL))


def _objective(C: np.ndarray, LC: np.ndarray, alpha: float) -> float:
    return 0.5 * float(np.vdot(C, LC)) + alpha * float(np.abs(temporal_diff(C)).sum())


def _norm(x: np.ndarray) -> float:
    """Euclidean norm of a contiguous array, bit-identical to np.linalg.norm(x)."""
    flat = x.ravel()
    return math.sqrt(flat.dot(flat))


def _polish(C, Lblock, V, slabs, eps, alpha, rounds: int = 3):
    """Alternate exact slab projections with the sphere scaling to restore feasibility.

    The directions are near-orthogonal, so a few rounds leave the slab residuals
    far below the feasibility tolerance while moving the iterate negligibly.
    """
    out = C.copy()
    for _ in range(rounds):
        out = prox_sphere_frames(_project_all_slabs(out, slabs, eps))
    t_len, n = out.shape
    LC = (Lblock @ out.ravel()).reshape(t_len, n)
    return out, _objective(out, LC, alpha)


def _iterate(Lblock, V, slabs, eps, alpha, g1, g2, sigma, max_iters, C0, perturb_rng):
    """The splitting iteration from C0, on work buffers allocated once.

    Every array operation is the one the operator definitions (temporal_diff and
    its adjoint, prox_sphere_frames, prox_conjugate of the slab projection and of
    soft_threshold) would perform, in the same order, so the iterates are
    bit-identical to composing those functions; only temporaries are avoided.
    """
    t_len, n = C0.shape
    C, Cn = C0.copy(), np.empty_like(C0)
    D1, D1n = np.zeros_like(C0), np.empty_like(C0)
    D2, D2n = np.zeros_like(C0), np.empty_like(C0)
    best_C, best_D1, best_D2 = np.empty_like(C0), np.empty_like(C0), np.empty_like(C0)
    step, chat, work = np.empty_like(C0), np.empty_like(C0), np.empty_like(C0)
    diff = np.zeros_like(C0)  # temporal differences; row 0 stays zero
    diff_rest = diff[1:]
    scale = np.empty(t_len)
    sqrt_n = np.sqrt(n)
    l1_tau = (1.0 / g2) * alpha  # threshold of the l1 prox that prox_conjugate takes at 1/g2

    # the sphere constraint makes the problem nonconvex and the iteration can wander,
    # so remember the best-objective iterate seen in case the run does not settle
    best_obj = None
    trace = np.empty(max_iters + 1)
    LC = (Lblock @ C.ravel()).reshape(t_len, n)
    converged = False
    it = 0
    for it in range(1, max_iters + 1):
        np.subtract(C[1:], C[:-1], out=diff_rest)
        np.abs(diff, out=diff)
        obj = 0.5 * float(C.ravel().dot(LC.ravel())) + alpha * float(diff.sum())
        trace[it - 1] = obj
        if best_obj is None or obj < best_obj:
            np.copyto(best_C, C)
            np.copyto(best_D1, D1)
            np.copyto(best_D2, D2)
            best_obj = obj

        # primal: C - g1 * (LC + D1 + temporal_diff_adjoint(D2)), scaled onto the sphere
        step.fill(0.0)
        step[1:] += D2[1:]
        step[:-1] -= D2[1:]
        np.add(LC, D1, out=work)
        np.add(work, step, out=step)
        np.multiply(step, g1, out=step)
        np.subtract(C, step, out=work)
        np.multiply(work, work, out=step)
        np.add.reduce(step, axis=1, out=scale)
        np.sqrt(scale, out=scale)
        if scale.all():
            np.divide(sqrt_n, scale, out=scale)
            np.multiply(work, scale[:, None], out=Cn)
        else:
            Cn[...] = prox_sphere_frames(work, degenerate_rng=perturb_rng)
        np.multiply(Cn, 2.0, out=chat)
        np.subtract(chat, C, out=chat)

        # slab dual: z - g2 * proj_slabs(z / g2) at z = D1 + g2 * Chat
        np.multiply(chat, g2, out=work)
        np.add(D1, work, out=work)
        np.divide(work, g2, out=step)
        _project_all_slabs(step, slabs, eps)
        np.multiply(step, g2, out=step)
        np.subtract(work, step, out=D1n)

        # temporal dual: z - g2 * soft_threshold(z / g2, l1_tau) at z = D2 + g2 * diff(Chat)
        np.subtract(chat[1:], chat[:-1], out=diff_rest)
        np.multiply(diff, g2, out=work)
        np.add(D2, work, out=work)
        np.divide(work, g2, out=step)
        np.abs(step, out=chat)
        np.subtract(chat, l1_tau, out=chat)
        np.maximum(0.0, chat, out=chat)
        np.sign(step, out=step)
        np.multiply(step, chat, out=step)
        np.multiply(step, g2, out=step)
        np.subtract(work, step, out=D2n)

        np.subtract(Cn, C, out=work)
        delta = _norm(work)
        # the last iterate passed this test (a non-finite start makes the first step
        # NaN), so a non-finite entry in the new one shows in the primal step norm or
        # in a dual sum
        if not math.isfinite(delta + float(D1n.sum()) + float(D2n.sum())):
            raise SolverError(f"non-finite iterate at iteration {it}")
        primal_settled = delta <= sigma * _norm(C)
        dual_settled = False
        if primal_settled:
            # a warm-started primal can sit at a fixed point while the duals are still
            # ramping, so the duals must have settled too before we may stop
            delta_d = math.sqrt(((D1n - D1) ** 2).sum() + ((D2n - D2) ** 2).sum())
            base_d = math.sqrt((D1**2).sum() + (D2**2).sum())
            dual_settled = delta_d <= sigma * base_d if base_d > 0.0 else delta_d == 0.0
        C, Cn = Cn, C
        D1, D1n = D1n, D1
        D2, D2n = D2n, D2
        LC = (Lblock @ C.ravel()).reshape(t_len, n)
        if primal_settled and dual_settled and _is_feasible(C, V, eps):
            converged = True
            break
    obj = _objective(C, LC, alpha)
    trace[it] = obj
    if converged:
        # a settled run ends at a feasible fixed point; report the final iterate
        return C, D1, D2, obj, it, converged, trace[: it + 1].copy()
    if obj < best_obj:
        best_C, best_D1, best_D2 = C, D1, D2
    Cb, polished_obj = _polish(best_C, Lblock, V, slabs, eps, alpha)
    return Cb, best_D1, best_D2, polished_obj, it, converged, trace[: it + 1].copy()


def _random_init(rng, t_len, n, slabs):
    G = rng.standard_normal((t_len, n))
    G = _project_all_slabs(G, slabs, 0.0)
    return prox_sphere_frames(G, degenerate_rng=rng)


def pds_solve(
    Ls: Sequence[scipy.sparse.csr_matrix],
    basis: OrthogonalityBasis,
    cfg: SolverConfig,
    init: np.ndarray,
) -> SolveResult:
    """Run the splitting iteration, returning the best-objective result over restarts.

    A run stops once the relative changes of the primal and dual iterates are both
    <= cfg.sigma and the iterate satisfies all frame constraints within tolerance,
    or at cfg.max_iters. The `converged` flag reports whether the former happened;
    a capped run returns its best-objective iterate re-projected onto the
    constraints instead of the final one. `init` is the (t_len, n) start of the
    first restart.
    """
    t_len = len(Ls)
    if t_len == 0:
        raise ValueError("need at least one Laplacian")
    n = Ls[0].shape[0]
    if any(L.shape != (n, n) for L in Ls):
        raise ValueError("all Laplacian blocks must be square and share one dimension")
    if basis.t_len != t_len or basis.n_nodes != n:
        raise ValueError("basis shape does not match the Laplacian sequence")
    if np.shape(init) != (t_len, n):
        raise ValueError("init shape does not match the Laplacian sequence")

    beta, beta_converged = max_eigenvalue(Ls)
    g1_default, g2_default = default_step_sizes(beta, cfg.alpha)
    g1 = cfg.gamma1 if cfg.gamma1 is not None else g1_default
    g2 = cfg.gamma2 if cfg.gamma2 is not None else g2_default
    check_step_sizes(g1, g2, beta)
    eps = cfg.epsilon if cfg.epsilon is not None else DEFAULT_EPSILON_SCALE * np.sqrt(n)

    Lblock = scipy.sparse.block_diag(Ls, format="csr")
    V = basis.vectors
    Vsq = np.einsum("tln,tln->tl", V, V)
    slabs = [
        (np.ascontiguousarray(V[:, l]), np.ascontiguousarray(Vsq[:, l]))
        for l in range(basis.n_dirs)
    ]

    best = None
    for r in range(cfg.restarts):
        init_ss, perturb_ss = np.random.SeedSequence(
            entropy=cfg.seed, spawn_key=(r,)
        ).spawn(2)
        perturb_rng = np.random.default_rng(perturb_ss)
        if r == 0:
            C0 = np.array(init, dtype=float)
        else:
            C0 = _random_init(np.random.default_rng(init_ss), t_len, n, slabs)
        run = _iterate(
            Lblock, V, slabs, eps, cfg.alpha, g1, g2, cfg.sigma, cfg.max_iters, C0, perturb_rng
        )
        if best is None or run[3] < best[3]:
            best = run

    C, D1, D2, obj, iters, converged, trace = best
    return SolveResult(
        c=C,
        d1=D1,
        d2=D2,
        iters=iters,
        converged=converged,
        objective=obj,
        objective_trace=trace,
        beta=beta,
        beta_converged=beta_converged,
    )
