"""Primal-dual splitting solver for temporally coupled, sphere/slab-constrained cuts.

One solve minimizes 0.5 * c'Lc + alpha * ||frame differences||_1 over frame-major
vectors c, with each frame forced onto the sphere of squared radius n and into the
slabs |c_t . v| <= eps for every constraint direction v of that frame.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field
from typing import TYPE_CHECKING

import numpy as np

# scipy is imported by the functions that call it, so importing tvclust stays cheap
if TYPE_CHECKING:
    import scipy.sparse

from .graphs import TVGraphSequence, _require_int, block_laplacian, largest_eigenvalue
from .prox import prox_slab_frames, prox_sphere_frames, slab_coefficients

SLAB_FEAS_TOL = 1e-8
DEFAULT_EPSILON_SCALE = 1e-6
POLISH_ROUNDS = 3
SIGMA = 1e-5  # relative change of the primal and dual iterates at which a solve settles
CLIMB_ITERS = 1000  # consecutive iterates above the start after which a solve ends capped


class SolverError(RuntimeError):
    """Raised when the iteration produces non-finite values or an all-zero frame,
    or when a capped run ends outside its slabs."""


@dataclass(frozen=True)
class SolverConfig:
    """Solve parameters; the step sizes and the slab half-width come from the data.

    A solve derives gamma1 and gamma2 from beta and alpha (default_step_sizes)
    and the slab half-width as DEFAULT_EPSILON_SCALE * sqrt(n), and stops on the
    relative change SIGMA. The solve itself draws no random numbers. `seed`
    seeds only the drivers around it: the fallback of the warm start and the
    k-means on the cluster vectors in `tv_cluster_multi`.
    """

    alpha: float = 1.0
    max_iters: int = 20000
    seed: int = 0

    def __post_init__(self):
        # NaN passes the comparison below, so finiteness is checked first
        if not math.isfinite(self.alpha):
            raise ValueError(f"alpha must be finite, got {self.alpha}")
        if self.alpha < 0:
            raise ValueError("alpha must be >= 0")
        for name, low in (("max_iters", 1), ("seed", 0)):
            _require_int(name, getattr(self, name), low)


@dataclass(frozen=True, eq=False)
class SolveResult:
    """Returned primal iterate, its objective, and iteration diagnostics.

    `c` is a read-only (t_len, n) array; `objective` is the objective of `c`,
    while `objective_trace` holds the objectives of the iterates visited.
    `beta` is the largest eigenvalue of the Laplacians, computed exactly, that the
    step sizes were derived from. `best_iter` is the `objective_trace` index of
    the iterate `c` was re-projected from: `iters` for a settled run, 0 when a
    capped run returns its start.
    """

    c: np.ndarray
    iters: int
    converged: bool
    objective: float
    objective_trace: np.ndarray
    beta: float
    best_iter: int

    def __post_init__(self):
        c = np.array(self.c, dtype=float)
        c.setflags(write=False)
        object.__setattr__(self, "c", c)


@dataclass(frozen=True, eq=False)
class BlockLaplacian:
    """The operator of one graph sequence, built once for every solve on it.

    Holds the block-diagonal CSR Laplacian of the sequence
    (graphs.block_laplacian), its largest eigenvalue beta
    (graphs.largest_eigenvalue), the number of frames t_len and the node count n.
    """

    seq: InitVar[TVGraphSequence]
    matrix: scipy.sparse.spmatrix = field(init=False)
    beta: float = field(init=False)
    t_len: int = field(init=False)
    n: int = field(init=False)

    def __post_init__(self, seq):
        object.__setattr__(self, "matrix", block_laplacian(seq))
        object.__setattr__(self, "beta", largest_eigenvalue(seq))
        object.__setattr__(self, "t_len", seq.t_len)
        object.__setattr__(self, "n", seq.n)


def default_step_sizes(beta: float, alpha: float) -> tuple[float, float]:
    """gamma1 = 1/(beta + 8*alpha), gamma2 = beta/10, the step sizes of every solve.

    The alpha term keeps the primal step times the temporal dual field (entries
    bounded by 2*alpha) a fraction of the unit entry scale; without it the sphere
    projection amplifies the field into sustained oscillation once alpha is a
    sizable fraction of beta. Satisfies the admissibility condition
    1/gamma1 - 5*gamma2 >= beta/2 for any alpha >= 0 by construction.
    """
    if beta <= 0.0:
        return 1.0 / (1.0 + 8.0 * alpha), 0.1
    return 1.0 / (beta + 8.0 * alpha), beta / 10.0


def _is_feasible(C: np.ndarray, V: np.ndarray, eps: float) -> bool:
    """Whether each frame of C is within SLAB_FEAS_TOL of its slabs |c_t . v| <= eps.
    Every iterate is scaled onto the sphere, so that constraint needs no check."""
    dots = np.einsum("tn,tln->tl", C, V)
    return bool(np.all(np.abs(dots) <= eps + SLAB_FEAS_TOL))


def _objective(C: np.ndarray, LC: np.ndarray, alpha: float, diff: np.ndarray) -> float:
    """0.5 * c'Lc + alpha * ||frame differences||_1, the one objective of a solve.

    `diff` is the caller's (t_len, n) work buffer with row 0 zero; rows 1.. are
    overwritten with |C[t] - C[t-1]| and row 0 is left as it is.
    """
    diff_rest = diff[1:]
    np.subtract(C[1:], C[:-1], out=diff_rest)
    np.abs(diff_rest, out=diff_rest)
    return 0.5 * float(np.vdot(C, LC)) + alpha * float(diff.sum())


def _norm(x: np.ndarray) -> float:
    """Euclidean norm of a contiguous array, bit-identical to np.linalg.norm(x)."""
    flat = x.ravel()
    return math.sqrt(flat.dot(flat))


def _polish(C, Lblock, V, eps, alpha):
    """Alternate prox.prox_slab_frames with the sphere scaling to restore feasibility.

    The directions are near-orthogonal, so POLISH_ROUNDS rounds leave the slab
    residuals far below the feasibility tolerance while moving the iterate
    negligibly.
    """
    out = C
    for _ in range(POLISH_ROUNDS):
        out = prox_sphere_frames(prox_slab_frames(out, V, eps))
    t_len, n = out.shape
    LC = (Lblock @ out.ravel()).reshape(t_len, n)
    return out, _objective(out, LC, alpha, np.zeros_like(out))


def _iterate(Lblock, V, eps, alpha, g1, g2, sigma, max_iters, C0):
    """The splitting iteration from C0, on work buffers allocated once.

    Both dual steps are prox operators of conjugates, taken in closed form by
    Moreau's identity. The temporal dual is clipped to [-alpha, alpha]. The slab
    dual lies in the span of each frame's directions, so it is kept as (t_len,
    n_dirs) coefficients d: its step is prox.slab_coefficients on the components
    of D1/g2 + Chat along the directions, the same kernel that _polish projects
    with, using the per-frame Gram matrices of the directions.

    Returns (C, objective, iterations, converged, objective trace, best_iter).
    A run that is not settled ends at max_iters, or once CLIMB_ITERS iterates in
    a row have had objectives strictly above the start's.
    """
    t_len, n = C0.shape
    n_dirs = V.shape[1]
    gram = np.einsum("tln,tmn->tlm", V, V)
    C, Cn = C0.copy(), np.empty_like(C0)
    D1, D1n = np.zeros_like(C0), np.empty_like(C0)  # slab dual, sum over l of d[:, l] * V[:, l]
    D2, D2n = np.zeros_like(C0), np.empty_like(C0)
    d = np.zeros((t_len, n_dirs))
    coef = np.empty((t_len, n_dirs))
    step, chat, work = np.empty_like(C0), np.empty_like(C0), np.empty_like(C0)
    diff = np.zeros_like(C0)  # temporal differences; row 0 stays zero
    diff_rest = diff[1:]
    scale = np.empty(t_len)
    sqrt_n = np.sqrt(n)

    # the sphere constraint makes the problem nonconvex and the iteration can wander,
    # so remember the best-objective iterate seen in case the run does not settle
    trace = np.empty(max_iters + 1)
    LC = (Lblock @ C.ravel()).reshape(t_len, n)
    best_obj = trace[0] = _objective(C, LC, alpha, diff)
    best_C, best_iter = C0.copy(), 0
    climb = 0  # consecutive iterates above the start
    converged = False
    it = 0
    for it in range(1, max_iters + 1):
        # primal: C - g1 * (LC + D1 + Dt(D2)), scaled onto the sphere; D maps frame 0
        # to zero and frame t to its difference from frame t-1, and its adjoint Dt
        # is added in place
        np.add(LC, D1, out=step)
        step[1:] += D2[1:]
        step[:-1] -= D2[1:]
        np.multiply(step, g1, out=step)
        np.subtract(C, step, out=work)
        np.einsum("tn,tn->t", work, work, out=scale)
        np.sqrt(scale, out=scale)
        if not scale.all():
            raise SolverError(f"all-zero frame at iteration {it}")
        np.divide(sqrt_n, scale, out=scale)
        np.multiply(work, scale[:, None], out=Cn)
        np.multiply(Cn, 2.0, out=chat)
        np.subtract(chat, C, out=chat)

        # slab dual: the sequential slab coefficients of D1/g2 + Chat, whose
        # components along the directions come from Chat, d and the Gram matrices;
        # a NaN component passes on to the non-finite test
        np.einsum("tn,tln->tl", chat, V, out=coef)
        coef += np.einsum("tm,tml->tl", d, gram) / g2
        slab_coefficients(coef, gram, eps)
        np.multiply(coef, g2, out=d)
        np.einsum("tl,tln->tn", d, V, out=D1n)

        # temporal dual: clip(D2 + g2 * D(Chat), -alpha, alpha)
        np.subtract(chat[1:], chat[:-1], out=diff_rest)
        np.multiply(diff, g2, out=work)
        np.add(D2, work, out=work)
        np.clip(work, -alpha, alpha, out=D2n)

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
        obj = trace[it] = _objective(C, LC, alpha, diff)
        if primal_settled and dual_settled and _is_feasible(C, V, eps):
            converged = True
            break
        if obj < best_obj:
            np.copyto(best_C, C)
            best_obj, best_iter = obj, it
        # an iterate above the start cannot be the best, so a run that has stayed
        # above it for CLIMB_ITERS iterates ends as a capped one
        climb = climb + 1 if obj > trace[0] else 0
        if climb == CLIMB_ITERS:
            break
    trace = trace[: it + 1].copy()
    if converged:
        # a settled run ends at a feasible fixed point; report the final iterate
        return C, obj, it, converged, trace, it
    # iterates are ranked before polishing, which can lift the best one above the
    # start, so the polished start competes too
    Cb, polished_obj = _polish(best_C, Lblock, V, eps, alpha)
    Cs, start_obj = _polish(C0, Lblock, V, eps, alpha)
    if start_obj < polished_obj:
        Cb, polished_obj, best_iter = Cs, start_obj, 0
    return Cb, polished_obj, it, converged, trace, best_iter


def pds_solve(
    op: BlockLaplacian,
    directions: np.ndarray,
    cfg: SolverConfig,
    init: np.ndarray,
) -> SolveResult:
    """Run the splitting iteration once from `init`.

    `op` is the sequence's operator, BlockLaplacian(seq). Building it costs
    one dense eigvalsh per frame for beta, so callers that solve on one
    sequence several times, as tv_cluster_multi does once per deflation level,
    build it once and pass it to every solve. Each
    iteration takes a primal step scaled onto the sphere and then the two
    dual steps in closed form: the temporal dual is clipped to [-alpha, alpha],
    and the slab dual, held as one coefficient per frame and direction, takes
    the sequential slab coefficients of prox.slab_coefficients. The step sizes
    are default_step_sizes(beta, cfg.alpha), with beta the largest Laplacian
    eigenvalue, and the slab half-width is eps = DEFAULT_EPSILON_SCALE * sqrt(n);
    only alpha and max_iters come from cfg. A run stops
    once the relative changes of the primal and dual iterates are both <=
    SIGMA and the iterate is within tolerance of its slabs (the spheres hold
    by construction), or at cfg.max_iters; `converged` reports which happened.
    A run also ends unsettled, before the cap, once CLIMB_ITERS iterates in a
    row have had objectives strictly above its start's: the best iterate is
    never above the start, so none of those iterates can be returned, and an
    iterate at or below the start restarts the count.
    A settled run returns its final iterate. A capped run re-projects its
    best-objective iterate and its start onto the constraints, with the same
    slab kernel and the sphere scaling in turn, and returns the one of lower
    objective, the re-projected iterate when they tie, so it never ends above
    its re-projected start. The re-projection runs POLISH_ROUNDS rounds of
    slab projection and sphere scaling, which reach the slabs only when each
    frame's directions are near-orthogonal, as tv_cluster_multi builds them;
    with strongly correlated directions a capped run can end outside its slabs,
    and then SolverError names its largest |c_t . v| and eps. `directions` is
    the (t_len, n_dirs, n) array of nonzero constraint directions, used as
    given, so an all-ones direction bounds the plain coordinate sum. `init` is
    the (t_len, n) start, finite and with no all-zero frame. SolverError also
    reports a non-finite iterate or an all-zero frame before the sphere
    scaling, naming the iteration.
    """
    t_len, n = op.t_len, op.n
    V = np.asarray(directions, dtype=float)
    if V.ndim != 3 or V.shape[0] != t_len or V.shape[2] != n:
        raise ValueError("directions shape does not match the Laplacian sequence")
    if not np.isfinite(V).all():
        raise ValueError("directions must be finite")
    if np.any(np.linalg.norm(V, axis=2) == 0.0):
        raise ValueError("directions must be nonzero")
    if np.shape(init) != (t_len, n):
        raise ValueError("init shape does not match the Laplacian sequence")
    if not np.isfinite(init).all():
        raise ValueError("init must be finite")
    # a zero frame has no nearest sphere point, so the final re-projection would fail
    if np.any(np.linalg.norm(init, axis=1) == 0.0):
        raise ValueError("init frames must be nonzero")

    g1, g2 = default_step_sizes(op.beta, cfg.alpha)
    eps = DEFAULT_EPSILON_SCALE * np.sqrt(n)

    C0 = np.asarray(init, dtype=float)
    C, obj, iters, converged, trace, best_iter = _iterate(
        op.matrix, V, eps, cfg.alpha, g1, g2, SIGMA, cfg.max_iters, C0
    )
    # a settled run is inside its slabs by its stopping test; a capped one may not be
    if not converged and not _is_feasible(C, V, eps):
        worst = float(np.abs(np.einsum("tn,tln->tl", C, V)).max())
        raise SolverError(
            f"capped run ended outside its slabs: max |c_t . v| = {worst:.3g}, eps = {eps:.3g}"
        )
    return SolveResult(
        c=C,
        iters=iters,
        converged=converged,
        objective=obj,
        objective_trace=trace,
        beta=op.beta,
        best_iter=best_iter,
    )
