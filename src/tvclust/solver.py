"""Primal-dual splitting solver for temporally coupled, sphere/slab-constrained cuts.

One solve minimizes 0.5 * c'Lc + alpha * ||frame differences||_1 over frame-major
vectors c, with each frame forced onto the sphere of squared radius n and into the
slabs |c_t . v| <= eps for every constraint direction v of that frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

# scipy is imported by the functions that call it, so importing tvclust stays cheap
if TYPE_CHECKING:
    import scipy.sparse

from .graphs import largest_eigenvalue, temporal_diff
from .prox import prox_sphere_frames

SLAB_FEAS_TOL = 1e-8
SPHERE_FEAS_TOL = 1e-6
DEFAULT_EPSILON_SCALE = 1e-6
POLISH_ROUNDS = 3


class StepSizeError(ValueError):
    """Raised when the admissibility condition 1/gamma1 - 5*gamma2 >= beta/2 fails."""


class SolverError(RuntimeError):
    """Raised when the iteration produces non-finite values or an all-zero frame."""


@dataclass(frozen=True)
class SolverConfig:
    """Solve parameters; gamma1/gamma2/epsilon default from the data at solve time.

    The solve itself draws no random numbers. `seed` seeds only the drivers
    around it: the fallback of the warm start and the k-means on the cluster
    vectors in `tv_cluster_multi`.
    """

    alpha: float = 1.0
    gamma1: float | None = None
    gamma2: float | None = None
    epsilon: float | None = None
    sigma: float = 1e-5
    max_iters: int = 20000
    seed: int = 0

    def __post_init__(self):
        # NaN passes every comparison below, so finiteness is checked first
        for name in ("alpha", "gamma1", "gamma2", "epsilon", "sigma"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
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


@dataclass(frozen=True, eq=False)
class SolveResult:
    """Returned primal iterate, its objective, and iteration diagnostics.

    `c` is a read-only (t_len, n) array; `objective` is the objective of `c`,
    while `objective_trace` holds the objectives of the iterates visited.
    `beta` is the largest eigenvalue of the Laplacians, computed exactly, that the
    step sizes were checked against.
    """

    c: np.ndarray
    iters: int
    converged: bool
    objective: float
    objective_trace: np.ndarray
    beta: float

    def __post_init__(self):
        c = np.array(self.c, dtype=float)
        c.setflags(write=False)
        object.__setattr__(self, "c", c)


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


def _polish(C, Lblock, slabs, eps, alpha):
    """Alternate exact slab projections with the sphere scaling to restore feasibility.

    The directions are near-orthogonal, so POLISH_ROUNDS rounds leave the slab
    residuals far below the feasibility tolerance while moving the iterate
    negligibly.
    """
    out = C.copy()
    for _ in range(POLISH_ROUNDS):
        out = prox_sphere_frames(_project_all_slabs(out, slabs, eps))
    t_len, n = out.shape
    LC = (Lblock @ out.ravel()).reshape(t_len, n)
    return out, _objective(out, LC, alpha)


def _iterate(Lblock, V, slabs, eps, alpha, g1, g2, sigma, max_iters, C0):
    """The splitting iteration from C0, on work buffers allocated once.

    Both dual steps are prox operators of conjugates, taken in closed form by
    Moreau's identity. The temporal dual is clipped to [-alpha, alpha]. The slab
    dual lies in the span of each frame's directions, so it is kept as (t_len,
    n_dirs) coefficients d: its step soft-thresholds the components of D1/g2 +
    Chat along the directions by eps, in the sequential order of
    _project_all_slabs, using the per-frame Gram matrices of the directions.
    """
    t_len, n = C0.shape
    n_dirs = V.shape[1]
    gram = np.einsum("tln,tmn->tlm", V, V)
    vsq = [vl_sq for _, vl_sq in slabs]
    C, Cn = C0.copy(), np.empty_like(C0)
    D1, D1n = np.zeros_like(C0), np.empty_like(C0)  # slab dual, sum over l of d[:, l] * V[:, l]
    D2, D2n = np.zeros_like(C0), np.empty_like(C0)
    d = np.zeros((t_len, n_dirs))
    coef = np.empty((t_len, n_dirs))
    best_C = np.empty_like(C0)
    step, chat, work = np.empty_like(C0), np.empty_like(C0), np.empty_like(C0)
    diff = np.zeros_like(C0)  # temporal differences; row 0 stays zero
    diff_rest = diff[1:]
    scale, thresh = np.empty(t_len), np.empty(t_len)
    sqrt_n = np.sqrt(n)

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
            best_obj = obj

        # primal: C - g1 * (LC + D1 + temporal_diff_adjoint(D2)), the adjoint added in
        # place, scaled onto the sphere
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

        # slab dual: components s of D1/g2 + Chat along the directions, each less the
        # part already taken by the earlier directions, soft-thresholded by eps and
        # divided by |v|^2; max and sign pass a NaN on to the non-finite test
        np.einsum("tn,tln->tl", chat, V, out=coef)
        coef += np.einsum("tm,tml->tl", d, gram) / g2
        for l in range(n_dirs):
            s = coef[:, l]
            for m in range(l):
                s -= coef[:, m] * gram[:, m, l]
            np.abs(s, out=thresh)
            np.subtract(thresh, eps, out=thresh)
            np.maximum(thresh, 0.0, out=thresh)
            np.sign(s, out=s)
            np.multiply(s, thresh, out=s)
            np.divide(s, vsq[l], out=s)
        np.multiply(coef, g2, out=d)
        np.einsum("tl,tln->tn", d, V, out=D1n)

        # temporal dual: clip(D2 + g2 * temporal_diff(Chat), -alpha, alpha)
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
        if primal_settled and dual_settled and _is_feasible(C, V, eps):
            converged = True
            break
    obj = _objective(C, LC, alpha)
    trace[it] = obj
    trace = trace[: it + 1].copy()
    if converged:
        # a settled run ends at a feasible fixed point; report the final iterate
        return C, obj, it, converged, trace
    if obj < best_obj:
        best_C = C
    # iterates are ranked before polishing, which can lift the best one above the
    # start, so the polished start competes too
    Cb, polished_obj = _polish(best_C, Lblock, slabs, eps, alpha)
    Cs, start_obj = _polish(C0, Lblock, slabs, eps, alpha)
    if start_obj < polished_obj:
        Cb, polished_obj = Cs, start_obj
    return Cb, polished_obj, it, converged, trace


def pds_solve(
    Ls: Sequence[scipy.sparse.csr_matrix],
    directions: np.ndarray,
    cfg: SolverConfig,
    init: np.ndarray,
) -> SolveResult:
    """Run the splitting iteration once from `init`.

    Each iteration takes a primal step scaled onto the sphere and then the two
    dual steps in closed form: the temporal dual is clipped to [-alpha, alpha],
    and the slab dual, held as one coefficient per frame and direction,
    soft-thresholds the components along the directions by epsilon. A run stops
    once the relative changes of the primal and dual iterates are both <=
    cfg.sigma and the iterate satisfies all frame constraints within tolerance,
    or at cfg.max_iters. The `converged` flag reports whether the former happened.
    A settled run returns its final iterate. A capped run re-projects its
    best-objective iterate and its start onto the constraints and returns the
    one of lower objective, the re-projected iterate when they tie, so it never
    ends above its re-projected start. `directions` is the (t_len, n_dirs, n)
    array of nonzero constraint directions, used as given, so an all-ones
    direction bounds the plain coordinate sum. `init` is the (t_len, n) start,
    finite and with no all-zero frame. SolverError reports a non-finite iterate
    or an all-zero frame before the sphere scaling, naming the iteration.
    """
    import scipy.sparse

    t_len = len(Ls)
    if t_len == 0:
        raise ValueError("need at least one Laplacian")
    n = Ls[0].shape[0]
    if any(L.shape != (n, n) for L in Ls):
        raise ValueError("all Laplacian blocks must be square and share one dimension")
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

    beta = largest_eigenvalue(Ls)
    g1_default, g2_default = default_step_sizes(beta, cfg.alpha)
    g1 = cfg.gamma1 if cfg.gamma1 is not None else g1_default
    g2 = cfg.gamma2 if cfg.gamma2 is not None else g2_default
    check_step_sizes(g1, g2, beta)
    eps = cfg.epsilon if cfg.epsilon is not None else DEFAULT_EPSILON_SCALE * np.sqrt(n)

    Lblock = scipy.sparse.block_diag(Ls, format="csr")
    Vsq = np.einsum("tln,tln->tl", V, V)
    slabs = [
        (np.ascontiguousarray(V[:, l]), np.ascontiguousarray(Vsq[:, l]))
        for l in range(V.shape[1])
    ]

    C0 = np.asarray(init, dtype=float)
    C, obj, iters, converged, trace = _iterate(
        Lblock, V, slabs, eps, cfg.alpha, g1, g2, cfg.sigma, cfg.max_iters, C0
    )
    return SolveResult(
        c=C,
        iters=iters,
        converged=converged,
        objective=obj,
        objective_trace=trace,
        beta=beta,
    )
