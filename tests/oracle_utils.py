"""Independent numeric oracles shared by the unit and acceptance suites."""

import numpy as np
import scipy.optimize


def sphere_oracle(z):
    """Numeric minimizer of 0.5||x - z||^2 on ||x||^2 = len(z), by radial search.

    The constrained minimizer lies on the line through the origin and z, so it
    suffices to compare the two sphere points on that line by objective value.
    """
    n = z.size
    direction = z / np.linalg.norm(z)
    candidates = [np.sqrt(n) * direction, -np.sqrt(n) * direction]
    return min(candidates, key=lambda x: float(((x - z) ** 2).sum()))


def slab_oracle(z, v, eps):
    """Least-norm QP solve of min ||x - z|| s.t. |x.v| <= eps via active-set
    enumeration with LAPACK least squares (independent of the closed form)."""
    if abs(float(z @ v)) <= eps:
        return z.copy()
    best = None
    for b in (eps, -eps):
        y, *_ = np.linalg.lstsq(v[None, :], np.array([b - float(z @ v)]), rcond=None)
        x = z + y
        if abs(float(x @ v)) <= eps + 1e-9:
            d = float(((x - z) ** 2).sum())
            if best is None or d < best[0]:
                best = (d, x)
    return best[1]


def soft_oracle(z, tau):
    """Per-coordinate scalar minimization of tau|x| + 0.5 (x - z_i)^2."""
    out = np.empty_like(z)
    for i, zi in enumerate(z):
        res = scipy.optimize.minimize_scalar(
            lambda x: tau * abs(x) + 0.5 * (x - zi) ** 2,
            bounds=(-abs(zi) - 1.0, abs(zi) + 1.0),
            method="bounded",
            options={"xatol": 1e-12},
        )
        out[i] = res.x
    return out


def pair_accuracy_oracle(est, truth):
    """Brute force over the full co-membership indicator matrices."""
    n = len(est)
    P = np.array([[int(truth[a] == truth[b]) for b in range(n)] for a in range(n)])
    Q = np.array([[int(est[a] == est[b]) for b in range(n)] for a in range(n)])
    count = int((P == Q).sum())
    return (count - n) / (n * (n - 1))


def align_labels_oracle(prev, cur, k):
    """align_labels by scipy's assignment solver on an np.add.at overlap table."""
    overlap = np.zeros((k, k), dtype=np.int64)
    np.add.at(overlap, (cur, prev), 1)
    rows, cols = scipy.optimize.linear_sum_assignment(overlap, maximize=True)
    perm = np.empty(k, dtype=np.int64)
    perm[rows] = cols
    return perm[cur]


def max_assignment_oracle(table):
    """Column of each row in scipy's maximum-weight assignment of a square table."""
    rows, cols = scipy.optimize.linear_sum_assignment(table, maximize=True)
    assert rows.tolist() == list(range(len(rows)))
    return cols.tolist()


def _sq_dist_oracle(a, b):
    """Squared distance between two points, adding coordinates in index order."""
    total = 0.0
    for x, y in zip(a.tolist(), b.tolist()):
        total += (x - y) * (x - y)
    return total


def _mean_oracle(rows):
    """Row-order sum of the rows over their count."""
    total = np.zeros(rows.shape[1])
    for row in rows:
        total += row
    return total / rows.shape[0]


def _kmeans_pp_oracle(pts, k, first, u):
    n = pts.shape[0]
    centers = np.empty((k, pts.shape[1]))
    centers[0] = pts[first]
    d2 = np.array([_sq_dist_oracle(p, centers[0]) for p in pts])
    for c in range(1, k):
        total = d2.sum()
        if total > 0.0:
            # the inverse-CDF step of Generator.choice(n, p=d2 / total)
            cdf = np.cumsum(d2 / total)
            cdf /= cdf[-1]
            idx = int(np.searchsorted(cdf, u[c - 1], side="right"))
        else:
            idx = int(np.floor(u[c - 1] * n))
        centers[c] = pts[idx]
        d2 = np.minimum(d2, [_sq_dist_oracle(p, centers[c]) for p in pts])
    return centers


def _lloyd_oracle(pts, k, first, u, max_iters):
    n = pts.shape[0]
    centers = _kmeans_pp_oracle(pts, k, first, u)
    assign = None
    for _ in range(max_iters):
        d2 = np.array([[_sq_dist_oracle(p, ctr) for ctr in centers] for p in pts])
        new = d2.argmin(axis=1)
        for c in range(k):
            if not np.any(new == c):
                # re-seed an emptied cluster at the current worst-fit point
                # of a cluster that keeps a member
                movable = [i for i in range(n) if np.sum(new == new[i]) >= 2]
                far = max(movable, key=lambda i: d2[i, new[i]])
                centers[c] = pts[far]
                new[far] = c
                d2[:, c] = [_sq_dist_oracle(p, centers[c]) for p in pts]
        if assign is not None and np.array_equal(new, assign):
            break
        assign = new
        for c in range(k):
            centers[c] = _mean_oracle(pts[assign == c])
    return assign, wcss_oracle(pts, assign)


def wcss_oracle(pts, assign):
    """The 1-D .sum() of each point's squared distance to its cluster's mean."""
    means = {c: _mean_oracle(pts[assign == c]) for c in set(assign.tolist())}
    return np.array([_sq_dist_oracle(p, means[c]) for p, c in zip(pts, assign)]).sum()


def kmeans_oracle(points, k, seed, restarts=50, max_iters=300):
    """Sequential k-means: one restart at a time, Lloyd's iterations from k-means++
    seeding, best restart by WCSS with ties to the earliest.

    Every draw comes from one np.random.default_rng(seed), made before the
    first restart runs: integers(n, size=restarts) for the first centers, then
    one random(restarts) per later center."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    rng = np.random.default_rng(seed)
    first = rng.integers(pts.shape[0], size=restarts)
    u = np.array([rng.random(restarts) for _ in range(k - 1)]).reshape(k - 1, restarts)
    best_assign = None
    best_wcss = None
    for i in range(restarts):
        assign, wcss = _lloyd_oracle(pts, k, first[i], u[:, i], max_iters)
        if best_wcss is None or wcss < best_wcss:
            best_wcss = wcss
            best_assign = assign
    return best_assign


def slab_coefficients_oracle(s, G, Vsq, eps):
    """Coefficients c of the sequential slab projections of frames u along their
    directions: the projections move u_t by -sum_l c[t, l] * v_tl.

    s[t, l] = <u_t, v_tl> and G holds the per-frame Gram matrices of the
    directions. Direction l takes its component of what the earlier directions
    left, soft-thresholded by eps, over |v_l|^2; a NaN component stays NaN."""
    c = np.zeros_like(s)
    for l in range(s.shape[1]):
        sl = s[:, l]
        for m in range(l):
            sl = sl - c[:, m] * G[:, m, l]
        c[:, l] = np.sign(sl) * np.maximum(np.abs(sl) - eps, 0.0) / Vsq[:, l]
    return c


def knn_edges_oracle(points, k):
    """Sorted (i, j) pairs, i < j, of the OR-symmetrized k-nearest-neighbor graph:
    point i takes the first k other points in the order of (squared distance, index),
    each squared distance summed over the coordinates in Python floats."""
    pts = np.asarray(points, dtype=float).tolist()
    n = len(pts)
    pairs = set()
    for i in range(n):
        d2 = [sum((a - b) ** 2 for a, b in zip(pts[i], pts[j])) for j in range(n)]
        others = sorted((j for j in range(n) if j != i), key=lambda j: (d2[j], j))
        pairs.update((min(i, j), max(i, j)) for j in others[:k])
    return sorted(pairs)


def objective_oracle(Ls, C, alpha):
    """The tv-pds objective from its definition: half the sum over frames of
    c_t' L_t c_t, plus alpha times the sum of |c_t - c_{t-1}| over t >= 1."""
    cut = sum(float(c @ (L @ c)) for L, c in zip(Ls, C))
    tv = sum(float(np.abs(C[t] - C[t - 1]).sum()) for t in range(1, len(C)))
    return 0.5 * cut + alpha * tv


def pds_iterate_oracle(Lblock, V, eps, alpha, g1, g2, sigma, max_iters, C0):
    """The splitting iteration written from its definitions, allocating every
    intermediate. Both dual steps are prox operators of conjugates, in closed form
    by Moreau's identity: the temporal dual is clipped to [-alpha, alpha], and the
    slab dual, kept as coefficients d along the directions, soft-thresholds the
    components of D1/g2 + Chat by eps in the sequential order of the slab
    projections. A run that does not settle stops at max_iters, or at the
    iterate tvclust.solver.CLIMB_ITERS after the last one whose objective was
    at or below the start's. Returns (C, objective, iterations, converged,
    objective trace, index of the returned iterate in the trace) like
    tvclust.solver._iterate."""
    from tvclust.prox import prox_sphere_frames
    from tvclust.solver import CLIMB_ITERS, SolverError, _is_feasible

    def frame_diff(C):
        # frame 0 maps to zero, frame t to C[t] - C[t-1]
        out = np.zeros_like(C)
        out[1:] = C[1:] - C[:-1]
        return out

    def objective(C, LC):
        return 0.5 * float(np.vdot(C, LC)) + alpha * float(np.abs(frame_diff(C)).sum())

    t_len, n = C0.shape
    n_dirs = V.shape[1]
    Vsq = np.einsum("tln,tln->tl", V, V)
    G = np.einsum("tln,tmn->tlm", V, V)
    C = C0.copy()
    d = np.zeros((t_len, n_dirs))
    D1 = np.zeros_like(C)
    D2 = np.zeros_like(C)
    best = None  # (C, objective, trace index)
    last_low = 0  # trace index of the last iterate at or below the start
    trace = np.empty(max_iters + 1)
    LC = (Lblock @ C.ravel()).reshape(t_len, n)
    converged = False
    it = 0
    for it in range(1, max_iters + 1):
        obj = objective(C, LC)
        trace[it - 1] = obj
        if obj <= trace[0]:
            last_low = it - 1
        if it - 1 - last_low == CLIMB_ITERS:
            it -= 1  # iterate it is the last one visited
            break
        if best is None or obj < best[1]:
            best = (C, obj, it - 1)
        grad = LC + D1
        grad[1:] += D2[1:]  # the adjoint of frame_diff applied to D2, added row by row
        grad[:-1] -= D2[1:]
        pre = C - g1 * grad
        norms = np.sqrt(np.einsum("tn,tn->t", pre, pre))
        if np.any(norms == 0.0):
            raise SolverError(f"all-zero frame at iteration {it}")
        Cn = pre * (np.sqrt(n) / norms)[:, None]
        Chat = 2.0 * Cn - C
        # D1 = sum_l d_l v_l, so <D1/g2 + Chat, v_l> = <Chat, v_l> + (d G)_l / g2
        s = np.einsum("tn,tln->tl", Chat, V) + np.einsum("tm,tml->tl", d, G) / g2
        d = g2 * slab_coefficients_oracle(s, G, Vsq, eps)
        D1n = np.einsum("tl,tln->tn", d, V)
        D2n = np.clip(D2 + g2 * frame_diff(Chat), -alpha, alpha)
        if not (
            np.all(np.isfinite(Cn)) and np.all(np.isfinite(D1n)) and np.all(np.isfinite(D2n))
        ):
            raise SolverError(f"non-finite iterate at iteration {it}")
        delta = float(np.linalg.norm(Cn - C))
        base = float(np.linalg.norm(C))
        delta_d = float(np.sqrt(np.sum((D1n - D1) ** 2) + np.sum((D2n - D2) ** 2)))
        base_d = float(np.sqrt(np.sum(D1**2) + np.sum(D2**2)))
        dual_settled = delta_d <= sigma * base_d if base_d > 0.0 else delta_d == 0.0
        C, D1, D2 = Cn, D1n, D2n
        LC = (Lblock @ C.ravel()).reshape(t_len, n)
        if delta <= sigma * base and dual_settled and _is_feasible(C, V, eps):
            converged = True
            break
    obj = objective(C, LC)
    trace[it] = obj
    if converged:
        return C, obj, it, converged, trace[: it + 1].copy(), it
    if best is None or obj < best[1]:
        best = (C, obj, it)

    def polished(out):
        for _ in range(3):
            c = slab_coefficients_oracle(np.einsum("tn,tln->tl", out, V), G, Vsq, eps)
            out = prox_sphere_frames(out - np.einsum("tl,tln->tn", c, V))
        return out, objective(out, (Lblock @ out.ravel()).reshape(t_len, n))

    # the polished start wins only when strictly lower
    out, out_obj, out_iter = min(
        (*polished(best[0]), best[2]), (*polished(C0), 0), key=lambda p: p[1]
    )
    return out, out_obj, it, converged, trace[: it + 1].copy(), out_iter


def warm_start_oracle(x0, V, rng):
    """Frame by frame: x0 projected off each direction of V[t] in turn, a draw of
    rng projected the same way where that leaves a norm below 1e-8, scaled to norm
    sqrt(n) and sign-aligned with the frame before."""
    t_len, _, n = V.shape
    C = np.empty((t_len, n))
    for t in range(t_len):
        x = np.array(x0, dtype=float)
        for _ in range(2):
            for v in V[t]:
                x -= (x @ v) / (v @ v) * v
            if float(np.linalg.norm(x)) >= 1e-8:
                break
            x = rng.standard_normal(n)
        x *= np.sqrt(n) / np.linalg.norm(x)
        if t > 0 and float(x @ C[t - 1]) < 0.0:
            x = -x
        C[t] = x
    return C
