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


def _project_slabs_oracle(U, V, Vsq, eps):
    out = np.array(U, dtype=float)
    for l in range(V.shape[1]):
        vl = V[:, l, :]
        s = np.einsum("tn,tn->t", out, vl)
        over = np.abs(s) > eps
        if np.any(over):
            coef = (s[over] - np.sign(s[over]) * eps) / Vsq[over, l]
            out[over] -= coef[:, None] * vl[over]
    return out


def pds_iterate_oracle(Lblock, V, eps, alpha, g1, g2, sigma, max_iters, C0):
    """The splitting iteration composed from the operator definitions, allocating
    every intermediate, as the solver first wrote it. Returns (C, objective,
    iterations, converged, objective trace) like tvclust.solver._iterate."""
    from tvclust.graphs import temporal_diff, temporal_diff_adjoint
    from tvclust.prox import prox_conjugate, prox_sphere_frames, soft_threshold
    from tvclust.solver import SolverError, _is_feasible

    def objective(C, LC):
        return 0.5 * float(np.vdot(C, LC)) + alpha * float(np.abs(temporal_diff(C)).sum())

    t_len, n = C0.shape
    Vsq = np.einsum("tln,tln->tl", V, V)
    C = C0.copy()
    D1 = np.zeros_like(C)
    D2 = np.zeros_like(C)
    best = None  # (C, objective)
    trace = np.empty(max_iters + 1)
    LC = (Lblock @ C.ravel()).reshape(t_len, n)
    converged = False
    it = 0
    for it in range(1, max_iters + 1):
        obj = objective(C, LC)
        trace[it - 1] = obj
        if best is None or obj < best[1]:
            best = (C, obj)
        pre = C - g1 * (LC + D1 + temporal_diff_adjoint(D2))
        if np.any(np.linalg.norm(pre, axis=1) == 0.0):
            raise SolverError(f"all-zero frame at iteration {it}")
        Cn = prox_sphere_frames(pre)
        Chat = 2.0 * Cn - C
        D1n = prox_conjugate(
            lambda y, tau: _project_slabs_oracle(y, V, Vsq, eps), g2, D1 + g2 * Chat
        )
        D2n = prox_conjugate(
            lambda y, tau: soft_threshold(y, tau * alpha), g2, D2 + g2 * temporal_diff(Chat)
        )
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
        return C, obj, it, converged, trace[: it + 1].copy()
    if best is None or obj < best[1]:
        best = (C, obj)

    def polished(out):
        for _ in range(3):
            out = prox_sphere_frames(_project_slabs_oracle(out, V, Vsq, eps))
        return out, objective(out, (Lblock @ out.ravel()).reshape(t_len, n))

    # the polished start wins only when strictly lower
    out, out_obj = min(polished(best[0]), polished(C0), key=lambda p: p[1])
    return out, out_obj, it, converged, trace[: it + 1].copy()
