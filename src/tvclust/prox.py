"""Proximal operators: sphere scaling, sequential slab projection, soft thresholding."""

from __future__ import annotations

import numpy as np


def prox_sphere_frames(Z: np.ndarray) -> np.ndarray:
    """Row-wise radial scaling onto the sphere of squared radius n (the row length).

    A zero row has no nearest sphere point and is an error.
    """
    Z = np.asarray(Z, dtype=float)
    norms = np.linalg.norm(Z, axis=1)
    if np.any(norms == 0.0):
        raise ValueError("prox_sphere is undefined at the zero vector")
    return Z * (np.sqrt(Z.shape[1]) / norms)[:, None]


def prox_sphere(z) -> np.ndarray:
    """Nearest point with squared norm equal to len(z)."""
    z = np.asarray(z, dtype=float)
    if z.ndim != 1:
        raise ValueError("expected a 1-D vector")
    return prox_sphere_frames(z[None, :])[0]


def slab_coefficients(s: np.ndarray, gram: np.ndarray, eps: float) -> np.ndarray:
    """Coefficients of the sequential slab projections along each frame's directions.

    `s` holds the (t_len, n_dirs) components <z_t, v_tl> and is overwritten with
    coefficients c such that projecting z_t onto the slabs |x . v_tl| <= eps, one
    direction after another, moves it by -sum_l c[t, l] * v_tl. `gram` holds the
    per-frame Gram matrices of the directions. Direction l takes its component of
    what the earlier directions left, soft-thresholded by eps, over |v_l|^2; max
    and sign pass a NaN component on.
    """
    for l in range(s.shape[1]):
        sl = s[:, l]
        for m in range(l):
            sl -= s[:, m] * gram[:, m, l]
        mag = np.abs(sl)
        mag -= eps
        np.maximum(mag, 0.0, out=mag)
        np.sign(sl, out=sl)
        sl *= mag
        sl /= gram[:, l, l]
    return s


def prox_slab_frames(Z: np.ndarray, V: np.ndarray, eps: float) -> np.ndarray:
    """Row-wise sequential projections of Z onto the slabs |z_t . v_tl| <= eps.

    V holds the (t_len, n_dirs, n) directions, projected onto in order; a frame
    inside all of its slabs comes back unchanged.
    """
    gram = np.einsum("tln,tmn->tlm", V, V)
    c = slab_coefficients(np.einsum("tn,tln->tl", Z, V), gram, eps)
    return Z - np.einsum("tl,tln->tn", c, V)


def prox_slab(z, v, eps: float) -> np.ndarray:
    """Euclidean projection onto {x : |x . v| <= eps}."""
    z = np.asarray(z, dtype=float)
    v = np.asarray(v, dtype=float)
    if z.shape != v.shape or z.ndim != 1:
        raise ValueError("z and v must be 1-D vectors of equal length")
    if not eps >= 0:
        raise ValueError("eps must be nonnegative")
    if float(v @ v) == 0.0:
        raise ValueError("constraint direction must be nonzero")
    return prox_slab_frames(z[None], v[None, None], eps)[0]


def soft_threshold(z, tau: float) -> np.ndarray:
    """Elementwise sgn(z) * max(0, |z| - tau)."""
    if not tau >= 0:
        raise ValueError("tau must be nonnegative")
    z = np.asarray(z, dtype=float)
    return np.sign(z) * np.maximum(0.0, np.abs(z) - tau)


def prox_conjugate(prox_of_f, gamma: float, z) -> np.ndarray:
    """Prox of gamma * f^* evaluated through the prox of f (Moreau decomposition).

    `prox_of_f(y, tau)` must return the prox of tau * f at y. For f = alpha * l1
    the result is elementwise clipping of z to [-alpha, alpha]; for an indicator
    of a set S it is z - gamma * proj_S(z / gamma).
    """
    if not gamma > 0:
        raise ValueError("gamma must be positive")
    z = np.asarray(z, dtype=float)
    return z - gamma * prox_of_f(z / gamma, 1.0 / gamma)
