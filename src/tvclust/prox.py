"""Proximal operators: sphere scaling, inner-product slab projection, soft thresholding."""

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


def prox_slab(z, v, eps: float) -> np.ndarray:
    """Euclidean projection onto {x : |x . v| <= eps}."""
    z = np.asarray(z, dtype=float)
    v = np.asarray(v, dtype=float)
    if z.shape != v.shape or z.ndim != 1:
        raise ValueError("z and v must be 1-D vectors of equal length")
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    vv = float(v @ v)
    if vv == 0.0:
        raise ValueError("constraint direction must be nonzero")
    s = float(z @ v)
    if abs(s) <= eps:
        return z.copy()
    return z - ((s - np.sign(s) * eps) / vv) * v


def soft_threshold(z, tau: float) -> np.ndarray:
    """Elementwise sgn(z) * max(0, |z| - tau)."""
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    z = np.asarray(z, dtype=float)
    return np.sign(z) * np.maximum(0.0, np.abs(z) - tau)


def prox_conjugate(prox_of_f, gamma: float, z) -> np.ndarray:
    """Prox of gamma * f^* evaluated through the prox of f (Moreau decomposition).

    `prox_of_f(y, tau)` must return the prox of tau * f at y. For f = alpha * l1
    the result is elementwise clipping of z to [-alpha, alpha]; for an indicator
    of a set S it is z - gamma * proj_S(z / gamma).
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    z = np.asarray(z, dtype=float)
    return z - gamma * prox_of_f(z / gamma, 1.0 / gamma)
