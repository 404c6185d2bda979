"""Dimension-generic vector kinematics used throughout the package.

Velocities live in R^n.  A "lifted" velocity is the spacetime tangent
(1, v) in R^(1+n); index 0 is always the time component.
"""

from __future__ import annotations

import numpy as np

__all__ = ["as_vector", "squared_norms", "norms", "wedge_norms",
           "spacetime_wedges", "wedge_norm", "spacetime_wedge", "running_sum",
           "lift"]


def as_vector(v) -> np.ndarray:
    """Coerce to a 1-D float64 array (copies only when needed)."""
    arr = np.asarray(v, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {arr.shape}")
    return arr


def squared_norms(X) -> np.ndarray:
    """Squared Euclidean norm of each row of X (its last axis).

    Each is the same float as np.dot of that row with itself, which
    np.linalg.norm takes the root of: np.vecdot of a contiguous row calls
    the same BLAS dot, whereas einsum or a sum of squares adds in another
    order and differs in the last bit on some rows.
    """
    X = np.ascontiguousarray(X, dtype=np.float64)
    return np.vecdot(X, X)


def norms(X) -> np.ndarray:
    """Euclidean norm of each row of X: np.linalg.norm of the row."""
    return np.sqrt(squared_norms(X))


def wedge_norms(U, U2) -> np.ndarray:
    """Area of the parallelogram spanned by each row of U and the same row
    of U2 (their last axis).

    Computed from the 2x2 minors, sqrt(sum_{a<b} (u_a u2_b - u_b u2_a)^2)
    (Lagrange's identity), which works in any dimension; the squares are
    added in (a, b) order.  Each minor is accurate to rounding of its own
    size, so parallel inputs give ~eps, not the ~sqrt(eps) floor of the
    Gram form |u|^2 |u2|^2 - (u.u2)^2, which cancels.
    """
    U = np.asarray(U, dtype=np.float64)
    U2 = np.asarray(U2, dtype=np.float64)
    if U.shape != U2.shape:
        raise ValueError(f"dimension mismatch: {U.shape} vs {U2.shape}")
    n = U.shape[-1]
    total = np.zeros(U.shape[:-1])
    for a in range(n):
        for b in range(a + 1, n):
            minor = U[..., a] * U2[..., b] - U[..., b] * U2[..., a]
            total = total + minor * minor
    return np.sqrt(total)


def spacetime_wedges(V, V2) -> np.ndarray:
    """|lift(v) ^ lift(v2)| = sqrt(|v2 - v|^2 + wedge_norm(v, v2)^2) for
    each row v of V and v2 of V2.

    Wedge-norm of the lifted velocities (1, v) and (1, v2); the identity
    above avoids forming the (1+n)-dimensional Gram matrix.
    """
    w = wedge_norms(V, V2)
    return np.sqrt(squared_norms(np.subtract(V2, V, dtype=np.float64)) + w * w)


def wedge_norm(u, u2) -> float:
    """wedge_norms of two vectors."""
    return float(wedge_norms(as_vector(u), as_vector(u2)))


def spacetime_wedge(v, v2) -> float:
    """spacetime_wedges of two vectors."""
    return float(spacetime_wedges(as_vector(v), as_vector(v2)))


def running_sum(values) -> float:
    """Sum of values added left to right, as a loop adds them (np.sum adds
    pairwise, np.cumsum in order); 0.0 when there are none."""
    return float(np.cumsum(values)[-1]) if len(values) else 0.0


def lift(v) -> np.ndarray:
    """Lifted velocity (1, v) in R^(1+n)."""
    v = as_vector(v)
    out = np.empty(v.size + 1)
    out[0] = 1.0
    out[1:] = v
    return out
