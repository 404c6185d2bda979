"""Dimension-generic vector kinematics used throughout the package.

Velocities live in R^n.  A "lifted" velocity is the spacetime tangent
(1, v) in R^(1+n); index 0 is always the time component.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["as_vector", "wedge_norm", "spacetime_wedge", "lift"]


def as_vector(v) -> np.ndarray:
    """Coerce to a 1-D float64 array (copies only when needed)."""
    arr = np.asarray(v, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {arr.shape}")
    return arr


def wedge_norm(u, u2) -> float:
    """Area of the parallelogram spanned by u and u2.

    Computed from the 2x2 minors, sqrt(sum_{a<b} (u_a u2_b - u_b u2_a)^2)
    (Lagrange's identity), which works in any dimension.  Each minor is
    accurate to rounding of its own size, so parallel inputs give ~eps, not
    the ~sqrt(eps) floor of the Gram form |u|^2 |u2|^2 - (u.u2)^2, which
    cancels.
    """
    u = as_vector(u)
    u2 = as_vector(u2)
    if u.shape != u2.shape:
        raise ValueError(f"dimension mismatch: {u.shape} vs {u2.shape}")
    x, y = u.tolist(), u2.tolist()
    total = 0.0
    for a in range(len(x)):
        for b in range(a + 1, len(x)):
            minor = x[a] * y[b] - x[b] * y[a]
            total += minor * minor
    return math.sqrt(total)


def spacetime_wedge(v, v2) -> float:
    """|lift(v) ^ lift(v2)| = sqrt(|v2 - v|^2 + wedge_norm(v, v2)^2).

    Wedge-norm of the lifted velocities (1, v) and (1, v2); the identity
    above avoids forming the (1+n)-dimensional Gram matrix.
    """
    v = as_vector(v)
    v2 = as_vector(v2)
    if v.shape != v2.shape:
        raise ValueError(f"dimension mismatch: {v.shape} vs {v2.shape}")
    d = v2 - v
    w = wedge_norm(v, v2)
    return float(np.sqrt(np.dot(d, d) + w * w))


def lift(v) -> np.ndarray:
    """Lifted velocity (1, v) in R^(1+n)."""
    v = as_vector(v)
    out = np.empty(v.size + 1)
    out[0] = 1.0
    out[1:] = v
    return out
