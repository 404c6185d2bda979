"""Dimension-generic vector kinematics used throughout the package.

Velocities live in R^n.  A "lifted" velocity is the spacetime tangent
(1, v) in R^(1+n); index 0 is always the time component.

Every dot product, norm and sum of squares in the package adds its
components in index order, x0*y0 + x1*y1 + ..., through component_sum.
Each + and * is correctly rounded (IEEE 754), so the bits depend on the
data alone: not on the CPU, whose model picks the BLAS kernel behind
numpy's dot products and norms, nor on numpy's pairwise summation.  In
n = 2, x0*y0 + x1*y1 is symmetric under a swap of the two axes.
"""

from __future__ import annotations

import numpy as np

__all__ = ["component_sum", "dots", "squared_norms", "norms", "wedge_norms",
           "spacetime_wedges", "running_sum"]


def component_sum(x) -> np.ndarray:
    """x[0] + x[1] + ... over the leading (component) axis, in that order.

    np.add.reduce over the leading axis of C-ordered data with more than
    one value a slice adds whole slices, x[0] + x[1], then + x[2] and so
    on.  When a slice holds one value (a vector, a block of one pair), or
    the data are laid out otherwise (the transposed rows of dots), numpy
    would sum along the reduced axis pairwise from 8 values on, so the
    slices are added one by one.
    """
    if 1 < len(x) < x.size and x.flags.c_contiguous:
        return np.add.reduce(x, axis=0)
    total = x[0]
    for k in range(1, len(x)):
        total = total + x[k]
    return total


def dots(X, Y) -> np.ndarray:
    """Dot product of each row of X with the same row of Y (their last
    axis, broadcast against each other)."""
    # .T puts the last axis first, and after the sum turns the rest back
    return component_sum(np.multiply(X, Y).T).T


def squared_norms(X) -> np.ndarray:
    """Squared Euclidean norm of each row of X (its last axis)."""
    return dots(X, X)


def norms(X) -> np.ndarray:
    """Euclidean norm of each row of X (its last axis)."""
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
    minors = [U[..., a] * U2[..., b] - U[..., b] * U2[..., a]
              for a in range(n) for b in range(a + 1, n)]
    # after a zero, the sum of no minors on the line
    return np.sqrt(component_sum(np.square([np.zeros(U.shape[:-1])] + minors)))


def spacetime_wedges(V, V2) -> np.ndarray:
    """|(1, v) ^ (1, v2)| = sqrt(|v2 - v|^2 + |v ^ v2|^2) for each row v of
    V and v2 of V2.

    Wedge-norm of the lifted velocities (1, v) and (1, v2); the identity
    above avoids forming the (1+n)-dimensional Gram matrix.
    """
    w = wedge_norms(V, V2)
    return np.sqrt(squared_norms(np.subtract(V2, V, dtype=np.float64)) + w * w)


def running_sum(values) -> float:
    """Sum of values added left to right, as a loop adds them (np.sum adds
    pairwise, np.cumsum in order); 0.0 when there are none."""
    return float(np.cumsum(values)[-1]) if len(values) else 0.0

