"""Dimension-generic vector kinematics used throughout the package.

Velocities live in R^n.  A "lifted" velocity is the spacetime tangent
(1, v) in R^(1+n); index 0 is always the time component.

Every dot product and norm of vectors in the package adds its components
in index order, x0*y0 + x1*y1 + ..., through component_sum.  Each + and *
is correctly rounded (IEEE 754), so their bits depend on the data alone:
not on the CPU, whose model picks the BLAS kernel behind numpy's dot
products and norms, nor on numpy's pairwise summation.  In n = 2,
x0*y0 + x1*y1 is symmetric under a swap of the two axes.  Sums over whole
arrays are not among them: bulk_invariants' E and Q (ledger), the
engine's energy bound (dynamics._Engine) and detmass's sums over a
measure add with np.sum, in numpy's order.

contact_times_scan, the contact-time kernel, solves a block of pairs in
one numpy pass, their components stacked on a leading axis.  A pair's
time comes from its two stored states alone, through component_sum, so
its bits depend neither on which of the two is the row nor on the block.
"""

from __future__ import annotations

import numpy as np

__all__ = ["component_sum", "dots", "squared_norms", "norms", "wedge_norms",
           "spacetime_wedges", "running_sum", "contact_times_scan"]


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


def contact_times_scan(pos, vel, tupd, i, js, four_a2, grazing_tol, out,
                       gap=None):
    """Earliest contact times of the row particle(s) i against each js.

    i is one index (out has shape (m,)) or a sequence of r row indices
    (out has shape (r, m)); js holds the m column indices.

    States are lazy: row k of pos is the position at time tupd[k].  Each
    pair is referred to ref = max(tupd[i], tupd[j]) before solving, which
    makes the result a pure function of the stored state (no dependence on
    the caller's "now", hence on when the pair was scheduled).  When the
    rows share one update time that no column is later than (a rescan
    after a collision, the initial scan), the columns are moved to it once
    for all rows; the rows' own move, by 0 * v, is skipped, which changes
    at most the sign of a zero difference, never an output.

    out receives the absolute contact time of each pair, or +inf when the
    pair never reaches center distance sqrt(four_a2) while approaching, or
    when the contact is grazing: disc < grazing_tol * (b^2 + A*|c|).  It is
    never NaN.  gap, when given, receives c = |dy|^2 - four_a2 at ref, the
    squared-distance gap of each pair at its reference time.

    Inside the numeric range of dynamics.LOW, which derives it, nothing
    here overflows, and no underflow changes a time up to dynamics.HIGH.
    """
    m = js.shape[0]
    if m == 0:
        return
    # component-major gathers: the rows are (n, 1) or (n, r, 1), the
    # columns (n, m) or (n, 1, m), and every array below that has a
    # leading n holds one slice per component
    rows = np.asarray(i)[..., None]
    cols = js if rows.ndim == 1 else js[None]
    vi = vel.T.take(rows, axis=1)
    vj = vel.T.take(cols, axis=1)
    pi = pos.T.take(rows, axis=1)
    pj = pos.T.take(cols, axis=1)
    ti = tupd.take(rows)
    tj = tupd.take(js)
    t_rows = ti.ravel().tolist()
    ref = t_rows[0]
    if min(t_rows) == ref == max(t_rows) and tj.max() <= ref:
        # every pair is referred to the rows' common time (a rescan after
        # a collision, or the initial scan): the rows stay put, and the
        # columns are moved once for all rows
        dy = pi - (pj + (ref - tj) * vj)
    else:
        ref = np.maximum(ti, tj)
        dy = (pi + (ref - ti) * vi) - (pj + (ref - tj) * vj)
    dv = vi - vj
    b, A = component_sum(dy * dv), component_sum(dv * dv)
    c = component_sum(dy * dy) - four_a2
    if gap is not None:
        gap[...] = c
    ok = b < 0.0  # approaching
    if four_a2 == 0.0:
        # point particles on the line: approaching points always meet, and
        # the quadratic is a perfect square (disc == 0 up to roundoff)
        q = -b
    else:
        bb = b * b
        disc = bb - A * c
        ok &= disc >= grazing_tol * (bb + A * np.abs(c))
        q = np.sqrt(np.where(ok, disc, 0.0)) - b
    # kept: a collision can leave |dv| subnormal and s past the float range
    with np.errstate(over="ignore"):
        s = c / np.where(ok, q, 1.0)
    out[...] = np.where(ok & (s >= 0.0), ref + s, np.inf)

