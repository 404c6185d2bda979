"""The contact-time kernel: one numpy pass over a block of particle pairs.

Each pair's time is computed from the two stored states alone, with the
reductions those of kernel.component_sum, so the result is the same bit
pattern whichever of the two is the row, and whichever block the pair is
scanned in.  The components are stacked on a leading axis, so that each
step is one numpy call over all of them, whatever n is.
"""

from __future__ import annotations

import numpy as np

from .kernel import component_sum


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

    An approaching pair so slow that |dv|^2 < 2^-900 (whose squares would
    underflow) is solved with dv scaled by an exact power of two, so its
    time is as accurate as any other; a time beyond the float range is
    +inf.
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
    approach = b < 0.0
    slow = approach & (A < 2.0 ** -900)
    shift = None
    if slow.any():
        # |dv|^2 (and b^2) underflow: solve the slow pairs with dv scaled
        # by 2^shift, an exact power of two that brings their largest
        # component into [0.5, 1), and scale the time back; shift is 0
        # elsewhere, so every other pair keeps its bits
        shift = np.where(slow, -np.frexp(np.abs(dv).max(axis=0))[1], 0)
        dv = np.ldexp(dv, shift)
        b, A = component_sum(dy * dv), component_sum(dv * dv)
    if four_a2 == 0.0:
        # point particles on the line: approaching points always meet, and
        # the quadratic is a perfect square (disc == 0 up to roundoff)
        ok = approach
        q = -b
    else:
        bb = b * b
        disc = bb - A * c
        ok = approach & (disc >= grazing_tol * (bb + A * np.abs(c)))
        q = np.sqrt(np.where(ok, disc, 0.0)) - b
    # q >= sqrt(A * |c|), so |s| <= sqrt(|c| / A) < 2^1000: no overflow
    s = c / np.where(ok, q, 1.0)
    if shift is not None:
        with np.errstate(over="ignore"):  # beyond the float range: never
            s = np.ldexp(s, shift)
    out[...] = np.where(ok & (s >= 0.0), ref + s, np.inf)

