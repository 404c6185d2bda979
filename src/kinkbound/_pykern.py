"""The contact-time kernel: one numpy pass over a block of particle pairs.

Each pair's time is computed from the two stored states alone, with the
reductions accumulated component by component in a fixed order (never
np.sum / np.dot), so the result is the same bit pattern whichever of the
two is the row, and whichever block the pair is scanned in.
"""

from __future__ import annotations

import numpy as np


def contact_times_scan(pos, vel, tupd, i, js, four_a2, grazing_tol, out,
                       gap=None):
    """Earliest contact times of the row particle(s) i against each js.

    i is one index (out has shape (m,)) or an array of r row indices (out
    has shape (r, m)); js holds the m column indices.

    States are lazy: row k of pos is the position at time tupd[k].  Each
    pair is referred to ref = max(tupd[i], tupd[j]) before solving, which
    makes the result a pure function of the stored state (no dependence on
    the caller's "now", hence on when the pair was scheduled).

    out receives the absolute contact time of each pair, or +inf when the
    pair never reaches center distance sqrt(four_a2) while approaching, or
    when the contact is grazing: disc < grazing_tol * (b^2 + A*|c|).  It is
    never NaN.  gap, when given, receives c = |dy|^2 - four_a2 at ref, the
    squared-distance gap of each pair at its reference time.
    """
    m = js.shape[0]
    if m == 0:
        return
    # component-major gathers: pi[k] is (1,) or (r, 1), pj[k] is (m,)
    rows = np.asarray(i)[..., None]
    pi = pos.T.take(rows, axis=1)
    vi = vel.T.take(rows, axis=1)
    pj = pos.T.take(js, axis=1)
    vj = vel.T.take(js, axis=1)
    ti = tupd.take(rows)
    tj = tupd.take(js)
    ref = np.maximum(ti, tj)
    dti = ref - ti
    dtj = ref - tj
    for k in range(pos.shape[1]):
        dy = (pi[k] + dti * vi[k]) - (pj[k] + dtj * vj[k])
        dv = vi[k] - vj[k]
        if k == 0:
            # as if added to 0.0: only b's sign of zero could differ, and
            # b == 0 is never approaching
            b, A, c = dy * dv, dv * dv, dy * dy
        else:
            b = b + dy * dv
            A = A + dv * dv
            c = c + dy * dy
    c = c - four_a2
    if gap is not None:
        gap[...] = c
    approach = b < 0.0
    if four_a2 == 0.0:
        # point particles on the line: approaching points always meet, and
        # the quadratic is a perfect square (disc == 0 up to roundoff)
        s = c / np.where(approach, -b, 1.0)
        out[...] = np.where(approach & (s >= 0.0), ref + s, np.inf)
        return
    disc = b * b - A * c
    scale = b * b + A * np.abs(c)
    ok = approach & (disc >= grazing_tol * scale)
    q = -b + np.sqrt(np.where(ok, disc, 0.0))
    s = c / np.where(ok, q, 1.0)
    out[...] = np.where(ok & (s >= 0.0), ref + s, np.inf)
