"""Pure numpy contact-time kernel.

Mirrors the compiled kernel in _ckern.pyx operation for operation: the two
must produce bit-identical times, so any change here needs the twin change
there.  Reductions are accumulated component by component in a fixed order
(never np.sum / np.dot) because that is the order the C loop uses.
"""

from __future__ import annotations

import numpy as np


def contact_times_scan(pos, vel, tupd, i, js, four_a2, grazing_tol, out):
    """Earliest contact times of particle i against each candidate in js.

    States are lazy: row k of pos is the position at time tupd[k].  Each
    pair is referred to ref = max(tupd[i], tupd[j]) before solving, which
    makes the result a pure function of the stored state (no dependence on
    the caller's "now", hence on when the pair was scheduled).

    out[m] receives the absolute contact time for pair (i, js[m]), or +inf
    when the pair never reaches center distance sqrt(four_a2) while
    approaching, or when the contact is grazing:
    disc < grazing_tol * (b^2 + A*|c|).
    """
    m = js.shape[0]
    if m == 0:
        return
    n = pos.shape[1]
    ti = tupd[i]
    ref = np.maximum(ti, tupd[js])
    dti = ref - ti
    dtj = ref - tupd[js]
    b = np.zeros(m)
    A = np.zeros(m)
    c = np.zeros(m)
    for k in range(n):
        dy = (pos[i, k] + dti * vel[i, k]) - (pos[js, k] + dtj * vel[js, k])
        dv = vel[i, k] - vel[js, k]
        b = b + dy * dv
        A = A + dv * dv
        c = c + dy * dy
    c = c - four_a2
    approach = b < 0.0
    if four_a2 == 0.0:
        # point particles on the line: approaching points always meet, and
        # the quadratic is a perfect square (disc == 0 up to roundoff)
        s = c / np.where(approach, -b, 1.0)
        out[:] = np.where(approach, ref + s, np.inf)
        return
    disc = b * b - A * c
    scale = b * b + A * np.abs(c)
    ok = approach & (disc >= grazing_tol * scale)
    q = -b + np.sqrt(np.where(ok, disc, 0.0))
    s = c / np.where(ok, q, 1.0)
    out[:] = np.where(ok & (s >= 0.0), ref + s, np.inf)
