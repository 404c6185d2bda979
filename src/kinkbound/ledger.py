"""Collision-strength statistics over event logs.

Each collision contributes a velocity jump ("kink") to both participants.
The ledger collects one record per participant per collision together with
the jump magnitude |v'-v|, the spatial wedge |v ^ v'| and the spacetime
wedge |(1,v) ^ (1,v')|, and aggregates them into the sums whose growth in N
the acceptance suite tracks:

    S1 = sum(v_bar*|v'-v| + |v ^ v'|)   compared against N^2 v_bar^2
    S2 = sum |v'-v|                     compared against N^2 v_dev
    S_st = sum |V ^ V'|                 compared against (M+E)^2

All quantities are pure functions of an EventLog.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._columns import Columns
from .kernel import (norms, running_sum, spacetime_wedges, squared_norms,
                     wedge_norms)

__all__ = [
    "BulkInvariants",
    "Ledger",
    "Hodographs",
    "BoundReport",
    "bulk_invariants",
    "build_ledger",
    "bound_report",
    "hodograph_summaries",
    "write_ledger_csv",
    "build_report",
]


@dataclass
class BulkInvariants:
    """Conserved bulk quantities (unit masses): M, E, Q, and derived speeds.

    v_bar = sqrt(2E/M) is the RMS speed, v_dev = sqrt(v_bar^2 - |w|^2) the
    standard deviation of the velocity distribution around the mean w.
    """

    M: float
    E: float
    Q_total: np.ndarray
    w: np.ndarray
    v_bar: float
    v_dev: float


@dataclass(eq=False)
class Ledger(Columns):
    """build_ledger's kink records as columns.

    Two rows per collision, its participants i then j, in event order:
    time, particle, partner, dv_norm, wedge and st_wedge have shape (2E,),
    v and v_post (2E, n).
    """

    time: np.ndarray
    particle: np.ndarray
    partner: np.ndarray
    v: np.ndarray
    v_post: np.ndarray
    dv_norm: np.ndarray
    wedge: np.ndarray
    st_wedge: np.ndarray


@dataclass(eq=False)
class Hodographs(Columns):
    """Each particle's polygonal chain of velocity values (in the w-frame),
    one row per particle in the order of the initial states: particle,
    ell (chain length: sum of jump magnitudes), area (swept sector area
    about the origin) and scatter (|v_plus - v0|) have shape (N,), v0 and
    v_plus (N, n)."""

    particle: np.ndarray
    ell: np.ndarray
    area: np.ndarray
    v0: np.ndarray
    v_plus: np.ndarray
    scatter: np.ndarray


@dataclass
class BoundReport:
    """A ledger's kink sums over their a-priori scales, and its counts of
    strong kinks (dv_norm >= epsilon * v_bar) and weak ones."""

    S1: float
    ratio1: float
    S2: float
    ratio2: float | None  # None when v_dev == 0 and S2 > 0
    S_st: float
    ratio_st: float
    strong: int
    weak: int


def bulk_invariants(V: np.ndarray) -> BulkInvariants:
    """Mass, energy, momentum and velocity-spread scales of the (N, n)
    velocities V of a state set (unit masses)."""
    if V.ndim != 2 or V.shape[0] < 1:
        raise ValueError("need at least one particle")
    M = float(V.shape[0])
    E = 0.5 * float(np.sum(V * V))
    Q = V.sum(axis=0)
    w = Q / M
    v_bar = float(np.sqrt(2.0 * E / M))
    dev2 = v_bar * v_bar - float(squared_norms(w))
    v_dev = float(np.sqrt(dev2 if dev2 > 0.0 else 0.0))
    return BulkInvariants(M=M, E=E, Q_total=Q, w=w, v_bar=v_bar, v_dev=v_dev)


def build_ledger(log) -> Ledger:
    """Two kink records per collision (participant order: i then j)."""
    b = log.events
    n = log.initial.position.shape[1]
    v = b.v.reshape(-1, n)
    v_post = b.v_post.reshape(-1, n)
    return Ledger(
        time=np.repeat(b.t, 2),
        particle=np.stack((b.i, b.j), axis=1).reshape(-1),
        partner=np.stack((b.j, b.i), axis=1).reshape(-1),
        v=v, v_post=v_post,
        dv_norm=norms(v_post - v),
        wedge=wedge_norms(v, v_post),
        st_wedge=spacetime_wedges(v, v_post))


def bound_report(ledger: Ledger, inv: BulkInvariants,
                 epsilon: float = 1.0) -> BoundReport:
    """Aggregate kink strengths, normalize by their a-priori scales (N is
    inv.M) and count the strong and weak kinks at epsilon.

    Each sum adds its terms left to right, in ledger order.
    """
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    dv, wedge, st = ledger.dv_norm, ledger.wedge, ledger.st_wedge
    S1 = running_sum(inv.v_bar * dv + wedge)
    S2 = running_sum(dv)
    S_st = running_sum(st)
    N2 = inv.M * inv.M
    ratio1 = S1 / (N2 * inv.v_bar**2) if inv.v_bar > 0 else 0.0
    if inv.v_dev > 0:
        ratio2 = S2 / (N2 * inv.v_dev)
    else:
        ratio2 = 0.0 if S2 == 0.0 else None
    me = inv.M + inv.E
    strong = int(np.count_nonzero(dv >= epsilon * inv.v_bar))
    return BoundReport(S1=S1, ratio1=ratio1, S2=S2, ratio2=ratio2, S_st=S_st,
                       ratio_st=S_st / (me * me), strong=strong,
                       weak=len(dv) - strong)


def hodograph_summaries(log) -> Hodographs:
    """Chain length, swept area and limit velocities per particle.

    The chain is the sequence of velocity values in the mean-velocity
    frame; each kink sweeps the triangle spanned by the old and new frame
    velocities, area (1/2)|(v-w) ^ (v'-w)|.  Finite logs attain their
    limit velocities, so v_plus is the last segment's velocity.  The
    chains are EventLog.chains, whose velocity before a kink is the log's
    vi or vj there; each particle's length and area add its kinks in
    event order (bincount adds in input order).
    """
    V0 = log.initial.velocity
    w = bulk_invariants(V0).w
    c = log.chains()
    k = np.flatnonzero(c.kink >= 0)
    v, v_post = c.v[k - 1], c.v[k]
    ell = np.bincount(c.owner[k], norms(v_post - v), len(V0))
    area = np.bincount(c.owner[k], 0.5 * wedge_norms(v - w, v_post - w), len(V0))
    v_plus = c.v[c.last()]
    return Hodographs(particle=log.initial.id, ell=ell, area=area, v0=V0,
                      v_plus=v_plus, scatter=norms(v_plus - V0))


# -- serialization ----------------------------------------------------------

LEDGER_COLUMNS = ["t", "particle", "partner", "dv_norm", "wedge", "st_wedge"]


def write_ledger_csv(ledger: Ledger, path) -> None:
    """One CSV row per kink record, floats %.17g."""
    columns = (ledger.time, ledger.particle, ledger.partner, ledger.dv_norm,
               ledger.wedge, ledger.st_wedge)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(LEDGER_COLUMNS) + "\r\n")
        fh.writelines("%.17g,%d,%d,%.17g,%.17g,%.17g\r\n" % row
                      for row in zip(*(c.tolist() for c in columns)))


def build_report(log, ledger, epsilon: float = 1.0) -> dict:
    """Everything the report JSON carries, as one plain dict; ledger is
    build_ledger(log)."""
    inv = bulk_invariants(log.initial.velocity)
    rep = bound_report(ledger, inv, epsilon)
    h = hodograph_summaries(log)
    return {
        "M": inv.M,
        "E": inv.E,
        "w": inv.w,
        "v_bar": inv.v_bar,
        "v_dev": inv.v_dev,
        "S1": rep.S1,
        "ratio1": rep.ratio1,
        "S2": rep.S2,
        "ratio2": rep.ratio2,
        "S_st": rep.S_st,
        "ratio_st": rep.ratio_st,
        "strong_count": rep.strong,
        "weak_count": rep.weak,
        "per_particle": [
            {"id": pid, "ell": ell, "area": area, "scatter": scatter}
            for pid, ell, area, scatter in zip(*(
                c.tolist() for c in (h.particle, h.ell, h.area, h.scatter)))
        ],
    }
