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

import csv
from dataclasses import dataclass

import numpy as np

from .kernel import spacetime_wedge, wedge_norm

__all__ = [
    "BulkInvariants",
    "KinkRecord",
    "HodographSummary",
    "BoundReport",
    "KinkClassification",
    "bulk_invariants",
    "build_ledger",
    "bound_report",
    "classify_kinks",
    "hodograph_summaries",
    "write_ledger_csv",
    "read_ledger_csv",
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


@dataclass
class KinkRecord:
    time: float
    particle: int
    partner: int
    v: np.ndarray
    v_post: np.ndarray
    dv_norm: float
    wedge: float
    st_wedge: float


@dataclass
class HodographSummary:
    """Per-particle polygonal chain of velocity values (in the w-frame)."""

    particle: int
    ell: float          # chain length: sum of jump magnitudes
    area: float         # swept sector area about the origin
    v0: np.ndarray
    v_minus: np.ndarray
    v_plus: np.ndarray
    scatter: float      # |v_plus - v(0)|


@dataclass
class BoundReport:
    S1: float
    ratio1: float
    S2: float
    ratio2: float       # inf when v_dev == 0 and S2 > 0
    ratio2_defined: bool
    S_st: float
    ratio_st: float


@dataclass
class KinkClassification:
    strong: int
    weak: int
    markov_bound: float  # strong <= S2 / (epsilon * v_bar)


def bulk_invariants(states) -> BulkInvariants:
    """Mass, energy, momentum and velocity-spread scales of a state set.

    Accepts a sequence of ParticleStates or an (N, n) velocity array.
    """
    if isinstance(states, np.ndarray):
        V = np.asarray(states, dtype=np.float64)
    else:
        V = np.array([s.velocity for s in states], dtype=np.float64)
    if V.ndim != 2 or V.shape[0] < 1:
        raise ValueError("need at least one particle")
    M = float(V.shape[0])
    E = 0.5 * float(np.sum(V * V))
    Q = V.sum(axis=0)
    w = Q / M
    v_bar = float(np.sqrt(2.0 * E / M))
    dev2 = v_bar * v_bar - float(np.dot(w, w))
    v_dev = float(np.sqrt(dev2 if dev2 > 0.0 else 0.0))
    return BulkInvariants(M=M, E=E, Q_total=Q, w=w, v_bar=v_bar, v_dev=v_dev)


def build_ledger(log) -> list:
    """Two KinkRecords per collision (participant order: i then j)."""
    records = []
    for ev in log.events:
        for pid, partner, v, vp in (
            (ev.i, ev.j, ev.vi, ev.vi_post),
            (ev.j, ev.i, ev.vj, ev.vj_post),
        ):
            records.append(KinkRecord(
                time=ev.t, particle=pid, partner=partner, v=v, v_post=vp,
                dv_norm=float(np.linalg.norm(vp - v)),
                wedge=wedge_norm(v, vp),
                st_wedge=spacetime_wedge(v, vp),
            ))
    return records


def bound_report(ledger, inv: BulkInvariants, N: int) -> BoundReport:
    """Aggregate kink strengths and normalize by their a-priori scales."""
    S1 = S2 = S_st = 0.0
    for r in ledger:
        S1 += inv.v_bar * r.dv_norm + r.wedge
        S2 += r.dv_norm
        S_st += r.st_wedge
    N2 = float(N) * float(N)
    ratio1 = S1 / (N2 * inv.v_bar**2) if inv.v_bar > 0 else 0.0
    if inv.v_dev > 0:
        ratio2, defined = S2 / (N2 * inv.v_dev), True
    elif S2 == 0.0:
        ratio2, defined = 0.0, True
    else:
        ratio2, defined = float("inf"), False
    me = inv.M + inv.E
    return BoundReport(S1=S1, ratio1=ratio1, S2=S2, ratio2=ratio2,
                       ratio2_defined=defined, S_st=S_st,
                       ratio_st=S_st / (me * me))


def classify_kinks(ledger, inv: BulkInvariants, epsilon: float) -> KinkClassification:
    """Split records into strong (dv >= eps*v_bar) and weak, with the
    first-moment (Markov) bound on the strong count."""
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    thr = epsilon * inv.v_bar
    strong = sum(1 for r in ledger if r.dv_norm >= thr)
    S2 = sum(r.dv_norm for r in ledger)
    return KinkClassification(
        strong=strong, weak=len(ledger) - strong,
        markov_bound=S2 / thr if thr > 0 else float("inf"),
    )


def hodograph_summaries(log) -> list:
    """Chain length, swept area and limit velocities per particle.

    The chain is the sequence of velocity values in the mean-velocity
    frame; each kink sweeps the triangle spanned by the old and new frame
    velocities, area (1/2)|(v-w) ^ (v'-w)|.  Finite logs attain their
    limit velocities, so v_plus is the last segment's velocity.
    """
    w = bulk_invariants(log.initial).w
    vel = {s.id: s.velocity for s in log.initial}
    ell = {s.id: 0.0 for s in log.initial}
    area = {s.id: 0.0 for s in log.initial}
    v0 = {s.id: s.velocity for s in log.initial}
    for ev in log.events:
        for pid, v, vp in ((ev.i, ev.vi, ev.vi_post), (ev.j, ev.vj, ev.vj_post)):
            ell[pid] += float(np.linalg.norm(vp - v))
            area[pid] += 0.5 * wedge_norm(v - w, vp - w)
            vel[pid] = vp
    out = []
    for s in log.initial:
        pid = s.id
        out.append(HodographSummary(
            particle=pid, ell=ell[pid], area=area[pid],
            v0=v0[pid], v_minus=v0[pid], v_plus=vel[pid],
            scatter=float(np.linalg.norm(vel[pid] - v0[pid])),
        ))
    return out


# -- serialization ----------------------------------------------------------

LEDGER_COLUMNS = ["t", "particle", "partner", "dv_norm", "wedge", "st_wedge"]


def write_ledger_csv(ledger, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(LEDGER_COLUMNS)
        for r in ledger:
            writer.writerow([
                format(r.time, ".17g"), r.particle, r.partner,
                format(r.dv_norm, ".17g"), format(r.wedge, ".17g"),
                format(r.st_wedge, ".17g"),
            ])


def read_ledger_csv(path) -> list:
    """Rows as dicts with parsed floats (records lack v/v_post)."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != LEDGER_COLUMNS:
            raise ValueError(f"unexpected ledger columns {reader.fieldnames}")
        return [
            {
                "t": float(row["t"]),
                "particle": int(row["particle"]),
                "partner": int(row["partner"]),
                "dv_norm": float(row["dv_norm"]),
                "wedge": float(row["wedge"]),
                "st_wedge": float(row["st_wedge"]),
            }
            for row in reader
        ]


def build_report(log, ledger: list, epsilon: float = 1.0) -> dict:
    """Everything the report JSON carries, as one plain dict; ledger is
    build_ledger(log)."""
    inv = bulk_invariants(log.initial)
    rep = bound_report(ledger, inv, int(inv.M))
    cls = classify_kinks(ledger, inv, epsilon)
    hodo = hodograph_summaries(log)
    return {
        "M": inv.M,
        "E": inv.E,
        "w": inv.w,
        "v_bar": inv.v_bar,
        "v_dev": inv.v_dev,
        "S1": rep.S1,
        "ratio1": rep.ratio1,
        "S2": rep.S2,
        "ratio2": rep.ratio2 if rep.ratio2_defined else None,
        "S_st": rep.S_st,
        "ratio_st": rep.ratio_st,
        "strong_count": cls.strong,
        "weak_count": cls.weak,
        "per_particle": [
            {"id": h.particle, "ell": h.ell, "area": h.area, "scatter": h.scatter}
            for h in hodo
        ],
    }
