"""Determinantal masses of divergence-free graph vertices.

A balanced atomic measure on the unit circle (weights mu_i at angles s_i
with a vanishing first moment) prescribes the outward normals and edge
lengths of a unique convex polygon (Minkowski's discrete problem, solved
here by sorting the atoms and chaining the rotated edge vectors).  The
module computes the determinantal mass of such a vertex two independent
ways -- a closed double-sum formula and the polygon-area oracle -- plus
the special cases used elsewhere: three converging lines, direct sums,
axis-aligned crosses, and the kink vertex of the augmented spacetime
tensor (triangle x hypercube product body).

The closed formula and the area oracle differ by an exact factor of 2 on
every balanced measure; both normalizations are exposed and the factor is
measured by tests rather than assumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._jsonio import read_list, read_number, read_object
from .kernel import dots, norms

__all__ = [
    "AngularMeasure",
    "ConvexPolygon",
    "check_balance",
    "is_balanced",
    "dm_closed_formula",
    "polygon_from_measure",
    "enclosed_area",
    "support_function",
    "dm_triple",
    "dm_direct_sum",
    "dm_cross",
    "dm_kink",
    "measure_from_dict",
    "measure_report",
]

TWO_PI = 2.0 * np.pi


@dataclass
class AngularMeasure:
    """Atomic measure on S^1: positive weights at distinct angles in [0, 2pi)."""

    angles: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        self.angles = np.mod(np.asarray(self.angles, dtype=np.float64), TWO_PI)
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if self.angles.ndim != 1 or self.angles.shape != self.weights.shape:
            raise ValueError("angles and weights must be 1-D and congruent")
        if self.angles.size == 0:
            raise ValueError("empty measure")
        if not np.all(self.weights > 0):
            raise ValueError("weights must be positive")
        srt = np.sort(self.angles)
        gaps = np.diff(srt)
        if srt.size > 1 and (np.any(gaps < 1e-15)
                             or (TWO_PI - (srt[-1] - srt[0])) < 1e-15):
            raise ValueError("atom angles must be distinct mod 2pi")

    @property
    def total(self) -> float:
        return float(self.weights.sum())


@dataclass
class ConvexPolygon:
    """Positively oriented convex vertex loop (edge k runs from vertex k
    to vertex k+1, wrapping around)."""

    vertices: np.ndarray

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=np.float64)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 2:
            raise ValueError("vertices must be (k, 2)")
        if self.vertices.shape[0] < 3:
            raise ValueError("a polygon needs at least 3 vertices")
        e = np.roll(self.vertices, -1, axis=0) - self.vertices
        cross = e[:, 0] * np.roll(e, -1, axis=0)[:, 1] \
            - e[:, 1] * np.roll(e, -1, axis=0)[:, 0]
        if np.any(cross <= 0):
            raise ValueError("vertices must wind positively around a convex body")


def check_balance(mu: AngularMeasure) -> np.ndarray:
    """First moment sum(mu_i e(s_i)); zero (to 1e-12*total) iff balanced."""
    return np.array([
        float(np.sum(mu.weights * np.cos(mu.angles))),
        float(np.sum(mu.weights * np.sin(mu.angles))),
    ])


def is_balanced(mu: AngularMeasure) -> bool:
    return float(norms(check_balance(mu))) <= 1e-12 * mu.total


def dm_closed_formula(mu: AngularMeasure) -> float:
    """(1/8) sum over ordered atom pairs of mu_i mu_j sin|s_i - s_j|.

    The sine is literal (angles normalized to [0, 2pi) first, so the
    absolute difference lies in [0, 2pi) and the sine may be negative).
    """
    if not is_balanced(mu):
        raise ValueError(f"measure is unbalanced: residual {check_balance(mu)}")
    ds = np.abs(mu.angles[:, None] - mu.angles[None, :])
    ww = mu.weights[:, None] * mu.weights[None, :]
    return 0.125 * float(np.sum(ww * np.sin(ds)))


def polygon_from_measure(mu: AngularMeasure) -> ConvexPolygon:
    """Convex polygon with outward normals e(s_i) and edge lengths mu_i.

    Atoms are sorted by angle; atom i contributes the edge vector
    mu_i * (-sin s_i, cos s_i) (the normal rotated +90 degrees); balance
    makes the chain close.  The polygon is anchored with its area centroid
    at the origin.
    """
    if not is_balanced(mu):
        raise ValueError(f"measure is unbalanced: residual {check_balance(mu)}")
    if mu.angles.size < 3:
        raise ValueError("need at least 3 atoms for a nondegenerate body")
    span = np.ptp(np.mod(2.0 * mu.angles, TWO_PI))
    if span < 1e-12:
        # all normals collinear: a balanced measure on {s, s+pi} encloses nothing
        raise ValueError("atoms lie on one diameter: degenerate (flat) body")
    order = np.argsort(mu.angles, kind="stable")
    s = mu.angles[order]
    w = mu.weights[order]
    edges = w[:, None] * np.stack([-np.sin(s), np.cos(s)], axis=1)
    verts = np.cumsum(edges, axis=0)
    verts = np.vstack([[0.0, 0.0], verts[:-1]])
    x, y = verts[:, 0], verts[:, 1]
    xn, yn = np.roll(x, -1), np.roll(y, -1)
    cross = x * yn - xn * y
    area6 = 3.0 * float(np.sum(cross))
    cx = float(np.sum((x + xn) * cross)) / area6
    cy = float(np.sum((y + yn) * cross)) / area6
    return ConvexPolygon(verts - [cx, cy])


def enclosed_area(P: ConvexPolygon) -> float:
    """Shoelace area of the vertex loop."""
    v = P.vertices
    vn = np.roll(v, -1, axis=0)
    return 0.5 * float(np.sum(v[:, 0] * vn[:, 1] - vn[:, 0] * v[:, 1]))


def support_function(P: ConvexPolygon, phi: float) -> float:
    """h(phi) = max over vertices of <vertex, e(phi)>.

    Its one-sided derivative in phi jumps by the edge length exactly at
    each edge-normal angle (discrete h + h'' = mu).
    """
    e = np.array([np.cos(phi), np.sin(phi)])
    return float(np.max(dots(P.vertices, e)))


def dm_triple(V, W, Z) -> float:
    """Determinantal mass of three converging coplanar lines with
    direction-weighted vectors summing to zero: (1/4)|det(V, W)|."""
    V = np.asarray(V, dtype=np.float64)
    W = np.asarray(W, dtype=np.float64)
    Z = np.asarray(Z, dtype=np.float64)
    if V.shape != (2,) or W.shape != (2,) or Z.shape != (2,):
        raise ValueError("dm_triple takes three 2-D vectors")
    scale = float(norms(np.stack((V, W, Z))).max())
    if scale == 0.0:
        raise ValueError("zero vectors")
    if norms(V + W + Z) > 1e-12 * scale:
        raise ValueError(f"triple is unbalanced: V+W+Z = {V + W + Z}")
    return 0.25 * abs(float(V[0] * W[1] - V[1] * W[0]))


def dm_direct_sum(dm_minus: float, p: int, dm_plus: float, q: int):
    """Determinantal mass of a direct sum from its factors' masses.

    The factors live in dimensions p and q (both >= 2), d = p + q; the
    combined potential is a_- * theta_-(x_-) + a_+ * theta_+(x_+) with

        dm   = dm_-^((p-1)/(d-1)) * dm_+^((q-1)/(d-1))
        a_-  = dm_-^(-q/(d-1))    * dm_+^((q-1)/(d-1))
        a_+  = dm_-^((p-1)/(d-1)) * dm_+^(-p/(d-1))

    Returns (dm, a_minus, a_plus).
    """
    if not (dm_minus > 0 and dm_plus > 0):
        raise ValueError("factor masses must be positive")
    if p < 2 or q < 2:
        raise ValueError("degenerate factor: p and q must be >= 2")
    d1 = float(p + q - 1)
    dm = dm_minus ** ((p - 1) / d1) * dm_plus ** ((q - 1) / d1)
    a_minus = dm_minus ** (-q / d1) * dm_plus ** ((q - 1) / d1)
    a_plus = dm_minus ** ((p - 1) / d1) * dm_plus ** (-p / d1)
    return dm, a_minus, a_plus


def dm_cross(d: int, c: float) -> float:
    """Mass of the axis-aligned cross with weight c per direction.

    The body with unit facet area per axis direction is the unit cube
    (volume 1); weight homogeneity of degree d/(d-1) gives c^(d/(d-1)).
    At d=2 this matches the polygon oracle on the 4-atom axis measure.
    """
    if not (isinstance(d, (int, np.integer)) and d >= 2):
        raise ValueError("d must be an integer >= 2")
    if not c > 0:
        raise ValueError("weight must be positive")
    return float(c) ** (d / (d - 1.0))


def dm_kink(V, V2, b: float, n: int | None = None,
            convention: str = "paper") -> float:
    """Determinantal mass at an augmented kink vertex.

    V, V2 are the lifted pre/post velocities in R^(1+n); the vertex joins
    their 2-plane (triangle factor, area proportional to |V ^ V2|) with
    the n-1 augmentation directions of weight b (hypercube factor).  The
    product body with matched facet areas has volume

        (kappa |V ^ V2|)^(1/n) * b^((n-1)/n)

    kappa = 1/4 under convention="paper" (the three-line normalization),
    kappa = 1/2 under convention="area" (the enclosed-area oracle).
    """
    V = np.asarray(V, dtype=np.float64)
    V2 = np.asarray(V2, dtype=np.float64)
    if V.shape != V2.shape or V.ndim != 1 or V.size < 3:
        raise ValueError("V and V2 must be equal-length vectors in R^(1+n), n >= 2")
    if n is None:
        n = V.size - 1
    elif n != V.size - 1:
        raise ValueError(f"n={n} inconsistent with vectors in R^{V.size}")
    if n < 2:
        raise ValueError("kink mass needs n >= 2")
    if not b > 0:
        raise ValueError("segment weight b must be positive")
    if convention == "paper":
        kappa = 0.25
    elif convention == "area":
        kappa = 0.5
    else:
        raise ValueError(f"unknown convention {convention!r}")
    # one pass over the two vectors in Python floats, with the bits of
    # kernel.wedge_norms and kernel.norms: the 2x2 minors squared and added
    # in (a, b) order, and the squares of each vector in index order
    x, y = V.tolist(), V2.tolist()
    total = xx = yy = 0.0
    for a in range(n + 1):
        xx += x[a] * x[a]
        yy += y[a] * y[a]
        for c in range(a + 1, n + 1):
            minor = x[a] * y[c] - x[c] * y[a]
            total += minor * minor
    wedge = math.sqrt(total)
    scale = math.sqrt(xx) * math.sqrt(yy)
    if wedge <= 1e-14 * scale:
        raise ValueError("V and V2 are parallel: degenerate kink")
    return (kappa * wedge) ** (1.0 / n) * b ** ((n - 1.0) / n)


# -- CLI-facing helpers ------------------------------------------------------


def measure_from_dict(doc: dict) -> AngularMeasure:
    """Parse {"atoms": [{"angle": s, "weight": mu}, ...]}."""
    atoms = read_list(doc.get("atoms"), "atoms", read_object)
    if not atoms:
        raise ValueError('measure JSON needs a nonempty "atoms" list')
    return AngularMeasure(
        angles=np.array([read_number(atom["angle"], f"atoms[{k}].angle")
                         for k, atom in enumerate(atoms)]),
        weights=np.array([read_number(atom["weight"], f"atoms[{k}].weight")
                          for k, atom in enumerate(atoms)]),
    )


def measure_report(mu: AngularMeasure) -> dict:
    """Everything the detmass CLI emits: balance, both normalizations,
    and their measured ratio."""
    balanced = is_balanced(mu)
    out = {"balanced": balanced, "dm_closed": None, "area": None, "ratio": None}
    if balanced:
        out["dm_closed"] = dm_closed_formula(mu)
        try:
            out["area"] = enclosed_area(polygon_from_measure(mu))
        except ValueError:
            pass  # degenerate body: closed formula only
        if out["area"] is not None and out["dm_closed"]:
            out["ratio"] = out["area"] / out["dm_closed"]
    return out
