"""Spacetime mass-momentum graph tensors.

An event log becomes a weighted graph in R^(1+n) (time is coordinate 0):

* trajectory edges between consecutive kinks of one particle, weight
  |V| = sqrt(1+|v|^2) along the lifted velocity V = (1, v);
* one "colliton" per collision -- a constant-time edge joining the two
  centers (spatial length 2a), weight |v'-v|, carrying the exchanged
  momentum so the graph is divergence-free at every interior vertex;
* optionally, augmentation segments at kink vertices (build_augmented):
  n-1 balanced +/- half-edge pairs spanning the orthogonal complement of
  Span(V, V'), which add a known total divergence mass 2(n-1)*sum(b).

The divergence atom at a vertex is m(x*) = sum of a_J eta_J over incident
edges with eta_J oriented away from x*; interior vertices of a valid
tensor balance to roundoff.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field, replace

import numpy as np

from .kernel import lift
from .ledger import bulk_invariants

__all__ = [
    "TensorEdge",
    "KinkSite",
    "GraphTensor",
    "VertexBalance",
    "SliceTrace",
    "build_tensor",
    "vertex_balances",
    "weak_divergence",
    "slice_trace",
    "build_augmented",
    "complement_basis",
    "audit_tensor",
]


@dataclass
class TensorEdge:
    """Weighted segment in spacetime; kind: trajectory | colliton | augmentation.

    start and end are the vertex ids of the endpoints, assigned where the
    edge is built: endpoints that meet at one vertex share its id even when
    their float coordinates differ by rounding.

    direction is stored rather than recomputed from the endpoints: a short
    segment far from the origin loses ~eps*|x|/|x_end - x_start| relative
    accuracy to cancellation, which is exactly the quantity the balance
    audits need at full precision.
    """

    x_start: np.ndarray
    x_end: np.ndarray
    weight: float
    kind: str
    start: int
    end: int
    direction: np.ndarray


@dataclass
class KinkSite:
    """One participant's velocity jump v -> v_post at vertex (t*, y), id vertex_id."""

    vertex: np.ndarray
    v: np.ndarray
    v_post: np.ndarray
    vertex_id: int


@dataclass
class GraphTensor:
    edges: list
    window: tuple
    n: int
    vertices: int                      # edge endpoint ids run over range(vertices)
    kinks: list = field(default_factory=list)
    mass_energy: float | None = None   # M + E of the underlying log
    div_mass: float = 0.0              # added by augmentation, 0 for plain tensors


@dataclass
class VertexBalance:
    x: np.ndarray
    m: np.ndarray
    weight_scale: float       # sum of incident edge weights
    degree: int
    category: str             # interior | boundary | augment_tip


@dataclass
class SliceTrace:
    """Crossing vectors of a constant-time slice.

    Each trajectory edge crossing deposits a_J eta_J = V = (1, v): its time
    component is the particle's unit mass, its spatial part the momentum.
    total sums the vector norms sqrt(1+|v|^2) (bounded by M+E); mass sums
    the time components (= particle count, constant across slices).
    """

    crossings: list            # (point, vector) pairs
    total: float
    mass: float


def _time_tol(*times) -> float:
    return 1e-12 * max(1.0, *(abs(t) for t in times))


def build_tensor(log, window) -> GraphTensor:
    """Graph tensor of a log restricted to a time window.

    Trajectories are ballistic outside the logged range, so windows may
    extend past the last event (or before 0).  Window boundaries must not
    hit a collision time.

    Vertex ids are numbered in order of first endpoint occurrence (edge by
    edge, start before end).  A kink is one vertex per (event, particle),
    or per event when a == 0; each window-boundary endpoint (one per
    particle and boundary) is a vertex of its own.
    """
    t_lo, t_hi = float(window[0]), float(window[1])
    if not t_lo < t_hi:
        raise ValueError(f"empty window ({t_lo}, {t_hi})")
    for ev in log.events:
        if min(abs(ev.t - t_lo), abs(ev.t - t_hi)) <= _time_tol(ev.t, t_lo, t_hi):
            raise ValueError(f"window boundary hits collision at t={ev.t!r}")

    a = log.config.a
    ids: dict = {}  # vertex key -> id, numbered by first endpoint occurrence

    def vertex(key) -> int:
        return ids.setdefault(key, len(ids))

    def kink(e: int, particle: int):
        # a == 0: the two centers coincide, the four lines meet at one point
        return e if a == 0.0 else (e, particle)

    # per-particle breakpoints (t_k, y_k, v_k, event k): velocity v_k holds
    # on [t_k, t_{k+1})
    breaks = {s.id: [(0.0, s.position, s.velocity, None)] for s in log.initial}
    for e, ev in enumerate(log.events):
        breaks[ev.i].append((ev.t, ev.yi, ev.vi_post, e))
        breaks[ev.j].append((ev.t, ev.yj, ev.vj_post, e))

    edges = []
    for s in log.initial:
        chain = breaks[s.id]
        for k, (tk, yk, vk, ek) in enumerate(chain):
            te = chain[k + 1][0] if k + 1 < len(chain) else np.inf
            ts = tk if k > 0 else -np.inf  # first segment extends backward
            lo = max(ts, t_lo)
            hi = min(te, t_hi)
            if not lo < hi:
                continue
            x0 = np.concatenate(([lo], yk + (lo - tk) * vk))
            x1 = np.concatenate(([hi], yk + (hi - tk) * vk))
            V = np.concatenate(([1.0], vk))
            w = float(np.linalg.norm(V))
            start = vertex(kink(ek, s.id) if lo == ts else ("lo", s.id))
            end = vertex(kink(chain[k + 1][3], s.id) if hi == te else ("hi", s.id))
            edges.append(TensorEdge(x0, x1, w, "trajectory", start, end, V / w))

    kinks = []
    for e, ev in enumerate(log.events):
        if not t_lo < ev.t < t_hi:
            continue
        dv = float(np.linalg.norm(ev.vi_post - ev.vi))
        ki, kj = vertex(kink(e, ev.i)), vertex(kink(e, ev.j))
        if a > 0.0:
            u = np.concatenate(([0.0], ev.yj - ev.yi))
            edges.append(TensorEdge(
                np.concatenate(([ev.t], ev.yi)),
                np.concatenate(([ev.t], ev.yj)),
                dv, "colliton", ki, kj, u / np.linalg.norm(u)))
        kinks.append(KinkSite(np.concatenate(([ev.t], ev.yi)), ev.vi, ev.vi_post, ki))
        kinks.append(KinkSite(np.concatenate(([ev.t], ev.yj)), ev.vj, ev.vj_post, kj))

    inv = bulk_invariants(log.initial)
    return GraphTensor(edges=edges, window=(t_lo, t_hi), n=log.config.n,
                       vertices=len(ids), kinks=kinks, mass_energy=inv.M + inv.E)


def _vertices(T: GraphTensor) -> tuple:
    """Vertices of T with their divergence atoms, one array row per vertex
    id, each at the coordinates of its first endpoint.

    The ids come from construction (build_tensor, build_augmented), so no
    coordinates are compared.  Each sum adds its vertex's terms in endpoint
    order: edge by edge, start before end.

    Returns (x, m, weight_scale, degree, category).
    """
    count = T.vertices
    raw = np.empty((2 * len(T.edges), 1 + T.n))  # edge J: rows 2J, 2J+1
    raw[0::2] = [e.x_start for e in T.edges]
    raw[1::2] = [e.x_end for e in T.edges]
    vertex = np.array([(e.start, e.end) for e in T.edges],
                      dtype=np.intp).reshape(-1)

    weights = np.array([e.weight for e in T.edges])
    u = weights[:, None] * np.array([e.direction for e in T.edges])
    signed = np.empty_like(raw)
    signed[0::2] = -u  # a departing edge contributes -a_J eta_J
    signed[1::2] = u
    m = np.zeros((count, 1 + T.n))
    np.add.at(m, vertex, signed)
    scale = np.zeros(count)
    np.add.at(scale, vertex, np.repeat(weights, 2))
    degree = np.bincount(vertex, minlength=count)

    first = np.full(count, len(vertex))
    np.minimum.at(first, vertex, np.arange(len(vertex)))
    x = raw[first]
    t_lo, t_hi = T.window
    boundary = (np.minimum(np.abs(x[:, 0] - t_lo), np.abs(x[:, 0] - t_hi))
                <= _time_tol(t_lo, t_hi))
    augment = np.repeat([e.kind == "augmentation" for e in T.edges], 2)
    tip = (degree == 1) & (np.bincount(vertex[augment], minlength=count) == 1)
    category = np.where(boundary, "boundary",
                        np.where(tip, "augment_tip", "interior"))
    return x, m, scale, degree, category


def vertex_balances(T: GraphTensor) -> list:
    """Divergence atom m(x*) per vertex id, in id order (the order of first
    endpoint occurrence): each edge with an endpoint id at the vertex
    contributes its weight times its direction oriented toward the vertex
    (+a_J eta_J for an arriving edge, -a_J eta_J for a departing one).

    Interior vertices of a conservative tensor balance to zero; a free edge
    crossing the window reports m = -V at the lower boundary and m = +V at
    the upper one, so the time components of the boundary balances recover
    the slice mass.
    """
    x, m, scale, degree, category = _vertices(T)
    return [VertexBalance(x=xv, m=mv, weight_scale=s, degree=d, category=c)
            for xv, mv, s, d, c in zip(x, m, scale.tolist(), degree.tolist(),
                                        category.tolist())]


def weak_divergence(T: GraphTensor, phi) -> np.ndarray:
    """Pairing of the divergence with a scalar test function:
    sum_J a_J (phi(x_end) - phi(x_start)) eta_J.

    Equal to sum_x* phi(x*) m(x*) over the balances of vertex_balances;
    vanishes when phi is supported away from unbalanced vertices (window
    boundaries, augmentation tips).
    """
    acc = np.zeros(1 + T.n)
    for e in T.edges:
        acc += e.weight * (phi(e.x_end) - phi(e.x_start)) * e.direction
    return acc


def _trajectories(T: GraphTensor) -> tuple:
    """Trajectory edges packed in edge order: (starts, ends, weights,
    crossing vectors a_J eta_J)."""
    traj = [e for e in T.edges if e.kind == "trajectory"]
    d = 1 + T.n
    starts = np.array([e.x_start for e in traj]).reshape(-1, d)
    ends = np.array([e.x_end for e in traj]).reshape(-1, d)
    weights = np.array([e.weight for e in traj])
    vecs = weights[:, None] * np.array([e.direction for e in traj]).reshape(-1, d)
    return starts, ends, weights, vecs


def _running_sum(values: np.ndarray) -> float:
    """Sum of positive terms added left to right, as a loop adds them
    (np.sum adds pairwise, cumsum sequentially)."""
    return float(np.cumsum(values)[-1]) if len(values) else 0.0


def _slice(T: GraphTensor, trajectories: tuple, kink_times: np.ndarray,
           t: float) -> tuple:
    """(crossing mask, total, mass) of the slice at t, from trajectories
    packed by _trajectories; t and the total are checked as slice_trace
    documents."""
    t_lo, t_hi = T.window
    if not t_lo < t < t_hi:
        raise ValueError(f"slice time {t} outside window ({t_lo}, {t_hi})")
    # _time_tol(t, k) for every kink time k at once
    hits = np.abs(t - kink_times) <= 1e-12 * np.maximum(max(1.0, abs(t)),
                                                       np.abs(kink_times))
    if hits.any():
        k = T.kinks[int(np.argmax(hits))]
        raise ValueError(f"slice time {t} hits a collision at {k.vertex[0]!r}")
    starts, ends, weights, vecs = trajectories
    rows = (starts[:, 0] < t) & (t < ends[:, 0])
    total = _running_sum(weights[rows])
    if T.mass_energy is not None and total > T.mass_energy + 1e-12:
        raise AssertionError(
            f"slice mass {total} exceeds M+E={T.mass_energy}")
    return rows, total, _running_sum(vecs[rows, 0])


def slice_trace(T: GraphTensor, t: float) -> SliceTrace:
    """Trajectory-edge crossings of the hyperplane {time = t}.

    t must lie strictly inside the window, away from collision times.
    The sum of crossing-vector norms is checked against M + E.
    """
    trajectories = _trajectories(T)
    rows, total, mass = _slice(T, trajectories,
                               np.array([k.vertex[0] for k in T.kinks]), t)
    starts, ends, _, vecs = trajectories
    ts, te = starts[rows, 0], ends[rows, 0]
    points = starts[rows] + ((t - ts) / (te - ts))[:, None] * (ends[rows] - starts[rows])
    return SliceTrace(crossings=list(zip(points, vecs[rows])), total=total,
                      mass=mass)


def complement_basis(V, V2, n: int) -> np.ndarray:
    """Deterministic orthonormal basis of Span(V, V2)^perp in R^(1+n).

    Coordinate axes are orthogonalized against Span(V, V2), then taken in
    decreasing residual-norm order (stable) and orthonormalized against
    each other until n-1 directions are found.
    """
    V = np.asarray(V, dtype=np.float64)
    V2 = np.asarray(V2, dtype=np.float64)
    u1 = V / np.linalg.norm(V)
    r = V2 - np.dot(V2, u1) * u1
    nr = np.linalg.norm(r)
    if nr <= 1e-14 * np.linalg.norm(V2):
        raise ValueError("V and V2 are parallel: no 2-plane to complement")
    u2 = r / nr
    d = 1 + n
    resid = np.eye(d)
    resid -= np.outer(resid @ u1, u1)
    resid -= np.outer(resid @ u2, u2)
    order = np.argsort(-np.linalg.norm(resid, axis=1), kind="stable")
    basis = []
    for idx in order:
        w = resid[idx].copy()
        for z in basis:
            w -= np.dot(w, z) * z
        nw = np.linalg.norm(w)
        if nw > 1e-10:
            basis.append(w / nw)
        if len(basis) == n - 1:
            break
    if len(basis) != n - 1:
        raise ValueError("failed to complete orthonormal complement")
    return np.array(basis)


def _point_segment_distance(p, a, b) -> float:
    d = b - a
    L2 = float(np.dot(d, d))
    if L2 == 0.0:
        return float(np.linalg.norm(p - a))
    s = float(np.dot(p - a, d)) / L2
    s = min(1.0, max(0.0, s))
    return float(np.linalg.norm(p - (a + s * d)))


def _default_eps(T: GraphTensor, sites) -> np.ndarray:
    """0.49 x clearance: nearest support away from the kink, window walls.

    The support is every other kink site (coincident ones excluded) and
    every edge without an endpoint equal to the kink.  For each kink, one
    numpy expression gives its distance to all of them.  Those distances
    may differ from the scalar np.linalg.norm / _point_segment_distance
    values in the last bits (BLAS dot products, another operation order:
    a few ulps of the coordinate scale).  So only the candidates within a
    relative 1e-9 of the row minimum, plus 1e-12 x the coordinate scale,
    are evaluated again with the scalar functions, and the clearance is the
    least of those exact values: the same bits as a loop over all of them.
    """
    t_lo, t_hi = T.window
    d = 1 + T.n
    X = np.array([s.vertex for s in sites]).reshape(-1, d)
    A = np.array([e.x_start for e in T.edges]).reshape(-1, d)
    B = np.array([e.x_end for e in T.edges]).reshape(-1, d)
    D = B - A
    L2 = np.einsum("ij,ij->i", D, D)
    slack = 1e-12 * max(1.0, float(np.max(np.abs(X), initial=0.0)),
                        float(np.max(np.abs(A), initial=0.0)),
                        float(np.max(np.abs(B), initial=0.0)))
    eps = np.empty(len(sites))
    for k, x in enumerate(X):
        best = min(x[0] - t_lo, t_hi - x[0])
        dx = X - x
        to_sites = np.sqrt(np.einsum("ij,ij->i", dx, dx))
        to_sites[to_sites == 0.0] = np.inf  # x itself and coincident sites
        P = x - A
        s = np.clip(np.divide(np.einsum("ij,ij->i", P, D), L2,
                              out=np.zeros(len(L2)), where=L2 > 0.0), 0.0, 1.0)
        Q = P - s[:, None] * D
        to_edges = np.sqrt(np.einsum("ij,ij->i", Q, Q))
        # edges incident to this kink meet it at distance 0, so only edges
        # within rounding (slack) of x need the exact incidence test
        near = np.flatnonzero(to_edges <= slack)
        incident = np.all(A[near] == x, axis=1) | np.all(B[near] == x, axis=1)
        to_edges[near[incident]] = np.inf
        lowest = min(to_sites.min(), to_edges.min(initial=np.inf))
        if lowest < np.inf:
            cut = lowest * (1.0 + 1e-9) + slack
            for j in np.flatnonzero(to_sites <= cut):
                dd = float(np.linalg.norm(sites[j].vertex - x))
                if dd > 0.0:
                    best = min(best, dd)
            for j in np.flatnonzero(to_edges <= cut):
                e = T.edges[j]
                best = min(best, _point_segment_distance(x, e.x_start, e.x_end))
        if best <= 0.0:
            raise ValueError(f"no room for segments at kink {x}")
        eps[k] = 0.49 * best
    return eps


def build_augmented(T: GraphTensor, kinks=None, b=1.0, eps_seg=None) -> GraphTensor:
    """Add n-1 balanced segment pairs at each kink vertex.

    Every segment contributes two half-edges (x*, x* +/- eps z_j) of weight
    b, with {z_j} an orthonormal basis of Span(V, V')^perp; the +/- pairing
    keeps the kink balanced while each far endpoint carries divergence b,
    for a total added divergence mass of exactly 2(n-1) * sum(b).
    """
    if T.n < 2:
        raise ValueError("augmentation needs n >= 2 (empty complement on the line)")
    sites = list(T.kinks) if kinks is None else list(kinks)
    if not sites:
        return replace(T, edges=list(T.edges), kinks=list(T.kinks))
    bs = np.broadcast_to(np.asarray(b, dtype=np.float64), (len(sites),))
    if not np.all(bs > 0):
        raise ValueError("segment weight b must be positive")
    if eps_seg is None:
        eps = _default_eps(T, sites)
    else:
        eps = np.broadcast_to(np.asarray(eps_seg, dtype=np.float64),
                              (len(sites),)).copy()
        limit = _default_eps(T, sites) / 0.49
        if np.any(eps <= 0) or np.any(eps >= limit):
            raise ValueError("eps_seg infeasible: segments would leave the "
                             "window or touch the tensor away from their kink")
        from scipy.spatial import cKDTree

        # only pairs closer than 2 max(eps) can overlap; the margin keeps
        # the tree's rounding of distances from dropping a boundary pair
        reach = 2.0 * float(eps.max()) * (1.0 + 1e-9)
        tree = cKDTree(np.array([s.vertex for s in sites]))
        for p, q in tree.query_pairs(reach, output_type="ndarray").tolist():
            gap = float(np.linalg.norm(sites[p].vertex - sites[q].vertex))
            if gap > 0.0 and eps[p] + eps[q] >= gap:
                raise ValueError("eps_seg infeasible: segment balls overlap")

    edges = list(T.edges)
    tip = T.vertices  # new tips are numbered after the existing vertices
    total_b = 0.0
    for s, bk, ek in zip(sites, bs, eps):
        Z = complement_basis(lift(s.v), lift(s.v_post), T.n)
        for z in Z:
            edges.append(TensorEdge(s.vertex.copy(), s.vertex + ek * z,
                                    float(bk), "augmentation", s.vertex_id,
                                    tip, z))
            edges.append(TensorEdge(s.vertex.copy(), s.vertex - ek * z,
                                    float(bk), "augmentation", s.vertex_id,
                                    tip + 1, -z))
            tip += 2
        total_b += float(bk)
    return replace(T, edges=edges, vertices=tip, kinks=list(T.kinks),
                   div_mass=T.div_mass + 2.0 * (T.n - 1) * total_b)


def _max_interior_balance(m, scale, category) -> float:
    """max |m| / weight_scale over interior vertices with weight.

    The norms come from one array expression, which may differ from
    np.linalg.norm in the last bits; the rows within a relative 1e-9 of the
    largest are evaluated again with np.linalg.norm, so the maximum is the
    same bits as a loop over every vertex.  Rows with m = 0 are exactly 0.
    """
    rows = np.flatnonzero((category == "interior") & (scale > 0))
    m, scale = m[rows], scale[rows]
    worst = 0.0
    if len(rows):
        approx = np.sqrt(np.einsum("ij,ij->i", m, m)) / scale
        top = (approx >= (1.0 - 1e-9) * approx.max()) & np.any(m != 0.0, axis=1)
        for i in np.flatnonzero(top):
            worst = max(worst, float(np.linalg.norm(m[i])) / float(scale[i]))
    return worst


def audit_tensor(T: GraphTensor, n_slices: int = 10) -> dict:
    """Summary audit: worst normalized interior balance, slice traces at
    n_slices deterministic times (both the conserved mass row and the total
    crossing weight), and the recorded divergence mass.

    Array passes compute the same document, bit for bit, as loops over the
    vertices of vertex_balances and over slice_trace at each time would.
    Balances are summed in the fixed member order described in _vertices;
    the worst balance is re-evaluated exactly on its few candidates (see
    _max_interior_balance); each slice's mass and total add the crossing
    edges in edge order with a running sum (np.cumsum), all slices from one
    packing of the trajectory edges.
    """
    _, m, scale, _, category = _vertices(T)
    worst = _max_interior_balance(m, scale, category)
    t_lo, t_hi = T.window
    kink_times = sorted({float(k.vertex[0]) for k in T.kinks})
    trajectories = _trajectories(T)
    all_kink_times = np.array([k.vertex[0] for k in T.kinks])
    traces = []
    totals = []
    for k in range(n_slices):
        t = t_lo + (k + 0.5) * (t_hi - t_lo) / n_slices
        if kink_times:
            # nudge off any collision time: midpoint of the surrounding gap
            pos = bisect.bisect_left(kink_times, t)
            near = min(
                (abs(t - kink_times[p]) for p in (pos - 1, pos)
                 if 0 <= p < len(kink_times)),
                default=np.inf,
            )
            if near <= _time_tol(t, t_lo, t_hi):
                left = kink_times[pos - 1] if pos > 0 else t_lo
                right = kink_times[pos] if pos < len(kink_times) else t_hi
                t = 0.5 * (left + right)
        _, total, mass = _slice(T, trajectories, all_kink_times, t)
        traces.append(mass)
        totals.append(total)
    return {
        "max_interior_balance": worst,
        "trace_masses": traces,
        "trace_totals": totals,
        "div_mass": T.div_mass,
    }
