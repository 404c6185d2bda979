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

from dataclasses import dataclass, replace

import numpy as np

from ._columns import Columns, Rows
from .kernel import dots, norms, running_sum, squared_norms
from .ledger import bulk_invariants

__all__ = [
    "KinkSite",
    "EdgeBlock",
    "KinkBlock",
    "GraphTensor",
    "VertexBlock",
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
class KinkSite:
    """One participant's velocity jump v -> v_post at vertex (t*, y), id vertex_id."""

    vertex: np.ndarray
    v: np.ndarray
    v_post: np.ndarray
    vertex_id: int


@dataclass(eq=False)
class EdgeBlock(Columns):
    """Weighted segments in spacetime, one row per edge: x_start, x_end and
    direction (M, 1+n), weight (M,), kind (M,) str (trajectory, colliton
    or augmentation), start and end (M,) int64.

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
    weight: np.ndarray
    kind: np.ndarray
    start: np.ndarray
    end: np.ndarray
    direction: np.ndarray


@dataclass(eq=False)
class KinkBlock(Rows):
    """Kink sites packed in columns, read as a sequence of KinkSite: vertex
    (K, 1+n), v and v_post (K, n), vertex_id (K,) int64."""

    record = KinkSite
    vertex: np.ndarray
    v: np.ndarray
    v_post: np.ndarray
    vertex_id: np.ndarray


@dataclass
class GraphTensor:
    """A graph tensor: its edges and kink sites, the window, the dimension
    n of space (the tensor lives in R^(1+n)) and the vertex count."""

    edges: EdgeBlock
    window: tuple
    n: int
    vertices: int                      # edge endpoint ids run over range(vertices)
    kinks: KinkBlock
    mass_energy: float | None = None   # M + E of the underlying log
    div_mass: float = 0.0              # added by augmentation, 0 for plain tensors


@dataclass(eq=False)
class VertexBlock(Columns):
    """Vertices with their divergence atoms, one row per vertex id: x and
    m (V, 1+n), weight_scale (V,) (the sum of incident edge weights),
    degree (V,) int64 and category (V,) str (interior, boundary or
    augment_tip)."""

    x: np.ndarray
    m: np.ndarray
    weight_scale: np.ndarray
    degree: np.ndarray
    category: np.ndarray


@dataclass
class SliceTrace:
    """Crossings of a constant-time slice, one row per crossing edge in
    edge order: points (C, 1+n) where each edge meets the slice, vectors
    (C, 1+n) what it deposits there.

    Each trajectory edge crossing deposits a_J eta_J = V = (1, v): its time
    component is the particle's unit mass, its spatial part the momentum.
    total sums the vector norms sqrt(1+|v|^2) (bounded by M+E); mass sums
    the time components (= particle count, constant across slices).
    """

    points: np.ndarray
    vectors: np.ndarray
    total: float
    mass: float


def _time_tol(*times) -> float:
    return 1e-12 * max(1.0, *(abs(t) for t in times))


def build_tensor(log, window) -> GraphTensor:
    """Graph tensor of a log restricted to a finite time window.

    Trajectories are ballistic outside the logged range, so windows may
    extend past the last event (or before 0).  Window boundaries must not
    hit a collision time.

    Edges come in order: each particle's trajectory segments in the order
    of initial (its chain of breakpoints: the initial state, then its
    collisions in event order), then one colliton per collision in the
    window.  Vertex ids are numbered in order of first endpoint occurrence
    (edge by edge, start before end, then the kinks).  A kink is one
    vertex per (event, particle), or per event when a == 0; each
    window-boundary endpoint (one per particle and boundary) is a vertex
    of its own.
    """
    t_lo, t_hi = float(window[0]), float(window[1])
    if not -np.inf < t_lo < t_hi < np.inf:
        raise ValueError(f"empty or unbounded window ({t_lo}, {t_hi})")
    b = log.events
    hits = (np.minimum(np.abs(b.t - t_lo), np.abs(b.t - t_hi))
            <= 1e-12 * np.maximum(max(1.0, abs(t_lo), abs(t_hi)), np.abs(b.t)))
    if hits.any():
        t = float(b.t[np.argmax(hits)])
        raise ValueError(f"window boundary hits collision at t={t!r}")

    (N, n), K = log.initial.position.shape, 2 * len(b)
    # kink k = 2e + (0 for i, 1 for j) is participant k of event e; its
    # vertex key is k, or e when a == 0 (the two centers coincide and the
    # four lines meet at one point).  Boundary keys follow: K + row at
    # t_lo, K + N + row at t_hi.
    def kink_key(k):
        return k if log.config.a > 0.0 else k // 2

    # breakpoint k's velocity holds on [t_k, t_{k+1}); each chain's first
    # segment extends backward, its last forward (EventLog.chains)
    c = log.chains()
    ts = np.where(c.kink < 0, -np.inf, c.t)
    te = np.where(c.last(), np.inf, np.append(c.t[1:], np.inf))
    lo, hi = np.maximum(ts, t_lo), np.minimum(te, t_hi)
    start = np.where(lo == ts, kink_key(c.kink), K + c.owner)
    end = np.where(hi == te, kink_key(np.append(c.kink[1:], -1)), K + N + c.owner)
    seg = np.flatnonzero(lo < hi)
    c, lo, hi, start, end = c[seg], lo[seg], hi[seg], start[seg], end[seg]
    x0 = np.column_stack((lo, c.y + (lo - c.t)[:, None] * c.v))
    x1 = np.column_stack((hi, c.y + (hi - c.t)[:, None] * c.v))
    V = np.column_stack((np.ones(len(seg)), c.v))
    w = norms(V)

    inside = np.flatnonzero((t_lo < b.t) & (b.t < t_hi))
    participants = np.stack((2 * inside, 2 * inside + 1), axis=1).reshape(-1)
    keys = np.concatenate((np.stack((start, end), axis=1).reshape(-1),
                           kink_key(participants)))
    unique, first_at, inverse = np.unique(keys, return_index=True,
                                          return_inverse=True)
    rank = np.empty(len(unique), dtype=np.int64)
    rank[np.argsort(first_at)] = np.arange(len(unique))
    vid = rank[inverse]

    S = len(seg)
    edges = EdgeBlock(x0, x1, w, np.full(S, "trajectory"), vid[0:2 * S:2],
                      vid[1:2 * S:2], V / w[:, None])
    t = b.t[inside]
    Y = b.y[inside]
    X = np.concatenate((np.broadcast_to(t[:, None, None], (len(t), 2, 1)), Y),
                       axis=2)  # (t, y_i) and (t, y_j)
    v, v_post = b.v[inside], b.v_post[inside]
    kink_ids = vid[2 * S:]
    if log.config.a > 0.0:
        U = np.column_stack((np.zeros(len(t)), Y[:, 1] - Y[:, 0]))
        edges = EdgeBlock.concat(edges, EdgeBlock(
            X[:, 0], X[:, 1], norms(v_post[:, 0] - v[:, 0]),
            np.full(len(t), "colliton"), kink_ids[0::2], kink_ids[1::2],
            U / norms(U)[:, None]))
    sites = KinkBlock(X.reshape(-1, 1 + n), v.reshape(-1, n),
                      v_post.reshape(-1, n), kink_ids)

    inv = bulk_invariants(log.initial.velocity)
    return GraphTensor(edges=edges, window=(t_lo, t_hi), n=n,
                       vertices=len(unique), kinks=sites,
                       mass_energy=inv.M + inv.E)


def vertex_balances(T: GraphTensor) -> VertexBlock:
    """Divergence atom m(x*) per vertex id, in id order (the order of first
    endpoint occurrence), each vertex at the coordinates of its first
    endpoint: each edge with an endpoint id at the vertex contributes its
    weight times its direction oriented toward the vertex (+a_J eta_J for
    an arriving edge, -a_J eta_J for a departing one).

    Interior vertices of a conservative tensor balance to zero; a free edge
    crossing the window reports m = -V at the lower boundary and m = +V at
    the upper one, so the time components of the boundary balances recover
    the slice mass.

    The ids come from construction (build_tensor, build_augmented), so no
    coordinates are compared.  Each sum adds its vertex's terms in endpoint
    order: edge by edge, start before end.
    """
    B = T.edges
    count = T.vertices
    raw = np.empty((2 * len(B), 1 + T.n))  # edge J: rows 2J, 2J+1
    raw[0::2] = B.x_start
    raw[1::2] = B.x_end
    vertex = np.stack((B.start, B.end), axis=1).reshape(-1)

    u = B.weight[:, None] * B.direction
    signed = np.empty_like(raw)
    signed[0::2] = -u  # a departing edge contributes -a_J eta_J
    signed[1::2] = u
    m = np.zeros((count, 1 + T.n))
    np.add.at(m, vertex, signed)
    scale = np.zeros(count)
    np.add.at(scale, vertex, np.repeat(B.weight, 2))
    degree = np.bincount(vertex, minlength=count)

    first = np.full(count, len(vertex))
    np.minimum.at(first, vertex, np.arange(len(vertex)))
    x = raw[first]
    t_lo, t_hi = T.window
    boundary = (np.minimum(np.abs(x[:, 0] - t_lo), np.abs(x[:, 0] - t_hi))
                <= _time_tol(t_lo, t_hi))
    augment = np.repeat(B.kind == "augmentation", 2)
    tip = (degree == 1) & (np.bincount(vertex[augment], minlength=count) == 1)
    category = np.where(boundary, "boundary",
                        np.where(tip, "augment_tip", "interior"))
    return VertexBlock(x, m, scale, degree, category)


def weak_divergence(T: GraphTensor, phi) -> np.ndarray:
    """Pairing of the divergence with a scalar test function:
    sum_J a_J (phi(x_end) - phi(x_start)) eta_J.

    Equal to sum_x* phi(x*) m(x*) over the balances of vertex_balances;
    vanishes when phi is supported away from unbalanced vertices (window
    boundaries, augmentation tips).
    """
    B = T.edges
    acc = np.zeros(1 + T.n)
    for x_start, x_end, weight, direction in zip(B.x_start, B.x_end,
                                                 B.weight.tolist(), B.direction):
        acc += weight * (phi(x_end) - phi(x_start)) * direction
    return acc


def _trajectories(T: GraphTensor) -> tuple:
    """Trajectory edges packed in edge order: (starts, ends, weights,
    crossing vectors a_J eta_J)."""
    B = T.edges
    traj = B.kind == "trajectory"
    weights = B.weight[traj]
    return (B.x_start[traj], B.x_end[traj], weights,
            weights[:, None] * B.direction[traj])


def _hit(t: float, kink_times: np.ndarray) -> float | None:
    """The first kink time k with |t - k| <= _time_tol(t, k), or None."""
    hits = np.abs(t - kink_times) <= 1e-12 * np.maximum(max(1.0, abs(t)),
                                                       np.abs(kink_times))
    return float(kink_times[np.argmax(hits)]) if hits.any() else None


def _slice(T: GraphTensor, trajectories: tuple, kink_times: np.ndarray,
           t: float) -> tuple:
    """(crossing mask, total, mass) of the slice at t, from trajectories
    packed by _trajectories; t and the total are checked as slice_trace
    documents."""
    t_lo, t_hi = T.window
    if not t_lo < t < t_hi:
        raise ValueError(f"slice time {t} outside window ({t_lo}, {t_hi})")
    k = _hit(t, kink_times)
    if k is not None:
        raise ValueError(f"slice time {t} hits a collision at {k!r}")
    starts, ends, weights, vecs = trajectories
    rows = (starts[:, 0] < t) & (t < ends[:, 0])
    total = running_sum(weights[rows])
    if T.mass_energy is not None and total > T.mass_energy + 1e-12:
        raise ValueError(f"slice mass {total} exceeds M+E={T.mass_energy}")
    return rows, total, running_sum(vecs[rows, 0])


def slice_trace(T: GraphTensor, t: float) -> SliceTrace:
    """Trajectory-edge crossings of the hyperplane {time = t}.

    t must lie strictly inside the window, away from collision times.
    The sum of crossing-vector norms is checked against M + E.
    """
    trajectories = _trajectories(T)
    rows, total, mass = _slice(T, trajectories, T.kinks.vertex[:, 0], t)
    starts, ends, _, vecs = trajectories
    ts, te = starts[rows, 0], ends[rows, 0]
    points = starts[rows] + ((t - ts) / (te - ts))[:, None] * (ends[rows] - starts[rows])
    return SliceTrace(points=points, vectors=vecs[rows], total=total, mass=mass)


_BLOCK = 1 << 13  # kink x edge pairs per augmentation pass: small temporaries


def complement_basis(V, V2) -> np.ndarray:
    """Deterministic orthonormal basis of Span(V, V2)^perp in R^(1+n) for
    each row of V with the same row of V2, both (K, 1+n): the bases as a
    (K, n-1, 1+n) array.

    Coordinate axes are orthogonalized against Span(V, V2), then taken in
    decreasing residual-norm order (stable) and orthonormalized against
    each other until n-1 directions are found.  Gram-Schmidt runs for all
    K kinks at once, in O(K (1+n)^2 n) work with no loop over kinks, and
    every kink gets the bits of a loop over its own rows.  The candidate
    axes go in np.argsort order (stable) of their residual norms; each
    kink counts the directions it has found, orthogonalizes a candidate
    against those only, skips it when its norm is <= 1e-10 and takes no
    more once it has n-1, as a loop over one kink's candidates does.  The
    first failing kink in row order names the error.
    """
    V = np.asarray(V, dtype=np.float64)
    V2 = np.asarray(V2, dtype=np.float64)
    K, d = V.shape
    n = d - 1
    u1 = V / norms(V)[:, None]
    r = V2 - dots(V2, u1)[:, None] * u1
    nr = norms(r)
    parallel = nr <= 1e-14 * norms(V2)
    u2 = np.divide(r, nr[:, None], out=np.zeros_like(r), where=~parallel[:, None])
    resid = np.broadcast_to(np.eye(d), (K, d, d)).copy()
    for u in (u1[:, None], u2[:, None]):
        resid -= dots(resid, u)[..., None] * u
    order = np.argsort(-norms(resid), axis=1, kind="stable")
    basis = np.zeros((K, n - 1, d))
    found = np.zeros(K, dtype=np.int64)
    rows = np.arange(K)
    for slot in range(d):
        wanting = found < n - 1
        if not wanting.any():
            break
        w = resid[rows, order[:, slot]]
        for j in range(n - 1):
            z = basis[:, j]
            np.subtract(w, dots(w, z)[:, None] * z, out=w,
                        where=(found > j)[:, None])
        nw = norms(w)
        take = wanting & (nw > 1e-10)
        basis[rows[take], found[take]] = w[take] / nw[take, None]
        found += take
    failed = parallel | (found != n - 1)
    if failed.any():
        if parallel[np.argmax(failed)]:
            raise ValueError("V and V2 are parallel: no 2-plane to complement")
        raise ValueError("failed to complete orthonormal complement")
    return basis


def _distances(x: np.ndarray, A: np.ndarray, D: np.ndarray,
               L2: np.ndarray) -> np.ndarray:
    """Distance from each row of x to the segment A + [0, 1] D in the same
    row (L2 its squared length), as the scalar point-to-segment distance
    (clamped projection) gives it, with the same operations."""
    s = np.clip(np.divide(dots(x - A, D), L2, out=np.zeros(len(L2)),
                          where=L2 > 0.0), 0.0, 1.0)
    return norms(x - (A + s[:, None] * D))


def _box_gaps(lo: np.ndarray, hi: np.ndarray, x: np.ndarray) -> np.ndarray:
    """(rows, M) squared gaps between each row of x and each box
    [lo[:, m], hi[:, m]] (lo and hi (1+n, M) columns), one coordinate at a
    time; 0 inside a box.  Each is within a few ulps of the exact squared
    distance to the box, which no point of the box's segment is nearer."""
    gap = np.zeros((len(x), lo.shape[1]))
    for c in range(lo.shape[0]):
        xc = x[:, c, None]
        g = np.maximum(lo[c] - xc, xc - hi[c])
        np.maximum(g, 0.0, out=g)
        gap += np.multiply(g, g, out=g)
    return gap


def _default_eps(T: GraphTensor, sites: KinkBlock) -> np.ndarray:
    """0.49 x clearance: nearest edge away from the kink, window walls.

    The support is every edge without an endpoint equal to the kink.  The
    other kink sites add no term: each is an exact endpoint of an edge that
    does not meet the kink (its particle's next trajectory edge starts
    there, its event's colliton ends there), and the clamped projection
    onto that edge is the site itself or nearer.

    Sweep and prune on one sorted axis (Cohen, Lin, Manocha & Ponamgi
    1995, I-COLLIDE): the coordinate along which the kinks spread widest.
    The edges are sorted by the low end of their extent on that axis, and
    the kinks are visited in their order on it, in blocks of at most
    _BLOCK kink x candidate pairs (or one kink).  A block's candidates are
    the edges whose extent on the axis comes within R of the block's span:
    R is +inf for the first block, then 1.25 times the largest clearance
    found so far.  Each block takes two stages:

    * the squared gap between the kink and each candidate's bounding box
      (_box_gaps), +inf for incident edges: a lower bound on the distance.
      The exact distance to the candidate of least gap, or the walls where
      nearer, bounds the clearance from above;
    * the exact distances (_distances), on flat gathered rows, of the
      pairs whose gap is within that bound or R, the bound widened by 1e-9
      of it and by a few ulps of the largest coordinate (slack) to cover
      the rounding of both.

    An edge that is not a candidate is farther than R + slack on the axis
    alone, and a block whose candidates are every edge takes R = +inf.  So
    a block whose widened clearances are all within R has kept
    every pair that the bound over all edges keeps; any other block is
    redone with R doubled.  A pruned pair is farther than the bound, so
    each clearance is the minimum over every kink x edge pair, to the bit.
    A kink's clearance is Python's min over its window walls and nearest
    edge, in that order; the first kink in index order without room raises
    ValueError.
    """
    t_lo, t_hi = T.window
    X = sites.vertex
    K, M = len(X), len(T.edges)
    c = int(np.argmax(np.ptp(X, axis=0))) if K else 0
    low = np.minimum(T.edges.x_start, T.edges.x_end)
    by_low = np.argsort(low[:, c], kind="stable")
    A, B = T.edges.x_start[by_low], T.edges.x_end[by_low]
    D = B - A
    L2 = squared_norms(D)
    lo = np.ascontiguousarray(low[by_low].T)
    hi = np.ascontiguousarray(np.maximum(A, B).T)
    # a computed distance may fall short of the box gap by a few ulps of
    # the largest coordinate: an end point comes back as A + (B - A)
    slack = 4 * len(lo) * np.finfo(float).eps * max(
        np.abs(X).max(initial=0.0), np.abs(lo).max(initial=0.0),
        np.abs(hi).max(initial=0.0))
    walls = X[:, 0] - t_lo
    far = t_hi - X[:, 0]
    walls = np.where(far < walls, far, walls)  # min(...) keeps the first

    def clearances(k, cand, R):
        """Clearances of kinks k against the sorted edges cand, as above.
        take and flat indices are numpy's fast gathers."""
        x = X.take(k, axis=0)
        gap = _box_gaps(lo.take(cand, axis=1), hi.take(cand, axis=1), x)
        flat_gap = gap.reshape(-1)

        def pairs(flat):
            """Rows of k, their kinks and the sorted edges, of flat
            indices into gap."""
            r, m = np.divmod(flat, max(1, len(cand)))
            return r, x.take(r, axis=0), cand[m]

        def exact(x, e):
            return _distances(x, A.take(e, axis=0), D.take(e, axis=0), L2[e])

        # an incident edge has x in its box: only zero gaps need the test
        zero = np.flatnonzero(flat_gap == 0.0)
        _, xr, e = pairs(zero)
        touch = ((A.take(e, axis=0) == xr).all(axis=1)
                 | (B.take(e, axis=0) == xr).all(axis=1))
        flat_gap[zero[touch]] = np.inf
        near = np.full(len(x), np.inf)
        if len(cand):
            least = np.arange(len(x)) * len(cand) + gap.argmin(axis=1)
            r, xr, e = pairs(least[np.isfinite(flat_gap[least])])
            near[r] = exact(xr, e)
        w = walls[k]
        reach = np.minimum(np.where(near < w, near, w) * (1.0 + 1e-9) + slack, R)
        r, xr, e = pairs(np.flatnonzero(gap <= (reach * reach)[:, None]))
        np.minimum.at(near, r, exact(xr, e))
        return np.where(near < w, near, w)

    order = np.argsort(X[:, c], kind="stable")
    xs = X[order, c]
    best = np.empty(K)
    R, most, width, k0 = np.inf, 0.0, M, 0
    while k0 < K:
        rows = max(1, _BLOCK // max(1, width))
        while True:
            k1 = min(K, k0 + rows)
            top = np.searchsorted(lo[c], xs[k1 - 1] + (R + slack), side="right")
            cand = np.flatnonzero(hi[c, :top] >= xs[k0] - (R + slack))
            width = len(cand)
            if k1 - k0 > 1 and (k1 - k0) * width > _BLOCK:
                rows = max(1, _BLOCK // width)
                continue
            if width == M:  # nothing is pruned on the axis
                R = np.inf
            got = clearances(order[k0:k1], cand, R)
            if width == M or (got * (1.0 + 1e-9) + slack <= R).all():
                break
            R = 2.0 * R if R > 0.0 else np.inf
        best[order[k0:k1]] = got
        most = max(most, float(got.max()))
        R = 1.25 * most
        k0 = k1
    none = best <= 0.0
    if none.any():
        raise ValueError(f"no room for segments at kink {X[np.argmax(none)]}")
    return 0.49 * best


def build_augmented(T: GraphTensor, kinks: KinkBlock | None = None,
                    b=1.0) -> GraphTensor:
    """Add n-1 balanced segment pairs at each kink vertex of kinks (all of
    T.kinks by default, or a slice of them).

    Every segment contributes two half-edges (x*, x* +/- eps z_j) of weight
    b, with {z_j} an orthonormal basis of Span(V, V')^perp; the +/- pairing
    keeps the kink balanced while each far endpoint carries divergence b,
    for a total added divergence mass of exactly 2(n-1) * sum(b).  eps is
    0.49 times the kink's clearance (_default_eps), and the bases come from
    complement_basis.  Both are array passes over all kinks; the cost is
    the clearance scan: box gaps of the kink x edge pairs that the sweep
    on one axis keeps as candidates, in blocks of bounded size, and exact
    distances of the few pairs they keep.
    """
    if T.n < 2:
        raise ValueError("augmentation needs n >= 2 (empty complement on the line)")
    sites = T.kinks if kinks is None else kinks
    K = len(sites)
    if not K:
        return replace(T)
    bs = np.broadcast_to(np.asarray(b, dtype=np.float64), (K,))
    if not np.all(bs > 0):
        raise ValueError("segment weight b must be positive")
    eps = _default_eps(T, sites)

    # per site, per complement direction z: the half-edges toward +z and
    # -z, their tips numbered after the existing vertices
    ones = np.ones((K, 1))
    Z = complement_basis(np.concatenate((ones, sites.v), axis=1),
                         np.concatenate((ones, sites.v_post), axis=1))
    Z = np.stack((Z, -Z), axis=2).reshape(-1, 1 + T.n)
    per = 2 * (T.n - 1)
    x = np.repeat(sites.vertex, per, axis=0)
    tips = T.vertices + np.arange(len(Z))
    added = EdgeBlock(x, x + np.repeat(eps, per)[:, None] * Z,
                      np.repeat(bs, per), np.full(len(Z), "augmentation"),
                      np.repeat(sites.vertex_id, per), tips, Z)
    return replace(T, edges=EdgeBlock.concat(T.edges, added),
                   vertices=T.vertices + len(Z),
                   div_mass=T.div_mass + 2.0 * (T.n - 1) * running_sum(bs))


_SLICES = 10  # audit_tensor's slice times


def audit_tensor(T: GraphTensor) -> dict:
    """Summary audit: worst normalized interior balance, slice traces at
    _SLICES deterministic times (both the conserved mass row and the total
    crossing weight), and the recorded divergence mass.

    Array passes compute the same document, bit for bit, as loops over the
    vertices of vertex_balances and over slice_trace at each time would.
    Balances are summed in the order vertex_balances describes; each
    slice's mass and total add the crossing edges in edge order with a
    running sum (np.cumsum), all slices from one selection of the
    trajectory edges, through _slice (slice_trace without its crossings).
    """
    # max |m| / weight_scale over interior vertices with weight; NaN
    # ratios are skipped as max(worst, ratio) in a loop from 0.0 skips them
    V = vertex_balances(T)
    rows = (V.category == "interior") & (V.weight_scale > 0)
    worst = float(np.fmax.reduce(norms(V.m[rows]) / V.weight_scale[rows],
                                 initial=0.0))
    t_lo, t_hi = T.window
    all_kink_times = T.kinks.vertex[:, 0]
    kink_times = np.unique(all_kink_times)
    bounds = np.concatenate(([t_lo], kink_times, [t_hi]))
    mids = 0.5 * (bounds[:-1] + bounds[1:])  # of the gaps between kinks
    trajectories = _trajectories(T)
    traces = []
    totals = []
    for k in range(_SLICES):
        t = t_lo + (k + 0.5) * (t_hi - t_lo) / _SLICES
        if _hit(t, kink_times) is not None:
            # off the collision time, to the midpoint of the gap around t,
            # or, if that still hits a kink, of the nearest gap whose
            # midpoint clears every kink
            around = int(np.searchsorted(kink_times, t))
            nearest = np.argsort(np.abs(mids - t), kind="stable").tolist()
            t = next((float(mids[g]) for g in [around] + nearest
                      if _hit(mids[g], kink_times) is None), float(mids[around]))
        _, total, mass = _slice(T, trajectories, all_kink_times, t)
        traces.append(mass)
        totals.append(total)
    return {
        "max_interior_balance": worst,
        "trace_masses": traces,
        "trace_totals": totals,
        "div_mass": T.div_mass,
    }
