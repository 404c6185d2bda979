"""Independent reference computations for the test suite.

Nothing here reuses the package's analytic shortcuts: contact times come
from dense sampling plus bisection, whole trajectories from a fixed-step
integrator or an eager all-pairs stepper, box volumes from a facet-area
linear system, the kink mass from an explicit product-body construction,
and the tensor audits from plain per-edge and per-vertex loops.  Agreement
between these and the package is the point of the tests that import them.

Norms and dot products add their products in index order, the package's
reduction rule, through inorder_dot, written out here without the
package's code.

The exceptions are bitwise oracles: HeapEngine, the engine's earlier
all-pairs scheduler, for the event calendar that replaced it;
overlap_report, the per-particle overlap check, for validate_configuration's
row blocks; place_spheres, one placement attempt at a time, for
gen_random_gas's candidate batches; and the per-event and per-kink loops at
the end of this file, for the array passes over the packed event log
(serialization, ledger, report, tensor construction and augmentation).
"""

import bisect
import csv
import heapq
import json
import math
from collections import namedtuple
from dataclasses import asdict

import numpy as np

from kinkbound import _jsonio
from kinkbound.kernel import contact_times_scan
from kinkbound.detmass import AngularMeasure, polygon_from_measure, enclosed_area
from kinkbound.dynamics import (CollisionEvent, ConfigurationError, EventBlock,
                                EventLog, GenericityViolation, SimulationBug,
                                ValidationReport, validate_configuration)
from kinkbound.harness import PackingError
from kinkbound.ledger import BoundReport, LEDGER_COLUMNS, bulk_invariants
from kinkbound.tensor import (EdgeBlock, GraphTensor, KinkBlock, KinkSite,
                              SliceTrace, _time_tol)


# -- blocks of per-record lists -------------------------------------------------
# the package's logs and tensors hold their records packed in columns; the
# loops below build lists of records and pack them here, or read a block's
# rows through edge_rows

TensorEdge = namedtuple("TensorEdge",
                        "x_start x_end weight kind start end direction")
KinkRecord = namedtuple("KinkRecord", "time particle partner v v_post dv_norm "
                        "wedge st_wedge")
HodographSummary = namedtuple("HodographSummary",
                              "particle ell area v0 v_plus scatter")
VertexBalance = namedtuple("VertexBalance",
                           "x m weight_scale degree category")


def inorder_dot(x, y):
    """Dot product of x and y over their last axis, the products added
    x0*y0 + x1*y1 + ... in that order."""
    prod = np.multiply(x, y, dtype=np.float64)
    total = prod[..., 0]
    for k in range(1, prod.shape[-1]):
        total = total + prod[..., k]
    return total


def inorder_norm(x):
    """Euclidean norm over the last axis, from inorder_dot."""
    return np.sqrt(inorder_dot(x, x))


def lift(v):
    """The lifted velocity (1, v)."""
    return np.concatenate(([1.0], np.asarray(v, dtype=np.float64)))


def event_block(events, n):
    """The EventBlock of a list of CollisionEvents in R^n."""
    def pairs(a, b):
        return np.array([(getattr(ev, a), getattr(ev, b)) for ev in events],
                        dtype=np.float64).reshape(len(events), 2, n)

    return EventBlock(np.array([ev.t for ev in events], dtype=np.float64),
                      np.array([ev.i for ev in events], dtype=np.int64),
                      np.array([ev.j for ev in events], dtype=np.int64),
                      pairs("yi", "yj"), pairs("vi", "vj"),
                      pairs("vi_post", "vj_post"))


def edge_block(edges, n):
    """The EdgeBlock of a list of TensorEdges in R^(1+n)."""
    def rows(name):
        return np.array([getattr(e, name) for e in edges],
                        dtype=np.float64).reshape(len(edges), 1 + n)

    return EdgeBlock(rows("x_start"), rows("x_end"),
                     np.array([e.weight for e in edges], dtype=np.float64),
                     np.array([e.kind for e in edges], dtype=str),
                     np.array([e.start for e in edges], dtype=np.int64),
                     np.array([e.end for e in edges], dtype=np.int64),
                     rows("direction"))


def edge_rows(B):
    """The TensorEdges of an EdgeBlock, in order."""
    return [TensorEdge(*row) for row in zip(
        B.x_start, B.x_end, B.weight.tolist(), B.kind.tolist(),
        B.start.tolist(), B.end.tolist(), B.direction)]


def kink_block(sites, n):
    """The KinkBlock of a list of KinkSites in R^(1+n)."""
    def rows(name, width):
        return np.array([getattr(site, name) for site in sites],
                        dtype=np.float64).reshape(len(sites), width)

    return KinkBlock(rows("vertex", 1 + n), rows("v", n), rows("v_post", n),
                     np.array([site.vertex_id for site in sites], dtype=np.int64))


def contact_time_scan(yi, vi, yj, vj, a, t_hi, samples=4096, iters=200):
    """First time in (0, t_hi] when the centers reach distance 2a.

    Dense grid to bracket the first sign change of |dy + t dv| - 2a,
    then plain bisection.  Returns None when the gap never closes on the
    scanned interval.  Deliberately knows nothing about quadratics.
    """
    dy = np.asarray(yj, dtype=np.float64) - np.asarray(yi, dtype=np.float64)
    dv = np.asarray(vj, dtype=np.float64) - np.asarray(vi, dtype=np.float64)

    def gap(t):
        return np.linalg.norm(dy + t * dv) - 2.0 * a

    ts = np.linspace(0.0, t_hi, samples)
    gaps = np.linalg.norm(dy[None, :] + ts[:, None] * dv[None, :], axis=1) - 2.0 * a
    sign_change = np.nonzero((gaps[:-1] > 0) & (gaps[1:] <= 0))[0]
    if sign_change.size == 0:
        return None
    lo, hi = ts[sign_change[0]], ts[sign_change[0] + 1]
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if gap(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class BruteForceIntegrator:
    """Fixed-timestep hard-sphere integrator (any dimension).

    March all particles freely in steps of dt, watch every pair's center
    distance, and when a step lands inside 2a bisect the crossing inside
    that step, advance exactly to the refined contact, and exchange the
    normal velocity components.  Block-vectorized over steps so the tiny
    dt demanded by the cross-validation is affordable.
    """

    def __init__(self, positions, velocities, a, dt, block=16384):
        self.pos = np.array(positions, dtype=np.float64)
        self.vel = np.array(velocities, dtype=np.float64)
        self.a = float(a)
        self.dt = float(dt)
        self.block = int(block)
        self.t = 0.0
        N = self.pos.shape[0]
        self.ii, self.jj = np.triu_indices(N, k=1)

    def _pair_gap(self, pos):
        d = pos[self.ii] - pos[self.jj]
        return np.sqrt(np.sum(d * d, axis=-1))

    def _refine(self, pair, t_lo, t_hi, iters=120):
        # bisect |gap| = 2a on [t_lo, t_hi] relative to the current state
        i, j = self.ii[pair], self.jj[pair]
        dy = self.pos[i] - self.pos[j]
        dv = self.vel[i] - self.vel[j]

        def gap(t):
            r = dy + (t - self.t) * dv
            return np.sqrt(np.dot(r, r)) - 2.0 * self.a

        lo, hi = t_lo, t_hi
        for _ in range(iters):
            mid = 0.5 * (lo + hi)
            if gap(mid) > 0.0:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    def run(self, n_events, t_limit=None):
        """Return the first n_events collisions as (t, i, j) with i < j."""
        events = []
        two_a = 2.0 * self.a
        # fresh contacts only: a pair just resolved sits at exactly 2a
        thresh = two_a * (1.0 - 1e-9)
        while len(events) < n_events:
            if t_limit is not None and self.t > t_limit:
                break
            k = np.arange(1, self.block + 1)
            # positions at the next `block` step times, (K, N, n)
            P = self.pos[None, :, :] + (k * self.dt)[:, None, None] * self.vel[None, :, :]
            d = P[:, self.ii, :] - P[:, self.jj, :]
            dist = np.sqrt(np.sum(d * d, axis=-1))
            hit = dist < thresh
            if not hit.any():
                self.t += self.block * self.dt
                self.pos += self.block * self.dt * self.vel
                continue
            k_first = int(np.nonzero(hit.any(axis=1))[0][0])
            t_lo = self.t + k_first * self.dt
            t_hi = t_lo + self.dt
            pairs = np.nonzero(hit[k_first])[0]
            refined = [(self._refine(p, t_lo, t_hi), p) for p in pairs]
            t_c, p = min(refined)
            i, j = int(self.ii[p]), int(self.jj[p])
            self.pos += (t_c - self.t) * self.vel
            self.t = t_c
            u = self.pos[j] - self.pos[i]
            u = u / np.linalg.norm(u)
            ex = np.dot(self.vel[j] - self.vel[i], u) * u
            self.vel[i] = self.vel[i] + ex
            self.vel[j] = self.vel[j] - ex
            events.append((t_c, i, j))
        return events


class HeapEngine:
    """The engine's all-pairs heap scheduler before the event calendar.

    Every pair's prediction goes on the heap as (t, lo, hi, cc[lo], cc[hi]);
    an entry whose counters no longer match is stale and skipped.  After a
    collision both partners are re-predicted against every particle but
    each other, and a separate pass over all particles checks for third
    bodies.  The calendar must emit the same bytes.
    """

    def __init__(self, states, config):
        self.config = config
        N = config.N
        self.N = N
        self.ids = np.array([s.id for s in states], dtype=np.int64)
        self.pos = np.array([s.position for s in states], dtype=np.float64)
        self.vel = np.array([s.velocity for s in states], dtype=np.float64)
        self.tupd = np.zeros(N)
        self.cc = [0] * N
        self.four_a2 = 4.0 * config.a * config.a
        self.heap = []
        self.events = []
        self.idx = np.arange(N, dtype=np.int64)
        for i in range(N - 1):
            self._predict(i, self.idx[i + 1:])

    def _predict(self, i, js):
        out = np.empty(js.size)
        contact_times_scan(self.pos, self.vel, self.tupd, i, js,
                           self.four_a2, self.config.grazing_tol, out)
        hit = np.isfinite(out)
        for t, j in zip(out[hit].tolist(), js[hit].tolist()):
            lo, hi = (i, j) if i < j else (j, i)
            heapq.heappush(self.heap, (t, lo, hi, self.cc[lo], self.cc[hi]))

    def _advance(self, i, t):
        self.pos[i] += (t - self.tupd[i]) * self.vel[i]
        self.tupd[i] = t

    def _check_third_bodies(self, t, i, j):
        if self.N <= 2:
            return
        P = self.pos + (t - self.tupd)[:, None] * self.vel
        speeds = inorder_norm(self.vel)
        twoa = 2.0 * self.config.a
        tie = self.config.time_tie_tol
        for p in (i, j):
            d = inorder_norm(P - P[p])
            near = d <= twoa + tie * (speeds + speeds[p])
            near[i] = near[j] = False
            if near.any():
                culprits = tuple(int(self.ids[k]) for k in np.flatnonzero(near))
                raise GenericityViolation(
                    t, (int(self.ids[i]), int(self.ids[j])) + culprits)

    def _collide(self, t, i, j):
        self._advance(i, t)
        self._advance(j, t)
        dy = self.pos[j] - self.pos[i]
        dist = float(inorder_norm(dy))
        a = self.config.a
        if abs(dist - 2.0 * a) > self.config.overlap_tol * max(a, 1.0):
            raise SimulationBug(f"contact distance {dist!r} at t={t!r}")
        vi = self.vel[i].copy()
        vj = self.vel[j].copy()
        if a > 0.0:
            u = dy / dist
            impulse = float(inorder_dot(vj - vi, u)) * u
            vi_post = vi + impulse
            vj_post = vj - impulse
        else:
            u = np.array([1.0 if vi[0] > vj[0] else -1.0])
            vi_post = vj.copy()
            vj_post = vi.copy()
        if float(inorder_dot(vj_post - vi_post, u)) <= 0.0:
            raise SimulationBug(f"pair ({i}, {j}) not separating after collision")
        self.vel[i] = vi_post
        self.vel[j] = vj_post
        self.cc[i] += 1
        self.cc[j] += 1
        self._check_third_bodies(t, i, j)
        self.events.append(CollisionEvent(
            t=float(t), i=int(self.ids[i]), j=int(self.ids[j]),
            yi=self.pos[i].copy(), yj=self.pos[j].copy(),
            vi=vi, vj=vj, vi_post=vi_post.copy(), vj_post=vj_post.copy()))

    def run(self):
        t_max = self.config.t_max
        termination = "queue_empty"
        while self.heap:
            t, i, j, ci, cj = heapq.heappop(self.heap)
            if self.cc[i] != ci or self.cc[j] != cj:
                continue
            if t_max is not None and t > t_max:
                termination = "t_max"
                break
            self._collide(t, i, j)
            others = self.idx[(self.idx != i) & (self.idx != j)]
            for p in (i, j):
                self._predict(p, others)
        return self.events, termination


def overlap_report(states, config):
    """validate_configuration's overlap check one particle at a time: the
    first row i with a later row within 2a, with its nearest later row (the
    first of equal distances)."""
    pos, ids = states.position, states.id
    for i in range(len(states) - 1):
        d = inorder_norm(pos[i + 1:] - pos[i])
        k = int(np.argmin(d))
        if d[k] <= 2.0 * config.a:
            return ValidationReport(False, "overlap", {
                "pair": (int(ids[i]), int(ids[i + 1 + k])),
                "distance": float(d[k]), "contact": 2.0 * config.a})
    return ValidationReport(True)


def place_spheres(gen, N, n, box, a, cap):
    """gen_random_gas's placement one candidate at a time: each attempt
    draws gen.random(n) * box and keeps it when inorder_norm puts it more
    than 2a (1 + 1e-9) from every sphere placed so far.  Returns the (N, n)
    centers, or raises PackingError naming the sphere that attempt cap + 1
    was for."""
    placed = np.empty((N, n))
    min_dist = 2.0 * a * (1.0 + 1e-9)
    attempts = 0
    for i in range(N):
        while True:
            attempts += 1
            if attempts > cap:
                raise PackingError(
                    f"could not place sphere {i} of {N} within "
                    f"{cap} attempts (box {box.tolist()}, a={a})")
            cand = gen.random(n) * box
            with np.errstate(over="ignore"):
                apart = i == 0 or np.all(
                    inorder_norm(placed[:i] - cand) > min_dist)
            if apart:
                placed[i] = cand
                break
    return placed


def heap_simulation(states, config):
    """run_simulation with HeapEngine in place of the event calendar."""
    report = validate_configuration(states, config)
    if not report.ok:
        raise ConfigurationError(report)
    events, termination = HeapEngine(states, config).run()
    return EventLog(config=config, initial=states,
                    events=event_block(events, config.n), termination=termination)


class ReferenceEngine:
    """Eager hard-sphere stepper: no heap, no lazy states, no counters.

    Each step solves every pair's contact from the current state (all
    particles at one common time), advances every particle to the earliest
    contact, ties broken by the pair's indices, and exchanges the normal
    velocity components of that pair.  A pair whose latest collisions were
    with each other is left out until one of the two meets a third:
    separating partners in free flight never meet again, and point rods sit
    at distance 0 after their swap.  A third particle within contact distance of the colliding
    pair, up to time_tie_tol times the speeds, raises GenericityViolation.
    Grazing contacts are dropped by the engine's rule (discriminant below
    grazing_tol * (b^2 + A|c|)).
    """

    def __init__(self, positions, velocities, a, t_max=None, grazing_tol=1e-14,
                 time_tie_tol=1e-12, max_events=100_000):
        self.pos = np.array(positions, dtype=np.float64)
        self.vel = np.array(velocities, dtype=np.float64)
        self.a = float(a)
        self.t_max = t_max
        self.grazing_tol = grazing_tol
        self.tie = time_tie_tol
        self.max_events = max_events
        self.t = 0.0
        self.ii, self.jj = np.triu_indices(len(self.pos), k=1)

    def _contact_in(self):
        """Time from now to each pair's contact (inf when none)."""
        dy = self.pos[self.jj] - self.pos[self.ii]
        dv = self.vel[self.jj] - self.vel[self.ii]
        b = inorder_dot(dy, dv)
        A = inorder_dot(dv, dv)
        c = inorder_dot(dy, dy) - 4.0 * self.a ** 2
        s = np.full(b.shape, np.inf)
        # a time beyond the float range is +inf: never
        with np.errstate(over="ignore"):
            for p in range(len(s)):
                if self.a == 0.0 and c[p] == 0.0:
                    s[p] = 0.0  # coinciding points: in contact now (b is 0)
                    continue
                if b[p] >= 0.0:
                    continue
                if self.a == 0.0:
                    # a perfect square: |dy|^2 / -(dy . dv)
                    s[p] = c[p] / -b[p]
                    continue
                bp, Ap, shift = b[p], A[p], 0
                if Ap < 2.0 ** -900:
                    # b^2 and A would underflow: solve with dv scaled by an
                    # exact power of two, and scale the time back
                    shift = -math.frexp(float(np.abs(dv[p]).max()))[1]
                    dvp = np.ldexp(dv[p], shift)
                    bp, Ap = float(inorder_dot(dy[p], dvp)), float(inorder_dot(dvp, dvp))
                disc = bp ** 2 - Ap * c[p]
                if disc >= self.grazing_tol * (bp ** 2 + Ap * abs(c[p])):
                    # the smaller root, in the form that survives A
                    # underflowing; an approaching pair at contact distance
                    # up to rounding (root < 0) meets now
                    s[p] = np.ldexp(max(0.0, c[p] / (-bp + math.sqrt(disc))),
                                    shift)
        return s

    def run(self):
        """((t, i, j) events, termination) of the whole run."""
        events = []
        last = np.full(len(self.pos), -1)  # partner of each latest collision
        while len(events) < self.max_events:
            s = self._contact_in()
            s[(last[self.ii] == self.jj) & (last[self.jj] == self.ii)] = np.inf
            p = int(np.argmin(s))  # pairs are in (i, j) order: ties go to the lowest
            if not np.isfinite(s[p]):
                return events, "queue_empty"
            t = self.t + s[p]
            if self.t_max is not None and t > self.t_max:
                return events, "t_max"
            self.pos += s[p] * self.vel
            self.t = t
            i, j = int(self.ii[p]), int(self.jj[p])
            self._resolve(i, j)
            self._check_third_bodies(i, j)
            events.append((t, i, j))
            last[i], last[j] = j, i
        raise AssertionError("reference run did not end")

    def _resolve(self, i, j):
        if self.a == 0.0:
            self.vel[[i, j]] = self.vel[[j, i]]
            return
        u = self.pos[j] - self.pos[i]
        u /= inorder_norm(u)
        impulse = inorder_dot(self.vel[j] - self.vel[i], u) * u
        self.vel[i] += impulse
        self.vel[j] -= impulse

    def _check_third_bodies(self, i, j):
        speed = inorder_norm(self.vel)
        for p in (i, j):
            d = inorder_norm(self.pos - self.pos[p])
            near = d <= 2.0 * self.a + self.tie * (speed + speed[p])
            near[[i, j]] = False
            if near.any():
                raise GenericityViolation(
                    self.t, (i, j) + tuple(np.flatnonzero(near).tolist()))


def tie_groups(events, tol):
    """Split (t, i, j) events into runs whose successive times differ by at
    most tol * max(1, |t|); returns [(first time, sorted pairs)]."""
    groups = []
    for t, i, j in events:
        if groups and t - groups[-1][-1][0] <= tol * max(1.0, abs(t)):
            groups[-1].append((t, i, j))
        else:
            groups.append([(t, i, j)])
    return [(g[0][0], sorted((i, j) for _, i, j in g)) for g in groups]


def match_events(expected, actual, tol):
    """Pair up two (t, i, j) streams allowing reordering inside tol.

    Returns the worst absolute time discrepancy; raises AssertionError
    when some event has no partner-and-time match.  Needed because two
    collisions on disjoint pairs may sit closer together than the match
    tolerance, making strict positional comparison ill-posed.
    """
    pool = list(actual)
    worst = 0.0
    for t, i, j in expected:
        best = None
        for idx, (t2, i2, j2) in enumerate(pool):
            if (i2, j2) == (i, j) and abs(t2 - t) <= tol:
                if best is None or abs(t2 - t) < abs(pool[best][0] - t):
                    best = idx
        assert best is not None, (
            f"no match for collision ({t}, {i}, {j}) within {tol}")
        worst = max(worst, abs(pool.pop(best)[0] - t))
    return worst


def replay_positions(log, t):
    """Positions of every particle at time t, reconstructed from the log.

    Pure replay: walk each particle's breakpoints (initial state plus its
    collision records) and extrapolate the last segment at or before t.
    Returns an (N, n) array indexed by particle id order of log.initial.
    """
    state = {s.id: (0.0, np.array(s.position, dtype=np.float64),
                    np.array(s.velocity, dtype=np.float64))
             for s in log.initial}
    for ev in log.events:
        if ev.t > t:
            break
        state[ev.i] = (ev.t, np.array(ev.yi), np.array(ev.vi_post))
        state[ev.j] = (ev.t, np.array(ev.yj), np.array(ev.vj_post))
    ids = sorted(state)
    return np.array([state[i][1] + (t - state[i][0]) * state[i][2] for i in ids])


def box_sides_from_facet_areas(mu):
    """Side lengths of the q-box whose facet areas are mu (q >= 2).

    Facet k has area prod_{j != k} l_j, so log-sides solve a linear
    system with the all-ones-minus-identity matrix.
    """
    mu = np.asarray(mu, dtype=np.float64)
    q = mu.size
    if q < 2:
        raise ValueError("need at least two facet directions")
    A = np.ones((q, q)) - np.eye(q)
    return np.exp(np.linalg.solve(A, np.log(mu)))


def kink_product_mass(V, V2, b, convention="paper"):
    """Mass of a kink vertex from the explicit product body.

    Planar factor: the chain (V, -V2, V2 - V) closes a triangle; its
    edge normals and lengths feed the polygon construction, whose area
    is the area-convention planar mass (half of it the other one).
    Orthogonal factor: the box with all facet areas b.  The two compose
    with exponents (p-1)/(d-1) and (q-1)/(d-1), p = 2, q = n - 1.
    """
    V = np.asarray(V, dtype=np.float64)
    V2 = np.asarray(V2, dtype=np.float64)
    n = V.size - 1
    e1 = V / np.linalg.norm(V)
    r = V2 - np.dot(V2, e1) * e1
    e2 = r / np.linalg.norm(r)
    angles, weights = [], []
    for u in (V, -V2, V2 - V):
        x, y = np.dot(u, e1), np.dot(u, e2)
        L = np.hypot(x, y)
        # outward normal of an edge running along u: rotate by -90 degrees
        angles.append(np.arctan2(-x, y) % (2.0 * np.pi))
        weights.append(L)
    area = enclosed_area(polygon_from_measure(AngularMeasure(angles, weights)))
    dm_minus = area if convention == "area" else 0.5 * area
    q = n - 1
    if q == 1:
        return np.sqrt(dm_minus * b)  # triangle x segment of length b
    dm_plus = float(np.prod(box_sides_from_facet_areas([b] * q)))
    d1 = q + 1  # = n
    return dm_minus ** (1.0 / d1) * dm_plus ** ((q - 1) / d1)


def support_jump(poly, angle, h=1e-6):
    """One-sided derivative jump of the support function at `angle`.

    Second-order one-sided stencils on both sides; equals the edge length
    whose outward normal points at `angle`.
    """
    from kinkbound.detmass import support_function

    def f(s):
        return support_function(poly, s)

    right = (-3 * f(angle) + 4 * f(angle + h) - f(angle + 2 * h)) / (2 * h)
    left = (3 * f(angle) - 4 * f(angle - h) + f(angle - 2 * h)) / (2 * h)
    return right - left


def random_balanced_measure(rng, k, min_gap=0.05, max_tries=500):
    """Balanced positive measure with k atoms, all weights >= 0.05.

    Draw spread-out angles, then project random weights onto the balance
    constraint; retry until the projection stays positive.  A balanced
    positive measure cannot live in an open half circle, so the result
    always spans the plane.
    """
    for _ in range(max_tries):
        s = np.sort(rng.uniform(0.0, 2.0 * np.pi, size=k))
        gaps = np.diff(s)
        if k > 1 and (gaps.min() < min_gap or (2 * np.pi - (s[-1] - s[0])) < min_gap):
            continue
        E = np.vstack([np.cos(s), np.sin(s)])
        w0 = rng.uniform(0.5, 2.0, size=k)
        w = w0 - E.T @ np.linalg.solve(E @ E.T, E @ w0)
        if np.all(w > 0.05):
            return AngularMeasure(s, w)
    raise RuntimeError(f"no balanced measure with {k} atoms after {max_tries} tries")


# -- tensor audits as scalar loops --------------------------------------------
# kinkbound.tensor computes these with array code that keeps every summation
# order; the loops below are the reference it must match bit for bit.


def grouped_vertices(T):
    """Deduplicate edge endpoints; exact float match first, then a
    tolerance sweep (1e-12 * coordinate scale) merging stragglers."""
    raw = []
    for e in edge_rows(T.edges):
        raw.append(e.x_start)
        raw.append(e.x_end)
    scale = max(1.0, max(float(np.max(np.abs(x))) for x in raw))
    tol = 1e-12 * scale
    groups: dict = {}
    for idx, x in enumerate(raw):
        groups.setdefault(x.tobytes(), []).append(idx)
    reps = {key: raw[members[0]] for key, members in groups.items()}
    keys = list(groups)
    if len(keys) > 1:
        from scipy.spatial import cKDTree

        pts = np.array([reps[k] for k in keys])
        parent = list(range(len(keys)))

        def find(i):
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for i, j in cKDTree(pts).query_pairs(tol):
            ri, rj = find(i), find(j)
            if ri != rj:
                parent[max(ri, rj)] = min(ri, rj)
        merged: dict = {}
        for k, key in enumerate(keys):
            root = keys[find(k)]
            merged.setdefault(root, []).extend(groups[key])
        groups = merged
    return raw, groups, tol


def vertex_balances(T):
    """Per-vertex loop over grouped endpoints: m accumulates +/- a_J eta_J
    in member order, weight_scale the incident weights."""
    raw, groups, _ = grouped_vertices(T)
    edges = edge_rows(T.edges)
    t_lo, t_hi = T.window
    tol_t = _time_tol(t_lo, t_hi)
    out = []
    for key, members in groups.items():
        x = raw[members[0]]
        m = np.zeros(1 + T.n)
        scale = 0.0
        kinds = set()
        for idx in members:
            e = edges[idx // 2]
            u = e.weight * e.direction
            m += -u if idx % 2 == 0 else u  # even index = edge start (departing)
            scale += e.weight
            kinds.add(e.kind)
        if min(abs(x[0] - t_lo), abs(x[0] - t_hi)) <= tol_t:
            category = "boundary"
        elif kinds == {"augmentation"} and len(members) == 1:
            category = "augment_tip"
        else:
            category = "interior"
        out.append(VertexBalance(x=x, m=m, weight_scale=scale,
                                 degree=len(members), category=category))
    return out


def slice_trace(T, t):
    """Per-edge loop over the trajectory edges crossing {time = t}."""
    t_lo, t_hi = T.window
    if not t_lo < t < t_hi:
        raise ValueError(f"slice time {t} outside window ({t_lo}, {t_hi})")
    for k in T.kinks:
        if abs(t - k.vertex[0]) <= _time_tol(t, k.vertex[0]):
            raise ValueError(f"slice time {t} hits a collision at "
                             f"{float(k.vertex[0])!r}")
    crossings = []
    total = 0.0
    mass = 0.0
    for e in edge_rows(T.edges):
        if e.kind != "trajectory":
            continue
        ts, te = e.x_start[0], e.x_end[0]
        if not ts < t < te:
            continue
        point = e.x_start + ((t - ts) / (te - ts)) * (e.x_end - e.x_start)
        vec = e.weight * e.direction
        crossings.append((point, vec))
        total += e.weight
        mass += vec[0]
    if T.mass_energy is not None and total > T.mass_energy + 1e-12:
        raise ValueError(f"slice mass {total} exceeds M+E={T.mass_energy}")
    points = np.array([p for p, _ in crossings]).reshape(-1, 1 + T.n)
    vectors = np.array([v for _, v in crossings]).reshape(-1, 1 + T.n)
    return SliceTrace(points=points, vectors=vectors, total=total, mass=mass)


def _point_segment_distance(p, a, b):
    d = b - a
    L2 = float(inorder_dot(d, d))
    if L2 == 0.0:
        return float(inorder_norm(p - a))
    s = float(inorder_dot(p - a, d)) / L2
    s = min(1.0, max(0.0, s))
    return float(inorder_norm(p - (a + s * d)))


def default_eps(T, sites):
    """0.49 x clearance, every kink against every vertex and edge."""
    t_lo, t_hi = T.window
    verts = [s.vertex for s in sites]
    edges = edge_rows(T.edges)
    eps = np.empty(len(sites))
    for k, s in enumerate(sites):
        x = s.vertex
        best = min(x[0] - t_lo, t_hi - x[0])
        for other in verts:
            dd = float(inorder_norm(other - x))
            if dd > 0.0:
                best = min(best, dd)
        for e in edges:
            # skip edges incident to this kink: they meet it at distance 0
            if (np.array_equal(e.x_start, x) or np.array_equal(e.x_end, x)):
                continue
            best = min(best, _point_segment_distance(x, e.x_start, e.x_end))
        if best <= 0.0:
            raise ValueError(f"no room for segments at kink {x}")
        eps[k] = 0.49 * best
    return eps


def audit_tensor(T, n_slices=10):
    """audit_tensor's document from the loops above."""
    worst = 0.0
    for vb in vertex_balances(T):
        if vb.category == "interior" and vb.weight_scale > 0:
            worst = max(worst, float(inorder_norm(vb.m)) / vb.weight_scale)
    t_lo, t_hi = T.window
    kink_times = sorted({float(k.vertex[0]) for k in T.kinks})
    bounds = [t_lo] + kink_times + [t_hi]
    mids = [0.5 * (left + right) for left, right in zip(bounds, bounds[1:])]

    def clear(s):
        return all(abs(s - k) > _time_tol(s, k) for k in kink_times)

    traces = []
    totals = []
    for k in range(n_slices):
        t = t_lo + (k + 0.5) * (t_hi - t_lo) / n_slices
        if not clear(t):
            # the midpoint of the gap around t, else of the nearest gap
            # whose midpoint clears every kink
            around = bisect.bisect_left(kink_times, t)
            nearest = sorted(range(len(mids)), key=lambda g: abs(mids[g] - t))
            t = next((mids[g] for g in [around] + nearest if clear(mids[g])),
                     mids[around])
        st = slice_trace(T, t)
        traces.append(st.mass)
        totals.append(st.total)
    return {
        "max_interior_balance": worst,
        "trace_masses": traces,
        "trace_totals": totals,
        "div_mass": T.div_mass,
    }


# -- the packed event log's layers as per-event loops -------------------------
# dynamics, ledger and tensor compute these as array passes over the packed
# event block; the loops below add in the same order and must match bit for
# bit.


EVENT_FIELDS = ("t", "i", "j", "yi", "yj", "vi", "vj", "vi_post", "vj_post")


def events_jsonl_bytes(log):
    """events.jsonl with every line from _jsonio.dumps."""
    header = {
        "kind": "header", "format": "kinkbound-events-v1",
        "config": asdict(log.config), "provenance": log.provenance,
        "initial": [{"id": s.id, "y": s.position, "v": s.velocity}
                    for s in log.initial],
    }
    lines = [_jsonio.dumps(header)]
    lines += [_jsonio.dumps({key: getattr(ev, key) for key in EVENT_FIELDS})
              for ev in log.events]
    lines.append(_jsonio.dumps({"kind": "footer", "events": len(log.events),
                                "termination": log.termination}))
    return ("\n".join(lines) + "\n").encode()


def read_events(path):
    """The CollisionEvents of an events.jsonl file, one line at a time."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    events = []
    for line in lines[1:-1]:
        d = json.loads(line)
        events.append(CollisionEvent(
            t=float(d["t"]), i=d["i"], j=d["j"],
            **{k: np.array(d[k], dtype=np.float64)
               for k in EVENT_FIELDS[3:]}))
    return events


def wedge_norm(u, u2):
    """Lagrange's identity over the 2x2 minors, added in (a, b) order."""
    x, y = list(map(float, u)), list(map(float, u2))
    total = 0.0
    for a in range(len(x)):
        for b in range(a + 1, len(x)):
            minor = x[a] * y[b] - x[b] * y[a]
            total += minor * minor
    return math.sqrt(total)


def spacetime_wedge(v, v2):
    d = np.asarray(v2, dtype=np.float64) - np.asarray(v, dtype=np.float64)
    w = wedge_norm(v, v2)
    return float(np.sqrt(inorder_dot(d, d) + w * w))


def build_ledger(log):
    """Two KinkRecords per collision (participant order: i then j)."""
    records = []
    for ev in log.events:
        for pid, partner, v, vp in ((ev.i, ev.j, ev.vi, ev.vi_post),
                                    (ev.j, ev.i, ev.vj, ev.vj_post)):
            records.append(KinkRecord(
                time=ev.t, particle=pid, partner=partner, v=v, v_post=vp,
                dv_norm=float(inorder_norm(vp - v)),
                wedge=wedge_norm(v, vp), st_wedge=spacetime_wedge(v, vp)))
    return records


def bound_report(records, inv, epsilon=1.0):
    thr = epsilon * inv.v_bar
    S1 = S2 = S_st = 0.0
    strong = 0
    for r in records:
        S1 += inv.v_bar * r.dv_norm + r.wedge
        S2 += r.dv_norm
        S_st += r.st_wedge
        strong += r.dv_norm >= thr
    N2 = inv.M * inv.M
    ratio1 = S1 / (N2 * inv.v_bar**2) if inv.v_bar > 0 else 0.0
    if inv.v_dev > 0:
        ratio2 = S2 / (N2 * inv.v_dev)
    elif S2 == 0.0:
        ratio2 = 0.0
    else:
        ratio2 = None
    me = inv.M + inv.E
    return BoundReport(S1=S1, ratio1=ratio1, S2=S2, ratio2=ratio2, S_st=S_st,
                       ratio_st=S_st / (me * me), strong=strong,
                       weak=len(records) - strong)


def hodograph_summaries(log):
    """Per-particle dicts updated event by event."""
    w = bulk_invariants(log.initial.velocity).w
    vel = {s.id: s.velocity for s in log.initial}
    ell = {s.id: 0.0 for s in log.initial}
    area = {s.id: 0.0 for s in log.initial}
    for ev in log.events:
        for pid, v, vp in ((ev.i, ev.vi, ev.vi_post), (ev.j, ev.vj, ev.vj_post)):
            ell[pid] += float(inorder_norm(vp - v))
            area[pid] += 0.5 * wedge_norm(v - w, vp - w)
            vel[pid] = vp
    return [HodographSummary(
        particle=s.id, ell=ell[s.id], area=area[s.id], v0=s.velocity,
        v_plus=vel[s.id],
        scatter=float(inorder_norm(vel[s.id] - s.velocity)))
        for s in log.initial]


def write_ledger_csv(records, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(LEDGER_COLUMNS)
        for r in records:
            writer.writerow([
                format(r.time, ".17g"), r.particle, r.partner,
                format(r.dv_norm, ".17g"), format(r.wedge, ".17g"),
                format(r.st_wedge, ".17g")])


def build_report(log, records, epsilon=1.0):
    inv = bulk_invariants(log.initial.velocity)
    rep = bound_report(records, inv, epsilon)
    return {
        "M": inv.M, "E": inv.E, "w": inv.w, "v_bar": inv.v_bar,
        "v_dev": inv.v_dev, "S1": rep.S1, "ratio1": rep.ratio1, "S2": rep.S2,
        "ratio2": rep.ratio2, "S_st": rep.S_st, "ratio_st": rep.ratio_st,
        "strong_count": rep.strong, "weak_count": rep.weak,
        "per_particle": [{"id": h.particle, "ell": h.ell, "area": h.area,
                          "scatter": h.scatter}
                         for h in hodograph_summaries(log)],
    }


def build_tensor(log, window):
    """Per-particle breakpoint chains, with vertex ids from a dict keyed by
    kink (event, particle) or boundary (side, particle)."""
    t_lo, t_hi = float(window[0]), float(window[1])
    for ev in log.events:
        if min(abs(ev.t - t_lo), abs(ev.t - t_hi)) <= _time_tol(ev.t, t_lo, t_hi):
            raise ValueError(f"window boundary hits collision at t={ev.t!r}")
    a = log.config.a
    ids = {}

    def vertex(key):
        return ids.setdefault(key, len(ids))

    def kink(e, particle):
        return e if a == 0.0 else (e, particle)

    breaks = {s.id: [(0.0, s.position, s.velocity, None)] for s in log.initial}
    for e, ev in enumerate(log.events):
        breaks[ev.i].append((ev.t, ev.yi, ev.vi_post, e))
        breaks[ev.j].append((ev.t, ev.yj, ev.vj_post, e))
    edges = []
    for s in log.initial:
        chain = breaks[s.id]
        for k, (tk, yk, vk, ek) in enumerate(chain):
            te = chain[k + 1][0] if k + 1 < len(chain) else np.inf
            ts = tk if k > 0 else -np.inf
            lo = max(ts, t_lo)
            hi = min(te, t_hi)
            if not lo < hi:
                continue
            x0 = np.concatenate(([lo], yk + (lo - tk) * vk))
            x1 = np.concatenate(([hi], yk + (hi - tk) * vk))
            V = np.concatenate(([1.0], vk))
            w = float(inorder_norm(V))
            start = vertex(kink(ek, s.id) if lo == ts else ("lo", s.id))
            end = vertex(kink(chain[k + 1][3], s.id) if hi == te else ("hi", s.id))
            edges.append(TensorEdge(x0, x1, w, "trajectory", start, end, V / w))
    kinks = []
    for e, ev in enumerate(log.events):
        if not t_lo < ev.t < t_hi:
            continue
        dv = float(inorder_norm(ev.vi_post - ev.vi))
        ki, kj = vertex(kink(e, ev.i)), vertex(kink(e, ev.j))
        if a > 0.0:
            u = np.concatenate(([0.0], ev.yj - ev.yi))
            edges.append(TensorEdge(
                np.concatenate(([ev.t], ev.yi)), np.concatenate(([ev.t], ev.yj)),
                dv, "colliton", ki, kj, u / inorder_norm(u)))
        kinks.append(KinkSite(np.concatenate(([ev.t], ev.yi)), ev.vi, ev.vi_post, ki))
        kinks.append(KinkSite(np.concatenate(([ev.t], ev.yj)), ev.vj, ev.vj_post, kj))
    inv = bulk_invariants(log.initial.velocity)
    n = log.config.n
    return GraphTensor(edges=edge_block(edges, n), window=(t_lo, t_hi), n=n,
                       vertices=len(ids), kinks=kink_block(kinks, n),
                       mass_energy=inv.M + inv.E)


def complement_basis(V, V2, skipped=None):
    """Orthonormal basis of Span(V, V2)^perp, one row and one kink at a
    time: inorder_norm for each norm, inorder_dot of one row with one vector
    for each dot product, candidate axes in stable order of decreasing
    residual norm, a candidate of norm <= 1e-10 skipped (its place in that
    order appended to the list skipped, when one is given)."""
    V = np.asarray(V, dtype=np.float64)
    V2 = np.asarray(V2, dtype=np.float64)
    n = V.size - 1
    u1 = V / inorder_norm(V)
    r = V2 - inorder_dot(V2, u1) * u1
    nr = inorder_norm(r)
    if nr <= 1e-14 * inorder_norm(V2):
        raise ValueError("V and V2 are parallel: no 2-plane to complement")
    u2 = r / nr
    resid = np.eye(1 + n)
    for u in (u1, u2):
        for i in range(1 + n):
            resid[i] = resid[i] - inorder_dot(resid[i], u) * u
    order = np.argsort([-inorder_norm(row) for row in resid], kind="stable")
    basis = []
    for place, idx in enumerate(order):
        w = resid[idx].copy()
        for z in basis:
            w = w - inorder_dot(w, z) * z
        nw = inorder_norm(w)
        if nw > 1e-10:
            basis.append(w / nw)
        elif skipped is not None:
            skipped.append(place)
        if len(basis) == n - 1:
            break
    if len(basis) != n - 1:
        raise ValueError("failed to complete orthonormal complement")
    return np.array(basis)


def build_augmented(T, b=1.0):
    """n-1 balanced segment pairs at every kink, appended one TensorEdge at
    a time, with the clearance from default_eps and the basis from
    complement_basis."""
    sites = list(T.kinks)
    eps = default_eps(T, sites)
    edges = edge_rows(T.edges)
    tip = T.vertices
    total_b = 0.0
    for s, ek in zip(sites, eps):
        V = np.concatenate(([1.0], s.v))
        V2 = np.concatenate(([1.0], s.v_post))
        for z in complement_basis(V, V2):
            edges.append(TensorEdge(s.vertex.copy(), s.vertex + ek * z, float(b),
                                    "augmentation", s.vertex_id, tip, z))
            edges.append(TensorEdge(s.vertex.copy(), s.vertex - ek * z, float(b),
                                    "augmentation", s.vertex_id, tip + 1, -z))
            tip += 2
        total_b += float(b)
    return GraphTensor(edges=edge_block(edges, T.n), window=T.window, n=T.n,
                       vertices=tip, kinks=T.kinks, mass_energy=T.mass_energy,
                       div_mass=T.div_mass + 2.0 * (T.n - 1) * total_b)
