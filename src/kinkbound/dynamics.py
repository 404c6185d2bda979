"""Event-driven hard-sphere dynamics in R^n.

N spheres of common radius a move freely between events; at a pair contact
(center distance 2a) the normal velocity components are exchanged.  The
engine is exact: contact times come from a stable quadratic solve, and
states advance lazily (a particle's stored position changes only when one
of its own collisions is processed).

The event calendar keeps one pending prediction per particle (Lubachevsky
1991; Marin, Risso & Cordero 1993): a heap of each particle's earliest
contact over all others, keyed (time, lo, hi, ...), with entries checked at
pop time against per-particle collision counters.  Every prediction is
one blocked scan of some rows against every particle: the initial states,
a particle whose predicted partner has collided, and the partners of the
collisions that share one time, which are made together in one step on
stacked arrays and then rescanned together, the gaps of that scan at that
time being the third-body check.
"""

from __future__ import annotations

import heapq
import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import _jsonio
from ._columns import Rows
from ._jsonio import read_array, read_int, read_list, read_number, read_object
from ._pykern import contact_times_scan
from .kernel import component_sum, dots, norms, squared_norms

__all__ = [
    "ConfigurationError",
    "GenericityViolation",
    "SimulationBug",
    "SimConfig",
    "ParticleState",
    "StateBlock",
    "CollisionEvent",
    "EventBlock",
    "EventLog",
    "ValidationReport",
    "validate_configuration",
    "run_simulation",
    "events_jsonl_bytes",
    "write_events_jsonl",
    "read_events_jsonl",
]

EVENTS_FORMAT = "kinkbound-events-v1"
_EVENT_ARRAYS = ("yi", "yj", "vi", "vj", "vi_post", "vj_post")
_EVENT_FIELDS = ("t", "i", "j") + _EVENT_ARRAYS

class ConfigurationError(ValueError):
    """Initial data violates the engine's preconditions."""

    def __init__(self, report):
        self.report = report
        super().__init__(f"{report.reason}: {report.detail}")

    def __reduce__(self):  # a sweep worker sends it back pickled
        return type(self), (self.report,)


class GenericityViolation(RuntimeError):
    """More than two bodies in simultaneous contact (at tolerance resolution)."""

    def __init__(self, time: float, particles: tuple):
        self.time = time
        self.particles = particles
        super().__init__(
            f"simultaneous contact of particles {particles} at t={time!r}"
        )

    def __reduce__(self):
        return type(self), (self.time, self.particles)


class SimulationBug(AssertionError):
    """Internal consistency check failed (e.g. overlap beyond tolerance)."""


@dataclass
class SimConfig:
    """Engine parameters.

    t_max=None runs until no future event exists.  grazing_tol is relative
    (a contact is discarded when the quadratic discriminant is below
    grazing_tol * (b^2 + A|c|)); overlap_tol is scaled by max(a, 1) into an
    absolute length; time_tie_tol feeds the simultaneity detector.
    """

    n: int
    N: int
    a: float
    t_max: float | None = None
    grazing_tol: float = 1e-14
    overlap_tol: float = 1e-9
    time_tie_tol: float = 1e-12

    def header_dict(self) -> dict:
        return asdict(self)


@dataclass
class ParticleState:
    """One sphere's initial data: id, position and velocity at time 0."""

    id: int
    position: np.ndarray
    velocity: np.ndarray


@dataclass(eq=False)
class StateBlock(Rows):
    """Initial states packed in arrays, read as a sequence of ParticleState:
    id (N,) int64, and position and velocity (N, n) float64 at time 0."""

    id: np.ndarray
    position: np.ndarray
    velocity: np.ndarray

    record = ParticleState


@dataclass
class CollisionEvent:
    """A resolved binary collision; yi/yj are the centers at contact."""

    t: float
    i: int
    j: int
    yi: np.ndarray
    yj: np.ndarray
    vi: np.ndarray
    vj: np.ndarray
    vi_post: np.ndarray
    vj_post: np.ndarray


@dataclass(eq=False)
class EventBlock(Rows):
    """Collision events packed in arrays, read as a sequence of CollisionEvent.

    t (E,) holds the collision times, i and j (E,) int64 the particle ids,
    and y, v, v_post (E, 2, n) float64 the centers at contact and the
    velocities before and after: [:, 0] is particle i, [:, 1] particle j.
    """

    t: np.ndarray
    i: np.ndarray
    j: np.ndarray
    y: np.ndarray
    v: np.ndarray
    v_post: np.ndarray

    def _row(self, k) -> CollisionEvent:
        y, v, vp = self.y[k], self.v[k], self.v_post[k]
        return CollisionEvent(t=float(self.t[k]), i=int(self.i[k]),
                              j=int(self.j[k]), yi=y[0], yj=y[1], vi=v[0],
                              vj=v[1], vi_post=vp[0], vj_post=vp[1])

    def __iter__(self):
        return map(self._row, range(len(self)))


@dataclass
class EventLog:
    """Simulation output: config, the initial states as one StateBlock, the
    ordered events as one EventBlock, and the termination reason."""

    config: SimConfig
    initial: StateBlock
    events: EventBlock
    termination: str
    provenance: dict = field(default_factory=dict)

    def rows(self) -> np.ndarray:
        """(E, 2) index into initial of each event's particles i and j."""
        b = self.events
        ids = self.initial.id
        keys = np.stack((b.i, b.j), axis=1)
        order = np.argsort(ids, kind="stable")
        rows = order[np.searchsorted(ids, keys, sorter=order)
                     .clip(0, max(len(ids) - 1, 0))]
        if not np.array_equal(ids[rows], keys):
            raise ValueError("event particle ids are not ids of the initial states")
        return rows


@dataclass
class ValidationReport:
    ok: bool
    reason: str = ""
    detail: dict = field(default_factory=dict)


_BLOCK = 1 << 12  # pairs per pass of the overlap check and of a kernel call


def validate_configuration(states, config: SimConfig) -> ValidationReport:
    """Check initial data (a StateBlock): ids, shapes, finiteness, no overlap,
    and the engine tolerances (finite and >= 0; overlap_tol > 0, since a
    contact distance computed at 0 tolerance is off by rounding).

    Positions count as not finite when the square of twice one overflows,
    velocities from where the running sum of the squares of twice them
    does (the engine squares differences, up to twice as large; the
    ledger sums the energy).  Overlap means center distance <= 2a: spheres
    must be strictly apart (and points distinct when a == 0).  The overlap
    report names the first row i with any overlap and its nearest later
    row j, at their distance (the bits of kernel.norms); the search takes
    blocks of rows against all later rows, at most _BLOCK pairs a block.
    """
    def bad(reason, **detail):
        return ValidationReport(False, reason, detail)

    if config.n < 1:
        return bad("dimension", n=config.n)
    if config.N != len(states):
        return bad("particle_count", N=config.N, given=len(states))
    if len(states) < 1:
        return bad("particle_count", given=0)
    if config.a < 0 or not np.isfinite(config.a):
        return bad("radius", a=config.a)
    if config.a == 0 and config.n != 1:
        return bad("radius", a=config.a, n=config.n,
                   note="zero radius is only meaningful on the line")
    if config.t_max is not None and not config.t_max > 0:
        return bad("t_max", t_max=config.t_max)
    for name in ("grazing_tol", "overlap_tol", "time_tie_tol"):
        tol = getattr(config, name)
        above = tol > 0.0 if name == "overlap_tol" else tol >= 0.0
        if not (above and tol < np.inf):
            return bad("tolerance", **{name: tol})

    ids, pos, vel = states.id, states.position, states.velocity
    if len(np.unique(ids)) != len(ids):
        return bad("duplicate_ids", ids=ids.tolist())
    if pos.shape != (config.N, config.n) or vel.shape != pos.shape:
        return bad("dimension_mismatch", n=config.n, position=pos.shape,
                   velocity=vel.shape)
    with np.errstate(over="ignore"):
        finite = (np.isfinite(squared_norms(2.0 * pos))
                  & np.isfinite(np.cumsum(squared_norms(2.0 * vel))))
    if not finite.all():
        return bad("non_finite", id=int(ids[np.argmin(finite)]))
    # blocks of rows i against every later row j > i (d[q, c] is row
    # i0 + q against j = i0 + 1 + c; c < q is masked off), the differences
    # component-major, the layout component_sum reduces in one call
    N, contact = len(states), 2.0 * config.a
    cols = pos.T.copy()
    rows = max(1, _BLOCK // N)
    for i0 in range(0, N - 1, rows):
        r = min(rows, N - 1 - i0)
        diff = cols[:, None, i0 + 1:] - cols[:, i0:i0 + r, None]
        d = np.sqrt(component_sum(diff * diff))
        d[np.tri(r, N - 1 - i0, -1, dtype=bool)] = np.inf
        hit = (d <= contact).any(axis=1)
        if hit.any():
            q = int(np.argmax(hit))
            c = int(np.argmin(d[q]))
            return bad("overlap", pair=(int(ids[i0 + q]), int(ids[i0 + 1 + c])),
                       distance=float(d[q, c]), contact=contact)
    return ValidationReport(True)


class _Engine:
    """One simulation run; see run_simulation.

    The heap holds at most one live entry per particle, its owner's
    earliest predicted contact:

        (t, lo, hi, owner, cc[owner], cc[partner])

    (t, lo, hi) orders events, so simultaneous disjoint collisions come out
    in pair order; the counters copied at prediction time tell at pop time
    whether the entry still holds.  An owner that has collided since was
    re-predicted then, so its old entry is dropped.  An owner whose partner
    has collided since is re-predicted against every particle.  Otherwise
    the entry is the earliest pending collision: every pair's current
    prediction was part of the minimum that made some live entry, and
    every entry pushed at a pop is keyed no earlier than it.

    A valid entry's pair joins the collisions of its time, and its two
    counters and partners (cc, last) are set at once, since later pops at
    that time read them.  The pairs that wait are collided together, in
    one _collide call on stacked arrays, just before whichever comes first:
    the rescan of their time, when the heap's top is later; a
    re-prediction, which must see their new states; or a split (below).
    Every prediction is one step, _predict: the initial scan of all N
    particles, a re-prediction of one, and the rescan of the 2k particles
    of the collisions of one time, which alone takes the third-body test.
    A lone collision, every event of a gas, is k = 1 of the same two
    calls.  Up to a few hundred particles a numpy call costs about the
    same whatever its size, so these steps are written to make few calls,
    not to touch few pairs.  A kernel call takes at most rows_per_call =
    max(2, _BLOCK // N) rows, so its arrays stay near _BLOCK pairs.

    Deferring the collisions and their rescans changes no event.  A pair's
    time is a pure function of the two stored states, and only _collide
    changes those, with the same bits whether it makes one pair or many.
    A waiting pair's particles have no live entry and no contact earlier
    than t, and every kernel call reads collided states.  So the
    collisions come in the same order as when each is made and rescanned
    at once, and a particle rescanned after later collisions of its time
    gets the time that the re-prediction it would then have needed gets.
    The one difference: a contact that a rescan finds at t itself (the
    third-body test lets it through only where the spacing of floats at t
    exceeds the tie tolerance: past t ~ 1e4 at the default time_tie_tol,
    or at 0) comes after the other collisions at t, not among them in pair
    order.  A particle that meets a second partner at t (such a contact,
    found by a re-prediction) splits the time: the pairs before it are
    collided and rescanned first.
    """

    def __init__(self, states: StateBlock, config: SimConfig):
        self.config = config
        N, n = config.N, config.n
        self.ids = states.id
        # positions (at tupd) and velocities, stacked and component-major:
        # _collide gathers and writes back both for its rows in one call,
        # and the kernel's gathers (pos.T.take) read state[0] and state[1]
        # in place; copies, since the run moves them
        self.state = np.empty((2, n, N))
        self.state[0] = states.position.T
        self.state[1] = states.velocity.T
        self.pos, self.vel = self.state[0].T, self.state[1].T
        self.tupd = np.zeros(N)
        self.cc = [0] * N
        self.last = [-1] * N  # partner of each particle's latest collision
        self.four_a2 = 4.0 * config.a * config.a
        self.four_a = 4.0 * config.a
        # no particle is ever faster than sqrt(E), E the sum of the squared
        # speeds, since collisions keep E (up to rounding: a relative few
        # ulps a collision, which the factor 2 on E covers); the reach of
        # the third-body test at twice that speed bounds the reach of every
        # pair's test (see _predict)
        energy = float(np.sum(self.state[1] * self.state[1]))
        top = abs(config.time_tie_tol) * 2.0 * math.sqrt(2.0 * energy)
        self.reach = top * (self.four_a + top)
        self.heap: list = []
        # the event block: times and pairs of rows as lists, and one plane
        # each of centers at contact, velocities before and after, two rows
        # a collision (particle i, then j); grown by doubling
        self.times: list = []
        self.pairs: list = []
        self.count = 0
        self.recorded = np.empty((3, 32, n))
        self.idx = np.arange(N, dtype=np.int64)
        self.rows_per_call = max(2, _BLOCK // N)
        self._predict(list(range(N)))

    # -- scheduling ---------------------------------------------------------

    def _predict(self, rows: list, t: float | None = None) -> None:
        """Push the earliest contact of each particle of rows, scanned
        against every particle, and check the rows for third bodies at t
        when t is given.

        A kernel call takes at most rows_per_call & -2 rows: pairs stay
        whole.  Each row leaves out itself (against itself b == 0 exactly,
        hence +inf; its gap is blanked) and the partner of its latest
        collision while neither of the two has collided since: separating
        partners in free flight never meet again, and predicting the pair
        finds only rounding-level contacts (point rods: distance 0).
        argmin takes the first of equal times, the smallest partner index
        and hence the smallest (lo, hi) of the row.

        With t, rows holds the two particles of each collision at t, pair
        by pair in the order they were made, and no particle twice; they
        are the latest collisions made, so each row's left-out partner is
        the other particle of its pair.  Every row was advanced to t, and
        every other particle was last updated no later, so the scan refers
        every pair to t: its gap c = |dy|^2 - 4a^2 is the third bodies'
        distance from the pair at the collision.  A third body k within
        contact distance plus tau = time_tie_tol * (speed of k + speed of
        the partner) aborts the run (_check_third_bodies).  The reach
        tau * (4a + tau) grows with |tau|, in floating point too, so a
        call's least gap beyond self.reach, the reach at twice the largest
        speed any particle can have, clears every third body, and only a
        least gap within it runs the test pair by pair.
        """
        N = self.config.N
        cc, last, heap = self.cc, self.last, self.heap
        step = self.rows_per_call & -2
        for r0 in range(0, len(rows), step):
            part = rows[r0:r0 + step]
            both = np.empty((2, len(part), N))
            out, gap = both[0], both[1]
            contact_times_scan(self.pos, self.vel, self.tupd, part, self.idx,
                               self.four_a2, self.config.grazing_tol, out, gap)
            # scalar setitems: a fancy-indexed one costs more for a lone pair
            for r, p in enumerate(part):
                gap[r, p] = np.inf
                q = last[p]
                if q >= 0 and last[q] == p:
                    out[r, q] = gap[r, q] = np.inf
            # |dy| <= 2a + tau  <=>  c <= tau * (4a + tau)
            if t is not None and not gap.min() > self.reach:
                self._check_third_bodies(t, rows, r0, gap)
            # plain floats and ints: heap comparisons stay in C
            for r, q in enumerate(out.argmin(axis=1).tolist()):
                s = out.item(r, q)
                if s != np.inf:
                    p = part[r]
                    lo, hi = (p, q) if p < q else (q, p)
                    heapq.heappush(heap, (s, lo, hi, p, cc[p], cc[q]))

    # -- event processing ---------------------------------------------------

    def _collide(self, t: float, rows: np.ndarray) -> None:
        """Advance the particles of k disjoint pairs to t and swap each
        pair's normal velocity components.

        rows holds the two particles of each pair, pair by pair in pop
        order (i0, j0, i1, j1, ...).  Their positions and velocities are
        gathered into the next 2k rows of the record's planes, where the
        positions are moved on to the centers at contact and the
        velocities after are worked out, and both are written back to
        state.  _close logs the times and pairs.

        Each pair gets the bits it would get alone: every step is
        elementwise or a reduction within one pair's row.  The two guards
        are taken for every pair; the run raises for the
        first pair in pop order that fails one, for the first check it
        fails (the pairs before a contact-distance failure are made, as
        when they are made one by one, and may fail separation).
        """
        c, m = self.count, len(rows)
        while 2 * c + m > self.recorded.shape[1]:
            self.recorded = np.concatenate(
                (self.recorded, np.empty_like(self.recorded)), axis=1)
        slot = self.recorded[:, 2 * c:2 * c + m]
        y, v, v_post = slot[0], slot[1], slot[2]
        self.state.take(rows, axis=2, out=slot[:2].transpose(0, 2, 1), mode="clip")
        y += (t - self.tupd.take(rows))[:, None] * v  # pos + (t - tupd) * v
        d = slot[:2, 1::2] - slot[:2, ::2]  # yj - yi and vj - vi of each pair
        dy = d[0]
        dist = np.sqrt(dots(dy, dy))
        a = self.config.a
        tol = self.config.overlap_tol * max(a, 1.0)
        for p, r in enumerate(dist.tolist()):
            if abs(r - 2.0 * a) > tol:
                if p:
                    self._collide(t, rows[:2 * p])
                i, j = rows[2 * p:2 * p + 2].tolist()
                raise SimulationBug(
                    f"contact distance {r!r} vs 2a={2 * a!r} at t={t!r} "
                    f"for pair ({i}, {j})"
                )
        if a > 0.0:
            u = dy / dist[:, None]
            impulse = dots(d[1], u)[:, None] * u
            np.add(v[::2], impulse, out=v_post[::2])
            np.subtract(v[1::2], impulse, out=v_post[1::2])
        else:
            # point particles on the line swap velocities exactly; the
            # normal is the approach direction (centers coincide at contact)
            u = np.where(d[1] < 0.0, 1.0, -1.0)
            v_post[::2] = v[1::2]
            v_post[1::2] = v[::2]
        for p, sep in enumerate(dots(v_post[1::2] - v_post[::2], u).tolist()):
            if sep <= 0.0:
                i, j = rows[2 * p:2 * p + 2].tolist()
                raise SimulationBug(f"pair ({i}, {j}) not separating after collision")
        self.state[..., rows] = slot[::2].transpose(0, 2, 1)
        self.tupd[rows] = t
        self.count = c + (m >> 1)

    def _close(self, t: float, rows: list, done: int) -> None:
        """Collide the pairs at t that still wait, rows[done:], rescan all
        of rows, and log their times and pairs."""
        if done < len(rows):
            self._collide(t, np.array(rows[done:]))
        self._predict(rows, t)
        self.times += [t] * (len(rows) >> 1)
        self.pairs += rows

    def _check_third_bodies(self, t: float, rows: list, r0: int,
                            gap: np.ndarray) -> None:
        """The third-body test of _predict, pair by pair in pop order, on
        the gaps of the rows r0, r0 + 1, ... of rows.

        Each pair's test takes the speeds that a rescan made right after
        its collision would take: the particles of the later pairs at
        their speeds before t, read off the record.  Positions at t have
        the same bits either way (_collide and the kernel move a particle
        to t alike), so the run raises for the same pair, naming the same
        third bodies.
        """
        now = norms(self.vel)
        made = self.recorded[1, 2 * self.count - len(rows):2 * self.count]
        s = now.copy()
        s[rows[r0 + 2:]] = norms(made[r0 + 2:])
        for r in range(0, len(gap), 2):
            i, j = rows[r0 + r], rows[r0 + r + 1]
            s[[i, j]] = now[[i, j]]  # collided: its speeds after t
            tau = self.config.time_tie_tol * (s + s[[i, j]][:, None])
            near = gap[r:r + 2] <= tau * (self.four_a + tau)
            near[:, [i, j]] = False
            if near.any():
                culprits = tuple(self.ids[near[0] if near[0].any() else near[1]].tolist())
                raise GenericityViolation(t, (int(self.ids[i]), int(self.ids[j])) + culprits)

    def run(self) -> tuple:
        t_max = self.config.t_max
        heap, cc, last, tupd = self.heap, self.cc, self.last, self.tupd
        termination = "queue_empty"
        t_prev = 0.0
        rows: list = []  # the pairs popped at t_prev, not yet rescanned
        done = 0  # rows[:done] are collided; the rest wait for _collide
        while heap or rows:
            if rows and (not heap or heap[0][0] > t_prev):
                self._close(t_prev, rows, done)
                rows, done = [], 0
                continue
            t, lo, hi, owner, c_owner, c_partner = heapq.heappop(heap)
            if cc[owner] != c_owner:
                continue  # the owner collided since and was re-predicted then
            if cc[hi if owner == lo else lo] != c_partner:
                if done < len(rows):  # the scan reads the collided states
                    self._collide(t_prev, np.array(rows[done:]))
                    done = len(rows)
                self._predict([owner])
                continue
            if t_max is not None and t > t_max:
                # rows is empty: rows wait only while the top is at t_prev
                termination = "t_max"
                break
            if t < t_prev:
                raise SimulationBug(
                    f"event at t={t!r} for pair ({lo}, {hi}) precedes the "
                    f"previous event at t={t_prev!r}")
            t_prev = t
            # A particle that collided at t already splits the time: its
            # row is rescanned before it collides again.  It has been
            # collided, so tupd == t: a waiting particle has no valid
            # entry (its counter went up at its pop, and every entry pushed
            # since came from a scan, made after the waiting pairs were).
            if rows and (tupd.item(lo) == t or tupd.item(hi) == t):
                self._close(t, rows, done)
                rows, done = [], 0
            cc[lo] += 1
            cc[hi] += 1
            last[lo] = hi
            last[hi] = lo
            rows += lo, hi
        E, n = self.count, self.config.n
        i, j = self.ids.take(np.array(self.pairs, dtype=np.int64).reshape(E, 2).T)
        y, v, v_post = (plane[:2 * E].reshape(E, 2, n) for plane in self.recorded)
        return EventBlock(np.array(self.times, dtype=np.float64), i, j,
                          y, v, v_post), termination


def run_simulation(states: StateBlock, config: SimConfig) -> EventLog:
    """Run to completion (queue empty) or to config.t_max.

    Raises ConfigurationError on invalid initial data, GenericityViolation
    when a third body touches a colliding pair within tolerance, and
    SimulationBug if internal guards (overlap, separation, event order) trip.
    """
    report = validate_configuration(states, config)
    if not report.ok:
        raise ConfigurationError(report)
    block, termination = _Engine(states, config).run()
    return EventLog(config=config, initial=states, events=block,
                    termination=termination)


# -- serialization ----------------------------------------------------------


def _templates(n: int) -> tuple:
    """%-templates of one initial state of the header and of one event
    line in R^n, the text _jsonio.dumps writes for their fields."""
    vector = "[" + ",".join(["%.17g"] * n) + "]"
    state = '{"id":%d,"y":' + vector + ',"v":' + vector + "}"
    event = ('{"t":%.17g,"i":%d,"j":%d'
             + "".join(f',"{key}":{vector}' for key in _EVENT_ARRAYS) + "}")
    return state, event


def _finite_lists(floats: np.ndarray) -> list:
    """The columns of floats as lists; a non-finite value raises
    ValueError, as _jsonio.dumps does."""
    finite = np.isfinite(floats)
    if not finite.all():
        _jsonio.format_float(float(floats[~finite][0]))
    return floats.T.tolist()


def events_jsonl_bytes(log: EventLog) -> bytes:
    """Canonical JSONL encoding (header, events, footer); floats %.17g.

    The header's initial states and the event lines are one template per
    state or line over packed columns: the same text as _jsonio.dumps of
    {"id", "y", "v"} per state and of the CollisionEvent fields per event.
    """
    n, states = log.config.n, log.initial
    state, event = _templates(n)
    header = _jsonio.dumps({
        "kind": "header",
        "format": EVENTS_FORMAT,
        "config": log.config.header_dict(),
        "provenance": log.provenance,
    })
    PV = np.concatenate((states.position, states.velocity), axis=1)
    initial = ",".join(state % row for row in
                       zip(states.id.tolist(), *_finite_lists(PV)))
    lines = [header[:-1] + ',"initial":[' + initial + "]}"]
    b = log.events
    E, width = len(b), 2 * n
    # per line: t, then yi, yj, vi, vj, vi_post, vj_post
    columns = _finite_lists(np.concatenate(
        (b.t[:, None], b.y.reshape(E, width), b.v.reshape(E, width),
         b.v_post.reshape(E, width)), axis=1))
    lines += [event % row for row in
              zip(columns[0], b.i.tolist(), b.j.tolist(), *columns[1:])]
    footer = {"kind": "footer", "events": E, "termination": log.termination}
    lines.append(_jsonio.dumps(footer))
    return ("\n".join(lines) + "\n").encode()


def write_events_jsonl(log: EventLog, path) -> None:
    with open(path, "wb") as fh:
        fh.write(events_jsonl_bytes(log))


def _is_id(value) -> bool:
    """Particle ids in an event log are JSON integers (not 1.0, not true)."""
    return type(value) is int


def _initial_state(value, name: str) -> tuple:
    rec = read_object(value, name)
    if not _is_id(rec["id"]):
        raise ValueError(f"{name}.id must be an integer, got {rec['id']!r}")
    return (rec["id"], read_array(rec["y"], f"{name}.y"),
            read_array(rec["v"], f"{name}.v"))


def _check_event(doc, line: int, n: int, ids: set) -> None:
    """Raise ValueError naming the line unless the event line doc has a
    finite t, particle ids i and j, and six vectors of n finite numbers."""
    name = f"event log line {line}"
    if not isinstance(doc, dict) or not doc.keys() >= set(_EVENT_FIELDS):
        raise ValueError(f"{name} is not a collision event: {doc!r}")
    read_number(doc["t"], f"{name} t")
    i, j = doc["i"], doc["j"]
    if not (_is_id(i) and _is_id(j) and i in ids and j in ids):
        raise ValueError(f"{name}: i={i!r}, j={j!r} are not particle ids "
                         "of the header")
    for key in _EVENT_ARRAYS:
        if read_array(doc[key], f"{name} {key}").shape != (n,):
            raise ValueError(f"{name}: {key} must be {n} numbers, "
                             f"got {doc[key]!r}")


def _decode_lines(body: list) -> list:
    """The JSON values of the event lines, decoded as one array; a line
    that is not JSON is reported by its line number."""
    try:
        docs = json.loads("[" + ",".join(body) + "]")
        if len(docs) == len(body):
            return docs
    except ValueError:
        pass
    for line, text in enumerate(body, start=2):
        try:
            json.loads(text)
        except ValueError as exc:
            raise ValueError(f"event log line {line} is not JSON: {exc}") from exc
    raise ValueError("event log lines are not one JSON value each")


def _event_block(body: list, n: int, ids: np.ndarray) -> EventBlock:
    """The EventBlock of the event lines body, checked as _check_event
    checks each line.

    The columns are converted without a dtype and tested once: numeric
    and not bool, of the right shape, finite, ids among the header's.  A
    boolean mixed into numbers promotes to a number, so a line whose text
    holds "true" or "false" counts as failing too.  On any failure the
    lines are checked one by one, and the first bad one is reported.
    """
    docs = _decode_lines(body)
    E = len(docs)
    shapes = {"t": (E,), "i": (E,), "j": (E,), **dict.fromkeys(_EVENT_ARRAYS, (E, n))}
    try:
        cols = {key: np.array([d[key] for d in docs]) for key in _EVENT_FIELDS}
        ok = (E == 0 or all(  # no events: empty columns, shape (0,)
            cols[key].shape == shape
            and cols[key].dtype.kind in ("i" if key in ("i", "j") else "if")
            and (key in ("i", "j") or np.isfinite(cols[key]).all())
            for key, shape in shapes.items()))
        ok = ok and np.isin(cols["i"], ids).all() and np.isin(cols["j"], ids).all()
    except (TypeError, KeyError, ValueError, OverflowError):
        ok = False
    if not ok or any("true" in s or "false" in s for s in body):
        id_set = set(ids.tolist())
        for line, doc in enumerate(docs, start=2):
            _check_event(doc, line, n, id_set)
        cols = {key: np.array([d[key] for d in docs]) for key in _EVENT_FIELDS}

    def pair(a, b):
        return np.stack((cols[a], cols[b]), axis=1).astype(np.float64).reshape(E, 2, n)

    return EventBlock(cols["t"].astype(np.float64).reshape(E),
                      cols["i"].astype(np.int64).reshape(E),
                      cols["j"].astype(np.int64).reshape(E),
                      pair("yi", "yj"), pair("vi", "vj"), pair("vi_post", "vj_post"))


def read_events_jsonl(path) -> EventLog:
    """Parse a log written by write_events_jsonl; a malformed log raises
    ValueError (or KeyError for a missing field).

    The header and footer fields are checked one by one, and the header's
    config and initial states as run_simulation checks its input: by
    validate_configuration, raising ConfigurationError (a ValueError).
    The event lines make up most of the file: they are decoded, packed
    into an EventBlock and checked column by column (see _event_block), a
    bad line reported by its line number.
    """
    with open(path, "rb") as fh:
        lines = fh.read().decode().splitlines()
    if len(lines) < 2:
        raise ValueError("truncated event log")
    header = read_object(json.loads(lines[0]), "event log header")
    footer = read_object(json.loads(lines[-1]), "event log footer")
    if header.get("kind") != "header" or footer.get("kind") != "footer":
        raise ValueError("malformed event log framing")
    if header.get("format") != EVENTS_FORMAT:
        raise ValueError(f"unknown event log format {header.get('format')!r}")
    cfg = read_object(header.get("config"), "config")
    t_max = cfg["t_max"]
    config = SimConfig(
        n=read_int(cfg["n"], "config.n"), N=read_int(cfg["N"], "config.N"),
        a=read_number(cfg["a"], "config.a"),
        t_max=None if t_max is None else read_number(t_max, "config.t_max"),
        **{k: read_number(cfg[k], f"config.{k}")
           for k in ("grazing_tol", "overlap_tol", "time_tie_tol")})
    states = read_list(header.get("initial"), "initial", _initial_state)
    ids, y, v = zip(*states) if states else ((), (), ())
    try:  # an id beyond int64, or vectors of unequal lengths
        initial = StateBlock(np.array(ids, dtype=np.int64),
                             np.array(y, dtype=np.float64),
                             np.array(v, dtype=np.float64))
    except (OverflowError, ValueError) as exc:
        raise ValueError(f"initial states need int64 ids and vectors of one "
                         f"length: {exc}") from None
    report = validate_configuration(initial, config)
    if not report.ok:
        raise ConfigurationError(report)
    provenance = read_object(header.get("provenance", {}), "provenance")
    block = _event_block(lines[1:-1], config.n, initial.id)
    if read_int(footer.get("events"), "footer events") != len(block):
        raise ValueError("event count mismatch between footer and body")
    termination = footer.get("termination")
    if termination not in ("queue_empty", "t_max"):
        raise ValueError(f"unknown termination {termination!r}")
    return EventLog(config=config, initial=initial, events=block,
                    termination=termination, provenance=provenance)
