"""Event-driven hard-sphere dynamics in R^n.

N spheres of common radius a move freely between events; at a pair contact
(center distance 2a) the normal velocity components are exchanged.  The
engine is exact: contact times come from a stable quadratic solve, and
states advance lazily (a particle's stored position changes only when one
of its own collisions is processed).

The event calendar keeps one pending prediction per particle (Lubachevsky
1991; Marin, Risso & Cordero 1993): a heap of each particle's earliest
contact over all others, keyed (time, lo, hi, ...), with entries checked at
pop time against per-particle collision counters.  The initial states are
scanned in blocks of rows.  The collisions that share one time are made
one by one, and then rescanned together: one kernel call re-predicts the
partners of all of them against every particle (in blocks, on a large
system), and the gaps it returns at that time are the third-body check.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import asdict, dataclass, field

import numpy as np

from . import _jsonio
from ._columns import Columns
from ._jsonio import read_array, read_int, read_list, read_number, read_object
from ._pykern import contact_times_scan

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
class StateBlock(Columns):
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
class EventBlock(Columns):
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
    row j, at the distance np.linalg.norm gives; the search takes blocks of
    rows against all later rows, at most _BLOCK pairs a block.
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
        finite = (np.isfinite(np.sum((2.0 * pos) ** 2, axis=1))
                  & np.isfinite(np.cumsum(np.sum((2.0 * vel) ** 2, axis=1))))
    if not finite.all():
        return bad("non_finite", id=int(ids[np.argmin(finite)]))
    # blocks of rows i against every later row j > i (sq[q, c] is row
    # i0 + q against j = i0 + 1 + c; c < q is masked off) find the rows
    # that may overlap, from squared distances summed column by column;
    # np.linalg.norm adds the same squares in another order, within n ulps,
    # so a 1e-9 margin misses no overlap.  Each such row, in order, is
    # then checked with np.linalg.norm's distances.
    N, contact = len(states), 2.0 * config.a
    reach = contact * (1.0 + 1e-9)
    reach *= reach  # +inf, not OverflowError, past the float range
    rows = max(1, _BLOCK // N)
    for i0 in range(0, N - 1, rows):
        r = min(rows, N - 1 - i0)
        sq = np.zeros((r, N - 1 - i0))
        for col in pos.T:
            diff = col[i0 + 1:] - col[i0:i0 + r, None]
            sq += diff * diff
        sq[np.tri(r, N - 1 - i0, -1, dtype=bool)] = np.inf
        for i in (i0 + np.flatnonzero((sq <= reach).any(axis=1))).tolist():
            d = np.linalg.norm(pos[i + 1:] - pos[i], axis=1)
            k = int(np.argmin(d))
            if d[k] <= contact:
                return bad("overlap", pair=(int(ids[i]), int(ids[i + 1 + k])),
                           distance=float(d[k]), contact=contact)
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

    A valid entry is collided at once, working on the two rows with scalar
    indexing (_collide).  Its rescan waits until the heap's top is later:
    the k collisions of one time (line_1d makes up to p at once) are then
    re-predicted in one (2k, N) kernel call (_rescan), and a lone
    collision, every event of a gas, in one (2, N) call.  A re-prediction
    is one (1, N) call.  Up to a few hundred particles a numpy call costs
    about the same whatever its size, so these steps are written to make
    few calls, not to touch few pairs.  A kernel call takes at most
    rows_per_call = max(2, _BLOCK // N) rows, so its arrays stay near
    _BLOCK pairs.

    Deferring the rescans changes no event.  A pair's time is a pure
    function of the two stored states, and only _collide changes those;
    while the rescans of time t wait, their particles have no live entry,
    and no contact of theirs is earlier than t.  So the collisions come in
    the same order as when each is rescanned at once, and a particle
    rescanned after later collisions of its time gets the time that the
    re-prediction it would then have needed gets.  The one difference: a
    contact that a rescan finds at t itself (the third-body test lets it
    through only where the spacing of floats at t exceeds the tie
    tolerance: past t ~ 1e4 at the default time_tie_tol, or at 0) comes
    after the other collisions at t, not among them in pair order.  A
    particle that meets a second partner at t (such a contact, found by a
    re-prediction) has its first pair rescanned before that collision.
    """

    def __init__(self, states: StateBlock, config: SimConfig):
        self.config = config
        N = config.N
        self.ids = states.id
        # copies: the run moves these, and the caller's states stay as given
        self.pos = np.array(states.position, dtype=np.float64, order="C")
        self.vel = np.array(states.velocity, dtype=np.float64, order="C")
        self.tupd = np.zeros(N)
        self.speed = np.linalg.norm(self.vel, axis=1)
        self.cc = [0] * N
        self.last = [-1] * N  # partner of each particle's latest collision
        self.four_a2 = 4.0 * config.a * config.a
        self.four_a = 4.0 * config.a
        self.heap: list = []
        # the event block, grown by doubling: times, pairs of rows, and the
        # (2, n) centers and velocities of each collision
        self.count = 0
        self.recorded = (np.empty(16), np.empty((16, 2), dtype=np.int64),
                    np.empty((16, 2, config.n)), np.empty((16, 2, config.n)),
                    np.empty((16, 2, config.n)))
        self.idx = np.arange(N, dtype=np.int64)
        self.rows_per_call = max(2, _BLOCK // N)
        for r0 in range(0, N, self.rows_per_call):
            rows = self.idx[r0:r0 + self.rows_per_call]
            out = np.empty((rows.size, N))
            # a particle against itself has b == 0 exactly, hence +inf
            contact_times_scan(self.pos, self.vel, self.tupd, rows, self.idx,
                               self.four_a2, config.grazing_tol, out)
            self._push_earliest(rows.tolist(), out)

    # -- scheduling ---------------------------------------------------------

    def _push_earliest(self, rows, out: np.ndarray) -> None:
        """Push each row's earliest contact; out[r, q] is rows[r] vs particle q.

        argmin takes the first of equal times, which is the smallest
        partner index and hence the smallest (lo, hi) of the row.
        """
        cc, heap = self.cc, self.heap
        # plain floats and ints: heap comparisons stay in C
        for r, q in enumerate(out.argmin(axis=1).tolist()):
            t = out.item(r, q)
            if t != np.inf:
                p = rows[r]
                lo, hi = (p, q) if p < q else (q, p)
                heapq.heappush(heap, (t, lo, hi, p, cc[p], cc[q]))

    def _repredict(self, p: int) -> None:
        """New earliest contact of p, whose predicted partner has collided.

        The partner of p's latest collision stays out while neither of the
        two has collided since: separating partners in free flight never
        meet again, and predicting the pair finds only rounding-level
        contacts (point rods: distance 0).
        """
        out = np.empty((1, self.config.N))
        contact_times_scan(self.pos, self.vel, self.tupd, (p,), self.idx,
                           self.four_a2, self.config.grazing_tol, out)
        q = self.last[p]
        if q >= 0 and self.last[q] == p:
            out[0, q] = np.inf
        self._push_earliest((p,), out)

    # -- event processing ---------------------------------------------------

    def _collide(self, t: float, i: int, j: int) -> None:
        """Advance particles i and j to t, swap their normal velocity
        components, and log the event.

        The two rows are worked on one at a time, and the event goes
        straight into its slot of the record columns: the centers at
        contact, the velocities before and after, whose rows are then
        copied back into pos and vel.
        """
        k = self.count
        if k == len(self.recorded[0]):
            self.recorded = tuple(np.concatenate((c, np.empty_like(c)))
                                  for c in self.recorded)
        times, pairs, Y, V, V_post = self.recorded
        Y, V, V_post = Y[k], V[k], V_post[k]
        pos, vel, tupd = self.pos, self.vel, self.tupd
        V[0] = vel[i]
        V[1] = vel[j]
        vi, vj = V
        Y[0] = pos[i] + (t - tupd[i]) * vi
        Y[1] = pos[j] + (t - tupd[j]) * vj
        yi, yj = Y
        dy = yj - yi
        dist = float(np.linalg.norm(dy))
        a = self.config.a
        tol = self.config.overlap_tol * max(a, 1.0)
        if abs(dist - 2.0 * a) > tol:
            raise SimulationBug(
                f"contact distance {dist!r} vs 2a={2 * a!r} at t={t!r} "
                f"for pair ({i}, {j})"
            )
        if a > 0.0:
            u = dy / dist
            impulse = float(np.dot(vj - vi, u)) * u
            V_post[0] = vi + impulse
            V_post[1] = vj - impulse
        else:
            # point particles on the line swap velocities exactly; the
            # normal is the approach direction (centers coincide at contact)
            u = np.array([1.0 if vi[0] > vj[0] else -1.0])
            V_post[0] = vj
            V_post[1] = vi
        vi_post, vj_post = V_post
        if float(np.dot(vj_post - vi_post, u)) <= 0.0:
            raise SimulationBug(f"pair ({i}, {j}) not separating after collision")
        pos[i] = yi
        pos[j] = yj
        tupd[i] = tupd[j] = t
        vel[i] = vi_post
        vel[j] = vj_post
        self.speed[i], self.speed[j] = np.sqrt(
            np.add.reduce(V_post * V_post, axis=1)).tolist()
        self.cc[i] += 1
        self.cc[j] += 1
        self.last[i] = j
        self.last[j] = i
        times[k] = t
        pairs[k] = i, j
        self.count = k + 1

    def _rescan(self, t: float, rows: list, pre: dict) -> None:
        """Re-predict the particles of the collisions at t, and check them
        for third bodies.

        rows holds the two particles of each of these collisions, pair by
        pair in the order they were made, and no particle twice; pre holds
        the speeds before t of the particles of the second and later
        pairs.  A kernel call takes the rows of as many whole pairs as
        rows_per_call allows (all of them, up to _BLOCK // N rows).

        Every row was advanced to t, and every other particle was last
        updated no later, so the scan refers every pair to t: its gap
        c = |dy|^2 - 4a^2 is the third bodies' distance from the pair at
        the collision.  A third body k within contact distance plus
        tau = time_tie_tol * (speed of k + speed of the partner) aborts the
        run.  Each pair's test takes the speeds that a rescan made right
        after its collision would take: the particles of later pairs at
        their speeds before t.  Positions at t have the same bits either
        way (_collide and the kernel move a particle to t alike), so the
        run raises for the same pair, naming the same third bodies.

        The reach tau * (4a + tau) grows with |tau|, in floating point too,
        so the test first takes the least gap of a call against the reach
        of the largest |tau| (the largest speed of all, before t or now,
        plus the largest of its rows'): a least gap beyond it clears every
        third body, and only one within it runs the test pair by pair.
        """
        N = self.config.N
        speed, tie = self.speed, self.config.time_tie_tol
        fastest = max([speed.max(), *pre.values()])
        step = self.rows_per_call & -2  # pairs stay whole
        for r0 in range(0, len(rows), step):
            part = rows[r0:r0 + step]
            both = np.empty((2, len(part), N))
            out, gap = both[0], both[1]
            contact_times_scan(self.pos, self.vel, self.tupd, part, self.idx,
                               self.four_a2, self.config.grazing_tol, out, gap)
            for r in range(0, len(part), 2):  # self, and the partner it just left
                both[:, r:r + 2, part[r]] = np.inf
                both[:, r:r + 2, part[r + 1]] = np.inf
            # |dy| <= 2a + tau  <=>  c <= tau * (4a + tau)
            top = abs(tie) * (fastest + max(map(speed.item, part)))
            if not gap.min() > top * (self.four_a + top):
                self._check_third_bodies(t, rows, r0, gap, pre)
            self._push_earliest(part, out)

    def _check_third_bodies(self, t: float, rows: list, r0: int,
                            gap: np.ndarray, pre: dict) -> None:
        """The third-body test of _rescan, pair by pair in pop order, on
        the gaps of the rows r0, r0 + 1, ... of rows; each pair's test
        takes the particles of the later pairs at their speeds before t."""
        speed = self.speed
        s = speed.copy()
        later = rows[r0 + 2:]
        s[later] = [pre[p] for p in later]
        for r in range(0, len(gap), 2):
            i, j = rows[r0 + r], rows[r0 + r + 1]
            s[[i, j]] = speed[[i, j]]  # collided: its speeds after t
            tau = self.config.time_tie_tol * (s + s[[i, j]][:, None])
            near = gap[r:r + 2] <= tau * (self.four_a + tau)
            near[:, [i, j]] = False
            if near.any():
                culprits = tuple(self.ids[near[0] if near[0].any() else near[1]].tolist())
                raise GenericityViolation(t, (int(self.ids[i]), int(self.ids[j])) + culprits)

    def run(self) -> tuple:
        t_max = self.config.t_max
        heap, cc, speed, tupd = self.heap, self.cc, self.speed, self.tupd
        termination = "queue_empty"
        t_prev = 0.0
        rows: list = []  # the pairs collided at t_prev, not yet rescanned
        pre: dict = {}  # speeds before t_prev of the particles of rows[2:]
        while heap or rows:
            if rows and (not heap or heap[0][0] > t_prev):
                self._rescan(t_prev, rows, pre)
                rows, pre = [], {}
                continue
            t, lo, hi, owner, c_owner, c_partner = heapq.heappop(heap)
            if cc[owner] != c_owner:
                continue  # the owner collided since and was re-predicted then
            if cc[hi if owner == lo else lo] != c_partner:
                self._repredict(owner)
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
            if rows:  # a further collision at t
                if tupd.item(lo) == t or tupd.item(hi) == t:
                    # one of the two has collided at t already: its row is
                    # rescanned before it collides again
                    self._rescan(t, rows, pre)
                    rows, pre = [], {}
                else:
                    pre[lo], pre[hi] = speed.item(lo), speed.item(hi)
            self._collide(t, lo, hi)
            rows += lo, hi
        t, pairs, y, v, v_post = (c[:self.count] for c in self.recorded)
        i, j = self.ids.take(pairs.T)
        return EventBlock(t, i, j, y, v, v_post), termination


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
