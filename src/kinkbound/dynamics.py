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
import re
from dataclasses import asdict, dataclass, field

import numpy as np

from . import _jsonio
from ._columns import Rows
from ._jsonio import read_int, read_number, read_object
from .kernel import component_sum, contact_times_scan, norms

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
    """Initial data breaks an engine precondition: rule reason, values detail."""

    def __init__(self, reason: str, detail: dict):
        self.reason, self.detail = reason, detail
        super().__init__(f"{reason}: {detail}")

    def __reduce__(self):  # a sweep worker sends it back pickled
        return type(self), (self.reason, self.detail)


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
    """Engine parameters (n and N are the shape of the initial states).

    t_max=None runs until no future event exists.  grazing_tol is relative
    (a contact is discarded when the quadratic discriminant is below
    grazing_tol * (b^2 + A|c|)); overlap_tol is relative too (see
    off_contact); time_tie_tol feeds the simultaneity detector.
    """

    a: float
    t_max: float | None = None
    grazing_tol: float = 1e-14
    overlap_tol: float = 1e-9
    time_tie_tol: float = 1e-12


TOLERANCES = ("grazing_tol", "overlap_tol", "time_tie_tol")


def read_run_fields(doc: dict, name: str, defaults: SimConfig | None = None) -> dict:
    """t_max (a number or null) and the TOLERANCES of doc, as SimConfig
    keyword arguments, named name.<field> in an error.  A field missing
    from doc is taken from defaults; without them it raises KeyError."""
    got = {k: doc[k] if defaults is None else doc.get(k, getattr(defaults, k))
           for k in ("t_max",) + TOLERANCES}
    return {k: None if k == "t_max" and v is None else read_number(v, f"{name}.{k}")
            for k, v in got.items()}


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


_BLOCK = 1 << 12  # pairs per pass of the overlap check and of a kernel call
_PLUS_MINUS = np.array([1.0, -1.0])  # v_i + impulse, v_j - impulse, exactly

LOW, HIGH = 2.0 ** -128, 2.0 ** 128
"""The numeric range: |positions|, times, a, the tolerances and |velocity
components| are at most HIGH; a and initial velocity components are 0 or
at least LOW.  With N n <= 2^40 (memory) no speed exceeds 2^149 (energy
< 2^296, see _Engine), and up to t = HIGH no position exceeds 2^278:
|dy| <= 2^279, |dv| <= 2^150, so b^2, A |c|, |dy|^2, grazing_tol (b^2 +
A |c|) and the ledger's squares stay below 2^988.  A nonzero initial dv
component is >= LOW 2^-53, so A >= 2^-362, and c > 0 means c > 2^-308
(4 a^2 2^-53): where A c >= 2^-1000 a b^2 that underflows leaves disc < 0,
also at grazing_tol = 0.  A collision can slow a pair until A c
underflows, but then |dv| < 2^-346 and its true and computed times both
exceed c / (3 |dy| |dv|) > 2^160.  At a = 0 dy^2 underflows only within
2^-511, where points meet at once; the ledger's underflows are < 2^-1022
against an energy >= LOW^2 / 2.  _Engine.run makes no event after HIGH,
and run_simulation refuses runs that leave the range (exit 4)."""


def check_range(x, field: str, low: float = 0.0, ids=None) -> None:
    """Raise ConfigurationError ("range") naming field and the first value of
    x neither 0 nor in [low, HIGH] in magnitude (and its row's id, given ids)."""
    x = np.asarray(x, dtype=np.float64)
    out = ~(np.abs(x) <= HIGH) | ((np.abs(x) < low) & (x != 0.0))
    if out.any():
        k = int(np.argmax(out))
        at = {} if ids is None else {"id": int(ids[k // x.shape[-1]])}
        raise ConfigurationError(
            "range", {"field": field, **at, "value": float(x.flat[k])})


def check_size(N: int, n: int, states=None) -> None:
    """Raise ConfigurationError unless n >= 1 ("dimension") and N >= 1
    ("particle_count"), and a StateBlock states, if given, holds N particles
    ("particle_count") with (N, n) positions and velocities
    ("dimension_mismatch").  Generators check n and N before they draw."""
    if n < 1:
        raise ConfigurationError("dimension", {"n": n})
    given = {} if states is None else {"given": len(states)}
    if N < 1 or given.get("given", N) != N:
        raise ConfigurationError("particle_count", {"N": N, **given})
    if given and (states.position.shape != (N, n) or states.velocity.shape != (N, n)):
        raise ConfigurationError("dimension_mismatch", {
            "n": n, "position": states.position.shape, "velocity": states.velocity.shape})


def validate_configuration(states, config: SimConfig) -> None:
    """Raise ConfigurationError for the first rule that initial data (a
    StateBlock) and config break: check_size of its own shape, radius,
    t_max, tolerances (>= 0; overlap_tol > 0, since a contact distance at 0
    tolerance is off by rounding), distinct ids, check_range, no overlap.

    Overlap means center distance <= 2a: spheres must be strictly apart
    (and points distinct when a == 0).  The overlap error names the first
    row i with any overlap and its nearest later row j, at their distance
    (the bits of kernel.norms); the search takes blocks of rows against
    all later rows, at most _BLOCK pairs a block.
    """
    ids, pos, vel = states.id, states.position, states.velocity
    check_size(len(states), pos.shape[-1], states)
    N, n = pos.shape
    if not (config.a == 0 or LOW <= config.a <= HIGH):
        raise ConfigurationError("radius", {"a": config.a})
    if config.a == 0 and n != 1:
        raise ConfigurationError("radius", {
            "a": config.a, "n": n, "note": "zero radius is only meaningful on the line"})
    if config.t_max is not None and not 0 < config.t_max <= HIGH:
        raise ConfigurationError("t_max", {"t_max": config.t_max})
    for name in TOLERANCES:
        tol = getattr(config, name)
        if not 0.0 <= tol <= HIGH or (tol == 0.0 and name == "overlap_tol"):
            raise ConfigurationError("tolerance", {name: tol})
    if len(np.unique(ids)) != N:
        raise ConfigurationError("duplicate_ids", {"ids": ids.tolist()})
    check_range(pos, "position", ids=ids)
    check_range(vel, "velocity", LOW, ids)
    # blocks of rows i against every later row j > i (d[q, c] is row
    # i0 + q against j = i0 + 1 + c; c < q is masked off), the differences
    # component-major, the layout component_sum reduces in one call
    contact = 2.0 * config.a
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
            raise ConfigurationError("overlap", {
                "pair": (int(ids[i0 + q]), int(ids[i0 + 1 + c])),
                "distance": float(d[q, c]), "contact": contact})


def off_contact(dist, scale, config: SimConfig):
    """Whether centers dist apart (floats or arrays) are out of contact:
    off 2a by more than overlap_tol * max(a, 1, scale), scale the pair's
    largest |coordinate| (rounding grows with it), or coincident at a > 0."""
    a, tol = config.a, config.overlap_tol
    miss = abs(dist - 2.0 * a)
    return (miss > tol * max(a, 1.0)) & (miss > tol * scale) | (dist == 0.0) & (a > 0.0)


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
        N, n = states.position.shape
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
        cc, last, heap = self.cc, self.last, self.heap
        step = self.rows_per_call & -2
        for r0 in range(0, len(rows), step):
            part = rows[r0:r0 + step]
            both = np.empty((2, len(part), len(self.idx)))
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
        gathered into one block, laid out as state, where the positions are
        moved to the centers at contact and the velocities after are worked
        out; it goes back to state and to the record; _close logs times and pairs.

        Each pair gets the bits it would get alone: every step is
        elementwise or a reduction within one pair.  The two guards
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
        block = self.state.take(rows, axis=2)  # C-ordered, (2, n, m)
        y, v = block
        slot[1] = v.T  # the velocities before
        y += (t - self.tupd.take(rows)) * v  # pos + (t - tupd) * v
        d = block[:, :, 1::2] - block[:, :, ::2]  # yj - yi and vj - vi
        dy = d[0]
        dist = np.sqrt(component_sum(dy * dy))
        a = self.config.a
        centers = y.T.tolist()
        for p, r in enumerate(dist.tolist()):
            scale = max(map(abs, centers[2 * p] + centers[2 * p + 1]))
            if off_contact(r, scale, self.config):
                if p:
                    self._collide(t, rows[:2 * p])
                i, j = rows[2 * p:2 * p + 2].tolist()
                raise SimulationBug(f"contact distance {r!r} vs 2a={2 * a!r} at "
                                    f"t={t!r} for pair ({i}, {j})")
        if a > 0.0:
            u = dy / dist
            impulse = component_sum(d[1] * u) * u
            v.reshape(len(v), -1, 2)[...] += impulse[:, :, None] * _PLUS_MINUS
        else:
            # point particles on the line swap velocities exactly; the
            # normal is the approach direction (centers coincide at contact)
            u = np.where(d[1] < 0.0, 1.0, -1.0)
            v[:] = v.reshape(-1, 2)[:, ::-1].reshape(v.shape)
        for p, sep in enumerate(component_sum((v[:, 1::2] - v[:, ::2]) * u).tolist()):
            if sep <= 0.0:
                i, j = rows[2 * p:2 * p + 2].tolist()
                raise SimulationBug(f"pair ({i}, {j}) not separating after collision")
        slot[::2] = block.transpose(0, 2, 1)
        self.state[..., rows] = block
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
        t_stop = HIGH if t_max is None else t_max
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
            if t > t_stop:  # rows is empty: rows wait only while the top is at t_prev
                if t_max is None:
                    raise SimulationBug(f"event at t={t!r} is beyond the numeric range")
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
        E, n = self.count, self.state.shape[1]
        i, j = self.ids.take(np.array(self.pairs, dtype=np.int64).reshape(E, 2).T)
        y, v, v_post = (plane[:2 * E].reshape(E, 2, n) for plane in self.recorded)
        return EventBlock(np.array(self.times, dtype=np.float64), i, j,
                          y, v, v_post), termination


def run_simulation(states: StateBlock, config: SimConfig) -> EventLog:
    """Run to completion (queue empty) or to config.t_max.

    Raises ConfigurationError on invalid initial data, GenericityViolation
    when a third body touches a colliding pair within tolerance, and
    SimulationBug if internal guards (overlap, separation, event order, range) trip.
    """
    validate_configuration(states, config)
    try:
        with np.errstate(over="raise", invalid="raise"):
            block, termination = _Engine(states, config).run()
        for name in ("y", "v", "v_post"):
            check_range(getattr(block, name), name)
    except (FloatingPointError, ConfigurationError) as exc:
        raise SimulationBug(f"the run left the numeric range: {exc}") from None
    return EventLog(config=config, initial=states, events=block,
                    termination=termination)


# -- serialization ----------------------------------------------------------


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
    states = log.initial
    N, n = states.position.shape
    vector = "[" + ",".join(["%.17g"] * n) + "]"
    state = '{"id":%d,"y":' + vector + ',"v":' + vector + "}"
    event = ('{"t":%.17g,"i":%d,"j":%d'
             + "".join(f',"{key}":{vector}' for key in _EVENT_ARRAYS) + "}")
    header = _jsonio.dumps({
        "kind": "header",
        "format": EVENTS_FORMAT,
        "config": {"n": n, "N": N, **asdict(log.config)},
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


def _decode(text: str):
    """json.loads, but -0, the text of -0.0, is read as -0.0 (json: 0)."""
    if re.search(r"-0(?![.eE\d])", text) is None:  # parse_int: a call per integer
        return json.loads(text)
    return json.loads(text, parse_int=lambda s: -0.0 if s == "-0" else int(s))


def _holds_bool(value) -> bool:
    """Whether the decoded JSON value is a boolean or an array holding one."""
    return type(value) is bool or (type(value) is list and any(map(_holds_bool, value)))


def _column(vals: list, kinds: str, tested: bool):
    """vals as one array, or None unless they are numbers of a dtype kind
    in kinds (or none at all), nested to one shape, with no boolean
    (tested: whether the text they came from holds "true" or "false"; a
    boolean converts to a number, so then each value is tested)."""
    try:
        col = np.array(vals)
    except ValueError:  # ragged
        return None
    if col.size and (col.dtype.kind not in kinds
                     or (tested and any(map(_holds_bool, vals)))):
        return None
    return col


def _event_block(docs: list, text: str, config: SimConfig,
                 initial: StateBlock, name: str) -> EventBlock:
    """The EventBlock of the event lines docs, decoded from text; raises,
    named name, for the first rule they break: JSON objects with every
    field; numbers, integers for i and j (_column); t one number and each
    vector n; i, j two different ids of initial; the numeric range; yi, yj
    2a apart (off_contact).  Messages quote the first line:
    read_events_jsonl runs the block, then each line.
    """
    E, n, first = len(docs), initial.position.shape[1], docs[0] if docs else {}
    try:
        values = {key: [d[key] for d in docs] for key in _EVENT_FIELDS}
    except (KeyError, TypeError):
        raise ValueError(f"{name} is not a collision event: {first!r}") from None
    tested = "true" in text or "false" in text
    not_ids = (f"{name}: i={first.get('i')!r}, j={first.get('j')!r} are not two "
               "particle ids of the header")
    cols = {}
    for key, vals in values.items():
        cols[key] = col = _column(vals, "i" if key in ("i", "j") else "iuf", tested)
        if E and (col is None
                  or col.shape != ((E, n) if key in _EVENT_ARRAYS else (E,))):
            raise ValueError(
                not_ids if key in ("i", "j") else
                f"{name} t must be a finite number, got {first['t']!r}" if key == "t" else
                f"{name} {key} must be a number or an array of numbers" if col is None else
                f"{name}: {key} must be {n} numbers, got {first[key]!r}")
    i, j = cols["i"], cols["j"]
    ids = initial.id
    if not (np.isin(i, ids).all() and np.isin(j, ids).all()) or (i == j).any():
        raise ValueError(not_ids)
    for key in ("t",) + _EVENT_ARRAYS:
        check_range(cols[key], f"{name} {key}")

    def pair(a, b):
        return np.stack((cols[a], cols[b]), axis=1).astype(np.float64).reshape(E, 2, n)

    y = pair("yi", "yj")
    if off_contact(norms(y[:, 1] - y[:, 0]), abs(y).max(axis=(1, 2)), config).any():
        raise ValueError(f"{name}: yi and yj are not 2a apart")
    return EventBlock(cols["t"].astype(np.float64), i.astype(np.int64), j.astype(np.int64),
                      y, pair("vi", "vj"), pair("vi_post", "vj_post"))


def _state_block(docs: list, text: str, name: str, n: int | None = None) -> StateBlock:
    """The StateBlock of the decoded initial states docs (from the header
    line text); raises, named name, for the first rule they break: JSON
    objects with every field; integer ids of int64, and numbers (_column);
    y and v vectors of one width, and that width n if given.  Messages
    quote the first state: read_events_jsonl runs the block, then each
    state with the header's n.
    """
    S, first = len(docs), docs[0] if docs else {}
    try:
        values = {key: [d[key] for d in docs] for key in ("id", "y", "v")}
    except (KeyError, TypeError):
        raise ValueError(f"{name} is not an initial state with id, y and v: "
                         f"{first!r}") from None
    tested = "true" in text or "false" in text
    ids, y, v = (_column(values[key], "i" if key == "id" else "iuf", tested)
                 for key in values)
    if not S:
        return StateBlock(np.zeros(0, dtype=np.int64), np.zeros((0, 0)),
                          np.zeros((0, 0)))
    if ids is None or ids.ndim != 1:
        raise ValueError(f"{name}.id must be an integer, got {first['id']!r}")
    for key, col in (("y", y), ("v", v)):
        if col is None or col.ndim != 2:
            raise ValueError(
                f"{name}.{key} must be an array of numbers, got {first[key]!r}")
    if y.shape != v.shape or n not in (None, y.shape[1]):
        length = "one length" if n is None else f"length {n}"
        raise ValueError(f"{name}: y and v must be vectors of {length}, "
                         f"got {first['y']!r} and {first['v']!r}")
    return StateBlock(ids.astype(np.int64), y.astype(np.float64), v.astype(np.float64))


def _check_history(log: EventLog) -> None:
    """The rules across event lines: no t is below the line before it, and
    each event's vi and vj are, bit for bit, that particle's velocity after
    its previous event or, at its first, in the header."""
    b, (N, n) = log.events, log.initial.position.shape
    back = np.flatnonzero(b.t[1:] < b.t[:-1])
    if len(back):  # event k + 1 is on line k + 3
        k = back[0]
        raise ValueError(f"event log line {k + 3}: t={b.t[k + 1]:.17g} is before "
                         f"the t={b.t[k]:.17g} of the line before it")
    # the initial states, then slot 2k + s, particle s (i, j) of event k: a
    # stable sort by particle puts each slot after its particle's previous
    # slot or initial state (as build_tensor orders breakpoints)
    rows = np.concatenate((np.arange(N), log.rows().reshape(-1)))
    order = np.argsort(rows, kind="stable")
    prev = np.empty_like(order)
    prev[order[1:]] = order[:-1]
    after = np.concatenate((log.initial.velocity, b.v_post.reshape(-1, n)))
    bad = np.flatnonzero((after[prev[N:]].view(np.int64)
                          != b.v.reshape(-1, n).view(np.int64)).any(axis=1))
    if len(bad):
        s, p = int(bad[0]), int(prev[N + bad[0]]) - N
        was = ("its header velocity" if p < 0 else
               f"its {('vi_post', 'vj_post')[p % 2]} on line {p // 2 + 2}")
        raise ValueError(f"event log line {s // 2 + 2}: {('vi', 'vj')[s % 2]} of "
                         f"particle {log.initial.id[rows[N + s]]} is not {was}")


def read_events_jsonl(path) -> EventLog:
    """Parse a log written by write_events_jsonl; a malformed log raises
    ValueError (or KeyError for a missing field).

    The header and footer fields are checked one by one, n and N against
    the initial states (check_size), and config and states as run_simulation
    checks its input (validate_configuration): ConfigurationError, a
    ValueError.  The event lines, most of the file, are decoded as one
    array, packed into an EventBlock and checked column by column
    (_event_block), a bad line named by its number, then across lines.
    """
    with open(path, "rb") as fh:
        lines = fh.read().decode().splitlines()
    if len(lines) < 2:
        raise ValueError("truncated event log")
    header = read_object(_decode(lines[0]), "event log header")
    footer = read_object(json.loads(lines[-1]), "event log footer")
    if header.get("kind") != "header" or footer.get("kind") != "footer":
        raise ValueError("malformed event log framing")
    if header.get("format") != EVENTS_FORMAT:
        raise ValueError(f"unknown event log format {header.get('format')!r}")
    cfg = read_object(header.get("config"), "config")
    n, N = (read_int(cfg[key], f"config.{key}") for key in "nN")
    config = SimConfig(a=read_number(cfg["a"], "config.a"),
                       **read_run_fields(cfg, "config"))
    states = header.get("initial")
    if not isinstance(states, list):
        raise ValueError(f"initial must be an array, got {states!r}")
    try:
        initial = _state_block(states, lines[0], "initial")
    except ValueError:  # name the first state that breaks a rule
        for k, doc in enumerate(states):
            _state_block([doc], lines[0], f"initial[{k}]", n)
        raise
    check_size(N, n, initial)
    validate_configuration(initial, config)
    provenance = read_object(header.get("provenance", {}), "provenance")
    body = lines[1:-1]
    text = "[" + ",".join(body) + "]"
    try:  # the event lines as one JSON array
        docs = _decode(text)
        if len(docs) != len(body):
            raise ValueError("event log lines are not one JSON value each")
        block = _event_block(docs, text, config, initial, "event log lines")
    except ValueError:  # name the first line that is not JSON or breaks a rule
        for k, line in enumerate(body):
            name = f"event log line {k + 2}"
            try:
                doc = _decode(line)
            except ValueError as exc:
                raise ValueError(f"{name} is not JSON: {exc}") from None
            _event_block([doc], line, config, initial, name)
        raise
    if read_int(footer.get("events"), "footer events") != len(block):
        raise ValueError("event count mismatch between footer and body")
    termination = footer.get("termination")
    if termination not in ("queue_empty", "t_max"):
        raise ValueError(f"unknown termination {termination!r}")
    log = EventLog(config=config, initial=initial, events=block,
                   termination=termination, provenance=provenance)
    _check_history(log)
    return log
