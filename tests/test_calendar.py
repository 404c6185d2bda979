"""The event calendar against two oracles.

HeapEngine, the all-pairs heap scheduler the calendar replaced, must give
the same bytes on fixed scenes.  ReferenceEngine, an eager stepper that
shares no scheduling code with the engine, is the fuzz target: hypothesis
draws small scenes and the two runs must agree on the pair sequence, the
times and the termination, or both raise GenericityViolation.
"""

import heapq
import itertools
import math
import types
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

import kinkbound as kb
from kinkbound import dynamics, kernel
from kinkbound.dynamics import (ConfigurationError, GenericityViolation,
                                SimulationBug, events_jsonl_bytes,
                                run_simulation)

from oracles import ReferenceEngine, heap_simulation, tie_groups


def _stale_scene(t_max):
    # events at t = 3 (A-B), 4 (B-C), 5 (A-B); the A-C contact predicted
    # at t = 3 goes stale when C collides at t = 4
    sc = kb.gen_explicit(2, 0.5, [[0, 0], [4, 0], [10, 0]],
                         [[1, 0], [0, 0], [-1, 0]])
    return replace(sc, config=replace(sc.config, t_max=t_max))


def _rods(seed):
    rng = np.random.default_rng(seed)
    positions = np.sort(rng.uniform(0.0, 10.0, size=8))[:, None]
    return kb.gen_explicit(1, 0.0, positions, rng.normal(size=(8, 1)))


def _gas(n, N, seed, t_max=None):
    sc = kb.gen_random_gas(n, N, [1.0] * n, 0.03,
                           {"kind": "maxwell", "sigma": 1.0}, seed)
    return replace(sc, config=replace(sc.config, t_max=t_max))


def _rows(n, p, a=0.01):
    """p right-movers at x = -1, ..., -p and p left-movers at 1, ..., p on
    the first axis, speeds +-1: p^2 collisions, up to p at one time."""
    x = np.r_[-np.arange(1.0, p + 1), np.arange(1.0, p + 1)]
    pos = np.zeros((2 * p, n))
    vel = np.zeros((2 * p, n))
    pos[:, 0] = x
    vel[:, 0] = -np.sign(x)
    return kb.gen_explicit(n, a, pos, vel)


_SCENES = {
    **{f"line_p{p}": (lambda p=p: kb.gen_line_1d(p)) for p in (1, 5, 50)},
    # line_p50 has N = 100: one pair per rescan call, and three (the cap
    # of 7 rows is odd, and a pair must not be split)
    **{f"line_p50_block{b}": (lambda: kb.gen_line_1d(50)) for b in (300, 700)},
    **{f"rows{n}d_p12": (lambda n=n: _rows(n, 12)) for n in (2, 3)},
    **{f"gas2d_s{s}": (lambda s=s: _gas(2, 24, s)) for s in range(4)},
    **{f"gas3d_s{s}": (lambda s=s: _gas(3, 20, s)) for s in range(4)},
    "gas2d_t_max": lambda: _gas(2, 40, 7, t_max=0.3),
    "stale_t_max_5.5": lambda: _stale_scene(5.5),
    "stale_t_max_4.5": lambda: _stale_scene(4.5),
    "stale_no_t_max": lambda: _stale_scene(None),
    **{f"rods_s{s}": (lambda s=s: _rods(s)) for s in (0, 5, 11)},
    # two rows a kernel call: the initial scan is split into 12 calls
    # (N = 24) or 4 (N = 8), and a rescan takes one call a pair
    "gas2d_s0_block48": lambda: _gas(2, 24, 0),
    "rods_s5_block16": lambda: _rods(5),
}


def _block(name):
    """The dynamics._BLOCK a scene runs with: its name's "_block" suffix."""
    return int(name.rpartition("_block")[2]) if "_block" in name else dynamics._BLOCK


@pytest.mark.parametrize("name", sorted(_SCENES))
def test_calendar_matches_heap_oracle_bytes(name, monkeypatch):
    monkeypatch.setattr(dynamics, "_BLOCK", _block(name))
    sc = _SCENES[name]()
    log = run_simulation(sc.states, sc.config)
    expected = heap_simulation(sc.states, sc.config)
    assert events_jsonl_bytes(log) == events_jsonl_bytes(expected)


# A moves into B at t = 1 and stops; C, passing over B at speed 10, stands
# off B by 2a + delta then, where the tie tolerance is
# tau = time_tie_tol * (|v_B| + |v_C|) = 1.1e-11.  The engine's least-gap
# bound takes twice the largest speed the energy allows (tau up to about
# 1e-12 * 2 * sqrt(2) * 1000 with D, far away and faster than all, and
# 1e-12 * 2 * sqrt(2) * 10 without it), so the pair-by-pair test decides.
_INSIDE, _OUTSIDE, _JUST_INSIDE = 0.5 * 1.1e-11, 2 * 1.1e-11, 0.95 * 1.1e-11


def _third_body(delta, bystander=True):
    positions = [[-2.0, 0.0], [0.0, 0.0], [-10.0, 1.0 + delta], [100.0, 100.0]]
    velocities = [[1.0, 0.0], [0.0, 0.0], [10.0, 0.0], [1000.0, 0.0]]
    keep = 4 if bystander else 3
    return 2, 0.5, positions[:keep], velocities[:keep]


def _outcome(simulate, sc):
    """("raises", time, particles) or ("runs", events.jsonl bytes)."""
    try:
        log = simulate(sc.states, sc.config)
    except GenericityViolation as exc:
        return ("raises", exc.time, exc.particles)
    return ("runs", events_jsonl_bytes(log))


# Two collisions at t = 1, in pop order: A (moving right) into B, and C
# into D, where C stands off B by 2a + delta at (0, 1 + delta).  C's speed
# changes at its collision: from 0 to 1 (C stands, and D comes down onto
# it and stops), from 1 to 0 (C moves right into D, which stands), or from
# sqrt(2) to 1 (C comes down and right, and keeps the downward part).  A
# and B's rescan must see C at its speed before t: with
# tau = 1e-12 * (|v_C| + |v_B|), 2^-40 is within tau at every speed, and
# 2^-39 and 2^-39 + 2^-41 only at the speed before t.  At sqrt(2), C is
# faster before t than any particle after it, so the least-gap bound must
# count speeds before t too.  The rescan of C and D sees B at its speed
# after t.
def _same_time(delta, vc):
    c = [-vc[0], 1.0 + delta - vc[1]]  # at (0, 1 + delta) at t = 1
    if vc == (0.0, 0.0):
        d, vd = [0.0, 3.0 + delta], [0.0, -1.0]
    else:
        d, vd = [1.0, 1.0 + delta], [0.0, 0.0]
    return (2, 0.5, [[-2.0, 0.0], [0.0, 0.0], c, d],
            [[1.0, 0.0], [0.0, 0.0], list(vc), vd])


# (delta, C's velocity before t): the particles the run's
# GenericityViolation at t = 1 names
_SAME_TIME = {
    (2.0 ** -40, (0.0, 0.0)): (0, 1, 2),  # A and B's rescan: C
    (2.0 ** -39, (0.0, 0.0)): (2, 3, 1),  # C and D's rescan: B
    (2.0 ** -39, (1.0, 0.0)): (0, 1, 2),
    (2.0 ** -39 + 2.0 ** -41, (1.0, -1.0)): (0, 1, 2),
}


def _third_body_then_t_max():
    """_third_body(_INSIDE) and a far pair meeting at t = 3, past t_max = 2:
    the run stops at t_max after the t = 1 collision's rescan raised."""
    n, a, positions, velocities = _third_body(_INSIDE)
    return (n, a, positions + [[0.0, 50.0], [7.0, 50.0]],
            velocities + [[1.0, 0.0], [-1.0, 0.0]], 2.0)


# (scene, whether the oracle raises GenericityViolation on it)
_GENERICITY_CASES = [
    ((1, 0.0, [[-1.0], [0.0], [1.0]], [[1.0], [0.0], [-1.0]]), True),  # one point
    ((2, 0.5, [[-2.0, 0.0], [0.0, 0.0], [0.0, 2.0]],
      [[1.0, 0.0], [0.0, 0.0], [0.0, -1.0]]), True),  # A and C touch B at t = 1
    ((1, 0.0, [[-6.0], [-4.0], [0.0], [4.0], [6.0]],
      [[1.0], [0.0], [0.0], [0.0], [-1.0]]), True),  # two swaps at t = 2, triple at 6
    (_third_body(_INSIDE), True),
    (_third_body(_OUTSIDE), False),
    (_third_body(_JUST_INSIDE, bystander=False), True),
]

# scenes whose raise comes from one time's rescan (the arguments of
# kb.gen_explicit); the oracle raises on each
_ONE_TIME_CASES = {
    "third_body_then_t_max": _third_body_then_t_max(),
    **{f"same_time_{k}": _same_time(*key) for k, key in enumerate(_SAME_TIME)},
}


@pytest.mark.parametrize("n, a, positions, velocities",
                         [scene for scene, _ in _GENERICITY_CASES])
def test_calendar_raises_where_heap_oracle_raises(n, a, positions, velocities):
    sc = kb.gen_explicit(n, a, positions, velocities)
    assert _outcome(run_simulation, sc) == _outcome(heap_simulation, sc)


@pytest.mark.parametrize("name", sorted(_ONE_TIME_CASES))
def test_one_time_rescan_raises_where_heap_oracle_raises(name):
    sc = kb.gen_explicit(*_ONE_TIME_CASES[name])
    assert _outcome(run_simulation, sc) == _outcome(heap_simulation, sc)


def test_genericity_cases_raise_as_meant():
    """The oracle raises on the scenes meant to raise, naming the pair and
    at least one third body, and runs the others."""
    cases = _GENERICITY_CASES + [(scene, True) for scene in _ONE_TIME_CASES.values()]
    for scene, raises in cases:
        kind, *detail = _outcome(heap_simulation, kb.gen_explicit(*scene))
        assert kind == ("raises" if raises else "runs"), scene
        assert not raises or len(detail[1]) >= 3


def test_same_time_scenes_raise_for_the_pair_meant():
    """Each _same_time scene's two collisions are one time's rescan, and
    the oracle raises for the pair and third body _SAME_TIME names."""
    for key, particles in _SAME_TIME.items():
        sc = kb.gen_explicit(*_same_time(*key))
        assert _outcome(heap_simulation, sc) == ("raises", 1.0, particles)
        sc.config.time_tie_tol = 0.0  # no third body: two collisions at t = 1
        log = run_simulation(sc.states, sc.config)
        assert log.events.t[:2].tolist() == [1.0, 1.0]
        assert log.events.i[:2].tolist() == [0, 2]


def test_particle_colliding_twice_at_one_time_is_rescanned_between(monkeypatch):
    """Rods A, B and C at -1, 0 and 1 + 2^-52, the outer two moving in at
    speed 1, with no tie tolerance: A hits B at t = 1, and C, re-predicted
    against B's new state, meets B at t = 1 too (within rounding).  A and
    B are rescanned before B collides again, so that no kernel call holds
    a row twice, and the run raises as the oracle does, for B and C with
    A."""
    sc = kb.gen_explicit(1, 0.0, [[-1.0], [0.0], [1.0 + 2.0 ** -52]],
                         [[1.0], [0.0], [-1.0]])
    sc.config.time_tie_tol = 0.0
    rows = []
    scan = dynamics.contact_times_scan

    def traced_scan(*args):
        rows.append(np.ravel(args[3]).tolist())
        return scan(*args)

    monkeypatch.setattr(dynamics, "contact_times_scan", traced_scan)
    assert _outcome(run_simulation, sc) == _outcome(heap_simulation, sc) \
        == ("raises", 1.0, (1, 2, 0))
    assert rows[-2:] == [[0, 1], [1, 2]]


# Two collisions at t = 1 in R^2, a = 0.5: A at x0 - 2 moving right at
# speed 1 into B at rest at x0 (y = 0), and C into D the same way at
# x1 (y = 10).  At x = 0 the contact distance comes out exactly 1; at
# x = 0.1 the center of the mover at contact, 0.1 - 2 + 1, rounds, and the
# distance comes out 1 - 2^-53.  Both pairs are made in one step, and with
# a tiny overlap_tol the run raises for the first pair in pop order that
# misses, with the message a run making them one by one gives.
def _two_contacts(x0, x1):
    return kb.gen_explicit(2, 0.5, [[x0 - 2.0, 0.0], [x0, 0.0],
                                    [x1 - 2.0, 10.0], [x1, 10.0]],
                           [[1.0, 0.0], [0.0, 0.0], [1.0, 0.0], [0.0, 0.0]])


@pytest.mark.parametrize("x0, x1, pair", [(0.0, 0.1, "(2, 3)"),  # only C-D
                                          (0.1, 0.1, "(0, 1)")])  # both
def test_contact_guard_names_first_pair_of_a_time_off_contact(x0, x1, pair):
    sc = _two_contacts(x0, x1)
    log = run_simulation(sc.states, sc.config)  # the default tolerance
    assert log.events.t.tolist() == [1.0, 1.0]
    assert log.events.i.tolist() == [0, 2]
    sc.config.overlap_tol = 1e-300
    with pytest.raises(SimulationBug) as exc:
        run_simulation(sc.states, sc.config)
    assert str(exc.value) == ("contact distance 0.9999999999999999 vs "
                              f"2a=1.0 at t=1.0 for pair {pair}")


def test_pair_waiting_at_a_split_is_collided_and_rescanned_first(monkeypatch):
    """The rods of the test above as particles 0, 3 and 4, and a pair of
    rods at 10 and 12 (particles 1 and 2) meeting at t = 1 as well.  The
    entries at t = 1 pop as: A-B, C's entry (stale: it predicted C meeting
    A), which makes A-B collide before C's re-prediction, then the far pair,
    which waits, and then B-C, which splits the time.  The far pair is
    collided and rescanned with A and B, before B collides again."""
    sc = kb.gen_explicit(1, 0.0, [[-1.0], [10.0], [12.0], [0.0], [1.0 + 2.0 ** -52]],
                         [[1.0], [1.0], [-1.0], [0.0], [-1.0]])
    sc.config.time_tie_tol = 0.0
    rows = []
    scan = dynamics.contact_times_scan

    def traced_scan(*args):
        rows.append(np.ravel(args[3]).tolist())
        return scan(*args)

    monkeypatch.setattr(dynamics, "contact_times_scan", traced_scan)
    assert _outcome(run_simulation, sc) == _outcome(heap_simulation, sc) \
        == ("raises", 1.0, (3, 4, 0))
    assert rows[-3:] == [[4], [0, 3, 1, 2], [3, 4]]


def _counting_heapq(counts):
    def heappush(heap, item):
        counts["push"] += 1
        heapq.heappush(heap, item)

    def heappop(heap):
        counts["pop"] += 1
        return heapq.heappop(heap)

    return types.SimpleNamespace(heappush=heappush, heappop=heappop)


@pytest.mark.parametrize("p", [50, 100])
def test_heap_pops_per_collision_are_bounded(p, monkeypatch):
    """One pending entry per particle: a collision costs a small constant
    number of pops, where the all-pairs heap spent about N."""
    counts = {"push": 0, "pop": 0}
    monkeypatch.setattr(dynamics, "heapq", _counting_heapq(counts))
    log = kb.simulate_scenario(kb.gen_line_1d(p))
    assert len(log.events) == p * p
    assert counts["pop"] <= 3 * len(log.events)
    assert counts["push"] == counts["pop"]  # queue_empty: every entry popped


def test_event_earlier_than_previous_is_a_bug(monkeypatch):
    """A popped valid entry before the last event means the calendar lost
    an earlier contact; the engine stops instead of writing it."""
    sc = kb.gen_explicit(1, 0.0, [[-10.0], [-8.0], [8.0], [11.0]],
                         [[1.0], [0.0], [0.0], [-1.0]])  # contacts at t = 2, 3

    def early_pop(heap):
        t, *rest = heapq.heappop(heap)
        return (1.0 if t == 3.0 else t, *rest)

    monkeypatch.setattr(dynamics, "heapq", types.SimpleNamespace(
        heappush=heapq.heappush, heappop=early_pop))
    with pytest.raises(SimulationBug, match="precedes"):
        run_simulation(sc.states, sc.config)


@pytest.mark.parametrize("name", ["line_p5", "gas3d_t_max", "line_p50_block700"])
def test_kernel_calls_keep_the_layout_the_tracer_reads(name, monkeypatch):
    """perfbench's tracer wraps dynamics.contact_times_scan (the kernel's
    function, which dynamics binds by that name) and reads the
    columns at args[4] and out at args[7], and swaps dynamics.heapq for a
    counting one.  Wrapped the same way, every call passes all N columns
    and at most max(2, _BLOCK // N) rows.  After the initial scan, the
    one-row calls are the re-predictions, which the popped entries show
    (owner's counter current, partner's not) when the counters are
    replayed from the events.  Every other call rescans collisions of one
    time: the oldest ones not rescanned yet, two rows a pair in pop
    order, as many whole pairs as the cap allows."""
    monkeypatch.setattr(dynamics, "_BLOCK", _block(name))
    if name == "gas3d_t_max":  # 15 collisions and 4 re-predictions before t_max
        sc = kb.gen_random_gas(3, 40, [1.0] * 3, 0.07,
                               {"kind": "maxwell", "sigma": 1.0}, 0)
        sc = replace(sc, config=replace(sc.config, t_max=0.5))
    else:
        sc = _SCENES[name]()
    trail = []
    scan = dynamics.contact_times_scan
    assert scan is kernel.contact_times_scan

    def traced_scan(*args):
        result = scan(*args)
        js, out = args[4], args[7]
        trail.append(("scan", np.ravel(args[3]).tolist(), len(js), out.shape))
        return result

    def heappop(heap):
        entry = heapq.heappop(heap)
        trail.append(("pop", entry))
        return entry

    monkeypatch.setattr(dynamics, "contact_times_scan", traced_scan)
    monkeypatch.setattr(dynamics, "heapq", types.SimpleNamespace(
        heappush=heapq.heappush, heappop=heappop))
    log = run_simulation(sc.states, sc.config)
    assert log.termination == ("t_max" if sc.config.t_max else "queue_empty")
    N = sc.config.N
    cap = max(2, dynamics._BLOCK // N)
    for call in trail:
        if call[0] == "scan":
            _, rows, columns, shape = call
            assert columns == N and shape == (len(rows), N) and len(rows) <= cap
    first_pop = next(k for k, call in enumerate(trail) if call[0] == "pop")
    assert sorted(r for call in trail[:first_pop] for r in call[1]) == list(range(N))
    events = log.rows().tolist()
    cc = [0] * N
    made = []  # (t, lo, hi) of the collisions not rescanned yet
    repredictions = one_row = 0
    rescans = []  # pairs per rescan call
    for call in trail[first_pop:]:
        if call[0] == "pop":
            t, lo, hi, owner, c_owner, c_partner = call[1]
            partner = hi if owner == lo else lo
            if cc[owner] != c_owner:
                continue
            if cc[partner] != c_partner:
                repredictions += 1
            elif sum(rescans) + len(made) < len(events):  # else: past t_max
                assert [lo, hi] == events[sum(rescans) + len(made)]
                cc[lo] += 1
                cc[hi] += 1
                made.append((t, lo, hi))
        elif len(call[1]) == 1:
            one_row += 1
        else:
            rows = call[1]
            pairs, made = made[:len(rows) // 2], made[len(rows) // 2:]
            assert rows == [p for _, lo, hi in pairs for p in (lo, hi)]
            assert len({t for t, _, _ in pairs}) == 1
            rescans.append(len(pairs))
    assert not made and sum(rescans) == len(events) > 0
    assert one_row == repredictions > 0
    per_time = np.unique(log.events.t, return_counts=True)[1]
    per_call = cap // 2
    assert len(rescans) == sum(-(-k // per_call) for k in per_time.tolist())
    if name == "line_p5":
        assert len(rescans) == len(per_time) == 9
    if name == "gas3d_t_max":
        assert rescans == [1] * len(events)


# -- fuzzing against the eager reference ---------------------------------------
#
# The dense lattice is drawn twice as often as the other scenes: it is where
# an entry whose owner has collided since can come up with its partner
# unchanged, which is how a missing owner check would show.

# Eager advancing rounds differently from lazy advancing, so event times
# agree to TIME_RTOL, and events whose times lie within TIE_RTOL of each
# other (simultaneous up to rounding) may come in either order.
TIME_RTOL = 1e-9
TIE_RTOL = 1e-12


def _separated(pos, a):
    d = np.linalg.norm(pos[:, None, :] - pos[None, :, :], axis=-1)
    d[np.diag_indices_from(d)] = np.inf
    return d.min() > 2.0 * a + 1e-6


_T_MAX = st.sampled_from([None, 0.7, 2.5])


@st.composite
def _gas_scene(draw):
    n = draw(st.integers(1, 3))
    N = draw(st.integers(2, 12))
    a = 0.0 if n == 1 and draw(st.booleans()) else draw(st.floats(0.005, 0.05))
    coord = st.floats(0.0, 1.0, allow_nan=False)
    speed = st.floats(-1.0, 1.0, allow_nan=False)
    pos = np.array(draw(st.lists(st.lists(coord, min_size=n, max_size=n),
                                 min_size=N, max_size=N)))
    vel = np.array(draw(st.lists(st.lists(speed, min_size=n, max_size=n),
                                 min_size=N, max_size=N)))
    assume(_separated(pos, a))
    # nearly equal velocities meet only at huge times, beyond the positions
    # either engine resolves: a gas runs to a bounded t_max; a speed below
    # the numeric range (dynamics.LOW) is refused before the run
    return n, a, pos, vel, draw(st.sampled_from([0.7, 2.5, 10.0]))


@st.composite
def _lattice_gas(draw):
    """A dense cluster: spheres on a grid of spacing 3a, jittered, with
    random velocities, so that collisions chain within a short time.  The
    values come from a drawn seed: rounding must be generic here."""
    n = draw(st.integers(2, 3))
    N = draw(st.integers(6, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = 0.1
    side = math.ceil(N ** (1.0 / n))
    grid = np.array(list(itertools.product(range(side), repeat=n))[:N], dtype=float)
    pos = 3.0 * a * grid + rng.uniform(-0.02, 0.02, size=(N, n))
    return n, a, pos, rng.uniform(-1.0, 1.0, size=(N, n)), 10.0


@st.composite
def _point_rods(draw):
    """Point rods at random places and speeds: after each swap the pair
    sits at distance 0 up to rounding, and must not meet again."""
    N = draw(st.integers(2, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pos = np.sort(rng.uniform(0.0, 10.0, size=N))[:, None]
    return 1, 0.0, pos, rng.normal(size=(N, 1)), None


@st.composite
def _head_on_rows(draw):
    """p right-movers and q left-movers, spacing 1, on the first axis."""
    n = draw(st.integers(1, 3))
    p = draw(st.integers(1, 6))
    q = draw(st.integers(1, 12 - p))
    a = 0.0 if n == 1 and draw(st.booleans()) else draw(st.floats(0.01, 0.2))
    x = [-(k + 1.0) for k in range(p)] + [k + 1.0 for k in range(q)]
    pos = np.zeros((p + q, n))
    vel = np.zeros((p + q, n))
    pos[:, 0] = x
    vel[:, 0] = [1.0] * p + [-1.0] * q
    return n, a, pos, vel, draw(_T_MAX)


@st.composite
def _equal_spacings(draw):
    """Disjoint pairs that all meet at one instant, then meet their
    neighbours at further common instants."""
    n = draw(st.integers(1, 3))
    pairs = draw(st.integers(2, 6))
    a = 0.0 if n == 1 else draw(st.sampled_from([0.125, 0.25]))
    pos = np.zeros((2 * pairs, n))
    vel = np.zeros((2 * pairs, n))
    for k in range(pairs):
        pos[2 * k, 0], pos[2 * k + 1, 0] = 4.0 * k, 4.0 * k + 2.0
        vel[2 * k, 0], vel[2 * k + 1, 0] = 1.0, -1.0
    return n, a, pos, vel, draw(_T_MAX)


@st.composite
def _near_grazing(draw):
    """Two spheres passing at impact parameter 2a(1 - delta), plus a few
    bystanders: delta > 0 is a glancing hit, delta < 0 a miss."""
    n = draw(st.integers(2, 3))
    a = 0.05
    delta = draw(st.sampled_from([-1e-3, -1e-6, 1e-8, 1e-6, 1e-3, 0.5]))
    pos = np.zeros((2, n))
    vel = np.zeros((2, n))
    pos[0, 0], pos[1, 0] = -1.0, 1.0
    pos[1, 1] = 2.0 * a * (1.0 - delta)
    vel[0, 0], vel[1, 0] = 1.0, -draw(st.floats(0.5, 2.0))
    extra = draw(st.integers(0, 3))
    far = np.zeros((extra, n))
    far[:, 1] = 5.0 + 3.0 * np.arange(extra)
    return (n, a, np.vstack([pos, far]), np.vstack([vel, np.zeros((extra, n))]),
            draw(_T_MAX))


@st.composite
def _three_body(draw):
    """A and C reach B from both sides at times 1 and 1 + eps: eps = 0 is
    a triple contact, the others are far enough apart to be two events."""
    n = draw(st.integers(1, 3))
    a = 0.0 if n == 1 and draw(st.booleans()) else 0.05
    eps = draw(st.sampled_from([0.0, 1e-6, 1e-3, 0.25]))
    pos = np.zeros((3, n))
    vel = np.zeros((3, n))
    pos[:, 0] = [-(1.0 + 2.0 * a), 0.0, 1.0 + 2.0 * a + eps]
    vel[:, 0] = [1.0, 0.0, -1.0]
    return n, a, pos, vel, draw(_T_MAX)


@settings(max_examples=300,
          suppress_health_check=[HealthCheck.filter_too_much,
                                 HealthCheck.too_slow])
@given(scene=st.one_of(_gas_scene(), _lattice_gas(), _lattice_gas(),
                       _point_rods(), _head_on_rows(), _equal_spacings(),
                       _near_grazing(), _three_body()))
# a speed below the numeric range, at which b^2 and A underflowed: refused
@example(scene=(3, 0.03125,
                np.array([[0, 0, 1], [0, 0, 0], [0, 0, 0.5], [0, 1, 0]], float),
                np.array([[0, 0, 0], [1, 0, 0], [0, 0, 0], [0, -7.96e-230, 0]]),
                0.7))
def test_calendar_agrees_with_eager_reference(scene):
    n, a, pos, vel, t_max = scene
    sc = kb.gen_explicit(n, a, pos, vel, t_max=t_max)
    if ((vel != 0.0) & (np.abs(vel) < dynamics.LOW)).any():
        with pytest.raises(ConfigurationError) as info:  # exit 2
            run_simulation(sc.states, sc.config)
        assert info.value.report.detail["field"] == "velocity"
        return
    ref = ReferenceEngine(pos, vel, a, t_max=t_max)
    try:
        want, want_end = ref.run()
    except GenericityViolation:
        with pytest.raises(GenericityViolation):
            run_simulation(sc.states, sc.config)
        return
    log = run_simulation(sc.states, sc.config)
    got = [(ev.t, ev.i, ev.j) for ev in log.events]
    if t_max is not None:
        # an event within rounding of t_max may fall on either side
        assume(all(abs(t - t_max) > TIME_RTOL * t_max for t, _, _ in want))
    assert log.termination == want_end
    # events at one time are disjoint pairs and come out in pair order
    for (t1, *pair1), (t2, *pair2) in zip(got, got[1:]):
        assert t1 < t2 or pair1 < pair2
    got_groups = tie_groups(got, TIE_RTOL)
    want_groups = tie_groups(want, TIE_RTOL)
    assert [pairs for _, pairs in got_groups] == [pairs for _, pairs in want_groups]
    for (t_got, _), (t_want, _) in zip(got_groups, want_groups):
        assert abs(t_got - t_want) <= TIME_RTOL * max(1.0, t_want)
