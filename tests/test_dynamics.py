import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import kinkbound as kb
from kinkbound import dynamics
from kinkbound.dynamics import (
    ConfigurationError,
    EVENTS_FORMAT,
    GenericityViolation,
    SimConfig,
    StateBlock,
    events_jsonl_bytes,
    read_events_jsonl,
    run_simulation,
    validate_configuration,
    write_events_jsonl,
)

from oracles import overlap_report, replay_positions


def _states(*rows):
    """The StateBlock of (id, position, velocity) rows."""
    ids, y, v = zip(*rows)
    return StateBlock(np.array(ids, dtype=np.int64), np.array(y, dtype=np.float64),
                      np.array(v, dtype=np.float64))


def _refusal(states, cfg):
    """(reason, detail) of the ConfigurationError validate_configuration
    raises, or None when it passes."""
    try:
        validate_configuration(states, cfg)
    except ConfigurationError as exc:
        return exc.reason, exc.detail
    return None


# -- validation ---------------------------------------------------------------


def test_validate_accepts_separated_spheres():
    cfg = SimConfig(a=1.0)
    states = _states((0, [0, 0], [0, 0]), (1, [3, 0], [0, 0]))
    assert _refusal(states, cfg) is None


def test_validate_rejects_overlap():
    cfg = SimConfig(a=1.0)
    states = _states((0, [0, 0], [0, 0]), (1, [1, 0], [0, 0]))
    reason, detail = _refusal(states, cfg)
    assert reason == "overlap"
    assert detail["pair"] == (0, 1)


def test_validate_rejects_coincident_points_on_line():
    cfg = SimConfig(a=0.0)
    states = _states((0, [0.0], [1.0]), (1, [0.0], [-1.0]))
    assert _refusal(states, cfg)[0] == "overlap"


def test_validate_rejects_zero_radius_off_line():
    cfg = SimConfig(a=0.0)
    assert _refusal(_states((0, [0, 0], [0, 0])), cfg)[0] == "radius"


def test_validate_rejects_positions_whose_doubled_squares_overflow():
    """Positions must lie within dynamics.HIGH (the numeric range), where
    their squares and those of their differences cannot overflow; a
    position outside fails as "range", naming the first particle's id."""
    cfg = SimConfig(a=0.01)
    states = _states((0, [1e308, 0], [-1, 0]), (1, [-1e308, 0], [1, 0]))
    with np.errstate(all="raise"):  # no overflow escapes as a warning
        rep = _refusal(states, cfg)
    assert rep == ("range", {"field": "position", "id": 0, "value": 1e308})
    edge = dynamics.HIGH
    states = _states((0, [0, 0], [0, 0]), (1, [np.nextafter(edge, np.inf), 0], [0, 0]))
    assert _refusal(states, cfg)[1]["id"] == 1
    states = _states((0, [0, 0], [0, 0]), (1, [edge, -edge], [0, 0]))
    assert _refusal(states, cfg) is None


def test_validate_rejects_velocities_whose_doubled_squares_overflow():
    """Velocity components must be 0 or of magnitude within [LOW, HIGH]
    (the numeric range); inf and NaN fail too, as "range" naming the id."""
    cfg = SimConfig(a=0.01)
    rows = [(k, [k, 0], [0, 0]) for k in range(4)]
    low, high = dynamics.LOW, dynamics.HIGH
    for k, v in ((2, [1e154, 0]), (1, [np.inf, 0]), (3, [0, np.nan]),
                 (0, [0, low / 2]), (1, [-np.nextafter(high, np.inf), 1])):
        bad = list(rows)
        bad[k] = (k, [k, 0], v)
        with np.errstate(all="raise"):
            reason, detail = _refusal(_states(*bad), cfg)
        assert reason == "range" and detail["id"] == k
        assert detail["field"] == "velocity"
    edge = [(k, [k, 0], [(-1) ** k * high, low]) for k in range(4)]
    with np.errstate(all="raise"):
        assert _refusal(_states(*edge), cfg) is None


@pytest.mark.parametrize("name", ["grazing_tol", "overlap_tol", "time_tie_tol"])
def test_run_simulation_rejects_tolerances_out_of_range(name):
    """Each engine tolerance must be finite and >= 0, and overlap_tol > 0:
    NaN, inf and a negative value stop run_simulation before the engine
    starts (a NaN grazing_tol used to run the gas to 0 events); 0 passes
    the check, except as overlap_tol (a head-on pair then met at a contact
    distance 1.1e-15 short of 2a, and the run ended in SimulationBug)."""
    states = _states((0, [0, 0], [1, 0]), (1, [1, 0], [-1, 0]))
    cfg = SimConfig(a=0.01)
    zero_passes = name != "overlap_tol"
    for bad in (np.nan, np.inf, -1.0, -1e-300) + (() if zero_passes else (0.0,)):
        with pytest.raises(ConfigurationError) as info:
            run_simulation(states, replace(cfg, **{name: bad}))
        assert info.value.reason == "tolerance"
        assert list(info.value.detail) == [name]
    assert (_refusal(states, replace(cfg, **{name: 0.0})) is None) == zero_passes
    assert _refusal(states, replace(cfg, **{name: 5e-324})) is None


@settings(max_examples=200)
@given(data=st.data())
def test_overlap_check_matches_particle_loop(data):
    """The overlap check's row blocks, of any size, report the first row
    with an overlap, its nearest later row and their distance as the loop
    over particles does, to the bit.  Grid positions give several overlaps
    and equal distances; float positions give distances near 2a."""
    n = data.draw(st.integers(1, 4), label="n")
    N = data.draw(st.integers(1, 12), label="N")
    a = data.draw(st.sampled_from([0.25, 0.5, 1.0] + [0.0] * (n == 1)), label="a")
    grid = st.integers(-3, 3).map(lambda k: 0.5 * k)
    coord = st.one_of(grid, st.floats(-2.0, 2.0, allow_subnormal=False))
    pos = np.array(data.draw(st.lists(st.lists(coord, min_size=n, max_size=n),
                                      min_size=N, max_size=N), label="positions"),
                   dtype=np.float64).reshape(N, n)
    ids = np.array(data.draw(st.permutations(range(N)), label="ids"), dtype=np.int64)
    states = StateBlock(ids, pos, np.zeros((N, n)))
    cfg = SimConfig(a=a)
    block = data.draw(st.sampled_from([1, 5, 13, dynamics._BLOCK]), label="block")
    with mock.patch.object(dynamics, "_BLOCK", block):
        got = _refusal(states, cfg)
    assert got == overlap_report(states, cfg)


def test_overlap_in_a_later_block_matches_particle_loop():
    """A 3-D gas of 600 centers spans several row blocks; overlaps placed
    in the last ones are reported as the per-particle loop reports them."""
    rng = np.random.default_rng(5)
    N, n, a = 600, 3, 0.01
    pos = rng.uniform(0.0, 10.0, size=(N, n))
    states = StateBlock(np.arange(N, dtype=np.int64), pos, np.zeros((N, n)))
    cfg = SimConfig(a=a)
    assert N // (dynamics._BLOCK // N) >= 3
    assert _refusal(states, cfg) == overlap_report(states, cfg)
    for i, j in ((590, 598), (580, 599), (581, 582)):
        pos[j] = pos[i] + [0.0, 0.015, 0.0]
    rep = _refusal(states, cfg)
    assert rep == overlap_report(states, cfg)
    assert rep[0] == "overlap" and rep[1]["pair"] == (580, 599)


def test_overlap_check_passes_over_near_misses_and_finds_tiny_overlaps():
    """A row within the search margin of 2a that does not overlap is passed
    over for a later one that does; an overlap of spheres of the least
    radius in the numeric range (dynamics.LOW) is found, and a radius
    whose (2a)^2 is subnormal is refused."""
    cfg = SimConfig(a=0.5)
    states = _states((0, [0, 0], [0, 0]), (1, [1 + 1e-15, 0], [0, 0]),
                     (2, [1.5, 0.5], [0, 0]))
    rep = _refusal(states, cfg)
    assert rep == overlap_report(states, cfg)
    assert rep[1]["pair"] == (1, 2)
    low = dynamics.LOW
    cfg = SimConfig(a=low)
    states = _states((0, [0, 0], [0, 0]), (1, [low, low], [0, 0]))
    rep = _refusal(states, cfg)
    assert rep == overlap_report(states, cfg)
    assert rep[0] == "overlap"
    cfg = SimConfig(a=1e-160)
    states = _states((0, [0, 0], [0, 0]), (1, [1e-160, 1e-160], [0, 0]))
    assert _refusal(states, cfg)[0] == "radius"


# -- collision resolution: the engine's impulse rule and free flight ----------


def _scene(n, a, positions, velocities):
    sc = kb.gen_explicit(n, a, positions, velocities)
    return sc.states, sc.config


def _one_collision(n, a, positions, velocities):
    log = run_simulation(*_scene(n, a, positions, velocities))
    assert len(log.events) == 1
    return log.events[0]


def test_resolve_head_on_swap():
    # gap 4 -> contact separation 1 at closing speed 2: t = 1.5, normal (1, 0)
    ev = _one_collision(2, 0.5, [[-2.0, 0.0], [2.0, 0.0]],
                        [[1.0, 0.0], [-1.0, 0.0]])
    assert ev.t == 1.5
    np.testing.assert_array_equal(ev.vi_post, [-1.0, 0.0])
    np.testing.assert_array_equal(ev.vj_post, [1.0, 0.0])


def test_resolve_1d_exchange():
    ev = _one_collision(1, 0.5, [[0.0], [3.0]], [[2.0], [-1.0]])
    assert (ev.vi_post[0], ev.vj_post[0]) == (-1.0, 2.0)


def test_resolve_oblique():
    # contact at t = 1 with the normal at 45 degrees
    r = np.sqrt(0.5)
    ev = _one_collision(2, 0.5, [[0.0, 0.0], [1.0 + r, r]],
                        [[1.0, 0.0], [0.0, 0.0]])
    assert ev.t == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(ev.vi_post, [0.5, -0.5], atol=1e-12)
    np.testing.assert_allclose(ev.vj_post, [0.5, 0.5], atol=1e-12)
    energy = np.dot(ev.vi_post, ev.vi_post) + np.dot(ev.vj_post, ev.vj_post)
    assert energy == pytest.approx(1.0, abs=1e-15)


def test_resolve_conservation_exact_on_random_input():
    """Random pairs aimed at each other with impact parameter below 2a."""
    rng = np.random.default_rng(3)
    collided = 0
    for _ in range(200):
        n = int(rng.integers(1, 5))
        a = float(rng.uniform(0.05, 0.5))
        vi, vj = rng.normal(0, 2, size=(2, n))
        dv = vj - vi
        if np.linalg.norm(dv) * 3.0 <= 4.0 * a:
            continue  # too slow to start 3 time units apart
        offset = rng.normal(size=n)
        offset -= np.dot(offset, dv) / np.dot(dv, dv) * dv
        if n > 1:
            offset *= rng.uniform(0.0, 1.8 * a) / np.linalg.norm(offset)
        yj = -3.0 * dv + offset
        ev = _one_collision(n, a, [np.zeros(n), yj], [vi, vj])
        collided += 1
        wi, wj = ev.vi_post, ev.vj_post
        # the impulse is shared, so momentum error is one rounding per component
        np.testing.assert_allclose(wi + wj, vi + vj, rtol=0, atol=1e-13)
        e0 = np.dot(vi, vi) + np.dot(vj, vj)
        e1 = np.dot(wi, wi) + np.dot(wj, wj)
        assert e1 == pytest.approx(e0, rel=1e-12)
        # jump parallel to the contact normal, post-collision separation
        u = (ev.yj - ev.yi) / np.linalg.norm(ev.yj - ev.yi)
        jump = wi - vi
        assert np.linalg.norm(jump - np.dot(jump, u) * u) <= 1e-12 * max(
            1.0, np.linalg.norm(jump))
        assert np.dot(wj - wi, u) > 0
    assert collided > 100


def test_resolve_rejects_separating():
    # receding, and passing at exactly 2a: neither pair is ever resolved
    for positions, velocities in (([[0.0, 0.0], [2.0, 0.0]], [[-1.0, 0.0], [1.0, 0.0]]),
                                  ([[0.0, 0.0], [5.0, 1.0]], [[1.0, 0.0], [0.0, 0.0]])):
        log = run_simulation(*_scene(2, 0.5, positions, velocities))
        assert len(log.events) == 0 and log.termination == "queue_empty"


def test_advance_free():
    # between collisions each particle flies straight: the contact centers
    # are the initial positions advanced by t times the initial velocities
    ev = _one_collision(2, 0.5, [[-2.0, 1.0], [2.0, 1.0]],
                        [[1.0, 2.0], [-1.0, 2.0]])
    assert ev.t == 1.5
    np.testing.assert_array_equal(ev.yi, [-0.5, 4.0])
    np.testing.assert_array_equal(ev.yj, [0.5, 4.0])


# -- full runs ----------------------------------------------------------------


def test_two_spheres_single_event():
    sc = kb.gen_explicit(2, 1.0, [[0.0, 0.0], [4.0, 0.0]],
                         [[1.0, 0.0], [-1.0, 0.0]])
    log = run_simulation(sc.states, sc.config)
    assert len(log.events) == 1
    assert log.termination == "queue_empty"
    ev = log.events[0]
    assert ev.t == pytest.approx(1.0, abs=1e-12)
    assert (ev.i, ev.j) == (0, 1)
    assert np.linalg.norm(ev.yj - ev.yi) == pytest.approx(2.0, abs=1e-9)


def test_t_max_termination():
    sc = kb.gen_explicit(2, 1.0, [[0.0, 0.0], [40.0, 0.0]],
                         [[1.0, 0.0], [-1.0, 0.0]])
    cfg = SimConfig(a=sc.config.a, t_max=1.0)
    log = run_simulation(sc.states, cfg)
    assert log.termination == "t_max"
    assert len(log.events) == 0


def test_termination_ignores_stale_predictions():
    # events at t = 3 (A-B), 4 (B-C), 5 (A-B); the A-C prediction for t = 6,
    # pushed at t = 3, goes stale when C collides at t = 4
    sc = kb.gen_explicit(2, 0.5, [[0, 0], [4, 0], [10, 0]],
                         [[1, 0], [0, 0], [-1, 0]])
    log = run_simulation(sc.states, replace(sc.config, t_max=5.5))
    assert [e.t for e in log.events] == pytest.approx([3.0, 4.0, 5.0], abs=1e-12)
    assert log.termination == "queue_empty"
    log = run_simulation(sc.states, replace(sc.config, t_max=4.5))
    assert len(log.events) == 2
    assert log.termination == "t_max"


def test_invalid_initial_raises_configuration_error():
    sc = kb.gen_explicit(2, 1.0, [[0.0, 0.0], [1.0, 0.0]],
                         [[0.0, 0.0], [0.0, 0.0]])
    with pytest.raises(ConfigurationError) as exc:
        run_simulation(sc.states, sc.config)
    assert exc.value.reason == "overlap"


def test_determinism_byte_identical():
    def one():
        sc = kb.gen_random_gas(2, 32, [1.0, 1.0], 0.02,
                               {"kind": "maxwell", "sigma": 1.0}, seed=5)
        log = run_simulation(sc.states, sc.config)
        log.provenance = sc.provenance
        return events_jsonl_bytes(log)

    assert one() == one()


def test_jsonl_round_trip(tmp_path):
    sc = kb.gen_random_gas(2, 16, [1.0, 1.0], 0.03,
                           {"kind": "maxwell", "sigma": 1.0}, seed=9)
    log = run_simulation(sc.states, sc.config)
    path = tmp_path / "events.jsonl"
    write_events_jsonl(log, path)
    first = path.read_text().splitlines()[0]
    assert EVENTS_FORMAT in first
    log2 = read_events_jsonl(path)
    assert log2.termination == log.termination
    assert len(log2.events) == len(log.events)
    for e1, e2 in zip(log.events, log2.events):
        assert (e1.t, e1.i, e1.j) == (e2.t, e2.i, e2.j)
        np.testing.assert_array_equal(e1.vi_post, e2.vi_post)
    assert events_jsonl_bytes(log2) == events_jsonl_bytes(log)


def test_event_line_with_an_extra_field_reads_back(tmp_path):
    """A field that the log does not define is ignored.  Its "true" makes
    the reader test every value for a boolean, which finds none, and the
    log reads back as it was written."""
    sc = kb.gen_random_gas(2, 16, [1.0, 1.0], 0.03,
                           {"kind": "maxwell", "sigma": 1.0}, seed=9)
    log = run_simulation(sc.states, sc.config)
    lines = events_jsonl_bytes(log).decode().splitlines()
    lines[1] = lines[1][:-1] + ',"note":true}'
    path = tmp_path / "events.jsonl"
    path.write_text("\n".join(lines) + "\n")
    with mock.patch.object(dynamics, "_holds_bool",
                           wraps=dynamics._holds_bool) as test:
        back = read_events_jsonl(path)
    assert test.call_count >= len(log.events) > 0
    assert events_jsonl_bytes(back) == events_jsonl_bytes(log)


def test_read_rejects_event_times_that_decrease(tmp_path):
    sc = kb.gen_random_gas(2, 16, [1.0, 1.0], 0.03,
                           {"kind": "maxwell", "sigma": 1.0}, seed=9)
    lines = events_jsonl_bytes(run_simulation(sc.states, sc.config)).decode().splitlines()
    lines[2], lines[3] = lines[3], lines[2]
    path = tmp_path / "events.jsonl"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="^event log line 4: t="):
        read_events_jsonl(path)


def test_chains_hold_each_particle_state_then_kinks_in_event_order():
    """EventLog.chains of a gas with ids out of order: per particle in row
    order, its initial state (kink -1 at t = 0), then its kinks, slot
    2e + s of event e, in event order, each with that event's center and
    velocity after; last() marks each chain's end."""
    sc = kb.gen_random_gas(2, 24, [1.0, 1.0], 0.02,
                           {"kind": "maxwell", "sigma": 1.0}, seed=5)
    states = replace(sc.states, id=sc.states.id[::-1].copy())
    log = run_simulation(states, sc.config)
    b = log.events
    assert len(b) > 5
    c = log.chains()
    assert len(c) == len(states) + 2 * len(b)
    for row in range(len(states)):
        at = np.flatnonzero(c.owner == row)
        assert (np.diff(at) == 1).all()
        assert c.last()[at].tolist() == [False] * (len(at) - 1) + [True]
        assert c.kink[at[0]] == -1 and c.t[at[0]] == 0.0
        assert c.y[at[0]].tobytes() == states.position[row].tobytes()
        assert c.v[at[0]].tobytes() == states.velocity[row].tobytes()
        slots = c.kink[at[1:]]
        assert (np.diff(slots) > 0).all()
        e, s = slots // 2, slots % 2
        assert (np.where(s == 0, b.i[e], b.j[e]) == states.id[row]).all()
        assert c.t[at[1:]].tobytes() == b.t[e].tobytes()
        assert c.y[at[1:]].tobytes() == b.y[e, s].tobytes()
        assert c.v[at[1:]].tobytes() == b.v_post[e, s].tobytes()


def test_run_and_transforms_leave_their_input_unchanged():
    """The engine moves copies of the initial states: two runs of one
    scenario give the same bytes, and neither a run nor a transform writes
    into the scenario's block."""
    sc = kb.gen_random_gas(2, 24, [1.0, 1.0], 0.02,
                           {"kind": "maxwell", "sigma": 1.0}, seed=5)
    before = (sc.states.id.tobytes(), sc.states.position.tobytes(),
              sc.states.velocity.tobytes())
    log = run_simulation(sc.states, sc.config)
    assert len(log.events) > 5
    assert events_jsonl_bytes(run_simulation(sc.states, sc.config)) == \
        events_jsonl_bytes(log)
    kb.apply_boost(sc, [0.5, -0.25])
    kb.apply_time_scale(sc, 2.0)
    assert (sc.states.id.tobytes(), sc.states.position.tobytes(),
            sc.states.velocity.tobytes()) == before


def test_conservation_and_no_overlap_on_random_gas():
    sc = kb.gen_random_gas(2, 48, [1.0, 1.0], 0.015,
                           {"kind": "maxwell", "sigma": 1.0}, seed=12)
    log = run_simulation(sc.states, sc.config)
    assert len(log.events) > 5
    V = {s.id: np.array(s.velocity) for s in log.initial}
    p0 = sum(V.values())
    e0 = sum(np.dot(v, v) for v in V.values())
    vbar = kb.bulk_invariants(log.initial.velocity).v_bar
    for ev in log.events:
        V[ev.i], V[ev.j] = np.array(ev.vi_post), np.array(ev.vj_post)
        p = sum(V.values())
        assert np.linalg.norm(p - p0) <= 1e-13 * len(V) * vbar
    e1 = sum(np.dot(v, v) for v in V.values())
    assert abs(e1 - e0) <= 1e-9 * e0
    a = log.config.a
    for ev in log.events:
        pos = replay_positions(log, ev.t)
        d = pos[:, None, :] - pos[None, :, :]
        dist = np.sqrt((d * d).sum(axis=-1))
        dist[np.diag_indices_from(dist)] = np.inf
        assert dist.min() >= 2 * a - 1e-9 * max(a, 1.0)


def test_rotation_equivariance():
    theta = 0.73
    R = np.array([[np.cos(theta), -np.sin(theta)],
                  [np.sin(theta), np.cos(theta)]])
    sc = kb.gen_random_gas(2, 20, [1.0, 1.0], 0.03,
                           {"kind": "maxwell", "sigma": 1.0}, seed=21)
    log = run_simulation(sc.states, sc.config)
    rotated = StateBlock(sc.states.id, sc.states.position @ R.T,
                         sc.states.velocity @ R.T)
    log_r = run_simulation(rotated, sc.config)
    assert [(e.i, e.j) for e in log_r.events] == [(e.i, e.j) for e in log.events]
    scale = max(1.0, max(abs(e.t) for e in log.events))
    for e1, e2 in zip(log.events, log_r.events):
        assert abs(e1.t - e2.t) <= 1e-10 * scale
        np.testing.assert_allclose(R @ e1.vi_post, e2.vi_post, atol=1e-10)
        np.testing.assert_allclose(R @ e1.vj_post, e2.vj_post, atol=1e-10)


def test_galilean_equivariance():
    w0 = np.array([0.9, -0.4])
    sc = kb.gen_random_gas(2, 20, [1.0, 1.0], 0.03,
                           {"kind": "maxwell", "sigma": 1.0}, seed=22)
    log = run_simulation(sc.states, sc.config)
    boosted = replace(sc.states, velocity=sc.states.velocity + w0)
    log_b = run_simulation(boosted, sc.config)
    assert [(e.i, e.j) for e in log_b.events] == [(e.i, e.j) for e in log.events]
    for e1, e2 in zip(log.events, log_b.events):
        assert abs(e1.t - e2.t) <= 1e-10 * max(1.0, e1.t)
        np.testing.assert_allclose(e2.vi_post - e2.vi, e1.vi_post - e1.vi,
                                   atol=1e-10)
        # contact points co-translate with the boost
        np.testing.assert_allclose(e2.yi, e1.yi + e1.t * w0, atol=1e-9)


def test_genericity_violation_reported():
    sc = kb.gen_explicit(1, 0.0, [[-1.0], [0.0], [1.0]],
                         [[1.0], [0.0], [-1.0]])
    with pytest.raises(GenericityViolation) as exc:
        run_simulation(sc.states, sc.config)
    assert exc.value.time == pytest.approx(1.0, abs=1e-12)
    assert tuple(sorted(exc.value.particles)) == (0, 1, 2)


def test_simultaneous_disjoint_pairs_ok():
    """Two contacts at the same instant on disjoint pairs are legal (only a
    shared particle trips the genericity guard).  The swaps here set up two
    more rounds: the inner pair meets at t=6, then each inner particle
    catches its stalled outer partner at t=10."""
    sc = kb.gen_explicit(1, 0.0,
                         [[-6.0], [-4.0], [4.0], [6.0]],
                         [[1.0], [0.0], [0.0], [-1.0]])
    log = run_simulation(sc.states, sc.config)
    ts = [e.t for e in log.events]
    assert ts == pytest.approx([2.0, 2.0, 6.0, 10.0, 10.0], abs=1e-12)
    pairs = [(e.i, e.j) for e in log.events]
    assert sorted(pairs[:2]) == [(0, 1), (2, 3)]
    assert pairs[2] == (1, 2)
    assert sorted(pairs[3:]) == [(0, 1), (2, 3)]


@pytest.mark.parametrize("n, speed, t", [(1, 1e-250, 9.375e248),
                                         (2, 1e-200, 9.375e198)])
def test_tiny_speeds_meet_at_the_exact_time(n, speed, t):
    """These speeds, at which |dv|^2 underflows to 0, are below the numeric
    range and refused; at its least speed, dynamics.LOW, the pair meets
    when its gap 0.25 - 2a closes at 2 * LOW, at t * speed / LOW."""
    pad = [0.0] * (n - 1)

    def run(v):
        return kb.simulate_scenario(kb.gen_explicit(
            n, 0.03125, [[0.75] + pad, [1.0] + pad], [[v] + pad, [-v] + pad]))

    with pytest.raises(ConfigurationError) as info:
        run(speed)
    assert info.value.detail == {"field": "velocity", "id": 0, "value": speed}
    log = run(dynamics.LOW)
    assert log.events.t.tolist() == [0.09375 / dynamics.LOW]
    assert log.events.t[0] == pytest.approx(t * speed / dynamics.LOW, rel=1e-15)
    assert log.termination == "queue_empty"


def test_1d_zero_radius_swaps_exactly():
    sc = kb.gen_line_1d(3)
    log = run_simulation(sc.states, sc.config)
    assert len(log.events) == 9
    for ev in log.events:
        # bitwise swap, not algebraic reconstruction
        assert ev.vi_post.tobytes() == ev.vj.tobytes()
        assert ev.vj_post.tobytes() == ev.vi.tobytes()


def _rods(seed):
    # eight point rods at random places and speeds, as in the tensor oracle
    # tests: each collision leaves its pair at distance 0, separating
    rng = np.random.default_rng(seed)
    positions = np.sort(rng.uniform(0.0, 10.0, size=8))[:, None]
    velocities = rng.normal(size=(8, 1))
    return kb.simulate_scenario(kb.gen_explicit(1, 0.0, positions, velocities))


def _repeats(log):
    """Back-to-back events of one pair (a swap, then a swap back)."""
    pairs = [(ev.i, ev.j) for ev in log.events]
    return sum(p == q for p, q in zip(pairs, pairs[1:]))


_LIVELOCK_SEEDS = (5, 11)  # a pair re-colliding once per ulp would never end


@pytest.mark.parametrize("seed", [s for s in range(12) if s not in _LIVELOCK_SEEDS])
def test_point_rods_do_not_recollide_with_partner(seed):
    log = _rods(seed)
    assert log.termination == "queue_empty"
    assert _repeats(log) == 0


def test_point_rods_livelock_seeds_terminate():
    # a subprocess with a timeout, so a livelock fails instead of hanging
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import test_dynamics as t; "
            f"print([t._repeats(t._rods(s)) for s in {_LIVELOCK_SEEDS}])")
    proc = subprocess.run(
        [sys.executable, "-c", code, str(Path(__file__).parent)],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [0, 0]
