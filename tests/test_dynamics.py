import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import kinkbound as kb
from kinkbound.dynamics import (
    ConfigurationError,
    EVENTS_FORMAT,
    GenericityViolation,
    ParticleState,
    SimConfig,
    advance_free,
    events_jsonl_bytes,
    predict_pair_collision,
    read_events_jsonl,
    resolve_collision,
    run_simulation,
    validate_configuration,
    write_events_jsonl,
)

from oracles import contact_time_scan, replay_positions


def _state(i, y, v):
    return ParticleState(i, np.asarray(y, dtype=np.float64),
                         np.asarray(v, dtype=np.float64))


# -- validation ---------------------------------------------------------------


def test_validate_accepts_separated_spheres():
    cfg = SimConfig(n=2, N=2, a=1.0)
    states = [_state(0, [0, 0], [0, 0]), _state(1, [3, 0], [0, 0])]
    assert validate_configuration(states, cfg).ok


def test_validate_rejects_overlap():
    cfg = SimConfig(n=2, N=2, a=1.0)
    states = [_state(0, [0, 0], [0, 0]), _state(1, [1, 0], [0, 0])]
    rep = validate_configuration(states, cfg)
    assert not rep.ok and rep.reason == "overlap"
    assert rep.detail["pair"] == (0, 1)


def test_validate_rejects_coincident_points_on_line():
    cfg = SimConfig(n=1, N=2, a=0.0)
    states = [_state(0, [0.0], [1.0]), _state(1, [0.0], [-1.0])]
    assert not validate_configuration(states, cfg).ok


def test_validate_rejects_zero_radius_off_line():
    cfg = SimConfig(n=2, N=1, a=0.0)
    assert not validate_configuration([_state(0, [0, 0], [0, 0])], cfg).ok


# -- prediction ---------------------------------------------------------------


def test_predict_head_on():
    """Gap 4 -> 2 at relative closing speed 2: contact at t = 1."""
    si = _state(0, [0.0, 0.0], [1.0, 0.0])
    sj = _state(1, [4.0, 0.0], [-1.0, 0.0])
    t = predict_pair_collision(si, sj, a=1.0)
    oracle = contact_time_scan([0, 0], [1, 0], [4, 0], [-1, 0], 1.0, 5.0)
    assert t == pytest.approx(1.0, abs=1e-12)
    assert t == pytest.approx(oracle, abs=1e-9)


def test_predict_separating_pair_none():
    si = _state(0, [0.0, 0.0], [-1.0, 0.0])
    sj = _state(1, [4.0, 0.0], [1.0, 0.0])
    assert predict_pair_collision(si, sj, a=1.0) is None


def test_predict_grazing_none():
    # impact parameter exactly 2a: tangential contact, filtered
    si = _state(0, [0.0, 0.0], [1.0, 0.0])
    sj = _state(1, [5.0, 2.0], [0.0, 0.0])
    assert predict_pair_collision(si, sj, a=1.0) is None
    assert contact_time_scan([0, 0], [1, 0], [5, 2], [0, 0], 1.0, 20.0) is None


def test_predict_matches_scan_oracle_on_random_pairs():
    rng = np.random.default_rng(11)
    hits = 0
    for _ in range(300):
        n = int(rng.integers(1, 4))
        a = float(rng.uniform(0.05, 0.5))
        yi, yj = rng.normal(0, 2, size=(2, n))
        if np.linalg.norm(yj - yi) <= 2 * a:
            continue
        vi, vj = rng.normal(0, 1.5, size=(2, n))
        t = predict_pair_collision(_state(0, yi, vi), _state(1, yj, vj), a=a)
        t_oracle = contact_time_scan(yi, vi, yj, vj, a, 50.0)
        if t is None:
            # the scan may see a tangential touch the grazing filter drops;
            # everything else must agree
            assert t_oracle is None or t_oracle > 50.0 or abs(
                np.dot(yj - yi, vj - vi)) < 1e-12 or _is_grazing(yi, vi, yj, vj, a)
        elif t < 49.0:  # inside the oracle's scan horizon
            hits += 1
            assert t_oracle is not None
            assert t == pytest.approx(t_oracle, rel=1e-9, abs=1e-9)
    assert hits > 30  # the draw really exercises the colliding branch


def _is_grazing(yi, vi, yj, vj, a):
    dy, dv = np.asarray(yj) - yi, np.asarray(vj) - vi
    b = float(np.dot(dy, dv))
    A = float(np.dot(dv, dv))
    c = float(np.dot(dy, dy)) - 4 * a * a
    disc = b * b - A * c
    return disc < 1e-14 * (b * b + A * abs(c))


# -- resolution ---------------------------------------------------------------


def test_resolve_head_on_swap():
    vi, vj = resolve_collision([1.0, 0.0], [-1.0, 0.0], [1.0, 0.0])
    np.testing.assert_array_equal(vi, [-1.0, 0.0])
    np.testing.assert_array_equal(vj, [1.0, 0.0])


def test_resolve_1d_exchange():
    vi, vj = resolve_collision([2.0], [-1.0], [1.0])
    assert (vi[0], vj[0]) == (-1.0, 2.0)


def test_resolve_oblique():
    r = np.sqrt(2.0) / 2.0
    vi, vj = resolve_collision([1.0, 0.0], [0.0, 0.0], [r, r])
    np.testing.assert_allclose(vi, [0.5, -0.5], atol=1e-15)
    np.testing.assert_allclose(vj, [0.5, 0.5], atol=1e-15)
    assert np.dot(vi, vi) + np.dot(vj, vj) == pytest.approx(1.0, abs=1e-15)


def test_resolve_conservation_exact_on_random_input():
    rng = np.random.default_rng(3)
    for _ in range(200):
        n = int(rng.integers(1, 5))
        vi, vj = rng.normal(0, 2, size=(2, n))
        u = rng.normal(0, 1, size=n)
        u /= np.linalg.norm(u)
        if np.dot(vj - vi, u) >= 0:
            u = -u
        if np.dot(vj - vi, u) >= 0:
            continue  # exactly orthogonal draw
        wi, wj = resolve_collision(vi, vj, u)
        # the impulse is shared, so momentum error is one rounding per component
        np.testing.assert_allclose(wi + wj, vi + vj, rtol=0, atol=1e-13)
        e0 = np.dot(vi, vi) + np.dot(vj, vj)
        e1 = np.dot(wi, wi) + np.dot(wj, wj)
        assert e1 == pytest.approx(e0, rel=1e-12)
        # jump parallel to the normal, post-collision separation
        jump = wi - vi
        assert np.linalg.norm(jump - np.dot(jump, u) * u) <= 1e-12
        assert np.dot(wj - wi, u) > 0


def test_resolve_rejects_separating():
    with pytest.raises(ValueError):
        resolve_collision([-1.0, 0.0], [1.0, 0.0], [1.0, 0.0])
    with pytest.raises(ValueError):
        resolve_collision([1.0, 0.0], [-1.0, 0.0], [2.0, 0.0])  # not unit


# -- free flight --------------------------------------------------------------


def test_advance_free():
    s = _state(0, [0.0, 0.0], [1.0, 2.0])
    s2 = advance_free(s, 2.0)
    np.testing.assert_array_equal(s2.position, [2.0, 4.0])
    np.testing.assert_array_equal(s2.velocity, [1.0, 2.0])
    assert s2.last_update_time == 2.0
    s3 = advance_free(s2, 2.0)
    np.testing.assert_array_equal(s3.position, s2.position)
    with pytest.raises(ValueError):
        advance_free(s2, 1.0)


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
    cfg = sc.config
    cfg = SimConfig(n=cfg.n, N=cfg.N, a=cfg.a, t_max=1.0)
    log = run_simulation(sc.states, cfg)
    assert log.termination == "t_max"
    assert log.events == []


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
    assert exc.value.report.reason == "overlap"


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


def test_conservation_and_no_overlap_on_random_gas():
    sc = kb.gen_random_gas(2, 48, [1.0, 1.0], 0.015,
                           {"kind": "maxwell", "sigma": 1.0}, seed=12)
    log = run_simulation(sc.states, sc.config)
    assert len(log.events) > 5
    V = {s.id: np.array(s.velocity) for s in log.initial}
    p0 = sum(V.values())
    e0 = sum(np.dot(v, v) for v in V.values())
    vbar = kb.bulk_invariants(log.initial).v_bar
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
    rotated = [ParticleState(s.id, R @ s.position, R @ s.velocity)
               for s in sc.states]
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
    boosted = [ParticleState(s.id, np.array(s.position), s.velocity + w0)
               for s in sc.states]
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
