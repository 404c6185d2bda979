"""Kink ledger, bulk invariants, bound reports and hodograph summaries."""

import math

import numpy as np
import pytest

from kinkbound import dynamics, harness, ledger


def _simulate(n, a, positions, velocities, t_max=None):
    scn = harness.gen_explicit(n, a, positions, velocities, t_max=t_max)
    return harness.simulate_scenario(scn)


def _gas(seed, N=24, n=2, a=0.02):
    scn = harness.gen_random_gas(
        n, N, [1.0] * n, a, {"kind": "maxwell", "sigma": 1.0}, seed)
    return harness.simulate_scenario(scn)


# -- bulk invariants ----------------------------------------------------------


def test_bulk_invariants_head_on_pair():
    inv = ledger.bulk_invariants(np.array([[1.0, 0.0], [-1.0, 0.0]]))
    assert inv.M == 2.0
    assert inv.E == 1.0
    assert np.array_equal(inv.w, [0.0, 0.0])
    assert inv.v_bar == 1.0
    assert inv.v_dev == 1.0


def test_bulk_invariants_single_particle():
    inv = ledger.bulk_invariants(np.array([[3.0, 4.0]]))
    assert inv.v_bar == 5.0
    assert np.array_equal(inv.w, [3.0, 4.0])
    assert inv.v_dev == 0.0


def test_bulk_invariants_four_symmetric():
    V = np.array([[1.0, 0], [-1.0, 0], [0, 1.0], [0, -1.0]])
    inv = ledger.bulk_invariants(V)
    assert inv.v_bar == 1.0
    assert np.array_equal(inv.w, [0.0, 0.0])
    assert inv.v_dev == 1.0


def test_bulk_invariants_accepts_states_and_rejects_empty():
    states = dynamics.StateBlock(np.array([0]), np.zeros((1, 2)),
                                 np.array([[3.0, 4.0]]))
    assert ledger.bulk_invariants(states.velocity).v_bar == 5.0
    with pytest.raises(ValueError):
        ledger.bulk_invariants(np.empty((0, 2)))
    with pytest.raises(ValueError):  # one velocity, not a state set
        ledger.bulk_invariants(np.array([3.0, 4.0]))


def test_bulk_inequalities_on_random_velocity_sets():
    rng = np.random.default_rng(5)
    for _ in range(50):
        N = int(rng.integers(1, 30))
        n = int(rng.integers(1, 4))
        inv = ledger.bulk_invariants(rng.normal(size=(N, n)) * 3.0)
        assert np.linalg.norm(inv.Q_total) <= math.sqrt(2 * inv.M * inv.E) + 1e-12
        assert inv.v_dev <= inv.v_bar + 1e-12


def test_invariants_constant_along_log():
    log = _gas(11)
    assert log.events, "want a log with collisions"
    before = ledger.bulk_invariants(log.initial.velocity)
    vel = {s.id: s.velocity for s in log.initial}
    for ev in log.events:
        vel[ev.i], vel[ev.j] = ev.vi_post, ev.vj_post
    after = ledger.bulk_invariants(
        np.array([vel[s.id] for s in log.initial]))
    assert after.M == before.M
    assert after.E == pytest.approx(before.E, rel=1e-9)
    np.testing.assert_allclose(after.w, before.w, atol=1e-9 * before.v_bar)
    assert after.v_bar == pytest.approx(before.v_bar, rel=1e-9)
    assert after.v_dev == pytest.approx(before.v_dev, rel=1e-9)


# -- ledger construction ------------------------------------------------------


def test_build_ledger_head_on_2d():
    log = _simulate(
        2, 0.5,
        [[-2.0, 0.0], [2.0, 0.0]],
        [[1.0, 0.0], [-1.0, 0.0]],
    )
    recs = ledger.build_ledger(log)
    assert len(recs) == 2
    for r in recs:
        assert r.dv_norm == pytest.approx(2.0, abs=1e-12)
        assert r.wedge == pytest.approx(0.0, abs=1e-12)
        assert r.st_wedge == pytest.approx(2.0, abs=1e-12)
    # participant order: i's record first, then j's
    assert (recs[0].particle, recs[0].partner) == (0, 1)
    assert (recs[1].particle, recs[1].partner) == (1, 0)
    assert recs[0].time == recs[1].time


def test_build_ledger_oblique_glancing_half_jump():
    # Static target placed so the contact normal is 45 degrees off the
    # incoming direction: the mover keeps half its velocity and deflects,
    # (1,0) -> (1/2,-1/2).
    r = math.sqrt(0.5)
    log = _simulate(
        2, 0.5,
        [[0.0, 0.0], [1.0 + r, r]],
        [[1.0, 0.0], [0.0, 0.0]],
    )
    recs = ledger.build_ledger(log)
    assert len(recs) == 2
    np.testing.assert_allclose(recs[0].v_post, [0.5, -0.5], atol=1e-12)
    assert recs[0].dv_norm == pytest.approx(math.sqrt(2) / 2, abs=1e-12)
    assert recs[0].wedge == pytest.approx(0.5, abs=1e-12)
    # the partner picks up the complementary jump, same magnitude
    assert recs[1].dv_norm == pytest.approx(math.sqrt(2) / 2, abs=1e-12)
    assert recs[1].wedge == pytest.approx(0.0, abs=1e-12)


def test_build_ledger_1d_swap():
    log = _simulate(1, 0.0, [[0.0], [1.0]], [[2.0], [-1.0]])
    recs = ledger.build_ledger(log)
    assert len(recs) == 2
    for r in recs:
        assert r.dv_norm == 3.0
        assert r.wedge == 0.0
        assert r.st_wedge == pytest.approx(3.0, rel=1e-15)


def test_st_wedge_identity_on_every_record():
    recs = ledger.build_ledger(_gas(3))
    assert recs
    for r in recs:
        lhs = r.st_wedge**2
        rhs = r.dv_norm**2 + r.wedge**2
        assert lhs == pytest.approx(rhs, rel=1e-12)
        assert r.dv_norm > 0


# -- bound reports ------------------------------------------------------------


def test_bound_report_empty_ledger():
    # two spheres flying apart: no collision, no kink
    log = _simulate(2, 0.1, [[0.0, 0.0], [1.0, 0.0]], [[-1.0, 0.0], [1.0, 0.0]])
    records = ledger.build_ledger(log)
    assert len(records) == 0
    inv = ledger.bulk_invariants(log.initial.velocity)
    rep = ledger.bound_report(records, inv, 2)
    assert rep.S1 == rep.S2 == rep.S_st == 0.0
    assert rep.ratio1 == rep.ratio2 == rep.ratio_st == 0.0
    assert rep.ratio2_defined


@pytest.mark.parametrize("p", [1, 3, 5])
def test_bound_report_line_sharpness(p):
    """Counter-streaming unit-speed rods: S2 saturates N^2 exactly."""
    log = harness.simulate_scenario(harness.gen_line_1d(p))
    N = 2 * p
    assert len(log.events) == p * p
    inv = ledger.bulk_invariants(log.initial.velocity)
    assert (inv.v_bar, inv.v_dev) == (1.0, 1.0)
    rep = ledger.bound_report(ledger.build_ledger(log), inv, N)
    assert rep.S2 == pytest.approx(N * N, rel=1e-12)
    assert rep.ratio2 == pytest.approx(1.0, rel=1e-12)
    assert rep.ratio2_defined


def test_bound_report_undefined_ratio2_flag():
    # nonzero jump sum but zero velocity spread: ratio2 has no value
    inv = ledger.bulk_invariants(np.array([[3.0, 4.0]]))
    one_kink = ledger.Ledger(
        time=np.array([1.0]), particle=np.array([0]), partner=np.array([1]),
        v=np.array([[1.0, 0.0]]), v_post=np.array([[-1.0, 0.0]]),
        dv_norm=np.array([2.0]), wedge=np.array([0.0]), st_wedge=np.array([2.0]))
    rep = ledger.bound_report(one_kink, inv, 1)
    assert not rep.ratio2_defined
    assert math.isinf(rep.ratio2)


def test_bound_report_random_gas_ratios_finite():
    log = _gas(17)
    inv = ledger.bulk_invariants(log.initial.velocity)
    rep = ledger.bound_report(ledger.build_ledger(log), inv, log.config.N)
    for val in (rep.S1, rep.ratio1, rep.S2, rep.ratio2, rep.S_st, rep.ratio_st):
        assert math.isfinite(val) and val > 0


# -- classification -----------------------------------------------------------


def test_classify_head_on_all_strong():
    log = _simulate(
        2, 0.5, [[-2.0, 0.0], [2.0, 0.0]], [[1.0, 0.0], [-1.0, 0.0]])
    inv = ledger.bulk_invariants(log.initial.velocity)
    recs = ledger.build_ledger(log)
    cls = ledger.classify_kinks(recs, inv, 2.0)
    assert (cls.strong, cls.weak) == (2, 0)
    # Markov bound is tight here: S2/(eps*v_bar) = 4/2 = strong count
    assert cls.markov_bound == pytest.approx(2.0)
    assert ledger.classify_kinks(recs, inv, 100.0).strong == 0


@pytest.mark.parametrize("p", [2, 4])
def test_classify_line_sharpness(p):
    log = harness.simulate_scenario(harness.gen_line_1d(p))
    inv = ledger.bulk_invariants(log.initial.velocity)
    cls = ledger.classify_kinks(ledger.build_ledger(log), inv, 1.0)
    assert cls.strong == 2 * p * p
    assert cls.weak == 0


def test_classify_rejects_bad_epsilon():
    inv = ledger.bulk_invariants(np.array([[1.0, 0.0]]))
    with pytest.raises(ValueError):
        ledger.classify_kinks([], inv, 0.0)
    with pytest.raises(ValueError):
        ledger.classify_kinks([], inv, -1.0)


def test_strong_count_obeys_markov_bound_on_gas():
    log = _gas(23)
    inv = ledger.bulk_invariants(log.initial.velocity)
    recs = ledger.build_ledger(log)
    for eps in (0.25, 0.5, 1.0, 2.0):
        cls = ledger.classify_kinks(recs, inv, eps)
        assert cls.strong + cls.weak == len(recs)
        assert cls.strong <= cls.markov_bound + 1e-12


# -- hodographs ---------------------------------------------------------------


def test_hodograph_collisionless_particle():
    log = _simulate(2, 0.1, [[0.0, 0.0], [5.0, 0.0]],
                    [[-1.0, 0.0], [1.0, 0.0]])
    assert not log.events
    for h in ledger.hodograph_summaries(log):
        assert h.ell == 0.0 and h.area == 0.0 and h.scatter == 0.0
        assert np.array_equal(h.v_plus, h.v0)
        assert np.array_equal(h.v_minus, h.v0)


def test_hodograph_two_head_on_rods():
    log = harness.simulate_scenario(harness.gen_line_1d(1))
    summ = ledger.hodograph_summaries(log)
    assert sum(h.ell for h in summ) == pytest.approx(4.0, abs=1e-15)
    for h in summ:
        assert h.scatter == pytest.approx(2.0, abs=1e-15)


def test_hodograph_single_symmetric_2d_kink():
    """Mirror pair arranged so one collision turns (1,0) into (0,1):
    chain length sqrt(2), swept triangle area 1/2 in the w=0 frame."""
    r = math.sqrt(0.5)
    log = _simulate(
        2, 0.5,
        [[0.0, 0.0], [2.0 + r, -r]],
        [[1.0, 0.0], [-1.0, 0.0]],
    )
    assert len(log.events) == 1
    np.testing.assert_allclose(log.events[0].vi_post, [0.0, 1.0], atol=1e-12)
    w = ledger.bulk_invariants(log.initial.velocity).w
    np.testing.assert_allclose(w, [0.0, 0.0], atol=1e-15)
    for h in ledger.hodograph_summaries(log):
        assert h.ell == pytest.approx(math.sqrt(2), rel=1e-12)
        assert h.area == pytest.approx(0.5, rel=1e-12)
        assert h.scatter == pytest.approx(math.sqrt(2), rel=1e-12)


def test_chain_length_sum_equals_jump_sum():
    log = _gas(29)
    recs = ledger.build_ledger(log)
    summ = ledger.hodograph_summaries(log)
    lhs = math.fsum(h.ell for h in summ)
    rhs = math.fsum(r.dv_norm for r in recs)
    # same multiset of jumps; per-particle accumulation rounds once per
    # kink before the outer sum, so allow a few ulps
    assert abs(lhs - rhs) <= 8 * np.finfo(float).eps * rhs


def test_scatter_bounded_by_chain_length():
    for seed in (31, 37):
        for h in ledger.hodograph_summaries(_gas(seed)):
            assert h.scatter <= h.ell + 1e-12


# -- transform behaviour ------------------------------------------------------


def test_jump_magnitudes_boost_invariant():
    scn = harness.gen_random_gas(
        2, 20, [1.0, 1.0], 0.03, {"kind": "maxwell", "sigma": 1.0}, 41)
    log0 = harness.simulate_scenario(scn)
    logb = harness.simulate_scenario(harness.apply_boost(scn, [2.5, -1.0]))
    assert [(e.i, e.j) for e in log0.events] == [(e.i, e.j) for e in logb.events]
    inv0 = ledger.bulk_invariants(log0.initial.velocity)
    invb = ledger.bulk_invariants(logb.initial.velocity)
    assert invb.v_dev == pytest.approx(inv0.v_dev, rel=1e-10)
    rec0 = ledger.build_ledger(log0)
    recb = ledger.build_ledger(logb)
    for r0, rb in zip(rec0, recb):
        assert rb.dv_norm == pytest.approx(r0.dv_norm, rel=1e-10)
    rep0 = ledger.bound_report(rec0, inv0, log0.config.N)
    repb = ledger.bound_report(recb, invb, logb.config.N)
    assert repb.ratio2 == pytest.approx(rep0.ratio2, rel=1e-10)


def test_time_scale_covariance_of_strengths():
    mu = 3.0
    scn = harness.gen_random_gas(
        2, 16, [1.0, 1.0], 0.03, {"kind": "maxwell", "sigma": 1.0}, 43)
    log0 = harness.simulate_scenario(scn)
    logm = harness.simulate_scenario(harness.apply_time_scale(scn, mu))
    assert [(e.i, e.j) for e in log0.events] == [(e.i, e.j) for e in logm.events]
    rec0 = ledger.build_ledger(log0)
    recm = ledger.build_ledger(logm)
    for r0, rm in zip(rec0, recm):
        assert rm.time == pytest.approx(r0.time / mu, rel=1e-10)
        assert rm.dv_norm == pytest.approx(mu * r0.dv_norm, rel=1e-10)
        assert rm.wedge == pytest.approx(mu * mu * r0.wedge, rel=1e-9)


# -- serialization ------------------------------------------------------------


def test_ledger_csv_round_trip(tmp_path):
    recs = ledger.build_ledger(_gas(47))
    path = tmp_path / "ledger.csv"
    ledger.write_ledger_csv(recs, path)
    rows = ledger.read_ledger_csv(path)
    assert len(rows) == len(recs)
    for r, row in zip(recs, rows):
        assert row["t"] == r.time
        assert row["particle"] == r.particle
        assert row["partner"] == r.partner
        assert row["dv_norm"] == r.dv_norm
        assert row["wedge"] == r.wedge
        assert row["st_wedge"] == r.st_wedge


def test_ledger_csv_rejects_foreign_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError):
        ledger.read_ledger_csv(path)


def test_build_report_schema():
    log = _gas(53)
    rep = ledger.build_report(log, ledger.build_ledger(log), epsilon=1.0)
    assert set(rep) == {
        "M", "E", "w", "v_bar", "v_dev", "S1", "ratio1", "S2", "ratio2",
        "S_st", "ratio_st", "strong_count", "weak_count", "per_particle",
    }
    assert rep["M"] == 24.0
    assert isinstance(rep["ratio2"], float)
    assert len(rep["per_particle"]) == 24
    for entry in rep["per_particle"]:
        assert set(entry) == {"id", "ell", "area", "scatter"}
    assert rep["strong_count"] + rep["weak_count"] == len(
        ledger.build_ledger(_gas(53)))
