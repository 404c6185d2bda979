"""Kink ledger, bulk invariants, bound reports and hodograph summaries."""

import csv
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
    assert recs.dv_norm == pytest.approx([2.0, 2.0], abs=1e-12)
    assert recs.wedge == pytest.approx([0.0, 0.0], abs=1e-12)
    assert recs.st_wedge == pytest.approx([2.0, 2.0], abs=1e-12)
    # participant order: i's record first, then j's
    assert recs.particle.tolist() == [0, 1]
    assert recs.partner.tolist() == [1, 0]
    assert recs.time[0] == recs.time[1]


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
    np.testing.assert_allclose(recs.v_post[0], [0.5, -0.5], atol=1e-12)
    assert recs.dv_norm[0] == pytest.approx(math.sqrt(2) / 2, abs=1e-12)
    assert recs.wedge[0] == pytest.approx(0.5, abs=1e-12)
    # the partner picks up the complementary jump, same magnitude
    assert recs.dv_norm[1] == pytest.approx(math.sqrt(2) / 2, abs=1e-12)
    assert recs.wedge[1] == pytest.approx(0.0, abs=1e-12)


def test_build_ledger_1d_swap():
    log = _simulate(1, 0.0, [[0.0], [1.0]], [[2.0], [-1.0]])
    recs = ledger.build_ledger(log)
    assert len(recs) == 2
    assert recs.dv_norm.tolist() == [3.0, 3.0]
    assert recs.wedge.tolist() == [0.0, 0.0]
    assert recs.st_wedge == pytest.approx([3.0, 3.0], rel=1e-15)


def test_st_wedge_identity_on_every_record():
    recs = ledger.build_ledger(_gas(3))
    assert recs
    assert recs.st_wedge**2 == pytest.approx(recs.dv_norm**2 + recs.wedge**2,
                                             rel=1e-12)
    assert (recs.dv_norm > 0).all()


# -- bound reports ------------------------------------------------------------


def test_bound_report_empty_ledger():
    # two spheres flying apart: no collision, no kink
    log = _simulate(2, 0.1, [[0.0, 0.0], [1.0, 0.0]], [[-1.0, 0.0], [1.0, 0.0]])
    records = ledger.build_ledger(log)
    assert len(records) == 0
    inv = ledger.bulk_invariants(log.initial.velocity)
    rep = ledger.bound_report(records, inv)
    assert rep.S1 == rep.S2 == rep.S_st == 0.0
    assert rep.ratio1 == rep.ratio2 == rep.ratio_st == 0.0
    assert (rep.strong, rep.weak) == (0, 0)


@pytest.mark.parametrize("p", [1, 3, 5])
def test_bound_report_line_sharpness(p):
    """Counter-streaming unit-speed rods: S2 saturates N^2 exactly."""
    log = harness.simulate_scenario(harness.gen_line_1d(p))
    N = 2 * p
    assert len(log.events) == p * p
    inv = ledger.bulk_invariants(log.initial.velocity)
    assert (inv.v_bar, inv.v_dev) == (1.0, 1.0)
    rep = ledger.bound_report(ledger.build_ledger(log), inv)
    assert rep.S2 == pytest.approx(N * N, rel=1e-12)
    assert rep.ratio2 == pytest.approx(1.0, rel=1e-12)


def test_bound_report_undefined_ratio2_is_none():
    # nonzero jump sum but zero velocity spread: ratio2 has no value
    inv = ledger.bulk_invariants(np.array([[3.0, 4.0]]))
    one_kink = ledger.Ledger(
        time=np.array([1.0]), particle=np.array([0]), partner=np.array([1]),
        v=np.array([[1.0, 0.0]]), v_post=np.array([[-1.0, 0.0]]),
        dv_norm=np.array([2.0]), wedge=np.array([0.0]), st_wedge=np.array([2.0]))
    rep = ledger.bound_report(one_kink, inv)
    assert rep.ratio2 is None
    assert rep.S2 == 2.0 and math.isfinite(rep.ratio1)


def test_bound_report_random_gas_ratios_finite():
    log = _gas(17)
    inv = ledger.bulk_invariants(log.initial.velocity)
    rep = ledger.bound_report(ledger.build_ledger(log), inv)
    for val in (rep.S1, rep.ratio1, rep.S2, rep.ratio2, rep.S_st, rep.ratio_st):
        assert math.isfinite(val) and val > 0


def test_bound_report_normalizes_by_particle_count():
    """N is inv.M: the ratios are the sums over M^2 times their scales."""
    log = _gas(19)
    inv = ledger.bulk_invariants(log.initial.velocity)
    rep = ledger.bound_report(ledger.build_ledger(log), inv)
    N = len(log.initial)
    assert rep.ratio1 == rep.S1 / (float(N) * float(N) * inv.v_bar**2)
    assert rep.ratio2 == rep.S2 / (float(N) * float(N) * inv.v_dev)


# -- strong/weak split ----------------------------------------------------------


def test_classify_head_on_all_strong():
    log = _simulate(
        2, 0.5, [[-2.0, 0.0], [2.0, 0.0]], [[1.0, 0.0], [-1.0, 0.0]])
    inv = ledger.bulk_invariants(log.initial.velocity)
    recs = ledger.build_ledger(log)
    rep = ledger.bound_report(recs, inv, 2.0)
    assert (rep.strong, rep.weak) == (2, 0)
    # Markov bound is tight here: S2/(eps*v_bar) = 4/2 = strong count
    assert rep.S2 / (2.0 * inv.v_bar) == pytest.approx(2.0)
    assert ledger.bound_report(recs, inv, 100.0).strong == 0


@pytest.mark.parametrize("p", [2, 4])
def test_classify_line_sharpness(p):
    log = harness.simulate_scenario(harness.gen_line_1d(p))
    inv = ledger.bulk_invariants(log.initial.velocity)
    rep = ledger.bound_report(ledger.build_ledger(log), inv, 1.0)
    assert rep.strong == 2 * p * p
    assert rep.weak == 0


def test_classify_rejects_bad_epsilon():
    inv = ledger.bulk_invariants(np.array([[1.0, 0.0]]))
    empty = ledger.build_ledger(_simulate(1, 0.1, [[0.0]], [[1.0]]))
    for eps in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError):
            ledger.bound_report(empty, inv, eps)


def test_strong_count_obeys_markov_bound_on_gas():
    log = _gas(23)
    inv = ledger.bulk_invariants(log.initial.velocity)
    recs = ledger.build_ledger(log)
    for eps in (0.25, 0.5, 1.0, 2.0):
        rep = ledger.bound_report(recs, inv, eps)
        assert rep.strong + rep.weak == len(recs) == 2 * len(log.events)
        # first-moment (Markov) bound: each strong kink adds >= eps*v_bar to S2
        assert rep.strong <= rep.S2 / (eps * inv.v_bar) + 1e-12


# -- hodographs ---------------------------------------------------------------


def test_hodograph_collisionless_particle():
    log = _simulate(2, 0.1, [[0.0, 0.0], [5.0, 0.0]],
                    [[-1.0, 0.0], [1.0, 0.0]])
    assert not log.events
    h = ledger.hodograph_summaries(log)
    assert len(h) == 2
    assert h.ell.tolist() == h.area.tolist() == h.scatter.tolist() == [0.0, 0.0]
    assert np.array_equal(h.v_plus, h.v0)


def test_hodograph_two_head_on_rods():
    log = harness.simulate_scenario(harness.gen_line_1d(1))
    summ = ledger.hodograph_summaries(log)
    assert sum(summ.ell.tolist()) == pytest.approx(4.0, abs=1e-15)
    assert summ.scatter == pytest.approx([2.0, 2.0], abs=1e-15)


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
    h = ledger.hodograph_summaries(log)
    assert h.ell == pytest.approx([math.sqrt(2)] * 2, rel=1e-12)
    assert h.area == pytest.approx([0.5] * 2, rel=1e-12)
    assert h.scatter == pytest.approx([math.sqrt(2)] * 2, rel=1e-12)


def test_chain_length_sum_equals_jump_sum():
    log = _gas(29)
    recs = ledger.build_ledger(log)
    summ = ledger.hodograph_summaries(log)
    lhs = math.fsum(summ.ell.tolist())
    rhs = math.fsum(recs.dv_norm.tolist())
    # same multiset of jumps; per-particle accumulation rounds once per
    # kink before the outer sum, so allow a few ulps
    assert abs(lhs - rhs) <= 8 * np.finfo(float).eps * rhs


def test_scatter_bounded_by_chain_length():
    for seed in (31, 37):
        h = ledger.hodograph_summaries(_gas(seed))
        assert (h.scatter <= h.ell + 1e-12).all()


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
    assert recb.dv_norm == pytest.approx(rec0.dv_norm, rel=1e-10)
    rep0 = ledger.bound_report(rec0, inv0)
    repb = ledger.bound_report(recb, invb)
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
    assert recm.time == pytest.approx(rec0.time / mu, rel=1e-10)
    assert recm.dv_norm == pytest.approx(mu * rec0.dv_norm, rel=1e-10)
    assert recm.wedge == pytest.approx(mu * mu * rec0.wedge, rel=1e-9)


# -- serialization ------------------------------------------------------------


def test_ledger_csv_round_trip(tmp_path):
    """ledger.csv parses with the csv module back to the exact columns."""
    recs = ledger.build_ledger(_gas(47))
    path = tmp_path / "ledger.csv"
    ledger.write_ledger_csv(recs, path)
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        assert reader.fieldnames == ledger.LEDGER_COLUMNS
        rows = list(reader)
    assert len(rows) == len(recs)
    for name, column, parse in (("t", recs.time, float),
                                ("particle", recs.particle, int),
                                ("partner", recs.partner, int),
                                ("dv_norm", recs.dv_norm, float),
                                ("wedge", recs.wedge, float),
                                ("st_wedge", recs.st_wedge, float)):
        assert [parse(row[name]) for row in rows] == column.tolist()


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
