"""End-to-end acceptance gates.

One test per release criterion.  Every test prints a single
"criterion N: PASS/FAIL key=value ..." line with its measured numbers, so
`pytest tests/test_acceptance.py -v -s` doubles as the release checklist.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from kinkbound import detmass, dynamics, harness, ledger, tensor
from kinkbound.kernel import wedge_norms

from oracles import (BruteForceIntegrator, kink_product_mass, lift,
                     match_events, random_balanced_measure, support_jump)


class _Verdict:
    """Collects key=value details and prints one PASS/FAIL line on exit."""

    def __init__(self, label):
        self.label = label
        self.info = {}

    def __enter__(self):
        return self.info

    def __exit__(self, exc_type, exc, tb):
        status = "PASS" if exc_type is None else "FAIL"
        detail = " ".join(f"{k}={v}" for k, v in self.info.items())
        print(f"\n{self.label}: {status} {detail}")
        return False


def _final_velocities(log):
    vel = {s.id: s.velocity for s in log.initial}
    for ev in log.events:
        vel[ev.i], vel[ev.j] = ev.vi_post, ev.vj_post
    return np.array([vel[s.id] for s in log.initial])


# -- 1: conservation ----------------------------------------------------------


def test_criterion_1_conservation():
    with _Verdict("criterion 1 (conservation)") as info:
        scn = harness.gen_random_gas(
            2, 64, [1.0, 1.0], 0.01, {"kind": "maxwell", "sigma": 1.0}, seed=1)
        t0 = time.perf_counter()
        log = harness.simulate_scenario(scn)
        elapsed = time.perf_counter() - t0
        V0 = np.array([s.velocity for s in log.initial])
        V1 = _final_velocities(log)
        E0 = 0.5 * float(np.sum(V0 * V0))
        E1 = 0.5 * float(np.sum(V1 * V1))
        energy_drift = abs(E1 - E0) / E0
        momentum_drift = float(np.linalg.norm(V1.sum(0) - V0.sum(0)))
        v_bar = ledger.bulk_invariants(log.initial.velocity).v_bar
        info["events"] = len(log.events)
        info["energy_drift"] = f"{energy_drift:.2e}"
        info["momentum_drift"] = f"{momentum_drift:.2e}"
        info["seconds"] = f"{elapsed:.3f}"
        assert log.termination == "queue_empty"
        assert energy_drift <= 1e-9
        assert momentum_drift <= 1e-12 * 64 * v_bar
        assert elapsed < 10.0


# -- 2: sharpness exactness ---------------------------------------------------


def test_criterion_2_sharpness_exactness():
    with _Verdict("criterion 2 (sharpness)") as info:
        t0 = time.perf_counter()
        for p in (1, 5, 50):
            N = 2 * p
            log = harness.simulate_scenario(harness.gen_line_1d(p))
            assert len(log.events) == p * p
            ell_sum = math.fsum(ledger.hodograph_summaries(log).ell.tolist())
            assert ell_sum == pytest.approx(N * N, rel=1e-12)
            inv = ledger.bulk_invariants(log.initial.velocity)
            rep = ledger.bound_report(ledger.build_ledger(log), inv)
            assert rep.ratio2 == pytest.approx(1.0, rel=1e-12)
        elapsed = time.perf_counter() - t0
        info["p"] = "1,5,50"
        info["seconds"] = f"{elapsed:.3f}"
        assert elapsed < 1.0


# -- 3 and 4 share one sweep --------------------------------------------------

SWEEP_SIZES = (8, 16, 32, 64, 128)
SWEEP_SEEDS = tuple(range(20))
SWEEP_BASE = {
    "generator": "random_gas", "n": 2, "a": 0.01,
    "box_policy": {"kind": "fixed_fraction", "value": 0.30},
    "velocities": {"kind": "maxwell", "sigma": 1.0},
}


@pytest.fixture(scope="module")
def sweep_logs():
    t0 = time.perf_counter()
    logs = {
        size: [
            harness.simulate_scenario(
                harness._sweep_scenario(SWEEP_BASE, size, seed, None))
            for seed in SWEEP_SEEDS
        ]
        for size in SWEEP_SIZES
    }
    return logs, time.perf_counter() - t0


def test_criterion_3_bound_boundedness(sweep_logs):
    logs, elapsed = sweep_logs
    with _Verdict("criterion 3 (boundedness)") as info:
        medians = {}
        for size, group in logs.items():
            ratios = []
            for log in group:
                inv = ledger.bulk_invariants(log.initial.velocity)
                rep = ledger.bound_report(ledger.build_ledger(log), inv)
                ratios.append(rep.ratio1)
            medians[size] = float(np.median(ratios))
        spread = max(medians.values()) / min(medians.values())
        info["medians"] = "{" + ", ".join(
            f"{k}: {v:.3f}" for k, v in medians.items()) + "}"
        info["spread"] = f"{spread:.3f}"
        info["seconds"] = f"{elapsed:.1f}"
        assert spread <= 3.0
        assert elapsed < 300.0


def test_criterion_4_tensor_audit(sweep_logs):
    logs, _ = sweep_logs
    with _Verdict("criterion 4 (tensor audit)") as info:
        rng = np.random.default_rng(1234)
        worst_balance = worst_parallel = worst_mass_dev = 0.0
        audited = 0
        for size, group in logs.items():
            for log in group:
                T = tensor.build_tensor(log, harness._audit_window(log))
                B = tensor.vertex_balances(T)
                interior = B.category == "interior"
                res = (np.linalg.norm(B.m[interior], axis=1)
                       / B.weight_scale[interior])
                worst_balance = max(worst_balance, float(res.max(initial=0.0)))
                assert (res <= 1e-12).all()
                by_time = {ev.t: ev for ev in log.events}
                E = T.edges
                for x_start, x_end in zip(E.x_start[E.kind == "colliton"],
                                          E.x_end[E.kind == "colliton"]):
                    ev = by_time[x_start[0]]
                    sep = ev.yj - ev.yi
                    d = x_end[1:] - x_start[1:]
                    mis = abs(d[0] * sep[1] - d[1] * sep[0]) / (
                        np.linalg.norm(d) * np.linalg.norm(sep))
                    worst_parallel = max(worst_parallel, mis)
                    assert mis <= 1e-10
                t_lo, t_hi = T.window
                masses = []
                tries = 0
                while len(masses) < 10 and tries < 1000:
                    tries += 1
                    t = float(rng.uniform(t_lo, t_hi))
                    try:
                        st = tensor.slice_trace(T, t)
                    except ValueError:
                        continue  # drew a boundary or collision time
                    assert st.total <= T.mass_energy + 1e-12
                    masses.append(st.mass)
                assert len(masses) == 10
                dev = max(masses) - min(masses)
                worst_mass_dev = max(worst_mass_dev, dev)
                assert dev <= 1e-12 * size
                assert all(m <= T.mass_energy + 1e-12 for m in masses)
                audited += 1
        info["logs"] = audited
        info["worst_balance"] = f"{worst_balance:.2e}"
        info["worst_colliton_angle"] = f"{worst_parallel:.2e}"
        info["worst_mass_dev"] = f"{worst_mass_dev:.2e}"


# -- 5: determinantal-mass oracles --------------------------------------------


def test_criterion_5_detmass_oracles():
    with _Verdict("criterion 5 (detmass oracles)") as info:
        t0 = time.perf_counter()
        rng = np.random.default_rng(2025)
        worst_closure = worst_ratio = worst_jump = 0.0
        for _ in range(100):
            mu = random_balanced_measure(rng, int(rng.integers(3, 13)))
            P = detmass.polygon_from_measure(mu)
            edges = np.roll(P.vertices, -1, axis=0) - P.vertices
            closure = float(np.linalg.norm(edges.sum(axis=0))) / mu.total
            worst_closure = max(worst_closure, closure)
            assert closure <= 1e-12
            area = detmass.enclosed_area(P)
            dm = detmass.dm_closed_formula(mu)
            rel = abs(area - 2.0 * dm) / area
            worst_ratio = max(worst_ratio, rel)
            assert rel <= 1e-10
            k = int(rng.integers(0, mu.angles.size))
            jump_err = abs(
                support_jump(P, float(mu.angles[k])) - mu.weights[k])
            worst_jump = max(worst_jump, jump_err)
            assert jump_err <= 1e-8
        square = detmass.AngularMeasure(
            np.arange(4) * (np.pi / 2), np.full(4, 2.0))
        assert detmass.enclosed_area(
            detmass.polygon_from_measure(square)) == pytest.approx(4.0)
        assert detmass.dm_closed_formula(square) == pytest.approx(2.0)
        tripod = detmass.AngularMeasure(
            np.array([0.0, 2 * np.pi / 3, 4 * np.pi / 3]), np.ones(3))
        V = np.array([1.0, 0.0])
        W = np.array([-0.5, math.sqrt(3) / 2])
        assert detmass.dm_triple(V, W, -V - W) == pytest.approx(
            math.sqrt(3) / 8, rel=1e-12)
        assert detmass.enclosed_area(
            detmass.polygon_from_measure(tripod)) == pytest.approx(
                math.sqrt(3) / 4, rel=1e-12)
        elapsed = time.perf_counter() - t0
        info["measures"] = 100
        info["worst_closure"] = f"{worst_closure:.2e}"
        info["worst_area_vs_2dm"] = f"{worst_ratio:.2e}"
        info["worst_support_jump_err"] = f"{worst_jump:.2e}"
        info["seconds"] = f"{elapsed:.3f}"
        assert elapsed < 5.0


# -- 6: kink-mass exponents ---------------------------------------------------


def test_criterion_6_kink_exponents():
    with _Verdict("criterion 6 (kink exponents)") as info:
        rng = np.random.default_rng(6)
        fits = {}
        worst_oracle = 0.0
        for n in (2, 3, 4):
            rows, vals, samples = [], [], []
            while len(vals) < 1000:
                V = lift(rng.normal(size=n))
                V2 = lift(rng.normal(size=n))
                w = float(wedge_norms(V, V2))
                if w <= 1e-12:
                    continue
                b = float(rng.uniform(0.1, 10.0))
                dm = detmass.dm_kink(V, V2, b)
                rows.append([math.log(w), math.log(b), 1.0])
                vals.append(math.log(dm))
                if len(samples) < 100:
                    samples.append((V, V2, b, dm))
            coef, *_ = np.linalg.lstsq(
                np.array(rows), np.array(vals), rcond=None)
            fits[n] = (coef[0], coef[1])
            assert abs(coef[0] - 1.0 / n) <= 1e-6
            assert abs(coef[1] - (n - 1.0) / n) <= 1e-6
            for V, V2, b, dm in samples:
                want = kink_product_mass(V, V2, b, convention="paper")
                err = abs(dm - want) / want
                worst_oracle = max(worst_oracle, err)
                assert err <= 1e-10
        info["fits"] = "; ".join(
            f"n={n}: ({e1:.8f}, {e2:.8f})" for n, (e1, e2) in fits.items())
        info["worst_oracle_err"] = f"{worst_oracle:.2e}"


# -- 7: boost and time-scale covariance ---------------------------------------

_COV_CASES = {
    1: dict(N=10, box=[3.0], a=0.02,
            velocities={"kind": "uniform", "v0": 2.0}),
    2: dict(N=16, box=[1.0, 1.0], a=0.03,
            velocities={"kind": "maxwell", "sigma": 1.0}),
    3: dict(N=16, box=[1.0, 1.0, 1.0], a=0.08,
            velocities={"kind": "maxwell", "sigma": 1.0}),
}
_BOOSTS = {1: [1.7], 2: [1.7, -0.6], 3: [1.7, -0.6, 0.4]}


def test_criterion_7_covariance():
    with _Verdict("criterion 7 (covariance)") as info:
        mu = 2.5
        counts = {}
        worst_dv = worst_t = worst_wedge = worst_pos = 0.0
        for n, case in _COV_CASES.items():
            counts[n] = 0
            w0 = np.array(_BOOSTS[n])
            for seed in range(5):
                scn = harness.gen_random_gas(
                    n, case["N"], case["box"], case["a"],
                    case["velocities"], seed)
                base = harness.simulate_scenario(scn)
                counts[n] += len(base.events)
                inv = ledger.bulk_invariants(base.initial.velocity)
                rec0 = ledger.build_ledger(base)
                rep0 = ledger.bound_report(rec0, inv)

                boosted = harness.simulate_scenario(
                    harness.apply_boost(scn, w0))
                assert [(e.i, e.j) for e in base.events] == \
                    [(e.i, e.j) for e in boosted.events]
                recb = ledger.build_ledger(boosted)
                err = np.abs(recb.dv_norm - rec0.dv_norm) / rec0.dv_norm
                worst_dv = max(worst_dv, float(err.max(initial=0.0)))
                assert (err <= 1e-10).all()
                invb = ledger.bulk_invariants(boosted.initial.velocity)
                repb = ledger.bound_report(recb, invb)
                if rep0.S2 > 0:
                    assert repb.ratio2 == pytest.approx(rep0.ratio2,
                                                        rel=1e-10)
                for e0, eb in zip(base.events, boosted.events):
                    # co-moving frame: positions translate by t * w0
                    perr = float(np.linalg.norm(
                        eb.yi - (e0.yi + eb.t * w0)))
                    worst_pos = max(worst_pos, perr)
                    assert perr <= 1e-10 * max(
                        1.0, float(np.linalg.norm(eb.yi)))

                scaled = harness.simulate_scenario(
                    harness.apply_time_scale(scn, mu))
                assert [(e.i, e.j) for e in base.events] == \
                    [(e.i, e.j) for e in scaled.events]
                recm = ledger.build_ledger(scaled)
                for e0, em in zip(base.events, scaled.events):
                    terr = abs(em.t - e0.t / mu) / (e0.t / mu)
                    worst_t = max(worst_t, terr)
                    assert terr <= 1e-10
                assert recm.dv_norm == pytest.approx(mu * rec0.dv_norm,
                                                     rel=1e-10)
                # the wedge is a Gram-determinant square root, so each side
                # carries ~sqrt(eps)*|v||v'| of cancellation noise (a 1D
                # wedge is entirely that noise)
                wantw = mu * mu * rec0.wedge
                floor = 4e-8 * mu * mu * (np.linalg.norm(rec0.v, axis=1)
                                          * np.linalg.norm(rec0.v_post, axis=1))
                werr = np.abs(recm.wedge - wantw)
                worst_wedge = max(worst_wedge, float(
                    (werr / np.maximum(1.0, wantw)).max(initial=0.0)))
                assert np.isclose(recm.wedge, wantw, rtol=1e-10, atol=floor).all()
        assert all(c > 0 for c in counts.values())
        info["events"] = ",".join(f"n{n}:{c}" for n, c in counts.items())
        info["worst_dv_rel"] = f"{worst_dv:.2e}"
        info["worst_time_rel"] = f"{worst_t:.2e}"
        info["worst_wedge_rel"] = f"{worst_wedge:.2e}"
        info["worst_comoving_pos"] = f"{worst_pos:.2e}"


# -- 8: determinism and input-order independence -----------------------------


def _id_ordered_jsonl(log):
    """events.jsonl bytes with initial states sorted by id and each event's
    (i, j) put in id order, so logs of permuted inputs compare bytewise."""
    b = log.events
    swap = b.i > b.j
    pair = np.where(swap[:, None], [1, 0], [0, 1])[:, :, None]  # (E, 2, 1)
    events = dynamics.EventBlock(
        b.t, np.minimum(b.i, b.j), np.maximum(b.i, b.j),
        *(np.take_along_axis(x, pair, axis=1) for x in (b.y, b.v, b.v_post)))
    states = log.initial
    order = np.argsort(states.id)
    initial = dynamics.StateBlock(states.id[order], states.position[order],
                                  states.velocity[order])
    return dynamics.events_jsonl_bytes(replace(log, initial=initial, events=events))


def test_criterion_8_determinism_and_backends(tmp_path):
    with _Verdict("criterion 8 (determinism)") as info:
        config = {"scenario": {"generator": "random_gas", "N": 32,
                               "a": 0.02, "box": [1.0, 1.0], "seed": 77}}
        harness.run_experiment(config, tmp_path / "run1")
        harness.run_experiment(config, tmp_path / "run2")
        b1 = (tmp_path / "run1" / "events.jsonl").read_bytes()
        b2 = (tmp_path / "run2" / "events.jsonl").read_bytes()
        assert b1 == b2
        info["jsonl_bytes"] = len(b1)

        agree = 0
        for seed in range(100, 110):
            scn = harness.gen_random_gas(
                2, 24, [1.0, 1.0], 0.02,
                {"kind": "maxwell", "sigma": 1.0}, seed)
            log_fwd = dynamics.run_simulation(scn.states, scn.config)
            log_rev = dynamics.run_simulation(scn.states[::-1], scn.config)
            assert log_fwd.events
            assert _id_ordered_jsonl(log_fwd) == _id_ordered_jsonl(log_rev)
            agree += 1
        info["input_order_scenarios"] = agree


# -- 9: brute-force oracle cross-validation -----------------------------------


def test_criterion_9_brute_force_cross_validation():
    with _Verdict("criterion 9 (oracle cross-validation)") as info:
        N, a = 16, 0.05
        pos = np.array([[0.12 * i + 0.005 * math.sin(3.7 * i + 0.4)]
                        for i in range(N)])
        vel = np.array([[8.0 - i - 0.01 * math.cos(2.9 * i)]
                        for i in range(N)])
        log = harness.simulate_scenario(harness.gen_explicit(1, a, pos, vel))
        assert len(log.events) == N * (N - 1) // 2  # strictly decreasing speeds
        first = [(ev.t, *sorted((ev.i, ev.j))) for ev in log.events[:100]]

        v_bar = ledger.bulk_invariants(log.initial.velocity).v_bar
        dt = 1e-5 * a / v_bar
        tol = 1e-4 * a / v_bar
        t0 = time.perf_counter()
        brute = BruteForceIntegrator(pos, vel, a, dt)
        candidates = brute.run(100)
        elapsed = time.perf_counter() - t0
        worst = match_events(first, candidates, tol)
        info["events_checked"] = 100
        info["dt"] = f"{dt:.3e}"
        info["tol"] = f"{tol:.3e}"
        info["worst_time_err"] = f"{worst:.2e}"
        info["brute_seconds"] = f"{elapsed:.2f}"
        assert worst <= tol
