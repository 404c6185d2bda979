"""Spacetime mass-momentum graph tensor: structure, balances, slices,
augmentation."""

import math
import subprocess
import sys

import numpy as np
import pytest

from kinkbound import harness, tensor
from kinkbound.kernel import lift


def _simulate(n, a, positions, velocities):
    scn = harness.gen_explicit(n, a, positions, velocities)
    return harness.simulate_scenario(scn)


def _gas(seed, N=24, n=2, a=0.02):
    scn = harness.gen_random_gas(
        n, N, [1.0] * n, a, {"kind": "maxwell", "sigma": 1.0}, seed)
    return harness.simulate_scenario(scn)


def _window(log, pad=0.25):
    hi = (log.events[-1].t if log.events else 1.0) + pad
    return (-pad, hi)


def _head_on(a=0.5):
    # gap 4 -> contact separation 1 at closing speed 2: collision at t = 1.5
    return _simulate(2, a,
                     [[-2.0, 0.0], [2.0, 0.0]],
                     [[1.0, 0.0], [-1.0, 0.0]])


# -- construction -------------------------------------------------------------


def test_single_free_particle_edge():
    log = _simulate(2, 0.1, [[0.0, 0.0], [50.0, 0.0]],
                    [[0.6, 0.8], [0.0, 0.0]])
    assert not log.events
    T = tensor.build_tensor(log, (0.0, 1.0))
    assert len(T.edges) == 2 and T.n == 2
    e = T.edges[0]
    assert e.kind == "trajectory"
    assert e.weight == pytest.approx(math.sqrt(2.0), rel=1e-15)  # |v| = 1
    np.testing.assert_allclose(e.x_start, [0.0, 0.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(e.x_end, [1.0, 0.6, 0.8], atol=1e-15)
    assert T.mass_energy == pytest.approx(2.0 + 0.5 * 1.0)


def test_single_collision_edge_inventory():
    log = _head_on()
    assert len(log.events) == 1 and log.events[0].t == pytest.approx(1.5)
    T = tensor.build_tensor(log, (0.0, 3.0))
    kinds = sorted(e.kind for e in T.edges)
    assert kinds == ["colliton"] + ["trajectory"] * 4
    assert len(T.kinks) == 2
    col = next(e for e in T.edges if e.kind == "colliton")
    # constant-time segment joining the two centers at contact
    assert col.x_start[0] == col.x_end[0] == pytest.approx(1.5)
    assert np.linalg.norm(col.x_end[1:] - col.x_start[1:]) == pytest.approx(
        2 * log.config.a, abs=1e-9)
    assert col.direction[0] == 0.0
    assert col.weight == pytest.approx(2.0, abs=1e-12)  # |v' - v|
    for e in T.edges:
        if e.kind == "trajectory":
            assert e.weight == pytest.approx(math.sqrt(2.0), rel=1e-12)


def test_point_rods_share_one_vertex_no_colliton():
    log = _simulate(1, 0.0, [[-1.0], [1.0]], [[1.0], [-1.0]])
    assert len(log.events) == 1
    T = tensor.build_tensor(log, (0.0, 2.0))
    assert all(e.kind == "trajectory" for e in T.edges)
    assert len(T.edges) == 4
    balances = tensor.vertex_balances(T)
    interior = [vb for vb in balances if vb.category == "interior"]
    assert len(interior) == 1
    vb = interior[0]
    assert vb.degree == 4  # all four lines meet at the contact point
    np.testing.assert_allclose(vb.x, [1.0, 0.0], atol=1e-12)
    assert np.linalg.norm(vb.m) <= 1e-12 * vb.weight_scale


def test_window_extends_ballistically_past_events():
    log = _head_on()
    T = tensor.build_tensor(log, (-1.0, 50.0))
    starts = sorted(e.x_start[0] for e in T.edges if e.kind == "trajectory")
    ends = sorted(e.x_end[0] for e in T.edges if e.kind == "trajectory")
    assert starts[:2] == [-1.0, -1.0] and ends[-2:] == [50.0, 50.0]
    # extrapolated endpoint: particle 0 leaves the collision at (-0.5, 0)
    # with velocity (-1, 0), so at t = 50 it sits at x = -49
    ev = log.events[0]
    out0 = next(e for e in T.edges
                if e.kind == "trajectory" and e.x_start[0] == pytest.approx(1.5)
                and np.allclose(e.x_start[1:], ev.yi))
    np.testing.assert_allclose(out0.x_end, [50.0, -49.0, 0.0], atol=1e-9)


def test_window_validation():
    log = _head_on()
    with pytest.raises(ValueError):
        tensor.build_tensor(log, (2.0, 2.0))
    with pytest.raises(ValueError):
        tensor.build_tensor(log, (3.0, 2.0))
    with pytest.raises(ValueError):  # boundary hits the collision time
        tensor.build_tensor(log, (0.0, log.events[0].t))


def _rods(seed=0, N=8):
    rng = np.random.default_rng(seed)
    positions = np.sort(rng.uniform(0.0, 10.0, size=N))[:, None]
    return _simulate(1, 0.0, positions, rng.normal(size=(N, 1)))


def _incidence(T):
    """Degree of every vertex id, counted from the edges' endpoint ids."""
    ends = [v for e in T.edges for v in (e.start, e.end)]
    return np.bincount(ends, minlength=T.vertices)


@pytest.mark.parametrize("seed", range(4))
def test_rods_vertices_from_construction(seed):
    # a == 0: one vertex per collision, where all four lines meet, plus one
    # per particle on each window boundary
    log = _rods(seed)
    N, C = len(log.initial), len(log.events)
    T = tensor.build_tensor(log, _window(log))
    assert T.vertices == 2 * N + C
    degree = _incidence(T)
    balances = tensor.vertex_balances(T)
    assert [vb.degree for vb in balances] == degree.tolist()
    interior = [vb for vb in balances if vb.category == "interior"]
    assert len(interior) == C and all(vb.degree == 4 for vb in interior)
    assert sorted({k.vertex_id for k in T.kinks}) == [
        i for i, vb in enumerate(balances) if vb.category == "interior"]


@pytest.mark.parametrize("seed", [61, 97])
def test_gas_vertices_from_construction(seed):
    # a > 0: each collision has two kinks, each where a particle's incoming
    # and outgoing trajectories meet the colliton
    log = _gas(seed)
    N, C = len(log.initial), len(log.events)
    T = tensor.build_tensor(log, _window(log))
    assert T.vertices == 2 * N + 2 * C
    balances = tensor.vertex_balances(T)
    assert [vb.degree for vb in balances] == _incidence(T).tolist()
    assert sum(vb.category == "boundary" for vb in balances) == 2 * N
    interior = [vb for vb in balances if vb.category == "interior"]
    assert len(interior) == 2 * C and all(vb.degree == 3 for vb in interior)
    assert sorted(k.vertex_id for k in T.kinks) == [
        i for i, vb in enumerate(balances) if vb.category == "interior"]
    for e in T.edges:  # the ids name the vertex at each endpoint
        for v, x in ((e.start, e.x_start), (e.end, e.x_end)):
            np.testing.assert_allclose(balances[v].x, x, rtol=0, atol=1e-12)


def test_augmentation_tips_numbered_after_vertices():
    log = _gas(61)
    T = tensor.build_tensor(log, _window(log))
    A = tensor.build_augmented(T, b=0.5)
    tips = 2 * (T.n - 1) * len(T.kinks)
    assert A.vertices == T.vertices + tips
    balances = tensor.vertex_balances(A)
    assert [vb.degree for vb in balances] == _incidence(A).tolist()
    for vb in balances[T.vertices:]:
        assert vb.degree == 1 and vb.category == "augment_tip"
    for vb in balances[:T.vertices]:
        assert vb.category != "augment_tip"
    added = A.edges[len(T.edges):]
    assert [e.end for e in added] == list(range(T.vertices, A.vertices))
    assert [e.start for e in added] == [
        k.vertex_id for k in T.kinks for _ in range(2 * (T.n - 1))]


# -- balances -----------------------------------------------------------------


def test_interior_balances_vanish_on_gas_log():
    log = _gas(61)
    assert log.events
    T = tensor.build_tensor(log, _window(log))
    checked = 0
    for vb in tensor.vertex_balances(T):
        if vb.category == "interior":
            assert np.linalg.norm(vb.m) <= 1e-12 * vb.weight_scale
            checked += 1
    assert checked >= len(log.events)


def test_boundary_balances_are_crossing_vectors():
    v = np.array([0.3, -1.2])
    log = _simulate(2, 0.1, [[0.0, 0.0], [50.0, 0.0]],
                    [v.tolist(), [0.0, 0.0]])
    T = tensor.build_tensor(log, (0.0, 2.0))
    V = lift(v)
    lower = [vb for vb in tensor.vertex_balances(T)
             if vb.category == "boundary" and abs(vb.x[0]) < 1e-9]
    upper = [vb for vb in tensor.vertex_balances(T)
             if vb.category == "boundary" and abs(vb.x[0] - 2.0) < 1e-9]
    assert len(lower) == len(upper) == 2
    mover_lo = next(vb for vb in lower if abs(vb.x[1]) < 1e-9)
    mover_hi = next(vb for vb in upper if abs(vb.x[1]) > 0.5)
    np.testing.assert_allclose(mover_lo.m, -V, atol=1e-12)
    np.testing.assert_allclose(mover_hi.m, V, atol=1e-12)


def test_boundary_time_components_count_particles():
    log = _gas(67, N=16)
    T = tensor.build_tensor(log, _window(log))
    t_lo, t_hi = T.window
    lo_mass = sum(vb.m[0] for vb in tensor.vertex_balances(T)
                  if vb.category == "boundary" and abs(vb.x[0] - t_lo) < 1e-9)
    hi_mass = sum(vb.m[0] for vb in tensor.vertex_balances(T)
                  if vb.category == "boundary" and abs(vb.x[0] - t_hi) < 1e-9)
    assert lo_mass == pytest.approx(-16.0, abs=1e-12)
    assert hi_mass == pytest.approx(16.0, abs=1e-12)


def test_colliton_parallel_to_center_separation():
    log = _gas(71)
    assert log.events
    T = tensor.build_tensor(log, _window(log))
    by_time = {ev.t: ev for ev in log.events}
    cols = [e for e in T.edges if e.kind == "colliton"]
    assert len(cols) == len(log.events)
    for e in cols:
        ev = by_time[e.x_start[0]]
        sep = ev.yj - ev.yi
        d = e.x_end[1:] - e.x_start[1:]
        cross = d[0] * sep[1] - d[1] * sep[0]
        assert abs(cross) <= 1e-10 * np.linalg.norm(d) * np.linalg.norm(sep)
        assert np.linalg.norm(d) == pytest.approx(2 * log.config.a, abs=1e-9)


# -- weak divergence ----------------------------------------------------------


def test_weak_divergence_matches_vertex_pairing():
    log = _gas(73)
    T = tensor.build_tensor(log, _window(log))
    rng = np.random.default_rng(0)
    for _ in range(5):
        q = rng.normal(size=3)
        A = rng.normal(size=(3, 3))
        phi = lambda x: float(q @ x + x @ A @ x)
        wd = tensor.weak_divergence(T, phi)
        ref = np.zeros(1 + T.n)
        for vb in tensor.vertex_balances(T):
            ref += phi(vb.x) * vb.m
        np.testing.assert_allclose(
            wd, ref, atol=1e-10 * max(1.0, float(np.abs(ref).max())))


def test_weak_divergence_vanishes_for_interior_supported_phi():
    log = _gas(79)
    T = tensor.build_tensor(log, _window(log))
    t_lo, t_hi = T.window
    phi = lambda x: (x[0] - t_lo) * (t_hi - x[0])  # zero on both boundaries
    wd = tensor.weak_divergence(T, phi)
    scale = sum(e.weight for e in T.edges) * (t_hi - t_lo) ** 2
    assert np.linalg.norm(wd) <= 1e-10 * scale


def test_weak_divergence_linear_phi_telescopes():
    log = _gas(83, N=8)
    T = tensor.build_tensor(log, _window(log))
    t_lo, t_hi = T.window
    wd = tensor.weak_divergence(T, lambda x: x[0])
    V0 = np.array([lift(s.velocity) for s in log.initial])
    # boundary-only pairing: t_hi * (sum V) - t_lo * (sum V); the spatial
    # part uses conservation of momentum (same sum at both ends)
    want = (t_hi - t_lo) * V0.sum(axis=0)
    np.testing.assert_allclose(wd, want, atol=1e-9 * max(1.0, abs(t_hi)) * 8)


# -- slice traces -------------------------------------------------------------


def test_slice_trace_counts_and_bound():
    log = _gas(89, N=20)
    T = tensor.build_tensor(log, _window(log))
    t_lo, t_hi = T.window
    rng = np.random.default_rng(1)
    masses = []
    for t in rng.uniform(t_lo + 1e-3, t_hi - 1e-3, size=10):
        try:
            st = tensor.slice_trace(T, float(t))
        except ValueError:
            continue  # drew a collision time
        assert len(st.crossings) == 20
        assert st.total <= T.mass_energy + 1e-12
        masses.append(st.mass)
    assert masses
    np.testing.assert_allclose(masses, 20.0, atol=1e-12)


def test_slice_vectors_are_lifted_velocities():
    log = _head_on()
    T = tensor.build_tensor(log, (0.0, 3.0))
    st = tensor.slice_trace(T, 0.5)
    vecs = sorted((v.tolist() for _, v in st.crossings))
    np.testing.assert_allclose(vecs[0], [1.0, -1.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(vecs[1], [1.0, 1.0, 0.0], atol=1e-12)
    assert st.total == pytest.approx(2 * math.sqrt(2.0), rel=1e-12)
    assert st.mass == pytest.approx(2.0, abs=1e-12)


def test_slice_mass_constant_but_total_jumps_at_oblique_kink():
    """Energy splits between particles asymmetrically, so the crossing-norm
    sum changes across the collision; the time-component sum does not."""
    r = math.sqrt(0.5)
    log = _simulate(2, 0.5,
                    [[0.0, 0.0], [1.0 + r, r]],
                    [[1.0, 0.0], [0.0, 0.0]])
    assert len(log.events) == 1
    T = tensor.build_tensor(log, (0.0, 2.0))
    before = tensor.slice_trace(T, 0.5)
    after = tensor.slice_trace(T, 1.5)
    assert before.mass == after.mass == pytest.approx(2.0, abs=1e-12)
    assert before.total == pytest.approx(math.sqrt(2.0) + 1.0, rel=1e-12)
    assert after.total == pytest.approx(2.0 * math.sqrt(1.5), rel=1e-12)
    assert abs(after.total - before.total) > 1e-2
    assert max(before.total, after.total) <= T.mass_energy + 1e-12


def test_slice_time_validation():
    log = _head_on()
    T = tensor.build_tensor(log, (0.0, 3.0))
    with pytest.raises(ValueError):
        tensor.slice_trace(T, -0.5)
    with pytest.raises(ValueError):
        tensor.slice_trace(T, 3.5)
    with pytest.raises(ValueError):
        tensor.slice_trace(T, log.events[0].t)


# -- complement basis and augmentation ----------------------------------------


def test_complement_basis_orthonormal_and_perpendicular():
    rng = np.random.default_rng(2)
    for n in (2, 3, 5):
        for _ in range(20):
            V = lift(rng.normal(size=n))
            V2 = lift(rng.normal(size=n))
            Z = tensor.complement_basis(V, V2, n)
            assert Z.shape == (n - 1, n + 1)
            np.testing.assert_allclose(Z @ Z.T, np.eye(n - 1), atol=1e-12)
            np.testing.assert_allclose(Z @ V, 0.0, atol=1e-10 * np.linalg.norm(V))
            np.testing.assert_allclose(Z @ V2, 0.0, atol=1e-10 * np.linalg.norm(V2))
            Z2 = tensor.complement_basis(V, V2, n)
            assert np.array_equal(Z, Z2)


def test_complement_basis_rejects_parallel():
    with pytest.raises(ValueError):
        tensor.complement_basis([1.0, 1.0, 0.0], [2.0, 2.0, 0.0], 2)


def test_augment_single_site_planar():
    log = _head_on()
    T = tensor.build_tensor(log, (0.0, 3.0))
    A = tensor.build_augmented(T, kinks=T.kinks[:1], b=2.0)
    added = [e for e in A.edges if e.kind == "augmentation"]
    assert len(added) == 2  # one segment = two half-edges
    assert A.div_mass == 2.0 * (2 - 1) * 2.0
    assert len(A.edges) == len(T.edges) + 2
    assert T.div_mass == 0.0  # input untouched
    half = added[0].x_end - added[0].x_start
    np.testing.assert_allclose(added[1].x_end - added[1].x_start, -half,
                               atol=1e-15)


def test_augment_all_sites_balance_and_div_mass():
    log = _gas(97)
    assert log.events
    T = tensor.build_tensor(log, _window(log))
    b = 0.3
    A = tensor.build_augmented(T, b=b)
    sites = len(T.kinks)
    assert A.div_mass == pytest.approx(2.0 * (T.n - 1) * b * sites, rel=1e-15)
    tips = interior_worst = 0
    for vb in tensor.vertex_balances(A):
        if vb.category == "augment_tip":
            tips += 1
            assert np.linalg.norm(vb.m) == pytest.approx(b, rel=1e-12)
            assert vb.degree == 1
        elif vb.category == "interior":
            assert np.linalg.norm(vb.m) <= 1e-12 * vb.weight_scale
            interior_worst += 1
    assert tips == 2 * (T.n - 1) * sites
    assert interior_worst >= sites


def test_augment_3d_two_segments_per_site():
    log = _simulate(3, 0.5,
                    [[-2.0, 0.0, 0.0], [2.0, 0.0, 0.0]],
                    [[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
    assert len(log.events) == 1
    T = tensor.build_tensor(log, (0.0, 3.0))
    A = tensor.build_augmented(T, kinks=T.kinks[:1], b=1.0)
    added = [e for e in A.edges if e.kind == "augmentation"]
    assert len(added) == 4  # n-1 = 2 segments, two half-edges each
    assert A.div_mass == 4.0
    A_full = tensor.build_augmented(T, b=0.25)
    assert A_full.div_mass == pytest.approx(2.0 * 2 * 0.25 * 2, rel=1e-15)


def test_augment_validation():
    rod = _simulate(1, 0.0, [[-1.0], [1.0]], [[1.0], [-1.0]])
    T1 = tensor.build_tensor(rod, (0.0, 2.0))
    with pytest.raises(ValueError):
        tensor.build_augmented(T1)  # no orthogonal complement on the line

    log = _head_on()
    T = tensor.build_tensor(log, (0.0, 3.0))
    with pytest.raises(ValueError):
        tensor.build_augmented(T, b=0.0)


def test_augment_no_sites_copies():
    log = _simulate(2, 0.1, [[0.0, 0.0], [50.0, 0.0]],
                    [[1.0, 0.0], [0.0, 0.0]])
    T = tensor.build_tensor(log, (0.0, 1.0))
    A = tensor.build_augmented(T)
    assert len(A.edges) == len(T.edges)
    assert A.div_mass == 0.0


# -- audit --------------------------------------------------------------------


def test_audit_tensor_report():
    log = _gas(101, N=12)
    T = tensor.build_tensor(log, _window(log))
    rep = tensor.audit_tensor(T)
    assert set(rep) == {"max_interior_balance", "trace_masses",
                        "trace_totals", "div_mass"}
    assert rep["max_interior_balance"] <= 1e-12
    assert len(rep["trace_masses"]) == 10
    np.testing.assert_allclose(rep["trace_masses"], 12.0, atol=1e-12)
    assert all(tot <= T.mass_energy + 1e-12 for tot in rep["trace_totals"])
    assert rep["div_mass"] == 0.0
    aug = tensor.build_augmented(T, b=0.5)
    assert tensor.audit_tensor(aug)["div_mass"] == aug.div_mass


def test_import_leaves_scipy_spatial_unloaded():
    # the package runs on numpy alone; scipy serves the test oracles and
    # the benchmark only
    code = ("import sys, kinkbound; "
            "sys.exit(any(m.split('.')[0] == 'scipy' for m in sys.modules))")
    assert subprocess.run([sys.executable, "-c", code]).returncode == 0
