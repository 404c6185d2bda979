"""Spacetime mass-momentum graph tensor: structure, balances, slices,
augmentation."""

import math
import subprocess
import sys

import numpy as np
import pytest

from kinkbound import harness, tensor

from oracles import lift


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
    e = T.edges
    assert e.kind[0] == "trajectory"
    assert e.weight[0] == pytest.approx(math.sqrt(2.0), rel=1e-15)  # |v| = 1
    np.testing.assert_allclose(e.x_start[0], [0.0, 0.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(e.x_end[0], [1.0, 0.6, 0.8], atol=1e-15)
    assert T.mass_energy == pytest.approx(2.0 + 0.5 * 1.0)


def test_single_collision_edge_inventory():
    log = _head_on()
    assert len(log.events) == 1 and log.events[0].t == pytest.approx(1.5)
    T = tensor.build_tensor(log, (0.0, 3.0))
    E = T.edges
    assert sorted(E.kind.tolist()) == ["colliton"] + ["trajectory"] * 4
    assert len(T.kinks) == 2
    (col,) = np.flatnonzero(E.kind == "colliton")
    # constant-time segment joining the two centers at contact
    assert E.x_start[col, 0] == E.x_end[col, 0] == pytest.approx(1.5)
    assert np.linalg.norm(E.x_end[col, 1:] - E.x_start[col, 1:]) == pytest.approx(
        2 * log.config.a, abs=1e-9)
    assert E.direction[col, 0] == 0.0
    assert E.weight[col] == pytest.approx(2.0, abs=1e-12)  # |v' - v|
    assert E.weight[E.kind == "trajectory"] == pytest.approx(
        [math.sqrt(2.0)] * 4, rel=1e-12)


def test_point_rods_share_one_vertex_no_colliton():
    log = _simulate(1, 0.0, [[-1.0], [1.0]], [[1.0], [-1.0]])
    assert len(log.events) == 1
    T = tensor.build_tensor(log, (0.0, 2.0))
    assert T.edges.kind.tolist() == ["trajectory"] * 4
    B = tensor.vertex_balances(T)
    (k,) = np.flatnonzero(B.category == "interior")
    assert B.degree[k] == 4  # all four lines meet at the contact point
    np.testing.assert_allclose(B.x[k], [1.0, 0.0], atol=1e-12)
    assert np.linalg.norm(B.m[k]) <= 1e-12 * B.weight_scale[k]


def test_window_extends_ballistically_past_events():
    log = _head_on()
    T = tensor.build_tensor(log, (-1.0, 50.0))
    E = T.edges
    traj = E.kind == "trajectory"
    starts = sorted(E.x_start[traj, 0].tolist())
    ends = sorted(E.x_end[traj, 0].tolist())
    assert starts[:2] == [-1.0, -1.0] and ends[-2:] == [50.0, 50.0]
    # extrapolated endpoint: particle 0 leaves the collision at (-0.5, 0)
    # with velocity (-1, 0), so at t = 50 it sits at x = -49
    ev = log.events[0]
    (out0,) = np.flatnonzero(traj & np.isclose(E.x_start[:, 0], 1.5, rtol=1e-6, atol=1e-12)
                             & np.isclose(E.x_start[:, 1:], ev.yi).all(axis=1))
    np.testing.assert_allclose(E.x_end[out0], [50.0, -49.0, 0.0], atol=1e-9)


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
    return np.bincount(np.concatenate((T.edges.start, T.edges.end)),
                       minlength=T.vertices)


@pytest.mark.parametrize("seed", range(4))
def test_rods_vertices_from_construction(seed):
    # a == 0: one vertex per collision, where all four lines meet, plus one
    # per particle on each window boundary
    log = _rods(seed)
    N, C = len(log.initial), len(log.events)
    T = tensor.build_tensor(log, _window(log))
    assert T.vertices == 2 * N + C
    B = tensor.vertex_balances(T)
    assert B.degree.tolist() == _incidence(T).tolist()
    interior = np.flatnonzero(B.category == "interior")
    assert len(interior) == C and (B.degree[interior] == 4).all()
    assert sorted(set(T.kinks.vertex_id.tolist())) == interior.tolist()


@pytest.mark.parametrize("seed", [61, 97])
def test_gas_vertices_from_construction(seed):
    # a > 0: each collision has two kinks, each where a particle's incoming
    # and outgoing trajectories meet the colliton
    log = _gas(seed)
    N, C = len(log.initial), len(log.events)
    T = tensor.build_tensor(log, _window(log))
    assert T.vertices == 2 * N + 2 * C
    B = tensor.vertex_balances(T)
    assert B.degree.tolist() == _incidence(T).tolist()
    assert np.count_nonzero(B.category == "boundary") == 2 * N
    interior = np.flatnonzero(B.category == "interior")
    assert len(interior) == 2 * C and (B.degree[interior] == 3).all()
    assert sorted(T.kinks.vertex_id.tolist()) == interior.tolist()
    # the ids name the vertex at each endpoint
    E = T.edges
    np.testing.assert_allclose(B.x[E.start], E.x_start, rtol=0, atol=1e-12)
    np.testing.assert_allclose(B.x[E.end], E.x_end, rtol=0, atol=1e-12)


def test_augmentation_tips_numbered_after_vertices():
    log = _gas(61)
    T = tensor.build_tensor(log, _window(log))
    A = tensor.build_augmented(T, b=0.5)
    tips = 2 * (T.n - 1) * len(T.kinks)
    assert A.vertices == T.vertices + tips
    B = tensor.vertex_balances(A)
    assert B.degree.tolist() == _incidence(A).tolist()
    tips = B[T.vertices:]
    assert (tips.degree == 1).all() and (tips.category == "augment_tip").all()
    assert (B[:T.vertices].category != "augment_tip").all()
    added = A.edges[len(T.edges):]
    assert added.end.tolist() == list(range(T.vertices, A.vertices))
    assert added.start.tolist() == [
        k for k in T.kinks.vertex_id.tolist() for _ in range(2 * (T.n - 1))]


# -- balances -----------------------------------------------------------------


def test_interior_balances_vanish_on_gas_log():
    log = _gas(61)
    assert log.events
    T = tensor.build_tensor(log, _window(log))
    B = tensor.vertex_balances(T)
    interior = B.category == "interior"
    assert (np.linalg.norm(B.m[interior], axis=1)
            <= 1e-12 * B.weight_scale[interior]).all()
    assert np.count_nonzero(interior) >= len(log.events)


def test_boundary_balances_are_crossing_vectors():
    v = np.array([0.3, -1.2])
    log = _simulate(2, 0.1, [[0.0, 0.0], [50.0, 0.0]],
                    [v.tolist(), [0.0, 0.0]])
    T = tensor.build_tensor(log, (0.0, 2.0))
    V = lift(v)
    B = tensor.vertex_balances(T)
    boundary = B.category == "boundary"
    lower = boundary & (np.abs(B.x[:, 0]) < 1e-9)
    upper = boundary & (np.abs(B.x[:, 0] - 2.0) < 1e-9)
    assert np.count_nonzero(lower) == np.count_nonzero(upper) == 2
    mover_lo = np.flatnonzero(lower & (np.abs(B.x[:, 1]) < 1e-9))[0]
    mover_hi = np.flatnonzero(upper & (np.abs(B.x[:, 1]) > 0.5))[0]
    np.testing.assert_allclose(B.m[mover_lo], -V, atol=1e-12)
    np.testing.assert_allclose(B.m[mover_hi], V, atol=1e-12)


def test_boundary_time_components_count_particles():
    log = _gas(67, N=16)
    T = tensor.build_tensor(log, _window(log))
    t_lo, t_hi = T.window
    B = tensor.vertex_balances(T)
    boundary = B.category == "boundary"
    lo_mass = sum(B.m[boundary & (np.abs(B.x[:, 0] - t_lo) < 1e-9), 0].tolist())
    hi_mass = sum(B.m[boundary & (np.abs(B.x[:, 0] - t_hi) < 1e-9), 0].tolist())
    assert lo_mass == pytest.approx(-16.0, abs=1e-12)
    assert hi_mass == pytest.approx(16.0, abs=1e-12)


def test_colliton_parallel_to_center_separation():
    log = _gas(71)
    assert log.events
    T = tensor.build_tensor(log, _window(log))
    by_time = {ev.t: ev for ev in log.events}
    cols = T.edges.kind == "colliton"
    assert np.count_nonzero(cols) == len(log.events)
    for x_start, x_end in zip(T.edges.x_start[cols], T.edges.x_end[cols]):
        ev = by_time[x_start[0]]
        sep = ev.yj - ev.yi
        d = x_end[1:] - x_start[1:]
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
        B = tensor.vertex_balances(T)
        for x, m in zip(B.x, B.m):
            ref += phi(x) * m
        np.testing.assert_allclose(
            wd, ref, atol=1e-10 * max(1.0, float(np.abs(ref).max())))


def test_weak_divergence_vanishes_for_interior_supported_phi():
    log = _gas(79)
    T = tensor.build_tensor(log, _window(log))
    t_lo, t_hi = T.window
    phi = lambda x: (x[0] - t_lo) * (t_hi - x[0])  # zero on both boundaries
    wd = tensor.weak_divergence(T, phi)
    scale = sum(T.edges.weight.tolist()) * (t_hi - t_lo) ** 2
    assert np.linalg.norm(wd) <= 1e-10 * scale


def test_weak_divergence_linear_phi_telescopes():
    log = _gas(83, N=8)
    T = tensor.build_tensor(log, _window(log))
    t_lo, t_hi = T.window
    wd = tensor.weak_divergence(T, lambda x: x[0])
    V0 = np.array([lift(v) for v in log.initial.velocity])
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
        assert len(st.points) == len(st.vectors) == 20
        assert st.total <= T.mass_energy + 1e-12
        masses.append(st.mass)
    assert masses
    np.testing.assert_allclose(masses, 20.0, atol=1e-12)


def test_slice_vectors_are_lifted_velocities():
    log = _head_on()
    T = tensor.build_tensor(log, (0.0, 3.0))
    st = tensor.slice_trace(T, 0.5)
    vecs = sorted(st.vectors.tolist())
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
            (Z,) = tensor.complement_basis(V[None], V2[None])
            assert Z.shape == (n - 1, n + 1)
            np.testing.assert_allclose(Z @ Z.T, np.eye(n - 1), atol=1e-12)
            np.testing.assert_allclose(Z @ V, 0.0, atol=1e-10 * np.linalg.norm(V))
            np.testing.assert_allclose(Z @ V2, 0.0, atol=1e-10 * np.linalg.norm(V2))
            (Z2,) = tensor.complement_basis(V[None], V2[None])
            assert np.array_equal(Z, Z2)


def test_complement_basis_rejects_parallel():
    with pytest.raises(ValueError):
        tensor.complement_basis([[1.0, 1.0, 0.0]], [[2.0, 2.0, 0.0]])


def test_augment_single_site_planar():
    log = _head_on()
    T = tensor.build_tensor(log, (0.0, 3.0))
    A = tensor.build_augmented(T, kinks=T.kinks[:1], b=2.0)
    added = A.edges.kind == "augmentation"
    assert np.count_nonzero(added) == 2  # one segment = two half-edges
    assert A.div_mass == 2.0 * (2 - 1) * 2.0
    assert len(A.edges) == len(T.edges) + 2
    assert T.div_mass == 0.0  # input untouched
    half = A.edges.x_end[added] - A.edges.x_start[added]
    np.testing.assert_allclose(half[1], -half[0], atol=1e-15)


def test_augment_all_sites_balance_and_div_mass():
    log = _gas(97)
    assert log.events
    T = tensor.build_tensor(log, _window(log))
    b = 0.3
    A = tensor.build_augmented(T, b=b)
    sites = len(T.kinks)
    assert A.div_mass == pytest.approx(2.0 * (T.n - 1) * b * sites, rel=1e-15)
    B = tensor.vertex_balances(A)
    tips = B.category == "augment_tip"
    assert np.linalg.norm(B.m[tips], axis=1) == pytest.approx(
        [b] * np.count_nonzero(tips), rel=1e-12)
    assert (B.degree[tips] == 1).all()
    interior = B.category == "interior"
    assert (np.linalg.norm(B.m[interior], axis=1)
            <= 1e-12 * B.weight_scale[interior]).all()
    assert np.count_nonzero(tips) == 2 * (T.n - 1) * sites
    assert np.count_nonzero(interior) >= sites


def test_augment_3d_two_segments_per_site():
    log = _simulate(3, 0.5,
                    [[-2.0, 0.0, 0.0], [2.0, 0.0, 0.0]],
                    [[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
    assert len(log.events) == 1
    T = tensor.build_tensor(log, (0.0, 3.0))
    A = tensor.build_augmented(T, kinks=T.kinks[:1], b=1.0)
    added = np.count_nonzero(A.edges.kind == "augmentation")
    assert added == 4  # n-1 = 2 segments, two half-edges each
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


def test_audit_takes_balances_through_the_module_name(monkeypatch):
    """audit_tensor calls tensor.vertex_balances, once per audit, so a
    wrapper set on the module (as a tracer sets one) sees every call."""
    log = _gas(101, N=12)
    T = tensor.build_tensor(log, _window(log))
    A = tensor.build_augmented(T, b=0.5)
    calls = []
    balances = tensor.vertex_balances

    def counted(G):
        calls.append(balances(G))
        return calls[-1]

    monkeypatch.setattr(tensor, "vertex_balances", counted)
    for G in (T, A):
        tensor.audit_tensor(G)
    assert [len(B) for B in calls] == [T.vertices, A.vertices]


def test_import_leaves_scipy_spatial_unloaded():
    # the package runs on numpy alone; scipy serves the test oracles and
    # the benchmark only
    code = ("import sys, kinkbound; "
            "sys.exit(any(m.split('.')[0] == 'scipy' for m in sys.modules))")
    assert subprocess.run([sys.executable, "-c", code]).returncode == 0
