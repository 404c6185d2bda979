"""The tensor layer's array code against the scalar loops in oracles.py.

The array code keeps every summation order and re-evaluates minima and
maxima with the scalar functions, so agreement is required bit for bit:
clearances with np.array_equal, balances field by field in order, audits
as serialized bytes.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from kinkbound import _jsonio, harness, tensor


def _gas_log(n, N, seed, a=0.02):
    scn = harness.gen_random_gas(
        n, N, [1.0] * n, a, {"kind": "maxwell", "sigma": 1.0}, seed)
    return harness.simulate_scenario(scn)


def _full(log):
    return tensor.build_tensor(log, harness._audit_window(log))


def _line_p5():
    return _full(harness.simulate_scenario(harness.gen_line_1d(5)))


def _rods1d():
    # point rods at random places and speeds: a collision's four endpoints
    # round differently, so vertices merge several exact groups, interleaved
    rng = np.random.default_rng(0)
    positions = np.sort(rng.uniform(0.0, 10.0, size=8))[:, None]
    velocities = rng.normal(size=(8, 1))
    return _full(harness.simulate_scenario(
        harness.gen_explicit(1, 0.0, positions, velocities)))


def _gas2d():
    return _full(_gas_log(2, 24, 61))


def _gas3d():
    return _full(_gas_log(3, 40, 1, a=0.06))


def _augmented():
    return tensor.build_augmented(_gas2d(), b=0.3)


def _augmented3d():
    return tensor.build_augmented(_gas3d(), b=0.7)


def _clipped():
    # the window starts and ends between collisions, cutting trajectories
    log = _gas_log(2, 24, 97)
    times = [ev.t for ev in log.events]
    assert len(times) >= 8
    window = (0.5 * (times[1] + times[2]), 0.5 * (times[-3] + times[-2]))
    return tensor.build_tensor(log, window)


CASES = {
    "line1d_p5": _line_p5,
    "rods1d": _rods1d,
    "gas2d": _gas2d,
    "gas3d": _gas3d,
    "augmented2d": _augmented,
    "augmented3d": _augmented3d,
    "clipped_window": _clipped,
}


def _assert_same_balances(T):
    got = tensor.vertex_balances(T)
    want = oracles.vertex_balances(T)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.x.tobytes() == w.x.tobytes()
        assert g.m.tobytes() == w.m.tobytes()
        assert g.weight_scale == w.weight_scale
        assert g.degree == w.degree
        assert g.category == w.category


def _assert_same_audit(T):
    got = _jsonio.dumps(tensor.audit_tensor(T))
    assert got == _jsonio.dumps(oracles.audit_tensor(T))


def _eps_outcome(default_eps, T, sites=None):
    try:
        return default_eps(T, T.kinks if sites is None else sites)
    except ValueError as exc:  # an edge passes through a kink
        return str(exc)


def _assert_same_eps(T):
    if T.kinks:
        got = _eps_outcome(tensor._default_eps, T)
        want = _eps_outcome(oracles.default_eps, T)
        assert type(got) is type(want)
        assert got == want if isinstance(want, str) else np.array_equal(got, want)


@pytest.mark.parametrize("case", sorted(CASES))
def test_balances_match_loop(case):
    _assert_same_balances(CASES[case]())


@pytest.mark.parametrize("case", sorted(CASES))
def test_audit_matches_loop(case):
    _assert_same_audit(CASES[case]())


def _slice_outcome(slice_trace, T, t):
    try:
        st = slice_trace(T, t)
    except ValueError as exc:  # t hits a collision time
        return str(exc)
    return (st.total, st.mass,
            [(p.tobytes(), v.tobytes()) for p, v in st.crossings])


@pytest.mark.parametrize("case", sorted(CASES))
def test_slice_traces_match_loop(case):
    T = CASES[case]()
    t_lo, t_hi = T.window
    for t in np.linspace(t_lo, t_hi, 9)[1:-1].tolist():
        assert (_slice_outcome(tensor.slice_trace, T, t)
                == _slice_outcome(oracles.slice_trace, T, t))


@pytest.mark.parametrize("case", sorted(CASES))
def test_default_eps_matches_loop(case):
    _assert_same_eps(CASES[case]())


def _blocks(block, T):
    """_BLOCK for blocks of one kink, or of three kinks (M edges a kink)."""
    return 1 if block == "one" else 3 * len(T.edges)


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("block", ["one", "uneven"])
def test_default_eps_in_blocks_matches_loop(case, block, monkeypatch):
    """Blocks of one kink (_BLOCK = 1), and blocks of three kinks that
    leave a shorter last block, give the same clearances or the same first
    error."""
    T = CASES[case]()
    assert len(T.kinks) % 3
    monkeypatch.setattr(tensor, "_BLOCK", _blocks(block, T))
    _assert_same_eps(T)


def _same_bits(got, want):
    return got.tobytes() == want.tobytes()


def test_default_eps_on_a_kink_slice():
    """A slice of the kinks that splits event 0's pair: its clearances are
    the loop's over the same slice (whose site term sees only the slice),
    and build_augmented spans each of its kinks with them."""
    for T in (_gas2d(), _gas3d()):
        sites = T.kinks[1:4]
        want = oracles.default_eps(T, list(sites))
        assert _same_bits(tensor._default_eps(T, sites), want)
        A = tensor.build_augmented(T, kinks=sites)
        per = 2 * (T.n - 1)
        M = len(T.edges)
        Z = A.edges.direction[M:]
        x = np.repeat(sites.vertex, per, axis=0)
        assert _same_bits(A.edges.x_end[M:], x + np.repeat(want, per)[:, None] * Z)


def test_default_eps_where_the_walls_win():
    """A window a little wider than one collision's instant: each kink's
    clearance is its nearer wall, the lower one or the upper one."""
    log = _gas_log(2, 24, 61)
    t = log.events.t
    e = int(np.argmax(np.minimum(np.diff(t)[:-1], np.diff(t)[1:]))) + 1
    delta = 1e-3 * min(t[e] - t[e - 1], t[e + 1] - t[e])
    for lo, hi in ((delta, 2 * delta), (2 * delta, delta)):
        T = tensor.build_tensor(log, (t[e] - lo, t[e] + hi))
        assert len(T.kinks) == 2
        got = tensor._default_eps(T, T.kinks)
        assert _same_bits(got, oracles.default_eps(T, list(T.kinks)))
        walls = np.minimum(T.kinks.vertex[:, 0] - T.window[0],
                           T.window[1] - T.kinks.vertex[:, 0])
        assert _same_bits(got, 0.49 * walls)


def _through(T, picks):
    """T with a time-like edge through each kink of picks, its middle the
    kink to the bit: the kink lies on it at distance 0, and it meets the
    kink at no end point."""
    x = T.kinks.vertex[picks]
    half = 2.0 ** (np.floor(np.log2(np.abs(x[:, 0]))) - 10)
    A, B = x.copy(), x.copy()
    A[:, 0] -= half
    B[:, 0] += half
    assert np.array_equal(A[:, 0] + 0.5 * (B[:, 0] - A[:, 0]), x[:, 0])
    k = len(picks)
    ids = T.vertices + np.arange(2 * k)
    added = tensor.EdgeBlock(A, B, np.ones(k), np.full(k, "trajectory"),
                             ids[:k], ids[k:], np.eye(1 + T.n)[np.zeros(k, int)])
    return tensor.GraphTensor(
        edges=tensor.EdgeBlock.concat(T.edges, added), window=T.window,
        n=T.n, vertices=T.vertices + 2 * k, kinks=T.kinks)


@pytest.mark.parametrize("block", ["default", "one", "uneven"])
def test_edge_through_a_kink_raises_at_the_first(block, monkeypatch):
    """Edges through kinks 7 and 4: the first of them in kink order, 4,
    names the error, in every blocking, as in the loop."""
    T = _through(_gas3d(), [7, 4])
    if block != "default":
        monkeypatch.setattr(tensor, "_BLOCK", _blocks(block, T))
    got = _eps_outcome(tensor._default_eps, T)
    assert got == _eps_outcome(oracles.default_eps, T)
    assert got == f"no room for segments at kink {T.kinks.vertex[4]}"


def test_default_eps_keeps_an_end_point_recomputed_short():
    """The bound's margin covers the rounding of the clamped projection,
    not only its relative error.  Edge E2 runs from far away to B, 2.7e-9
    from the kink, with the kink beyond B in every coordinate: its box gap
    is |x - B|, but its distance comes back through A + (B - A), which
    misses B by ulps of 2000 and lands nearer.  The zero-length edge E1 at
    a distance between the two has the least gap and sets the bound, so a
    bound widened by 1e-9 of itself alone would prune E2."""
    x = np.array([0.5, 0.25, 0.125])
    B = x + np.array([1.512e-9, 1.95e-9, 1.144e-9])
    A = B + np.array([1948.6, 1311.8, 1423.3])
    d2 = oracles._point_segment_distance(x, A, B)
    g2 = float(np.linalg.norm(B - x))
    d1 = 0.5 * (d2 + g2)
    C = x + np.array([d1, 0.0, 0.0])
    assert d2 < float(np.linalg.norm(C - x)) < g2 * (1.0 - 1e-6)
    edges = tensor.EdgeBlock(
        np.stack((A, C)), np.stack((B, C)), np.ones(2),
        np.full(2, "trajectory"), np.array([1, 3]), np.array([2, 3]),
        np.zeros((2, 3)))
    T = tensor.GraphTensor(
        edges=edges, window=(-10.0, 10.0), n=2, vertices=4,
        kinks=tensor.KinkBlock(x[None], np.zeros((1, 2)), np.ones((1, 2)),
                               np.array([0])))
    got = tensor._default_eps(T, T.kinks)
    assert _same_bits(got, oracles.default_eps(T, list(T.kinks)))
    assert got[0] == 0.49 * d2


def _midpoints(t):
    """Window ends that hit no collision: before the first, between each
    two, after the last."""
    t = t.tolist()
    return ([t[0] - 0.1] + [0.5 * (p + q) for p, q in zip(t, t[1:])]
            + [t[-1] + 0.1])


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**16), st.sampled_from([2, 3]), st.integers(2, 16),
       st.data())
def test_default_eps_on_windows_and_slices_matches_loop(seed, n, N, data):
    """Small gases cut to a drawn window between collisions, and a drawn
    slice of its kinks: the same clearances or the same first error."""
    log = _gas_log(n, N, seed, a=0.03)
    if not len(log.events):
        return
    ends = _midpoints(log.events.t)
    lo = data.draw(st.integers(0, len(ends) - 2), label="lo")
    hi = data.draw(st.integers(lo + 1, len(ends) - 1), label="hi")
    T = tensor.build_tensor(log, (ends[lo], ends[hi]))
    K = len(T.kinks)
    k0 = data.draw(st.integers(0, K), label="k0")
    k1 = data.draw(st.integers(k0, K), label="k1")
    sites = T.kinks[k0:k1]
    if len(sites):
        got = _eps_outcome(tensor._default_eps, T, sites)
        want = _eps_outcome(oracles.default_eps, T, list(sites))
        assert type(got) is type(want)
        assert got == want if isinstance(want, str) else _same_bits(got, want)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**16), st.sampled_from([2, 3]), st.integers(2, 16))
def test_small_gases_match_loops(seed, n, N):
    log = _gas_log(n, N, seed, a=0.03)
    T = _full(log)
    _assert_same_balances(T)
    _assert_same_audit(T)
    _assert_same_eps(T)
    if T.kinks:
        A = tensor.build_augmented(T, b=0.5)
        _assert_same_balances(A)
        _assert_same_audit(A)
