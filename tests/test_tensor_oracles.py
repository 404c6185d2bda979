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


def _eps_outcome(default_eps, T):
    try:
        return default_eps(T, T.kinks)
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


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("block", ["one", "uneven"])
def test_default_eps_in_blocks_matches_loop(case, block, monkeypatch):
    """Blocks of one kink (_BLOCK = 1), and blocks of three kinks that
    leave a shorter last block, give the same clearances or the same first
    error."""
    T = CASES[case]()
    assert len(T.kinks) % 3
    monkeypatch.setattr(tensor, "_BLOCK",
                        1 if block == "one" else 3 * (len(T.kinks) + len(T.edges)))
    _assert_same_eps(T)


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
