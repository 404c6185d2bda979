"""Exact symmetries of a run, bit for bit.

Every dot product, norm and sum of squares adds its components in index
order (kinkbound.kernel), and each + and * is correctly rounded.  So a
transform that maps every float of the initial data to a float exactly,
and commutes with the arithmetic, maps the run to the run of the
transformed data: the same events with transformed times, centers and
velocities, and the same ledger up to the transform of its columns.

* Swapping the two axes in R^2: x0*y0 + x1*y1 is commutative.
* Reflecting one axis: every product of two components keeps its bits.
* Positions and a times 2^k: lengths and times scale by 2^k.
* Velocities times 2^k: velocities scale by 2^k and times by 2^-k; the
  ledger's jumps scale by 2^k and its wedges by 4^k (its spacetime
  wedge, sqrt(|dv|^2 + |v ^ v'|^2), mixes the two powers).

Gases are drawn by gen_random_gas and rebuilt through gen_explicit.  A
scene whose run raises GenericityViolation is left out: the tie
tolerance is an absolute time, which the scalings do not carry over.

Time reversal is not exact in floats: the reversed run starts from
positions advanced to T, which rounding moves.  Its pair sequence is the
forward one reversed, and its times are T minus the forward ones up to a
stated tolerance (Orban & Bellemans 1967).
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import kinkbound as kb
from kinkbound import ledger
from kinkbound.dynamics import GenericityViolation, run_simulation

A = 0.02


def _gas(n, N, seed):
    """A Maxwell gas in a cube that the spheres cover 0.2 of (n = 2) or
    0.1 (n = 3): a few to a few dozen collisions."""
    ball = math.pi * A * A if n == 2 else 4.0 / 3.0 * math.pi * A ** 3
    side = (N * ball / (0.2 if n == 2 else 0.1)) ** (1.0 / n)
    sc = kb.gen_random_gas(n, N, [side] * n, A,
                           {"kind": "maxwell", "sigma": 1.0}, seed)
    return sc.states.position, sc.states.velocity


def _run(n, a, positions, velocities):
    sc = kb.gen_explicit(n, a, positions, velocities)
    try:
        return run_simulation(sc.states, sc.config)
    except GenericityViolation:
        assume(False)


def _same(x, y):
    x, y = np.asarray(x), np.asarray(y)
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


def _check(base, other, vectors, time_scale=1.0, length=1.0):
    """other is base with every center mapped by vectors(x) * length, every
    velocity by vectors(v) * length / time_scale and every time by
    time_scale; the ledger's jumps scale by length / time_scale and its
    wedges by their square."""
    b, o = base.events, other.events
    assert base.termination == other.termination
    assert len(b) == len(o)
    speed = length / time_scale
    assert _same(o.t, b.t * time_scale)
    assert _same(o.i, b.i) and _same(o.j, b.j)
    assert _same(o.y, vectors(b.y) * length)
    assert _same(o.v, vectors(b.v) * speed)
    assert _same(o.v_post, vectors(b.v_post) * speed)
    lb, lo = ledger.build_ledger(base), ledger.build_ledger(other)
    assert _same(lo.time, lb.time * time_scale)
    assert _same(lo.particle, lb.particle) and _same(lo.partner, lb.partner)
    assert _same(lo.dv_norm, lb.dv_norm * speed)
    assert _same(lo.wedge, lb.wedge * (speed * speed))
    if speed == 1.0:
        assert _same(lo.st_wedge, lb.st_wedge)


gases = dict(seed=st.integers(0, 2**16), N=st.integers(8, 32))


@settings(max_examples=30)
@given(**gases)
def test_axis_swap_in_the_plane(seed, N):
    y, v = _gas(2, N, seed)
    base = _run(2, A, y, v)
    swapped = _run(2, A, y[:, ::-1], v[:, ::-1])
    _check(base, swapped, lambda x: x[..., ::-1])


@settings(max_examples=30)
@given(n=st.sampled_from([2, 3]), axis=st.integers(0, 2), **gases)
def test_axis_reflection(n, axis, seed, N):
    axis %= n
    flip = np.ones(n)
    flip[axis] = -1.0
    y, v = _gas(n, N, seed)
    base = _run(n, A, y, v)
    _check(base, _run(n, A, y * flip, v * flip), lambda x: x * flip)


@settings(max_examples=30)
@given(n=st.sampled_from([2, 3]), k=st.sampled_from([-3, -2, -1, 1, 2, 3]),
       **gases)
def test_positions_and_radius_times_a_power_of_two(n, k, seed, N):
    y, v = _gas(n, N, seed)
    base = _run(n, A, y, v)
    scale = math.ldexp(1.0, k)
    scaled = _run(n, A * scale, y * scale, v)
    _check(base, scaled, lambda x: x, time_scale=scale, length=scale)


@settings(max_examples=30)
@given(n=st.sampled_from([2, 3]), k=st.sampled_from([-3, -2, -1, 1, 2, 3]),
       **gases)
def test_velocities_times_a_power_of_two(n, k, seed, N):
    y, v = _gas(n, N, seed)
    base = _run(n, A, y, v)
    scale = math.ldexp(1.0, k)
    fast = _run(n, A, y, v * scale)
    _check(base, fast, lambda x: x, time_scale=1.0 / scale)


# |T - t_back - t_fwd| stays below 3.8e-10 on these twelve gases
REVERSAL_TIME_TOL = 1e-8


def _state_at(log, T):
    """Every particle's position at T (after its last event) and velocity."""
    assert np.array_equal(log.initial.id, np.arange(len(log.initial.id)))
    t0 = np.zeros(len(log.initial.id))
    y, v = log.initial.position.copy(), log.initial.velocity.copy()
    b = log.events
    for k in range(len(b)):
        for side, p in enumerate((b.i[k], b.j[k])):
            t0[p], y[p], v[p] = b.t[k], b.y[k, side], b.v_post[k, side]
    return y + (T - t0)[:, None] * v, v


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("n", [2, 3])
def test_time_reversal(n, seed):
    """A whole history (N = 64, a = 0.02, covering fraction 0.3), its
    particles advanced to T = last event + 1 and reversed, runs to T
    through the same pairs in reverse order at times T - t."""
    scenario, _ = kb.scenario_from_config({"scenario": {
        "generator": "random_gas", "n": n, "N": 64, "a": 0.02, "seed": seed,
        "box_policy": {"kind": "fixed_fraction", "value": 0.3}}})
    forward = run_simulation(scenario.states, scenario.config)
    assert forward.termination == "queue_empty" and len(forward.events) > 0
    T = float(forward.events.t[-1]) + 1.0
    y, v = _state_at(forward, T)
    sc = kb.gen_explicit(n, 0.02, y, -v, t_max=T)
    back = run_simulation(sc.states, sc.config).events
    f = forward.events
    pairs = np.sort(np.stack((f.i, f.j), axis=1), axis=1)
    back_pairs = np.sort(np.stack((back.i, back.j), axis=1), axis=1)
    assert np.array_equal(back_pairs[::-1], pairs)
    assert np.abs((T - back.t[::-1]) - f.t).max() <= REVERSAL_TIME_TOL
