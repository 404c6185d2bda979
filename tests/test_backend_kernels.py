"""The numpy contact kernel: every pair's time against a one-pair scalar
transliteration and against a bisection oracle that knows nothing of
quadratics, and a block of rows bit for bit equal to one row at a time,
including the gap it reports."""

import itertools
import math

import numpy as np
import pytest

from kinkbound._pykern import contact_times_scan as py_scan
from oracles import contact_time_scan


def _contact(yi, vi, yj, vj, a, grazing_tol=1e-14):
    """The scan's contact time of one pair, both states at time 0, or None
    when it reports +inf."""
    pos = np.array([yi, yj], dtype=np.float64)
    vel = np.array([vi, vj], dtype=np.float64)
    out = np.empty(1)
    py_scan(pos, vel, np.zeros(2), 0, np.array([1], dtype=np.int64),
            4.0 * a * a, grazing_tol, out)
    return float(out[0]) if np.isfinite(out[0]) else None


def _random_scan_case(rng, n, m):
    pos = rng.normal(0, 1, size=(m + 1, n))
    vel = rng.normal(0, 1, size=(m + 1, n))
    tupd = np.abs(rng.normal(0, 0.1, size=m + 1))
    js = np.arange(1, m + 1, dtype=np.int64)
    return pos, vel, tupd, js


# component counts: the common ones, and 9, past numpy's 8-wide pairwise
# summation block, where an in-order sum and a pairwise one part ways
DIMENSIONS = (1, 2, 3, 4, 9)


def test_python_scan_matches_scalar_reference():
    """The vectorized python kernel against a one-pair transliteration,
    with the row the latest-updated particle on every other draw (the
    pairs are then referred to the row's time, as in a rescan)."""
    rng = np.random.default_rng(7)

    def scalar_one(pos, vel, tupd, i, j, four_a2, grazing_tol):
        ref = max(tupd[i], tupd[j])
        b = A = c = 0.0
        for k in range(pos.shape[1]):
            dy = (pos[j, k] + (ref - tupd[j]) * vel[j, k]) - \
                 (pos[i, k] + (ref - tupd[i]) * vel[i, k])
            dvk = vel[j, k] - vel[i, k]
            b += dy * dvk
            A += dvk * dvk
            c += dy * dy
        c -= four_a2
        if b >= 0.0:
            return np.inf
        if four_a2 == 0.0:
            return ref + c / (-b)
        disc = b * b - A * c
        if disc < grazing_tol * (b * b + A * abs(c)):
            return np.inf
        s = c / (-b + np.sqrt(disc))
        return ref + s if s >= 0.0 else np.inf  # already past contact

    for n in DIMENSIONS:
        for trial in range(100):
            pos, vel, tupd, js = _random_scan_case(rng, n, 6)
            if trial % 2:
                tupd[0] = tupd.max() + 0.05
            a = float(rng.uniform(0.0, 0.2)) if n == 1 else float(rng.uniform(0.01, 0.2))
            out = np.empty(js.size)
            py_scan(pos, vel, tupd, 0, js, 4 * a * a, 1e-14, out)
            for m, j in enumerate(js):
                want = scalar_one(pos, vel, tupd, 0, int(j), 4 * a * a, 1e-14)
                assert (np.isinf(out[m]) and np.isinf(want)) or out[m] == want, (n, trial)


def test_grazing_contact_filtered_out():
    a = 0.5
    # straight-line pass at exactly distance 2a: tangential, no momentum
    pos = np.array([[0.0, 0.0], [-5.0, 2 * a]])
    vel = np.array([[0.0, 0.0], [1.0, 0.0]])
    tupd = np.zeros(2)
    out = np.empty(1)
    py_scan(pos, vel, tupd, 0, np.array([1], dtype=np.int64), 4 * a * a, 1e-14, out)
    assert np.isinf(out[0])


def test_row_block_matches_single_rows_bitwise():
    """The engine rescans both partners of a collision in one (2, m) call
    and the initial state in blocks of rows; each row must come out as the
    one-row call and as one-pair calls would give it, gap included, and
    gap must be |dy|^2 - 4a^2 at ref.  The second pass over each dimension
    gives the rows the latest update time, the shape of a rescan: every
    pair is then referred to it.  Every other column is aimed at a row,
    so that pairs meet in R^9 too."""
    rng = np.random.default_rng(31)
    for n, latest in itertools.product(DIMENSIONS, (False, True)):
        hits = 0
        for trial in range(50):
            pos, vel, tupd, _ = _random_scan_case(rng, n, 9)
            a = 0.0 if n == 1 and trial % 2 else float(rng.uniform(0.01, 0.3))
            rows = np.array([0, 4, 7]) if trial % 3 else np.array([2, 5])
            for q in range(1, 10, 2):
                i = rows[q % len(rows)]
                vel[q] = vel[i] + (pos[i] - pos[q]) + rng.normal(0, 0.05, n)
            if latest:
                tupd[rows] = tupd.max() + 0.05
            js = np.arange(10, dtype=np.int64)
            out = np.empty((len(rows), 10))
            gap = np.empty((len(rows), 10))
            py_scan(pos, vel, tupd, rows, js, 4 * a * a, 1e-14, out, gap)
            assert not np.isnan(out).any()
            hits += int(np.isfinite(out).sum())
            one, one_gap, pair, pair_gap = (np.empty(10), np.empty(10),
                                            np.empty(1), np.empty(1))
            for r, i in enumerate(rows):
                py_scan(pos, vel, tupd, int(i), js, 4 * a * a, 1e-14, one, one_gap)
                assert out[r].tobytes() == one.tobytes(), (n, latest, trial, i)
                assert gap[r].tobytes() == one_gap.tobytes(), (n, latest, trial, i)
                for q in range(10):
                    py_scan(pos, vel, tupd, int(i), js[q:q + 1], 4 * a * a, 1e-14,
                            pair, pair_gap)
                    assert pair.tobytes() == out[r, q:q + 1].tobytes(), (n, latest, trial, i, q)
                    assert pair_gap.tobytes() == gap[r, q:q + 1].tobytes(), (n, latest, trial, i, q)
                ref = np.maximum(tupd[i], tupd)
                dy = (pos[i] + (ref - tupd[i])[:, None] * vel[i]) - (
                    pos + (ref - tupd)[:, None] * vel)
                np.testing.assert_allclose(gap[r], (dy * dy).sum(axis=1) - 4 * a * a,
                                           rtol=1e-12, atol=1e-12)
            # a pair's time does not depend on which of the two is the row
            np.testing.assert_array_equal(out[:, rows[0]], out[0, rows])
        assert hits > 50, (n, latest, hits)  # the draw exercises the colliding branch


def test_scan_head_on():
    """Gap 4 -> 2 at relative closing speed 2: contact at t = 1."""
    t = _contact([0.0, 0.0], [1.0, 0.0], [4.0, 0.0], [-1.0, 0.0], a=1.0)
    oracle = contact_time_scan([0, 0], [1, 0], [4, 0], [-1, 0], 1.0, 5.0)
    assert t == pytest.approx(1.0, abs=1e-12)
    assert t == pytest.approx(oracle, abs=1e-9)


def test_scan_separating_pair_never_meets():
    assert _contact([0.0, 0.0], [-1.0, 0.0], [4.0, 0.0], [1.0, 0.0], a=1.0) is None


def test_scan_grazing_pass_never_meets():
    # impact parameter exactly 2a: tangential contact, filtered
    assert _contact([0.0, 0.0], [1.0, 0.0], [5.0, 2.0], [0.0, 0.0], a=1.0) is None
    assert contact_time_scan([0, 0], [1, 0], [5, 2], [0, 0], 1.0, 20.0) is None


@pytest.mark.parametrize("k", [300, 450, 500, 700, 1000, 1030])
def test_scan_slow_pairs_scale_exactly(k):
    """Velocities scaled by 2^-k give the time scaled by 2^k, bit for bit,
    also where |dv|^2 underflows (k >= 450), and +inf where the time
    overflows (k = 1030)."""
    for yi, vi, yj, vj, a in (([0.0, 0.0], [0.75, 0.25], [3.0, 0.5], [-1.0, 0.0], 0.5),
                              ([0.25], [0.5], [2.0], [-0.75], 0.125),
                              ([0.0], [1.0], [1.5], [-0.5], 0.0)):
        t = _contact(yi, vi, yj, vj, a)
        slow = _contact(yi, np.ldexp(vi, -k), yj, np.ldexp(vj, -k), a)
        want = math.ldexp(t, k) if k < 1030 else None
        assert slow == want


def test_slow_pair_leaves_the_other_pairs_bits():
    """A block holding a pair that needs rescaling returns the same bits
    for every other pair as a block without it."""
    rng = np.random.default_rng(5)
    pos, vel, _, js = _random_scan_case(rng, 3, 8)
    tupd = np.zeros(len(pos))
    vel[0] = 0.0
    vel[1] = np.ldexp(pos[0] - pos[1], -600)  # approaching particle 0
    out = np.empty(len(js))
    py_scan(pos, vel, tupd, 0, js, 0.01, 1e-14, out)
    rest = np.empty(len(js) - 1)
    py_scan(pos, vel, tupd, 0, js[1:], 0.01, 1e-14, rest)
    assert out[1:].tobytes() == rest.tobytes()
    fast = vel.copy()
    fast[1] = pos[0] - pos[1]
    want = np.empty(1)
    py_scan(pos, fast, tupd, 0, js[:1], 0.01, 1e-14, want)
    assert out[0] == math.ldexp(want[0], 600) and math.isfinite(out[0])


def _is_grazing(yi, vi, yj, vj, a):
    dy, dv = np.asarray(yj) - yi, np.asarray(vj) - vi
    b = float(np.dot(dy, dv))
    A = float(np.dot(dv, dv))
    c = float(np.dot(dy, dy)) - 4 * a * a
    disc = b * b - A * c
    return disc < 1e-14 * (b * b + A * abs(c))


def test_scan_matches_bisection_oracle_on_random_pairs():
    rng = np.random.default_rng(11)
    hits = 0
    for _ in range(300):
        n = int(rng.integers(1, 4))
        a = float(rng.uniform(0.05, 0.5))
        yi, yj = rng.normal(0, 2, size=(2, n))
        if np.linalg.norm(yj - yi) <= 2 * a:
            continue
        vi, vj = rng.normal(0, 1.5, size=(2, n))
        t = _contact(yi, vi, yj, vj, a)
        t_oracle = contact_time_scan(yi, vi, yj, vj, a, 50.0)
        if t is None:
            # the oracle may see a tangential touch the grazing filter drops;
            # everything else must agree
            assert t_oracle is None or t_oracle > 50.0 or abs(
                np.dot(yj - yi, vj - vi)) < 1e-12 or _is_grazing(yi, vi, yj, vj, a)
        elif t < 49.0:  # inside the oracle's scan horizon
            hits += 1
            assert t_oracle is not None
            assert t == pytest.approx(t_oracle, rel=1e-9, abs=1e-9)
    assert hits > 30  # the draw really exercises the colliding branch
