"""The numpy contact kernel: every pair's time against a one-pair scalar
transliteration, and a block of rows bit for bit equal to one row at a
time, including the gap it reports."""

import numpy as np

from kinkbound._pykern import contact_times_scan as py_scan


def _random_scan_case(rng, n, m):
    pos = rng.normal(0, 1, size=(m + 1, n))
    vel = rng.normal(0, 1, size=(m + 1, n))
    tupd = np.abs(rng.normal(0, 0.1, size=m + 1))
    js = np.arange(1, m + 1, dtype=np.int64)
    return pos, vel, tupd, js


def test_python_scan_matches_scalar_reference():
    """The vectorized python kernel against a one-pair transliteration."""
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

    for n in (1, 2, 3):
        for _ in range(100):
            pos, vel, tupd, js = _random_scan_case(rng, n, 6)
            a = float(rng.uniform(0.0, 0.2)) if n == 1 else float(rng.uniform(0.01, 0.2))
            out = np.empty(js.size)
            py_scan(pos, vel, tupd, 0, js, 4 * a * a, 1e-14, out)
            for m, j in enumerate(js):
                want = scalar_one(pos, vel, tupd, 0, int(j), 4 * a * a, 1e-14)
                assert (np.isinf(out[m]) and np.isinf(want)) or out[m] == want


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
    one-row call would give it, and gap must be |dy|^2 - 4a^2 at ref."""
    rng = np.random.default_rng(31)
    for n in (1, 2, 3):
        for trial in range(50):
            pos, vel, tupd, _ = _random_scan_case(rng, n, 9)
            a = 0.0 if n == 1 and trial % 2 else float(rng.uniform(0.01, 0.3))
            rows = np.array([0, 4, 7])
            js = np.arange(10, dtype=np.int64)
            out = np.empty((3, 10))
            gap = np.empty((3, 10))
            py_scan(pos, vel, tupd, rows, js, 4 * a * a, 1e-14, out, gap)
            assert not np.isnan(out).any()
            for r, i in enumerate(rows):
                one = np.empty(10)
                py_scan(pos, vel, tupd, int(i), js, 4 * a * a, 1e-14, one)
                assert out[r].tobytes() == one.tobytes(), (n, trial, i)
                ref = np.maximum(tupd[i], tupd)
                dy = (pos[i] + (ref - tupd[i])[:, None] * vel[i]) - (
                    pos + (ref - tupd)[:, None] * vel)
                np.testing.assert_allclose(gap[r], (dy * dy).sum(axis=1) - 4 * a * a,
                                           rtol=1e-12, atol=1e-12)
            # a pair's time does not depend on which of the two is the row
            np.testing.assert_array_equal(out[:, 0], out[0, rows])
