"""The packed event log's array passes against the per-event loops in
oracles.py.

The engine and read_events_jsonl fill one EventBlock; serialization, the
ledger, the report, the tensor construction and its augmentation are
array passes over packed columns that keep every summation order, with
each norm and dot product added in index order, as oracles.inorder_dot
adds it.  Agreement is required bit for bit: artifacts as bytes, other
results field by field with tobytes() or ==.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import oracles
from kinkbound import _jsonio, dynamics, harness, kernel, ledger, tensor


def _gas(n, N, seed, a=0.02, t_max=None):
    scn = harness.gen_random_gas(
        n, N, [1.0] * n, a, {"kind": "maxwell", "sigma": 1.0}, seed)
    scn.config = replace(scn.config, t_max=t_max)
    return harness.simulate_scenario(scn)


def _explicit(n, a, positions, velocities):
    return harness.simulate_scenario(
        harness.gen_explicit(n, a, positions, velocities))


def _empty3d():
    # two spheres flying apart: no collision
    return _explicit(3, 0.1, [[0, 0, 0], [1, 0, 0]], [[-1, 0.5, 0], [1, 0, 0.25]])


CASES = {
    **{f"line_p{p}": (lambda p=p: harness.simulate_scenario(harness.gen_line_1d(p)))
       for p in (1, 5, 50)},
    "gas2d": lambda: _gas(2, 40, 3),
    "gas3d": lambda: _gas(3, 40, 1, a=0.06),
    "gas2d_t_max": lambda: _gas(2, 40, 7, t_max=0.3),
    "no_events_3d": _empty3d,
    "rods_n1": lambda: _explicit(1, 0.0, [[0.0], [1.0], [3.0]],
                                 [[2.0], [-1.0], [-0.5]]),
    "oblique_n2": lambda: _explicit(2, 0.5, [[0, 0], [1 + 0.5**0.5, 0.5**0.5]],
                                    [[1, 0], [0, 0]]),
    "three_body_n3": lambda: _explicit(
        3, 0.25, [[0, 0, 0], [2, 0.1, 0], [4, -0.2, 0.3]],
        [[1, 0, 0], [0, 0, 0.05], [-1, 0.02, 0]]),
    # head-on along the first axis: both kinks span (e0, e1), so the
    # residuals of e2 and e3 are exact unit vectors of equal norm
    "axis_aligned_n3": lambda: _explicit(3, 0.25, [[0, 0, 0], [1, 0, 0]],
                                         [[1, 0, 0], [0, 0, 0]]),
    # contact normal (0, 1, 1)/sqrt(2) at exact positions: at the first
    # kink all four residual norms tie, and the second candidate is
    # parallel to the first
    "skip_n3": lambda: _explicit(3, 0.125 ** 0.5, [[0, 0, 0], [-1, -1.5, -1.5]],
                                 [[-1, -1, -1], [0, 0, 0]]),
}


@pytest.fixture(params=sorted(CASES))
def log(request):
    return CASES[request.param]()


def test_explicit_cases_collide():
    for name in ("rods_n1", "oblique_n2", "three_body_n3", "axis_aligned_n3",
                 "skip_n3"):
        assert len(CASES[name]().events) >= 1
    assert len(CASES["no_events_3d"]().events) == 0
    assert CASES["gas2d_t_max"]().termination == "t_max"


def test_events_jsonl_matches_loop(log):
    data = dynamics.events_jsonl_bytes(log)
    assert data == oracles.events_jsonl_bytes(log)


def test_events_jsonl_rejects_non_finite_values():
    """A non-finite initial state or event value raises as _jsonio.dumps
    does, wherever it sits."""
    log = CASES["oblique_n2"]()
    for bad in (np.nan, np.inf):
        for k in range(2):
            initial = replace(log.initial, velocity=log.initial.velocity.copy())
            initial.velocity[k] = [0.0, bad]
            with pytest.raises(ValueError, match="non-finite"):
                dynamics.events_jsonl_bytes(replace(log, initial=initial))
        events = replace(log.events, v_post=log.events.v_post.copy())
        events.v_post[0, 1, 0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            dynamics.events_jsonl_bytes(replace(log, events=events))


def test_read_events_matches_loop(log, tmp_path):
    path = tmp_path / "events.jsonl"
    dynamics.write_events_jsonl(log, path)
    read = dynamics.read_events_jsonl(path)
    b, want = read.events, log.events
    for name in ("t", "i", "j", "y", "v", "v_post"):
        got, expected = getattr(b, name), getattr(want, name)
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert got.tobytes() == expected.tobytes(), name
    loop = oracles.read_events(path)
    assert len(loop) == len(read.events)
    for g, w in zip(read.events, loop):
        assert (g.t, g.i, g.j) == (w.t, w.i, w.j)
        for name in ("yi", "yj", "vi", "vj", "vi_post", "vj_post"):
            assert getattr(g, name).tobytes() == getattr(w, name).tobytes()
    assert dynamics.events_jsonl_bytes(read) == path.read_bytes()


def _assert_same_rows(got, want, scalars, vectors):
    """A block's columns equal a list of records field by field: each
    scalar column as Python values, each vector column as bytes."""
    assert len(got) == len(want)
    for name in scalars:
        assert getattr(got, name).tolist() == [getattr(w, name) for w in want], name
    for name in vectors:
        assert getattr(got, name).tobytes() == b"".join(
            getattr(w, name).tobytes() for w in want), name


def _assert_same_records(got, want):
    _assert_same_rows(got, want, ("time", "particle", "partner", "dv_norm",
                                  "wedge", "st_wedge"), ("v", "v_post"))


def _assert_ledger_layers(log, tmp_path):
    records = ledger.build_ledger(log)
    want = oracles.build_ledger(log)
    _assert_same_records(records, want)
    inv = ledger.bulk_invariants(log.initial.velocity)
    for eps in (0.5, 1.0):
        assert (ledger.bound_report(records, inv, eps)
                == oracles.bound_report(want, inv, eps))
    _assert_same_rows(ledger.hodograph_summaries(log),
                      oracles.hodograph_summaries(log),
                      ("particle", "ell", "area", "scatter"), ("v0", "v_plus"))
    ledger.write_ledger_csv(records, tmp_path / "packed.csv")
    oracles.write_ledger_csv(want, tmp_path / "loop.csv")
    assert (tmp_path / "packed.csv").read_bytes() == (tmp_path / "loop.csv").read_bytes()
    assert (_jsonio.dumps(ledger.build_report(log, records))
            == _jsonio.dumps(oracles.build_report(log, want)))


def test_ledger_layers_match_loops(log, tmp_path):
    _assert_ledger_layers(log, tmp_path)


def _assert_same_tensor(got, want):
    assert (got.window, got.n, got.vertices, got.mass_energy, got.div_mass) == \
        (want.window, want.n, want.vertices, want.mass_energy, want.div_mass)
    _assert_same_rows(got.edges, oracles.edge_rows(want.edges),
                      ("weight", "kind", "start", "end"),
                      ("x_start", "x_end", "direction"))
    _assert_same_rows(got.kinks, list(want.kinks), ("vertex_id",),
                      ("vertex", "v", "v_post"))


def _windows(log):
    """The audit window, and one that cuts between the second and third
    and the second-to-last and last collisions (when there are enough)."""
    out = [harness._audit_window(log)]
    times = sorted({ev.t for ev in log.events})
    if len(times) >= 5:
        out.append((0.5 * (times[1] + times[2]), 0.5 * (times[-2] + times[-1])))
    return out


def test_build_tensor_matches_loop(log):
    for window in _windows(log):
        T = tensor.build_tensor(log, window)
        _assert_same_tensor(T, oracles.build_tensor(log, window))
        assert (_jsonio.dumps(tensor.audit_tensor(T))
                == _jsonio.dumps(oracles.audit_tensor(T)))


def _assert_augmented_matches_loop(log):
    T = tensor.build_tensor(log, harness._audit_window(log))
    A = tensor.build_augmented(T, b=0.75)
    want = oracles.build_augmented(oracles.build_tensor(log, T.window), b=0.75)
    _assert_same_tensor(A, want)
    assert _jsonio.dumps(tensor.audit_tensor(A)) == _jsonio.dumps(oracles.audit_tensor(A))
    assert np.array_equal(tensor._default_eps(T, T.kinks),
                          oracles.default_eps(T, list(T.kinks)))


@pytest.mark.parametrize("case", ["gas2d", "gas3d", "oblique_n2", "three_body_n3",
                                  "axis_aligned_n3", "skip_n3"])
def test_build_augmented_matches_loop(case):
    _assert_augmented_matches_loop(CASES[case]())


@pytest.mark.parametrize("case", ["gas2d", "gas3d", "three_body_n3"])
@pytest.mark.parametrize("block", ["one", "uneven"])
def test_build_augmented_in_blocks_matches_loop(case, block, monkeypatch):
    """Blocks of one kink (_BLOCK = 1), and blocks of three kinks that
    leave a shorter last block, give the loop's bits."""
    log = CASES[case]()
    T = tensor.build_tensor(log, harness._audit_window(log))
    K = len(T.kinks)
    assert K % 3
    monkeypatch.setattr(tensor, "_BLOCK", 1 if block == "one" else 3 * len(T.edges))
    _assert_augmented_matches_loop(log)


def _lifted(sites):
    """The lifted velocities (1, v) and (1, v_post) of a KinkBlock's rows."""
    ones = np.ones((len(sites), 1))
    return (np.concatenate((ones, sites.v), axis=1),
            np.concatenate((ones, sites.v_post), axis=1))


def test_complement_basis_ties_keep_axis_order():
    """Equal residual norms go in axis order (the stable argsort): e2 before
    e3 at both kinks of the head-on pair."""
    log = CASES["axis_aligned_n3"]()
    T = tensor.build_tensor(log, harness._audit_window(log))
    bases = tensor.complement_basis(*_lifted(T.kinks))
    assert len(bases) == 2
    for Z, V, V2 in zip(bases, *_lifted(T.kinks)):
        assert np.array_equal(Z, np.eye(4)[2:])
        assert np.array_equal(Z, oracles.complement_basis(V, V2))


def test_complement_basis_skips_a_parallel_candidate():
    """A candidate whose residual is parallel to a direction already found
    is skipped and the next one taken, as the loop does (the batched path
    meets this kink in test_build_augmented_matches_loop[skip_n3]).  The
    first candidate is never skipped: its squared residual norm is at least
    (n-1)/(n+1), the mean of the projector's diagonal."""
    log = CASES["skip_n3"]()
    T = tensor.build_tensor(log, harness._audit_window(log))
    skipped = []
    V, V2 = _lifted(T.kinks[:1])
    want = oracles.complement_basis(V[0], V2[0], skipped)
    assert skipped == [1]
    assert np.array_equal(tensor.complement_basis(V, V2)[0], want)


def test_build_tensor_rejects_boundary_on_collision():
    log = CASES["gas2d"]()
    t = log.events[3].t
    for window in ((t, t + 1.0), (-1.0, t)):
        with pytest.raises(ValueError, match="window boundary") as packed:
            tensor.build_tensor(log, window)
        with pytest.raises(ValueError, match="window boundary") as loop:
            oracles.build_tensor(log, window)
        assert str(packed.value) == str(loop.value)
    with pytest.raises(ValueError, match="window"):
        tensor.build_tensor(log, (-np.inf, 1.0))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_row_norms_and_wedges_match_scalar_forms(n):
    rng = np.random.default_rng(n)
    X = rng.normal(size=(4000, n)) * rng.uniform(0.01, 100.0, size=(4000, 1))
    Y = X + rng.normal(size=(4000, n)) * 1e-3  # nearly parallel rows too
    Y[::2] = rng.normal(size=(2000, n))
    norms = kernel.norms(X)
    assert norms.tolist() == [float(oracles.inorder_norm(x)) for x in X]
    # rows that are not contiguous give the same bits
    assert kernel.norms(np.asfortranarray(X)).tobytes() == norms.tobytes()
    assert kernel.norms(np.stack((Y, X), axis=1)[:, 1]).tobytes() == norms.tobytes()
    assert kernel.wedge_norms(X, Y).tolist() == \
        [oracles.wedge_norm(x, y) for x, y in zip(X, Y)]
    assert kernel.spacetime_wedges(X, Y).tolist() == \
        [oracles.spacetime_wedge(x, y) for x, y in zip(X, Y)]
    assert kernel.wedge_norms(X[0], Y[0]) == oracles.wedge_norm(X[0], Y[0])


@settings(max_examples=25,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=st.integers(0, 2**16), n=st.sampled_from([1, 2, 3]),
       N=st.integers(1, 14))
def test_small_gases_match_loops(seed, n, N, tmp_path):
    if n == 1:
        rng = np.random.default_rng(seed)
        positions = np.sort(rng.uniform(0.0, 10.0, size=N))[:, None]
        log = _explicit(1, 0.0, positions, rng.normal(size=(N, 1)))
    else:
        log = _gas(n, N, seed, a=0.03)
    assert dynamics.events_jsonl_bytes(log) == oracles.events_jsonl_bytes(log)
    _assert_ledger_layers(log, tmp_path)
    window = harness._audit_window(log)
    _assert_same_tensor(tensor.build_tensor(log, window),
                        oracles.build_tensor(log, window))
