"""The package's one reduction rule (kinkbound.kernel): the components of
every dot product, norm and sum of squares are added in index order, and
no BLAS-backed numpy call is left on the path that writes the artifacts.
"""

import json

import numpy as np
import pytest

from kinkbound import cli
from kinkbound.kernel import component_sum, dots, norms


def _in_order(x):
    """x[0] + x[1] + ... over the leading axis, one Python float at a time."""
    x = np.asarray(x)
    out = np.empty(x.shape[1:])
    for index in np.ndindex(*x.shape[1:]):
        total = float(x[(0,) + index])
        for k in range(1, len(x)):
            total += float(x[(k,) + index])
        out[index] = total
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 9, 12])
@pytest.mark.parametrize("shape", [(), (1,), (2,), (5,), (1, 1), (3, 1), (1, 4),
                                   (4, 3)])
def test_component_sum_adds_in_index_order(n, shape):
    """On C-ordered, transposed and strided data alike, with one value a
    slice or many: numpy sums pairwise from 8 values on, which this order
    is not."""
    rng = np.random.default_rng(n)
    x = rng.normal(size=(n,) + shape) * np.exp(4.0 * rng.normal(size=(n,) + shape))
    want = _in_order(x)
    for view in (x, np.asfortranarray(x), np.stack((x, x), axis=-1)[..., 1]):
        got = np.asarray(component_sum(view))
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [2, 3, 9])
def test_dots_and_norms_of_rows(n):
    rng = np.random.default_rng(10 + n)
    X = rng.normal(size=(6, 4, n))
    Y = rng.normal(size=(6, 1, n))
    want = _in_order(np.moveaxis(X * Y, -1, 0))
    assert dots(X, Y).tobytes() == want.tobytes()
    assert norms(X).tobytes() == np.sqrt(_in_order(np.moveaxis(X * X, -1, 0))).tobytes()
    assert float(dots(X[0, 0], Y[0, 0])) == float(want[0, 0])


def _refuse(*args, **kwargs):
    raise AssertionError("a BLAS-backed numpy call on the artifact path")


def test_simulate_verify_tensor_and_sweep_call_no_blas(tmp_path, monkeypatch):
    """simulate, verify-tensor and a one-worker sweep, in this process,
    with np.dot, np.vecdot, np.matmul and np.linalg.norm raising; the
    ndarray.dot method and the @ operator bypass these names, and a grep
    of the sources for them finds nothing."""
    monkeypatch.setenv("KINKBOUND_THREADS", "1")
    gas = {"generator": "random_gas", "a": 0.01,
           "box_policy": {"kind": "fixed_fraction", "value": 0.2}}
    configs = {f"gas{n}d": {"scenario": {**gas, "n": n, "N": 48, "seed": 3,
                                         "velocities": {"kind": "maxwell"}},
                            "sim": {"t_max": 1.0}}
               for n in (2, 3)}
    configs["line"] = {"scenario": {"generator": "line_1d", "p": 6}}
    spec = {"sizes": [16, 32], "seeds": [0, 1], "base": {**gas, "n": 3},
            "t_max": 1.0}
    for owner, name in ((np, "dot"), (np, "vecdot"), (np, "matmul"),
                        (np.linalg, "norm")):
        monkeypatch.setattr(owner, name, _refuse)
    for name, config in configs.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(config))
        out = tmp_path / name
        assert cli.main(["simulate", "--config", str(path), "--out", str(out)]) == 0
        assert cli.main(["verify-tensor", "--events", str(out / "events.jsonl")]) == 0
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert cli.main(["sweep", "--spec", str(path), "--out", str(tmp_path / "sweep")]) == 0
    assert (tmp_path / "sweep" / "ratios.csv").exists()
