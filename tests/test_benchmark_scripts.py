"""Smoke runs of the benchmark scripts on tiny inputs: augment_scaling.py's
measurement of one tensor, and golden_artifacts.py's digests of one
scenario and one sweep."""

import importlib.util
from pathlib import Path

from kinkbound import tensor

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, BENCHMARKS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_augment_scaling_measures_a_small_tensor():
    script = _load("augment_scaling")
    log = script.gas_log(16, None)
    T = tensor.build_tensor(log, script.augment_window(log, collisions=5))
    row = script.measure("tiny", T, repeats=1)
    assert (row["tensor"], row["kinks"], row["edges"]) == ("tiny", 10, len(T.edges))
    assert row["kinks_per_block"] == max(1, tensor._BLOCK // len(T.edges))
    assert 0.0 < row["kept_pairs"] <= 1.0
    for key in ("default_eps_s", "bases_s", "build_augmented_s"):
        assert row[key] > 0.0


def test_golden_digests_of_a_line_and_a_one_size_sweep(tmp_path, monkeypatch):
    monkeypatch.setenv("KINKBOUND_THREADS", "1")
    script = _load("golden_artifacts")
    spec = {"sizes": [5], "seeds": [0], "base": {"generator": "line_1d"},
            "t_max": 2.5}
    maps = []
    for run in ("a", "b"):
        work = tmp_path / run
        work.mkdir()
        digests = script.digests("simulate", "line1d_p5", script.line_config(5),
                                 script.ARTIFACTS, work)
        digests.update(script.digests("sweep", "sweep_line1d", spec,
                                      ("ratios.csv",), work))
        maps.append(digests)
    assert sorted(maps[0]) == sorted(
        [f"line1d_p5/{a}" for a in script.ARTIFACTS] + ["sweep_line1d/ratios.csv"])
    assert all(len(d) == 64 and int(d, 16) >= 0 for d in maps[0].values())
    assert maps[0] == maps[1]
