"""Smoke runs of the benchmark scripts on tiny inputs: augment_scaling.py's
measurement of one tensor, engine_costs.py's of one scene, and
golden_artifacts.py's digests of one scenario and one sweep; and the
committed golden map, golden_digests.json, against the digests of the
map's fast scenes."""

import importlib.util
import json
from pathlib import Path

from kinkbound import dynamics, harness, tensor

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"
GOLDEN = Path(__file__).resolve().with_name("golden_digests.json")


def _load(name):
    spec = importlib.util.spec_from_file_location(name, BENCHMARKS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_augment_scaling_measures_a_small_tensor():
    script = _load("augment_scaling")
    log = script.gas_log(16, None)
    T = tensor.build_tensor(log, script.augment_window(log, collisions=5))
    box_gaps, distances = tensor._box_gaps, tensor._distances
    row = script.measure("tiny", T, repeats=1)
    assert (tensor._box_gaps, tensor._distances) == (box_gaps, distances)
    assert (row["tensor"], row["kinks"], row["edges"]) == ("tiny", 10, len(T.edges))
    # one block: every edge is a candidate, and each kink's least-gap
    # edge is one exact pair
    assert row["box_gap_pairs"] == 10 * len(T.edges)
    assert 10 <= row["exact_pairs"] <= 10 + 10 * len(T.edges)
    for key in ("default_eps_s", "bases_s", "build_augmented_s"):
        assert row[key] > 0.0


def test_engine_costs_measures_a_small_line():
    """line_1d p=5: 25 collisions at 9 times, 4 re-predictions; every
    prediction step is counted, and the wrappers come off again."""
    script = _load("engine_costs")
    original = (dynamics.contact_times_scan, dynamics._Engine._predict,
                dynamics._Engine._collide)
    row = script.measure("tiny", harness.gen_line_1d(5), runs=1)
    assert original == (dynamics.contact_times_scan, dynamics._Engine._predict,
                        dynamics._Engine._collide)
    assert (row["scene"], row["N"], row["n"], row["collisions"]) == ("tiny", 10, 1, 25)
    assert row["repredictions"] == 4
    assert row["kernel_calls"] == {"initial": 1, "one_row": 4, "rescan": 9}
    assert row["rows_per_rescan_call"] == round(50 / 9, 2)
    assert row["collide_calls"] >= 9
    for key in ("whole_us", "kernel_us", "collide_us", "rescan_rest_us"):
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


# the scenes of golden_artifacts.py that run in about a second together
FAST_SCENES = (
    [f"line1d_p{p}" for p in (1, 5, 50)]
    + [f"rows{n}d_p20" for n in (2, 3)]
    + ["explicit3d_no_events", "explicit2d_one_event"]
    + [f"gas{n}d_N64_s{seed}" for n in (2, 3) for seed in range(4)]
    + ["gas4d_N64_s0", "gas2d_N64_s0_boost_time_scale", "gas2d_N64_s1_uniform"])


def test_fast_scenes_reproduce_the_committed_golden_map(tmp_path, monkeypatch):
    """Every artifact of the fast scenes, and of the line_1d sweep, has the
    digest committed in golden_digests.json, which
    benchmarks/golden_artifacts.py printed for the whole set."""
    monkeypatch.setenv("KINKBOUND_THREADS", "1")
    script = _load("golden_artifacts")
    committed = json.loads(GOLDEN.read_text())
    assert sorted(committed) == sorted(
        [f"{name}/{a}" for name in script.scenarios() for a in script.ARTIFACTS]
        + [f"{name}/ratios.csv" for name in script.sweeps()])
    scenarios = script.scenarios()
    digests = {}
    for name in FAST_SCENES:
        digests.update(script.digests("simulate", name, scenarios[name],
                                      script.ARTIFACTS, tmp_path))
    digests.update(script.digests("sweep", "sweep_line1d",
                                  script.sweeps()["sweep_line1d"],
                                  ("ratios.csv",), tmp_path))
    assert len(digests) == 4 * len(FAST_SCENES) + 1
    assert digests == {key: committed[key] for key in digests}
