"""Smoke runs of the benchmark scripts on tiny inputs: trajectory.py's
counts of a line and a tensor, its tiny table against the newest
committed record, its A/B against this tree and its bit-identity check;
golden_artifacts.py's digests of one scenario and one sweep; and the
committed golden map, golden_digests.json, against the digests of the
map's fast scenes, whose logs verify-tensor reads back."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import kinkbound
from kinkbound import cli, dynamics, harness, tensor

ROOT = Path(__file__).resolve().parents[1]
BENCHMARKS = ROOT / "benchmarks"
GOLDEN = Path(__file__).resolve().with_name("golden_digests.json")


def _load(name):
    spec = importlib.util.spec_from_file_location(name, BENCHMARKS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _trajectory(monkeypatch):
    """benchmarks/trajectory.py, which imports golden_artifacts beside it."""
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    return _load("trajectory")


def test_trajectory_measures_a_small_line(monkeypatch):
    """line_1d p=5: 25 collisions at 9 times, 4 re-predictions; every
    prediction step and heap operation is counted, and the wrappers and
    the heap's stand-in come off again."""
    script = _trajectory(monkeypatch)
    original = (dynamics.contact_times_scan, dynamics._Engine._predict,
                dynamics._Engine._collide, dynamics.heapq)
    row = script.measure(kinkbound, {"tiny": script.TINY["line1d_p5"]}, runs=1)["tiny"]
    assert original == (dynamics.contact_times_scan, dynamics._Engine._predict,
                        dynamics._Engine._collide, dynamics.heapq)
    counts = row["counts"]
    assert (counts["scenes"], counts["N"], counts["n"], counts["collisions"]) == (1, 10, 1, 25)
    assert counts["repredictions"] == 4
    # the run empties its heap: every push is popped, and every pop that
    # made no collision and no re-prediction was stale
    assert (counts["heap_pushes"], counts["stale_pops"]) == (54, 54 - 25 - 4)
    assert counts["kernel_calls"] == {"initial": 1, "one_row": 4, "rescan": 9}
    # rows x columns: all 10 rows of the initial scan, one row a
    # re-prediction and two a collision, each against all 10 particles
    assert counts["kernel_pairs"] == (10 + 4 + 50) * 10
    assert counts["rows_per_rescan_call"] == round(50 / 9, 2)
    assert counts["collide_calls"] >= 9
    assert counts["pairs_per_collide_call"] == round(25 / counts["collide_calls"], 2)
    # C calls under the profile hook, which comes off again: the same in
    # every run, and at least the engine's kernel and _collide calls
    assert counts["calls_per_collision"] >= (14 + counts["collide_calls"]) / 25
    assert sys.getprofile() is None
    again = script.measure(kinkbound, {"tiny": script.TINY["line1d_p5"]}, runs=1)["tiny"]
    assert again["counts"] == counts
    assert sorted(row["times"]) == ["collide_us", "kernel_us", "rescan_rest_us", "whole_us"]
    assert all(value > 0.0 for value in row["times"].values())


def test_trajectory_measures_a_small_tensor(monkeypatch):
    """The 2-D gas at N=16 in the window of its first 5 collisions: 10
    kinks, all in one block of the clearance scan."""
    script = _trajectory(monkeypatch)
    wrapped = (tensor._default_eps, tensor.complement_basis, tensor._box_gaps,
               tensor._distances)
    row = script.measure(kinkbound, {"tiny": script.TINY["augment_gas2d_n16"]},
                         runs=2)["tiny"]
    assert wrapped == (tensor._default_eps, tensor.complement_basis,
                       tensor._box_gaps, tensor._distances)
    counts = row["counts"]
    scenario, _ = harness.scenario_from_config(script.TINY["augment_gas2d_n16"][1][0])
    log = harness.simulate_scenario(scenario)
    T = tensor.build_tensor(log, script.window(log, 5))
    assert (counts["kinks"], counts["edges"]) == (10, len(T.edges))
    # one block: every edge is a candidate, and each kink's least-gap
    # edge is one exact pair
    assert counts["box_gap_pairs"] == 10 * len(T.edges)
    assert 10 <= counts["exact_pairs"] <= 10 + 10 * len(T.edges)
    assert sorted(row["times"]) == ["bases_s", "build_augmented_s", "default_eps_s"]
    assert all(value > 0.0 for value in row["times"].values())


def test_trajectory_tiny_counts_equal_the_newest_record(monkeypatch, capsys):
    """Every count of the tiny table equals the one in the newest
    committed BENCH_*.json; a change that moves a count records anew.
    calls_per_collision is compared where Python and numpy are the
    record's versions, whose builtins and functions it counts."""
    records = [json.loads(path.read_text()) for path in ROOT.glob("BENCH_*.json")]
    assert records, "no BENCH_*.json at the repository root"
    newest = max(records, key=lambda record: record["recorded"])
    _trajectory(monkeypatch).main(["--tiny", "--runs", "1"])
    record = json.loads(capsys.readouterr().out)
    tiny = record["tiny"]
    assert list(tiny) == list(newest["tiny"])
    engine_rows = ("line1d_p5", "rows2d_p3", "gas3d_n16", "sweep3d")
    for row in engine_rows:
        assert {"heap_pushes", "stale_pops", "calls_per_collision"} <= set(
            tiny[row]["counts"])
    versions = [(record["machine"][k], newest["machine"][k]) for k in ("python", "numpy")]
    if any(ours != theirs for ours, theirs in versions):
        for row in engine_rows:
            for counts in (tiny[row]["counts"], newest["tiny"][row]["counts"]):
                counts.pop("calls_per_collision")
    assert {row: tiny[row]["counts"] for row in tiny} == {
        row: newest["tiny"][row]["counts"] for row in tiny}


def test_trajectory_ab_smoke_run_on_tiny_rows():
    """--parent with this tree on both sides: the bit-identity checks pass
    and every row gets its quartiles."""
    out = subprocess.run(
        [sys.executable, str(BENCHMARKS / "trajectory.py"), "--parent", str(ROOT),
         "--tiny", "--rounds", "2"],
        capture_output=True, text=True, check=True, timeout=600,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")}).stdout
    rows = [json.loads(line) for line in out.splitlines()]
    assert [r["row"] for r in rows] == ["line1d_p5", "rows2d_p3", "gas3d_n16",
                                       "sweep3d", "augment_gas2d_n16"]
    assert [r["scenes"] for r in rows] == [1, 1, 1, 4, 1]
    for r in rows:
        assert r["rounds"] == 2 and 0 <= r["change_faster"] <= 2
        assert r["runs_per_side"] == 1  # a smoke run
        for key in ("parent_s", "change_s", "ratio"):
            q = r[key]
            assert 0 < q["q1"] <= q["median"] <= q["q3"]


def test_trajectory_tells_results_apart_by_one_bit(monkeypatch):
    script = _trajectory(monkeypatch)
    sc = kinkbound.gen_line_1d(3)
    block, end = dynamics._Engine(sc.states, sc.config).run()
    again = dynamics._Engine(sc.states, sc.config).run()
    assert script.same_bits([(block, end)], [again])
    block.y[-1, 0, 0] = np.nextafter(block.y[-1, 0, 0], np.inf)
    assert not script.same_bits([(block, end)], [again])
    assert not script.same_bits([(block, end)], [(again[0], "t_max")])


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


def test_fast_scenes_reproduce_the_committed_golden_map(tmp_path, monkeypatch, capsys):
    """Every artifact of the fast scenes, and of the line_1d sweep, has the
    digest committed in golden_digests.json, which
    benchmarks/golden_artifacts.py printed for the whole set.  Each scene's
    events.jsonl passes verify-tensor's rules, its chain rules included,
    and audits to the bytes of its audit.json."""
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
    capsys.readouterr()
    for name in FAST_SCENES:
        run = tmp_path / name
        assert cli.main(["verify-tensor", "--events", str(run / "events.jsonl")]) == 0
        assert capsys.readouterr().out == (run / "audit.json").read_text(), name
