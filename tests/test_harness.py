"""Scenario generators, config ingestion, experiment artifacts, sweeps, CLI."""

import copy
import functools
import json
import math
import pickle
import shutil
import subprocess
import sys
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import oracles
from kinkbound import cli, harness
from kinkbound.dynamics import (ConfigurationError, GenericityViolation,
                                events_jsonl_bytes, read_events_jsonl)


# -- generators ---------------------------------------------------------------


def test_gen_line_1d_structure():
    scn = harness.gen_line_1d(3)
    assert scn.states.position.shape == (6, 1) and scn.config.a == 0.0
    assert [s.id for s in scn.states] == list(range(6))
    pos = [float(s.position[0]) for s in scn.states]
    vel = [float(s.velocity[0]) for s in scn.states]
    assert pos == [-1.0, -2.0, -3.0, 1.0, 2.0, 3.0]
    assert vel == [1.0, 1.0, 1.0, -1.0, -1.0, -1.0]
    assert scn.provenance["generator"] == "line_1d"
    with pytest.raises(ValueError):
        harness.gen_line_1d(0)


@pytest.mark.parametrize("p", [1, 2, 5])
def test_gen_line_1d_collision_count(p):
    log = harness.simulate_scenario(harness.gen_line_1d(p))
    assert len(log.events) == p * p
    assert log.termination == "queue_empty"


def test_gen_random_gas_placement():
    a = 0.03
    scn = harness.gen_random_gas(
        2, 30, [1.0, 2.0], a, {"kind": "maxwell", "sigma": 1.0}, 5)
    P = np.array([s.position for s in scn.states])
    assert P.shape == (30, 2)
    assert np.all(P >= 0.0) and np.all(P <= [1.0, 2.0])
    d = np.linalg.norm(P[:, None] - P[None, :], axis=2)
    np.fill_diagonal(d, np.inf)
    assert d.min() > 2 * a * (1 + 1e-9)
    assert scn.provenance["rng"] == "numpy-philox4x64"
    assert scn.provenance["seed"] == 5


def test_gen_random_gas_deterministic():
    kw = dict(n=2, N=12, box=[1.0, 1.0], a=0.02,
              velocity_dist={"kind": "uniform", "v0": 2.0}, seed=9)
    s1 = harness.gen_random_gas(**kw)
    s2 = harness.gen_random_gas(**kw)
    for a, b in zip(s1.states, s2.states):
        assert np.array_equal(a.position, b.position)
        assert np.array_equal(a.velocity, b.velocity)


def test_gen_random_gas_packing_error():
    with pytest.raises(harness.PackingError):
        harness.gen_random_gas(
            2, 60, [0.1, 0.1], 0.05, {"kind": "maxwell", "sigma": 1.0}, 0)


def _gas_outcome(gen_random_gas, n, N, a, seed):
    """Positions and velocities of a maxwell gas in the unit box, or the
    PackingError message, with the generator's state at the end."""
    gens = []
    make = harness._rng

    def rng(seed):
        gens.append(make(seed))
        return gens[-1]

    with mock.patch.object(harness, "_rng", rng):
        try:
            scn = gen_random_gas(n, N, [1.0] * n, a,
                                 {"kind": "maxwell", "sigma": 1.0}, seed)
            out = (scn.states.position.tobytes(), scn.states.velocity.tobytes())
        except harness.PackingError as exc:
            out = str(exc)
    return out, json.dumps(gens[0].bit_generator.state, default=np.ndarray.tolist)


def _one_at_a_time(n, N, box, a, velocity_dist, seed):
    gen = harness._rng(seed)
    box = np.asarray(box, dtype=np.float64)
    placed = oracles.place_spheres(gen, N, n, box, a, harness._PACKING_ATTEMPT_CAP)
    vel = harness._draw_velocities(gen, velocity_dist, N, n)
    return harness.Scenario(None, harness.StateBlock(np.arange(N), placed, vel))


def _radius(n, N, fraction):
    """Radius at which N spheres cover `fraction` of the unit box."""
    ball = math.pi ** (n / 2) / math.gamma(n / 2 + 1)
    return 0.5 * (fraction / (N * ball / 2 ** n)) ** (1 / n)


@settings(max_examples=40)
@given(n=st.integers(1, 4), N=st.integers(1, 40),
       seed=st.integers(0, 2**16), data=st.data())
def test_batched_placement_matches_one_at_a_time(n, N, seed, data):
    """Candidate batches place the spheres that one attempt at a time
    places, leave the generator where it does (the velocities drawn next
    agree), and run out of attempts at the same sphere; batches of one
    candidate, of a few (the last one drawn beyond sphere N) and of the
    default size, with caps that a dense packing hits."""
    fraction = data.draw(st.sampled_from([0.05, 0.3, 0.6]), label="fraction")
    caps = [25, 60, 400] + ([harness._PACKING_ATTEMPT_CAP] if fraction < 0.5 else [])
    cap = data.draw(st.sampled_from(caps), label="cap")
    block = data.draw(st.sampled_from([1, 7, 64, harness._PLACE_BLOCK]), label="block")
    a = _radius(n, N, fraction)
    with mock.patch.object(harness, "_PACKING_ATTEMPT_CAP", cap), \
            mock.patch.object(harness, "_PLACE_BLOCK", block):
        assert (_gas_outcome(harness.gen_random_gas, n, N, a, seed)
                == _gas_outcome(_one_at_a_time, n, N, a, seed))


def test_batched_placement_hits_the_cap_where_one_at_a_time_does():
    """A packing too dense to finish: the same sphere index and attempt
    count in the message, the same generator state after the last draw."""
    with mock.patch.object(harness, "_PACKING_ATTEMPT_CAP", 5_003):
        got = _gas_outcome(harness.gen_random_gas, 2, 60, 0.3, 0)
        want = _gas_outcome(_one_at_a_time, 2, 60, 0.3, 0)
    assert got == want
    assert got[0].startswith("could not place sphere 4 of 60 within 5003 attempts")


class _CountingGenerator:
    """A numpy Generator that counts its random() calls."""

    def __init__(self, gen):
        self.gen, self.calls = gen, 0

    def random(self, *args):
        self.calls += 1
        return self.gen.random(*args)

    def __getattr__(self, name):
        return getattr(self.gen, name)


def test_packing_error_takes_a_bounded_number_of_batches():
    """Two discs of radius 1 do not fit apart in the unit square: the
    attempt cap runs out 64 candidates a batch, one random() call each,
    however few spheres the gas has."""
    gens = []
    make = harness._rng

    def rng(seed):
        gens.append(_CountingGenerator(make(seed)))
        return gens[-1]

    with mock.patch.object(harness, "_rng", rng), \
            pytest.raises(harness.PackingError,
                          match=f"sphere 1 of 2 within {harness._PACKING_ATTEMPT_CAP} "):
        harness.gen_random_gas(2, 2, [1, 1], 1.0, {}, 0)
    batches = math.ceil(harness._PACKING_ATTEMPT_CAP / 64)
    assert batches <= gens[0].calls <= batches + 1


def test_gen_random_gas_velocity_kinds():
    expl = np.arange(8.0).reshape(4, 2)
    scn = harness.gen_random_gas(
        2, 4, [1.0, 1.0], 0.01, {"kind": "explicit", "values": expl.tolist()}, 1)
    np.testing.assert_array_equal(
        np.array([s.velocity for s in scn.states]), expl)
    with pytest.raises(ValueError):
        harness.gen_random_gas(2, 4, [1.0, 1.0], 0.01, {"kind": "what"}, 1)
    with pytest.raises(ValueError):
        harness.gen_random_gas(
            2, 4, [1.0, 1.0], 0.01,
            {"kind": "explicit", "values": [[1.0, 0.0]]}, 1)
    with pytest.raises(ValueError):
        harness.gen_random_gas(2, 4, [0.0, 1.0], 0.01, {"kind": "maxwell"}, 1)


def test_gen_explicit_validation():
    with pytest.raises(ValueError):
        harness.gen_explicit(2, 0.1, [[0.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]])
    scn = harness.gen_explicit(2, 0.1, [[0.0, 0.0], [1.0, 0.0]],
                               [[1.0, 0.0], [0.0, 0.0]])
    assert scn.config.t_max is None
    assert scn.provenance["generator"] == "explicit"


# -- state transforms ---------------------------------------------------------


def test_apply_boost():
    scn = harness.gen_line_1d(2)
    boosted = harness.apply_boost(scn, [0.5])
    for s0, s1 in zip(scn.states, boosted.states):
        assert np.array_equal(s1.position, s0.position)
        assert np.array_equal(s1.velocity, s0.velocity + 0.5)
    assert boosted.provenance["boost"] == [0.5]
    assert float(scn.states[0].velocity[0]) == 1.0  # input untouched


def test_apply_time_scale():
    scn = harness.gen_line_1d(2)
    fast = harness.apply_time_scale(scn, 4.0)
    for s0, s1 in zip(scn.states, fast.states):
        assert np.array_equal(s1.position, s0.position)
        assert np.array_equal(s1.velocity, 4.0 * s0.velocity)
    assert fast.provenance["time_scale"] == 4.0
    with pytest.raises(ValueError):
        harness.apply_time_scale(scn, 0.0)
    with pytest.raises(ValueError):
        harness.apply_time_scale(scn, -2.0)


# -- config ingestion ---------------------------------------------------------


def test_scenario_from_config_explicit_with_transforms():
    doc = {
        "scenario": {"generator": "explicit", "n": 1, "a": 0.0,
                     "positions": [[0.0], [1.0]],
                     "velocities": [[1.0], [-1.0]]},
        "boost": [2.0],
        "time_scale": 3.0,
        "sim": {"t_max": 9.0},
        "ledger": {"epsilon": 0.5},
    }
    scn, options = harness.scenario_from_config(doc)
    # boost first, then scaling: v -> 3 * (v + 2)
    assert [float(s.velocity[0]) for s in scn.states] == [9.0, 3.0]
    assert scn.config.t_max == 9.0
    assert options == {"epsilon": 0.5}


def test_scenario_from_config_defaults_and_errors():
    scn, options = harness.scenario_from_config(
        {"scenario": {"generator": "line_1d", "p": 2}})
    assert len(scn.states) == 4
    assert options == {"epsilon": 1.0}
    scn, _ = harness.scenario_from_config(
        {"scenario": {"generator": "line_1d", "p": 2.0}})  # integral float
    assert len(scn.states) == 4
    with pytest.raises(ValueError):
        harness.scenario_from_config({})
    with pytest.raises(ValueError):
        harness.scenario_from_config({"scenario": {"generator": "nope"}})
    with pytest.raises(KeyError):
        harness.scenario_from_config(
            {"scenario": {"generator": "random_gas"}})  # missing N, a


def test_scenario_from_config_sim_overrides():
    doc = {"scenario": {"generator": "random_gas", "N": 6, "a": 0.02,
                        "box": [1.0, 1.0], "seed": 2},
           "sim": {"grazing_tol": 1e-13, "t_max": 0.5}}
    scn, _ = harness.scenario_from_config(doc)
    assert scn.config.grazing_tol == 1e-13
    assert scn.config.t_max == 0.5
    assert scn.config.overlap_tol == harness.SimConfig.overlap_tol


def test_simulate_scenario_carries_provenance():
    log = harness.simulate_scenario(harness.gen_line_1d(1))
    assert log.provenance["generator"] == "line_1d"
    assert log.provenance["params"] == {"p": 1}


# -- experiments --------------------------------------------------------------


def test_run_experiment_artifacts(tmp_path):
    config = {"scenario": {"generator": "random_gas", "N": 16, "a": 0.02,
                           "box": [1.0, 1.0], "seed": 3}}
    summary = harness.run_experiment(config, tmp_path / "run")
    assert summary["termination"] == "queue_empty"
    assert set(summary["paths"]) == {"events.jsonl", "ledger.csv",
                                     "report.json", "audit.json"}
    log = read_events_jsonl(summary["paths"]["events.jsonl"])
    assert len(log.events) == summary["events"]
    report = json.loads((tmp_path / "run" / "report.json").read_text())
    assert report["M"] == 16.0
    assert report["ratio1"] == summary["ratio1"]
    audit = json.loads((tmp_path / "run" / "audit.json").read_text())
    assert audit["max_interior_balance"] <= 1e-12
    np.testing.assert_allclose(audit["trace_masses"], 16.0, atol=1e-12)
    assert audit["div_mass"] == 0.0
    with open(tmp_path / "run" / "ledger.csv") as fh:
        header = fh.readline().strip()
    assert header == "t,particle,partner,dv_norm,wedge,st_wedge"


# -- sweeps -------------------------------------------------------------------


def test_fixed_fraction_box_covering():
    for n, N, a, f in ((1, 10, 0.01, 0.2), (2, 32, 0.02, 0.3),
                       (3, 20, 0.05, 0.1), (4, 64, 0.01, 0.2),
                       (5, 7, 0.3, 0.05), (6, 1000, 0.001, 0.4)):
        sides = harness._fixed_fraction_box(n, N, a, f)
        assert len(sides) == n and len(set(sides)) == 1
        vol = sides[0] ** n
        ball = math.pi ** (n / 2) / math.gamma(n / 2 + 1) * a**n
        assert N * ball / vol == pytest.approx(f, rel=1e-12)
    with pytest.raises(ValueError):
        harness._fixed_fraction_box(2, 10, 0.01, 1.5)
    with pytest.raises(ValueError):
        harness._fixed_fraction_box(2, 10, 0.0, 0.3)
    # the unit ball's volume underflows float64 at n = 453: the recurrence
    # stops there, however large n is
    for n in (453, 2**40):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="n < 453"):
            harness._fixed_fraction_box(n, 10, 0.01, 0.3)
        assert time.perf_counter() - start < 1.0
    assert len(harness._fixed_fraction_box(452, 10, 0.01, 0.3)) == 452


def test_sweep_spec_validation():
    with pytest.raises(ValueError):
        harness.SweepSpec(sizes=[], seeds=[0], base={})
    with pytest.raises(ValueError):
        harness.SweepSpec(sizes=[0], seeds=[0], base={})
    with pytest.raises(ValueError):
        harness.SweepSpec(sizes=[2], seeds=[], base={})


def test_sweep_line_generator_serial(tmp_path):
    spec = harness.SweepSpec(sizes=[2, 1], seeds=[0, 1],
                             base={"generator": "line_1d"})
    result = harness.sweep(spec, out_dir=tmp_path, workers=1)
    assert [(r["N"], r["seed"]) for r in result.rows] == \
        [(2, 0), (2, 1), (4, 0), (4, 1)]
    # unit-speed rods saturate the bound: every ratio is exactly 1
    assert result.medians == {1: 1.0, 2: 1.0}
    for r in result.rows:
        assert r["events"] == (r["N"] // 2) ** 2
        assert r["ratio1"] == 1.0 and r["ratio2"] == 1.0
        assert r["strong"] == 2 * r["events"] and r["weak"] == 0
    lines = (tmp_path / "ratios.csv").read_text().splitlines()
    assert lines[0] == "N,size,seed,events,ratio1,ratio2,strong,weak"
    assert len(lines) == 1 + 4
    assert lines[1].split(",") == ["2", "1", "0", "1", "1", "1", "2", "0"]


def test_sweep_fixed_fraction_policy():
    base = {"generator": "random_gas", "n": 2, "a": 0.05,
            "box_policy": {"kind": "fixed_fraction", "value": 0.3},
            "velocities": {"kind": "maxwell", "sigma": 1.0}}
    scn = harness._sweep_scenario(base, 8, 0, None)
    want = harness._fixed_fraction_box(2, 8, 0.05, 0.3)
    P = np.array([s.position for s in scn.states])
    assert np.all(P <= want[0])
    with pytest.raises(ValueError):
        harness._sweep_scenario({"generator": "random_gas", "a": 0.05,
                                 "box_policy": {"kind": "bogus"}}, 8, 0, None)
    with pytest.raises(ValueError):
        harness._sweep_scenario({"generator": "nope"}, 8, 0, None)


def test_simulate_box_policy_matches_sweep_box(tmp_path, capsys):
    """simulate and sweep read one scenario schema: a box_policy sizes a
    simulate config's box as it sizes the sweep's, and a sweep base without
    box gets simulate's default box."""
    base = {"generator": "random_gas", "n": 2, "a": 0.01,
            "box_policy": {"kind": "fixed_fraction", "value": 0.3}}
    cfg = _write(tmp_path / "cfg.json", {"scenario": {**base, "N": 16, "seed": 3}})
    assert cli.main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    capsys.readouterr()
    log = read_events_jsonl(tmp_path / "o" / "events.jsonl")
    swept = harness._sweep_scenario(base, 16, 3, None)
    want = harness._fixed_fraction_box(2, 16, 0.01, 0.3)
    assert log.provenance["params"]["box"] == swept.provenance["params"]["box"] == want
    assert [s.position.tolist() for s in log.initial] == \
        [s.position.tolist() for s in swept.states]
    no_box = harness._sweep_scenario({"generator": "random_gas", "a": 0.01}, 4, 0, None)
    assert no_box.provenance["params"]["box"] == [1.0, 1.0]


def test_sweep_t_max_truncates():
    base = {"generator": "line_1d"}
    scn = harness._sweep_scenario(base, 3, 0, 1.5)
    assert scn.config.t_max == 1.5
    log = harness.simulate_scenario(scn)
    assert log.termination == "t_max"
    assert all(ev.t <= 1.5 for ev in log.events)


def test_sweep_parallel_matches_serial(tmp_path):
    spec = harness.SweepSpec(sizes=[1, 2], seeds=[0],
                             base={"generator": "line_1d"})
    serial = harness.sweep(spec, workers=1)
    parallel = harness.sweep(spec, workers=2)
    assert serial.rows == parallel.rows
    assert serial.medians == parallel.medians


_SWEPT_GAS = {"generator": "random_gas", "n": 2, "a": 0.02, "box": 1.0}


@pytest.mark.parametrize("base, size, seed, scenario", [
    (_SWEPT_GAS, 12, 5, {**_SWEPT_GAS, "N": 12, "seed": 5}),
    ({"generator": "line_1d"}, 3, 0, {"generator": "line_1d", "p": 3}),
])
def test_sweep_row_matches_report(base, size, seed, scenario, tmp_path):
    """A sweep row carries report.json's ratio1, ratio2 and strong/weak
    counts for the same run and epsilon."""
    spec = harness.SweepSpec(sizes=[size], seeds=[seed], base=base,
                             epsilon=0.5)
    [row] = harness.sweep(spec, workers=1).rows
    harness.run_experiment({"scenario": scenario, "ledger": {"epsilon": 0.5}},
                           tmp_path / "run")
    report = json.loads((tmp_path / "run" / "report.json").read_text())
    assert row["events"] > 0
    assert (row["ratio1"], row["ratio2"], row["strong"], row["weak"]) == \
        (report["ratio1"], report["ratio2"], report["strong_count"],
         report["weak_count"])


def test_sweep_worker_errors_keep_their_type():
    """Engine errors raised in a worker process reach the caller intact
    (sigma=1e308 is outside the numeric range)."""
    spec = harness.SweepSpec(sizes=[8], seeds=[0, 2], base={
        "generator": "random_gas", "a": 0.01, "box": 1.0,
        "velocities": {"sigma": 1e308}})
    with pytest.raises(ConfigurationError) as err:
        harness.sweep(spec, workers=2)
    assert err.value.reason == "range"
    assert err.value.detail["field"] == "velocities.sigma"
    exc = pickle.loads(pickle.dumps(GenericityViolation(1.5, (0, 1, 2))))
    assert (exc.time, exc.particles, str(exc)) == \
        (1.5, (0, 1, 2), str(GenericityViolation(1.5, (0, 1, 2))))


def test_default_workers_env_cap(monkeypatch):
    monkeypatch.setenv("KINKBOUND_THREADS", "1")
    assert harness.default_workers() == 1
    monkeypatch.setenv("KINKBOUND_THREADS", "0")
    assert harness.default_workers() == 1
    monkeypatch.delenv("KINKBOUND_THREADS")
    import os
    assert harness.default_workers() == (os.cpu_count() or 1)


# -- CLI ----------------------------------------------------------------------


def _write(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def test_cli_simulate_ok(tmp_path, capsys):
    cfg = _write(tmp_path / "cfg.json", {
        "scenario": {"generator": "random_gas", "N": 8, "a": 0.02,
                     "box": [1.0, 1.0], "seed": 4}})
    rc = cli.main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["termination"] == "queue_empty"
    assert (tmp_path / "out" / "events.jsonl").exists()


def test_cli_simulate_audits_a_gap_narrower_than_the_slice_tolerance(
        tmp_path, capsys):
    """Three disjoint head-on pairs meet at 1 - 1e-13, 1 + 1e-13 and 9.
    The audit's slice time 1 hits the first two, and the gap between them
    is narrower than the slice tolerance, so the slice moves to the
    nearest gap that clears every collision: all six spheres cross it."""
    near, far = 1.0099999999998999, 1.0100000000001
    cfg = _write(tmp_path / "cfg.json", {"scenario": {
        "generator": "explicit", "n": 2, "a": 0.01,
        "positions": [[-near, 0.0], [near, 0.0], [-far, 10.0], [far, 10.0],
                      [-9.01, 20.0], [9.01, 20.0]],
        "velocities": [[1.0, 0.0], [-1.0, 0.0]] * 3}})
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    assert json.loads(capsys.readouterr().out)["events"] == 3
    audit = json.loads((out / "audit.json").read_text())
    assert audit["trace_masses"] == [6] * 10


def test_cli_rejects_overlapping_start(tmp_path, capsys):
    cfg = _write(tmp_path / "bad.json", {
        "scenario": {"generator": "explicit", "n": 2, "a": 0.02,
                     "positions": [[0.0, 0.0], [0.01, 0.0]],
                     "velocities": [[0.0, 0.0], [0.0, 0.0]]}})
    rc = cli.main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 2
    assert json.loads(capsys.readouterr().out)["error"] == "overlap"


_GAS = {"generator": "random_gas", "N": 8, "a": 0.02, "box": [1.0, 1.0]}

_BAD_SIMULATE = {
    "null_N": {"scenario": {**_GAS, "N": None}},
    "string_t_max": {"scenario": _GAS, "sim": {"t_max": "5"}},
    "bool_N": {"scenario": {**_GAS, "N": True}},
    "list_sim": {"scenario": _GAS, "sim": [1.0]},
    "string_epsilon": {"scenario": _GAS, "ledger": {"epsilon": "1"}},
    "top_level_array": [{"scenario": _GAS}],
    "top_level_number": 5,
    "fractional_p": {"scenario": {"generator": "line_1d", "p": 2.5}},
    "overflowing_explicit_velocities": {"scenario": {
        "generator": "explicit", "n": 2, "a": 0.01,
        "positions": [[0, 0], [1, 0]], "velocities": [[1e308, 0], [-1e308, 0]]}},
    "overflowing_explicit_positions": {"scenario": {
        "generator": "explicit", "n": 2, "a": 0.01,
        "positions": [[1e308, 0], [-1e308, 0]], "velocities": [[-1, 0], [1, 0]]}},
    "overflowing_gas_box": {"scenario": {**_GAS, "box": [1e308, 1e308]}},
    # velocities that overflow only after the transforms
    "time_scale_overflows_velocities": {"scenario": {
        "generator": "explicit", "n": 2, "a": 0.01,
        "positions": [[0, 0], [1, 0]], "velocities": [[1e150, 0], [-1e150, 0]]},
        "time_scale": 1e10},
    "boost_overflows_velocities": {"scenario": {
        "generator": "explicit", "n": 2, "a": 0.01,
        "positions": [[0, 0], [1, 0]], "velocities": [[1e150, 0], [-1e150, 0]]},
        "boost": [1e154, 0]},
    "time_scale_overflows_to_inf": {"scenario": {
        "generator": "explicit", "n": 2, "a": 0.01,
        "positions": [[0, 0], [1, 0]], "velocities": [[1e100, 0], [-1e100, 0]]},
        "time_scale": 1e300},
    # a negative grazing_tol lets pairs with a negative discriminant
    # through (numpy warns in sqrt); a negative overlap_tol trips the
    # engine's own contact check
    "negative_grazing_tol": {"scenario": _GAS,
                             "sim": {"grazing_tol": -1.0, "t_max": 1.0}},
    "negative_overlap_tol": {"scenario": _GAS, "sim": {"overlap_tol": -1}},
    "zero_overlap_tol": {"scenario": _GAS, "sim": {"overlap_tol": 0}},
    "negative_time_tie_tol": {"scenario": _GAS, "sim": {"time_tie_tol": -1e-12}},
}

# the _BAD_SIMULATE cases whose velocities overflow
_OVERFLOWING_VELOCITIES = ("overflowing_explicit_velocities",
                           "time_scale_overflows_velocities",
                           "boost_overflows_velocities",
                           "time_scale_overflows_to_inf")

# scale-check --mu values that the time scaling refuses; the config's
# velocities have zero components, which an infinite mu would make NaN
_BAD_MU = {"scale_check_inf_mu": "inf", "scale_check_overflowing_mu": "1e400"}

_BAD_USAGE = {
    "no_command": [],
    "unknown_command": ["bogus"],
    "missing_option": ["simulate"],
    "unknown_option": ["detmass", "--measure", "m.json", "--extra"],
}


@functools.cache
def _events_lines() -> tuple:
    log = harness.simulate_scenario(harness.gen_line_1d(2))
    lines = events_jsonl_bytes(log).decode().splitlines()
    return tuple(json.loads(line) for line in lines)


def _valid_doc(command: str):
    """A small valid input of command; verify-tensor's is the list of the
    JSON lines of a line_1d (p=2) log."""
    if command == "simulate":
        return {"scenario": {**_GAS, "box": 1.0, "seed": 1,
                             "velocities": {"kind": "maxwell", "sigma": 1.0}},
                "sim": {"t_max": 1.0}, "ledger": {"epsilon": 1.0},
                "boost": [0.5, 0.0], "time_scale": 2.0}
    if command == "sweep":
        return {"sizes": [2], "seeds": [0], "epsilon": 1.0, "t_max": 1.0,
                "base": {"generator": "random_gas", "n": 2, "a": 0.02,
                         "box_policy": {"kind": "fixed_fraction", "value": 0.3},
                         "velocities": {"kind": "maxwell", "sigma": 1.0}}}
    if command == "detmass":
        return {"atoms": [{"angle": 0.0, "weight": 1.0}, {"angle": 2.0, "weight": 1.0},
                          {"angle": 4.0, "weight": 1.0}]}
    return list(_events_lines())


def _replaced(doc, path: tuple, value):
    """A copy of doc with the field at path (keys and indices) set to value."""
    doc = copy.deepcopy(doc)
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return doc


def _argv(command: str, doc, tmp_path) -> list:
    path = tmp_path / "input.json"
    if command == "verify-tensor":
        path.write_text("".join(json.dumps(line) + "\n" for line in doc))
        return [command, "--events", str(path)]
    path.write_text(json.dumps(doc))
    if command == "detmass":
        return [command, "--measure", str(path)]
    option = "--config" if command == "simulate" else "--spec"
    return [command, option, str(path), "--out", str(tmp_path / "o")]


# (command, path of the field in _valid_doc(command), value put there)
_BAD_FIELDS = {
    "string_velocities": ("simulate", ("scenario", "velocities"), "x"),
    "fractional_N": ("simulate", ("scenario", "N"), 4.7),
    "fractional_n": ("simulate", ("scenario", "n"), 2.5),
    "fractional_seed": ("simulate", ("scenario", "seed"), 1.5),
    "sweep_null_a": ("sweep", ("base", "a"), None),
    "sweep_number_sizes": ("sweep", ("sizes",), 5),
    "sweep_string_size": ("sweep", ("sizes",), ["a"]),
    "sweep_fractional_seed": ("sweep", ("seeds",), [0.5]),
    "sweep_null_epsilon": ("sweep", ("epsilon",), None),
    "sweep_list_base": ("sweep", ("base",), [1]),
    "sweep_string_box_policy": ("sweep", ("base", "box_policy"), "x"),
    "sweep_string_t_max": ("sweep", ("t_max",), "1"),
    "sweep_string_velocities": ("sweep", ("base", "velocities"), "x"),
    "measure_null_angle": ("detmass", ("atoms",), [{"angle": None, "weight": 1}]),
    "measure_number_atoms": ("detmass", ("atoms",), [1, 2, 3]),
    "events_null_config": ("verify-tensor", (0, "config"), None),
    "events_array_header": ("verify-tensor", (0,), ["header"]),
    "events_null_initial": ("verify-tensor", (0, "initial"), None),
    "events_array_event": ("verify-tensor", (1,), [1]),
    "events_null_t": ("verify-tensor", (1, "t"), None),
    "events_string_a": ("verify-tensor", (0, "config", "a"), "0"),
    "overflowing_v0": ("simulate", ("scenario", "velocities"),
                       {"kind": "uniform", "v0": 1e308}),
    "sweep_overflowing_sigma": ("sweep", ("base", "velocities"),
                                {"kind": "maxwell", "sigma": 1e308}),
    "events_list_i": ("verify-tensor", (1, "i"), [1]),
    "events_bool_t": ("verify-tensor", (1, "t"), True),
    "events_unknown_j": ("verify-tensor", (1, "j"), 99),
    "events_string_yi": ("verify-tensor", (1, "yi"), ["-0.5"]),
    "events_bool_vi": ("verify-tensor", (1, "vi"), [True]),
    "events_null_yj": ("verify-tensor", (1, "yj"), [None]),
    "events_nested_vj_post": ("verify-tensor", (2, "vj_post"), [[1.0]]),
    "events_long_vi_post": ("verify-tensor", (3, "vi_post"), [1.0, 2.0]),
    "events_overflowing_initial_v": ("verify-tensor", (0, "initial", 0, "v"), [1e154]),
    "events_int64_overflowing_id": ("verify-tensor", (0, "initial", 0, "id"), 2**63),
    "events_float_initial_id": ("verify-tensor", (0, "initial", 1, "id"), 1.0),
    "events_two_component_y": ("verify-tensor", (0, "initial", 0, "y"), [0.0, 1.0]),
}


# a numpy warning would reach stderr: it fails the test.  Hypothesis's
# report hook raises a DeprecationWarning on mypy_extensions.TypedDict; it
# is ignored, or a failing hypothesis test would end the session in a
# pytest INTERNALERROR
_WARNINGS_FAIL = pytest.mark.filterwarnings(
    "error", "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")


def _assert_one_json_object(capsys) -> None:
    out, err = capsys.readouterr()
    assert err == ""
    lines = out.splitlines()
    assert len(lines) == 1 and isinstance(json.loads(lines[0]), dict)


@_WARNINGS_FAIL
@pytest.mark.parametrize(
    "case", sorted(_BAD_SIMULATE) + sorted(_BAD_USAGE) + sorted(_BAD_FIELDS)
    + sorted(_BAD_MU))
def test_cli_invalid_input_is_one_json_object(case, tmp_path, capsys):
    if case in _BAD_USAGE:
        argv = _BAD_USAGE[case]
    elif case in _BAD_MU:
        cfg = _write(tmp_path / "cfg.json", {"scenario": {
            "generator": "explicit", "n": 2, "a": 0.01,
            "positions": [[0, 0], [1, 0]], "velocities": [[1, 0], [-1, 0]]}})
        argv = ["scale-check", "--config", cfg, "--mu", _BAD_MU[case]]
    elif case in _BAD_SIMULATE:
        argv = _argv("simulate", _BAD_SIMULATE[case], tmp_path)
    else:
        command, path, value = _BAD_FIELDS[case]
        argv = _argv(command, _replaced(_valid_doc(command), path, value), tmp_path)
    assert cli.main(argv) == 2
    _assert_one_json_object(capsys)
    assert not (tmp_path / "o").exists()


def _simulate_subprocess(doc, tmp_path):
    cfg = _write(tmp_path / "cfg.json", doc)
    return subprocess.run(
        [sys.executable, "-m", "kinkbound.cli", "simulate", "--config", cfg,
         "--out", str(tmp_path / "o")], capture_output=True, text=True)


def test_cli_negative_tolerance_subprocess(tmp_path):
    """A 2-D gas with grazing_tol -1 or overlap_tol -1 exits 2 with one
    "tolerance" object on stdout and nothing on stderr."""
    for tol in ("grazing_tol", "overlap_tol"):
        proc = _simulate_subprocess({
            "scenario": {"generator": "random_gas", "n": 2, "N": 64,
                         "a": 0.01, "seed": 0},
            "sim": {tol: -1.0, "t_max": 1.0}}, tmp_path)
        assert (proc.returncode, proc.stderr) == (2, ""), tol
        lines = proc.stdout.splitlines()
        assert len(lines) == 1 and json.loads(lines[0])["error"] == "tolerance"
        assert not (tmp_path / "o").exists()


def test_cli_zero_overlap_tol_subprocess(tmp_path):
    """overlap_tol 0 exits 2 with one "tolerance" object on stdout and
    nothing on stderr: the engine's contact check would trip on rounding
    (this head-on pair meets at distance 0.019999999999998908, not 0.02)."""
    proc = _simulate_subprocess({
        "scenario": {"generator": "explicit", "n": 2, "a": 0.01,
                     "positions": [[0, 0], [1, 0]],
                     "velocities": [[1, 0], [-1, 0]]},
        "sim": {"overlap_tol": 0}}, tmp_path)
    assert (proc.returncode, proc.stderr) == (2, "")
    lines = proc.stdout.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {
        "error": "tolerance", "detail": "tolerance: {'overlap_tol': 0.0}"}
    assert not (tmp_path / "o").exists()


def test_cli_overflowing_explicit_velocities_subprocess(tmp_path):
    """Explicit velocities outside the numeric range, as given or after
    boost or time_scale (or a boost or time_scale outside it), exit 2 with
    one "range" object on stdout, as does a pair closing at 2e-300, below
    the range; none prints anything on stderr (no numpy warnings)."""
    slow = {"scenario": {
        "generator": "explicit", "n": 1, "a": 0.01, "positions": [[0.0], [1e10]],
        "velocities": [[1e-300], [-1e-300]]}}
    for case in _OVERFLOWING_VELOCITIES + ("slow",):
        proc = _simulate_subprocess(_BAD_SIMULATE.get(case, slow), tmp_path)
        assert proc.returncode == 2, case
        assert proc.stderr == "", case
        lines = proc.stdout.splitlines()
        assert len(lines) == 1 and json.loads(lines[0])["error"] == "range"
        assert not (tmp_path / "o").exists()


def test_cli_out_of_range_subprocess(tmp_path):
    """Under the default warning filters: rods at 0 and 1e153, rods at
    speeds +-1e-250 (below the numeric range), and an event line at
    yi = [1e300, 0] exit 2 with one JSON object naming the field and an
    empty stderr; a run with an event beyond dynamics.HIGH exits 4 the
    same way."""
    def explicit(a, positions, velocities, **doc):
        return {"scenario": {"generator": "explicit", "n": 1, "a": a,
                             "positions": positions, "velocities": velocities},
                **doc}

    edge = 2.0 ** 127  # closing at 2^-127 from 2^127 apart: t = 2^254
    cases = [
        (explicit(0.01, [[0.0], [1e153]], [[1e153], [-1e153]]), 2, "position"),
        (explicit(0.03125, [[0.75], [1.0], [5.0]], [[1e-250], [-1e-250], [1.0]]),
         2, "velocity"),
        (explicit(0.01, [[0.0], [edge]], [[1 / edge], [-1 / edge]],
                  sim={"grazing_tol": 0.0}), 4, "beyond the numeric range"),
    ]
    for doc, code, word in cases:
        proc = _simulate_subprocess(doc, tmp_path)
        assert (proc.returncode, proc.stderr) == (code, ""), doc
        [line] = proc.stdout.splitlines()
        assert word in json.loads(line)["detail"]
    lines = _replaced(list(_head_on_lines()), (1, "yi"), [1e300, 0.0])
    path = tmp_path / "events.jsonl"
    path.write_text("".join(json.dumps(line) + "\n" for line in lines))
    proc = subprocess.run(
        [sys.executable, "-m", "kinkbound.cli", "verify-tensor", "--events",
         str(path)], capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (2, "")
    [line] = proc.stdout.splitlines()
    assert "event log line 2 yi" in json.loads(line)["detail"]


@functools.cache
def _head_on_lines() -> tuple:
    """The JSON lines of the log of two spheres colliding head-on in R^2."""
    log = harness.simulate_scenario(harness.gen_explicit(
        2, 0.5, [[-2.0, 0.0], [2.0, 0.0]], [[1.0, 0.0], [-1.0, 0.0]]))
    return tuple(json.loads(line)
                 for line in events_jsonl_bytes(log).decode().splitlines())


# header fields that run_simulation would have refused, or that disagree
# with the initial states: (path in the header, value, error)
_BAD_HEADERS = {
    "negative_a": (("config", "a"), -0.25, "radius"),
    "zero_a_off_the_line": (("config", "a"), 0, "radius"),
    "N_not_the_state_count": (("config", "N"), 7, "particle_count"),
    "n_not_the_vector_width": (("config", "n"), 3, "dimension_mismatch"),
    "no_initial_states": (("initial",), [], "particle_count"),
    "negative_t_max": (("config", "t_max"), -3, "t_max"),
    "negative_grazing_tol": (("config", "grazing_tol"), -1e-14, "tolerance"),
}


@pytest.mark.parametrize("case", sorted(_BAD_HEADERS))
def test_cli_verify_tensor_rejects_invalid_header(case, tmp_path, capsys):
    path, value, error = _BAD_HEADERS[case]
    good = _argv("verify-tensor", list(_head_on_lines()), tmp_path)
    assert cli.main(good) == 0
    capsys.readouterr()
    doc = _replaced(list(_head_on_lines()), (0,) + path, value)
    assert cli.main(_argv("verify-tensor", doc, tmp_path)) == 2
    out, err = capsys.readouterr()
    assert err == "" and len(out.splitlines()) == 1
    assert json.loads(out)["error"] == error


# initial states that break a rule of the header: (path in the header's
# initial, value, k of the state initial[k] that the error names)
_BAD_STATES = {
    "bool_id": ((0, "id"), True, 0),
    "float_id": ((1, "id"), 1.0, 1),
    "int64_overflowing_id": ((0, "id"), 2**63, 0),
    "string_in_y": ((1, "y"), [2.0, "0"], 1),
    "y_of_n_plus_1": ((0, "y"), [-2.0, 0.0, 0.0], 0),
    "y_and_v_of_n_plus_1": ((1,), {"id": 1, "y": [2.0, 0.0, 0.0],
                                   "v": [-1.0, 0.0, 0.0]}, 1),
    "missing_v": ((1,), {"id": 1, "y": [2.0, 0.0]}, 1),
}


@_WARNINGS_FAIL
@pytest.mark.parametrize("case", sorted(_BAD_STATES))
def test_cli_verify_tensor_names_a_bad_initial_state(case, tmp_path, capsys):
    """The states are read as one block; the bad one is named by reading
    them again one at a time."""
    path, value, k = _BAD_STATES[case]
    doc = _replaced(list(_head_on_lines()), (0, "initial") + path, value)
    assert cli.main(_argv("verify-tensor", doc, tmp_path)) == 2
    out, err = capsys.readouterr()
    assert err == "" and len(out.splitlines()) == 1
    reply = json.loads(out)
    assert reply["error"] == "invalid_input"
    assert f"initial[{k}]" in reply["detail"]


_GAS = {"generator": "random_gas", "a": 0.01}
_FRACTION = {"box_policy": {"kind": "fixed_fraction", "value": 0.3}}

# scenarios whose n or N is below 1 or disagrees with the vectors they
# give, or whose fixed_fraction box needs the unit ball's volume at n >= 453
_BAD_SIZES = {
    "explicit_n_not_the_width": ({
        "generator": "explicit", "n": 3, "a": 0.01, "positions": [[0, 0], [1, 0]],
        "velocities": [[1, 0], [-1, 0]]}, "dimension_mismatch"),
    "explicit_n_zero": ({
        "generator": "explicit", "n": 0, "a": 0.01, "positions": [[]],
        "velocities": [[]]}, "dimension"),
    "gas_of_no_spheres": ({"generator": "random_gas", "n": 2, "N": 0, "a": 0.01},
                          "particle_count"),
    "gas_of_no_spheres_box_policy": ({**_GAS, **_FRACTION, "n": 2, "N": 0},
                                     "particle_count"),
    "gas_n_zero": ({**_GAS, "n": 0, "N": 4}, "dimension"),
    "gas_n_zero_box_policy": ({**_GAS, **_FRACTION, "n": 0, "N": 4}, "dimension"),
    "gas_negative_N_2d_box_policy": ({**_GAS, **_FRACTION, "n": 2, "N": -5},
                                     "particle_count"),
    "gas_negative_N_3d_box_policy": ({**_GAS, **_FRACTION, "n": 3, "N": -5},
                                     "particle_count"),
    "gas_n_beyond_the_unit_ball": ({**_GAS, **_FRACTION, "n": 2**40, "N": 4},
                                   "invalid_input"),
}


@pytest.mark.parametrize("case", sorted(_BAD_SIZES))
def test_cli_simulate_rejects_sizes_that_disagree(case, tmp_path, capsys):
    """n and N must be at least 1, and agree with the vectors where a
    config gives them; each refusal names its reason (exit 2), before a
    box is sized or a sphere drawn."""
    scenario, error = _BAD_SIZES[case]
    assert cli.main(_argv("simulate", {"scenario": scenario}, tmp_path)) == 2
    out, err = capsys.readouterr()
    assert err == "" and len(out.splitlines()) == 1
    assert json.loads(out)["error"] == error
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command, case", [
    (command, case) for command in ("scale-check", "sweep")
    for case in ("gas_n_zero", "gas_n_zero_box_policy", "gas_n_beyond_the_unit_ball")
] + [("scale-check", "gas_of_no_spheres_box_policy"),
     ("scale-check", "gas_negative_N_3d_box_policy")])
def test_cli_sweep_and_scale_check_reject_sizes_first(command, case, tmp_path,
                                                       capsys):
    """scale-check and a sweep's base (whose N each size replaces) refuse
    the sizes that simulate refuses, before any box is sized or sphere
    drawn."""
    scenario, error = _BAD_SIZES[case]
    if command == "sweep":
        argv = _argv("sweep", {"sizes": [4], "base": scenario}, tmp_path)
    else:
        argv = ["scale-check", "--config",
                _write(tmp_path / "cfg.json", {"scenario": scenario}), "--mu", "2"]
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert err == "" and len(out.splitlines()) == 1
    assert json.loads(out)["error"] == error
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("x", [1e8, 1e10])
def test_cli_contact_check_is_relative_to_the_coordinates(x, tmp_path, capsys):
    """Two discs (a = 0.01) meeting near (x, 0.3): the rounding of
    positions of size x puts them 8e-9 (x = 1e8) and 1.1e-7 (x = 1e10) off
    2a, beyond overlap_tol * max(a, 1) = 1e-9 but within overlap_tol * x.
    simulate exits 0, and verify-tensor reads the log it wrote."""
    doc = {"scenario": {"generator": "explicit", "n": 2, "a": 0.01,
                        "positions": [[x, 0.3], [x + 1.3, 0.31]],
                        "velocities": [[0.7, 0.0], [-0.6, 0.0]]}}
    assert cli.main(_argv("simulate", doc, tmp_path)) == 0
    assert json.loads(capsys.readouterr().out)["events"] == 1
    events = tmp_path / "o" / "events.jsonl"
    assert cli.main(["verify-tensor", "--events", str(events)]) == 0
    _assert_one_json_object(capsys)
    log = read_events_jsonl(events)
    miss = abs(np.linalg.norm(log.events.y[0, 1] - log.events.y[0, 0]) - 0.02)
    assert 1e-9 < miss <= 1e-9 * x


def test_run_experiment_failure_leaves_no_output(tmp_path, monkeypatch):
    def broken_audit(T):
        raise RuntimeError("audit failed")

    monkeypatch.setattr(harness, "audit_tensor", broken_audit)
    config = {"scenario": {"generator": "line_1d", "p": 2}}
    with pytest.raises(RuntimeError, match="audit failed"):
        harness.run_experiment(config, tmp_path / "run")
    assert list(tmp_path.iterdir()) == []
    # an earlier run's artifacts stay as they were
    monkeypatch.undo()
    harness.run_experiment(config, tmp_path / "run")
    before = {p.name: p.read_bytes() for p in (tmp_path / "run").iterdir()}
    monkeypatch.setattr(harness, "audit_tensor", broken_audit)
    with pytest.raises(RuntimeError):
        harness.run_experiment({"scenario": {"generator": "line_1d", "p": 3}},
                               tmp_path / "run")
    assert {p.name: p.read_bytes() for p in (tmp_path / "run").iterdir()} == before
    assert [p.name for p in tmp_path.iterdir()] == ["run"]


def _fields(doc, path=()):
    """(path, value) of every field of doc, nested ones included."""
    items = doc.items() if isinstance(doc, dict) else \
        enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield path + (key,), value
        yield from _fields(value, path + (key,))


def _checked_log_field(path: tuple, lines: int) -> bool:
    """Whether the log reader checks the field at path: a whole line, a
    field of the header or footer outside the free-form provenance, or any
    field of an event line (t, i, j, the six vectors and their entries)."""
    if path[0] in (0, lines - 1) and len(path) > 2:
        return path[1] != "provenance"
    return True


def _fuzzed_fields() -> list:
    """(command, path, value) of every field that command checks in its
    valid input."""
    out = []
    for command in ("simulate", "sweep", "detmass", "verify-tensor"):
        doc = _valid_doc(command)
        out += [(command, path, value) for path, value in _fields(doc)
                if command != "verify-tensor" or _checked_log_field(path, len(doc))]
    return out


_WRONG_TYPES = {
    type(None): st.none(),
    str: st.text(max_size=4),
    bool: st.booleans(),
    list: st.lists(st.none() | st.text(max_size=2) | st.booleans(), max_size=2),
    dict: st.dictionaries(st.text(max_size=2), st.none(), max_size=2),
}


@settings(max_examples=200,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(field=st.sampled_from(_fuzzed_fields()), data=st.data())
def test_cli_wrong_json_type_is_one_json_object(field, data, tmp_path, capsys):
    """A field of the wrong JSON type anywhere in a valid input exits 2 with
    one JSON object on stdout and nothing on stderr (t_max may be null)."""
    command, path, original = field
    kinds = [kind for kind in _WRONG_TYPES if not isinstance(original, kind)
             and not (kind is type(None) and path[-1] == "t_max")]
    value = data.draw(st.sampled_from(kinds).flatmap(_WRONG_TYPES.get))
    argv = _argv(command, _replaced(_valid_doc(command), path, value), tmp_path)
    capsys.readouterr()
    assert cli.main(argv) == 2
    _assert_one_json_object(capsys)


def test_cli_genericity_exit_code(tmp_path, capsys):
    cfg = _write(tmp_path / "triple.json", {
        "scenario": {"generator": "explicit", "n": 1, "a": 0.0,
                     "positions": [[-1.0], [0.0], [1.0]],
                     "velocities": [[1.0], [0.0], [-1.0]]}})
    rc = cli.main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 3
    msg = json.loads(capsys.readouterr().out)
    assert msg["error"] == "genericity"
    assert msg["time"] == pytest.approx(1.0)
    assert sorted(msg["particles"]) == [0, 1, 2]


def test_cli_detmass(tmp_path, capsys):
    mfile = _write(tmp_path / "mu.json", {"atoms": [
        {"angle": 0.0, "weight": 2.0}, {"angle": np.pi / 2, "weight": 2.0},
        {"angle": np.pi, "weight": 2.0}, {"angle": 3 * np.pi / 2, "weight": 2.0},
    ]})
    assert cli.main(["detmass", "--measure", mfile]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["balanced"] and rep["dm_closed"] == pytest.approx(2.0)
    assert rep["area"] == pytest.approx(4.0)

    lop = _write(tmp_path / "bad.json",
                 {"atoms": [{"angle": 0.0, "weight": 1.0}]})
    assert cli.main(["detmass", "--measure", lop]) == 0
    assert json.loads(capsys.readouterr().out)["balanced"] is False

    assert cli.main(["detmass", "--measure", str(tmp_path / "absent.json")]) == 2


def test_cli_verify_tensor(tmp_path, capsys):
    cfg = _write(tmp_path / "cfg.json", {
        "scenario": {"generator": "random_gas", "N": 10, "a": 0.02,
                     "box": [1.0, 1.0], "seed": 6}})
    assert cli.main(["simulate", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    events = str(tmp_path / "out" / "events.jsonl")
    assert cli.main(["verify-tensor", "--events", events]) == 0
    audit = json.loads(capsys.readouterr().out)
    assert audit["max_interior_balance"] <= 1e-12
    np.testing.assert_allclose(audit["trace_masses"], 10.0, atol=1e-12)
    # explicit window variant (= form: the value starts with a dash)
    assert cli.main(["verify-tensor", "--events", events,
                     "--window=-0.125,7.03125"]) == 0
    json.loads(capsys.readouterr().out)


def _speeds_after(v):
    return lambda lines: lines[1].update(vi_post=[-v, 0.0], vj_post=[v, 0.0])


def _copied(**fields):
    """Append a copy of the event line, with fields changed."""
    def edit(lines):
        lines.insert(2, {**lines[1], **fields})
        lines[-1]["events"] = 2
    return edit


# edits of the one-event log of two discs meeting head-on
_BAD_HISTORIES = {
    "post_speeds_100": _speeds_after(100.0),      # slice mass above M+E
    "post_speeds_1e200": _speeds_after(1e200),    # outside the numeric range
    "j_equals_i": lambda lines: lines[1].update(j=0),  # 0 collides with 0
    "earlier_copy_appended": _copied(t=0.5),      # time runs backwards
    "copied_line": _copied(),                     # vi is not 0's vi_post
}

# the line that each history's error names, where it names one
_NAMED_LINE = {"post_speeds_1e200": 2, "j_equals_i": 2,
               "earlier_copy_appended": 3, "copied_line": 3}


@_WARNINGS_FAIL
@pytest.mark.parametrize("case", sorted(_BAD_HISTORIES))
def test_cli_verify_tensor_rejects_bad_history(case, tmp_path, capsys):
    cfg = _write(tmp_path / "cfg.json", {"scenario": {
        "generator": "explicit", "n": 2, "a": 0.1,
        "positions": [[-1.0, 0.0], [1.0, 0.0]],
        "velocities": [[1.0, 0.0], [-1.0, 0.0]]}})
    assert cli.main(["simulate", "--config", cfg, "--out", str(tmp_path / "run")]) == 0
    capsys.readouterr()
    text = (tmp_path / "run" / "events.jsonl").read_text()
    lines = [json.loads(line) for line in text.splitlines()]
    assert len(lines) == 3
    _BAD_HISTORIES[case](lines)
    assert cli.main(_argv("verify-tensor", lines, tmp_path)) == 2
    out, err = capsys.readouterr()
    [line] = out.splitlines()
    assert err == ""
    detail = json.loads(line)["detail"]
    if case in _NAMED_LINE:
        assert f"event log line {_NAMED_LINE[case]}" in detail


@functools.cache
def _rows_lines() -> tuple:
    """The JSON lines of the log of 3 discs meeting 3 others head-on in
    R^2, 9 collisions."""
    k = [1.0, 2.0, 3.0]
    log = harness.simulate_scenario(harness.gen_explicit(
        2, 0.01, [[-x, 0.0] for x in k] + [[x, 0.0] for x in k],
        [[1.0, 0.0]] * 3 + [[-1.0, 0.0]] * 3))
    return tuple(json.loads(line)
                 for line in events_jsonl_bytes(log).decode().splitlines())


# edits that break one rule of an event line
_BAD_EVENT_LINES = {
    "missing_field": lambda ev: ev.pop("vj"),
    "string_value": lambda ev: ev["vj_post"].__setitem__(0, "0.5"),
    "true_as_i": lambda ev: ev.update(i=True),
    "true_in_vi": lambda ev: ev["vi"].__setitem__(1, True),
    "vector_of_n_plus_1": lambda ev: ev["yi"].append(0.0),
    "i_equals_j": lambda ev: ev.update(j=ev["i"]),
    "id_not_in_header": lambda ev: ev.update(j=99),
    "component_1e300": lambda ev: ev["vi_post"].__setitem__(1, 1e300),
    "yj_off_contact": lambda ev: ev["yj"].__setitem__(1, ev["yj"][1] + 0.5),
}


@_WARNINGS_FAIL
@pytest.mark.parametrize("case", sorted(_BAD_EVENT_LINES))
def test_cli_verify_tensor_names_the_bad_event_line(case, tmp_path, capsys):
    """Each rule of an event line, broken on line 7 of a 9-event log, exits
    2 with one JSON object naming that line and nothing on stderr."""
    lines = copy.deepcopy(list(_rows_lines()))
    assert len(lines) == 11
    _BAD_EVENT_LINES[case](lines[6])
    assert cli.main(_argv("verify-tensor", lines, tmp_path)) == 2
    out, err = capsys.readouterr()
    [line] = out.splitlines()
    assert err == ""
    doc = json.loads(line)
    assert doc["error"] == ("range" if case == "component_1e300" else "invalid_input")
    assert "event log line 7" in doc["detail"]


# every finite float: 0 and +-[2^-1074, 2^1023], subnormals included
_ANY_FLOAT = st.floats(-2.0 ** 1023, 2.0 ** 1023, allow_nan=False)


@st.composite
def _numeric_simulate_doc(draw):
    """A simulate config with every float field drawn from _ANY_FLOAT."""
    n = draw(st.integers(0, 4))
    N = draw(st.integers(1, 8))

    def floats(*shape):
        return draw(st.lists(_ANY_FLOAT, min_size=math.prod(shape),
                             max_size=math.prod(shape)).map(
            lambda v: np.reshape(v, shape).tolist()))

    generator = draw(st.sampled_from(["random_gas", "line_1d", "explicit"]))
    if generator == "random_gas":
        scenario = {"n": n, "N": N, "a": draw(_ANY_FLOAT), "seed": 0,
                    "box": floats() if draw(st.booleans()) else floats(n)}
        if draw(st.booleans()):
            scenario["box_policy"] = {"kind": "fixed_fraction", "value": draw(_ANY_FLOAT)}
        kind = draw(st.sampled_from(["maxwell", "uniform", "explicit"]))
        scenario["velocities"] = {"kind": kind, **(
            {"values": floats(N, n)} if kind == "explicit"
            else {"sigma" if kind == "maxwell" else "v0": floats()})}
    elif generator == "line_1d":
        n, scenario = 1, {"p": draw(st.integers(1, 8))}
    else:
        scenario = {"n": n, "a": draw(_ANY_FLOAT), "positions": floats(N, n),
                    "velocities": floats(N, n)}
    doc = {"scenario": {"generator": generator, **scenario},
           "sim": {key: floats() for key in ("t_max", "grazing_tol", "overlap_tol",
                                             "time_tie_tol") if draw(st.booleans())},
           "ledger": {"epsilon": floats()} if draw(st.booleans()) else {}}
    if draw(st.booleans()):
        doc["boost"] = floats(n)
    if draw(st.booleans()):
        doc["time_scale"] = floats()
    return doc


@st.composite
def _numeric_event_lines(draw):
    """The head-on one-event log with every float field of its event line
    (t and the six vectors) drawn from _ANY_FLOAT, or kept, at random."""
    lines = copy.deepcopy(list(_head_on_lines()))
    for key in ("t", "yi", "yj", "vi", "vj", "vi_post", "vj_post"):
        if draw(st.booleans()):
            size = 1 if key == "t" else 2
            value = draw(st.lists(_ANY_FLOAT, min_size=size, max_size=size))
            lines[1][key] = value[0] if key == "t" else value
    return lines


@_WARNINGS_FAIL
@settings(max_examples=200,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=_numeric_simulate_doc() | _numeric_event_lines())
def test_cli_numeric_fields_fuzz(doc, tmp_path, capsys):
    """Any finite float in any numeric field of a simulate config or of an
    event line ends with exit 0, 2, 3 or 4, one JSON object on stdout and
    nothing on stderr: the numeric range (dynamics.LOW) is checked at the
    input, and a run that leaves it exits 4.  The packing cap is lowered
    so that a gas too dense to place fails fast."""
    command = "verify-tensor" if isinstance(doc, list) else "simulate"
    shutil.rmtree(tmp_path / "o", ignore_errors=True)
    capsys.readouterr()
    with mock.patch.object(harness, "_PACKING_ATTEMPT_CAP", 200):
        code = cli.main(_argv(command, doc, tmp_path))
    assert code in (0, 2, 3, 4)
    _assert_one_json_object(capsys)


def test_cli_scale_check(tmp_path, capsys):
    cfg = _write(tmp_path / "cfg.json", {
        "scenario": {"generator": "random_gas", "N": 12, "a": 0.03,
                     "box": [1.0, 1.0], "seed": 8}})
    assert cli.main(["scale-check", "--config", cfg, "--mu", "3.0"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["ok"] is True
    assert rep["max_rel_time_err"] <= 1e-10
    assert rep["max_rel_dv_err"] <= 1e-10


def test_cli_sweep(tmp_path, capsys):
    spec = _write(tmp_path / "spec.json",
                  {"sizes": [1, 2], "seeds": [0], "base": {"generator": "line_1d"}})
    rc = cli.main(["sweep", "--spec", spec, "--out", str(tmp_path / "sw")])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["rows"] == 2
    assert out["medians"] == {"1": 1.0, "2": 1.0}
    assert (tmp_path / "sw" / "ratios.csv").exists()


def test_cli_module_entrypoint(tmp_path):
    mfile = tmp_path / "mu.json"
    mfile.write_text(json.dumps({"atoms": [
        {"angle": 0.0, "weight": 1.0}, {"angle": 2 * np.pi / 3, "weight": 1.0},
        {"angle": 4 * np.pi / 3, "weight": 1.0}]}))
    proc = subprocess.run(
        [sys.executable, "-m", "kinkbound.cli", "detmass",
         "--measure", str(mfile)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    rep = json.loads(proc.stdout)
    assert rep["dm_closed"] == pytest.approx(np.sqrt(3) / 8)
