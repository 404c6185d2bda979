#!/usr/bin/env python3
"""Time the event engine's steps per collision on three fixed scenes.

    PYTHONPATH=src python3 benchmarks/engine_costs.py [--runs K]

Each scene runs K times (default 5) through dynamics._Engine, with timing
wrappers installed by this script around dynamics.contact_times_scan (the
name the engine calls the kernel by) and the engine's _collide and
_predict.  _predict makes every prediction, told apart by its arguments:
the initial scan (all N rows), a re-prediction (one row) and a rescan
(the rows of the collisions at the time t it is given).  No file of the
program changes.  Prints one JSON object per scene:

* collisions, repredictions (entries whose partner had collided since,
  each re-predicted with a one-row kernel call), and the kernel calls of
  the initial scan, of the re-predictions (one row each) and of the
  rescans of the collisions (two rows a collision; one call rescans the
  collisions that share one time, up to max(2, dynamics._BLOCK // N) & -2
  rows), with the mean rows per rescan call;
* collide_calls and pairs_per_collide_call: the calls of _collide(t, rows)
  and the mean collisions a call makes (rows holds the two particles of
  each pair; one call makes the collisions of one time that wait, all of
  them unless a re-prediction or a particle colliding twice at that time
  comes between);
* whole_us, kernel_us, collide_us and rescan_rest_us: microseconds per
  collision of the whole run (engine set-up with its initial scan, and
  the event loop), of every kernel call, of _collide, and of the rescans
  outside their kernel calls; each is the best of the K runs, taken on
  its own.

The scenes:

* "line1d_p50": line_1d with p=50 (100 point rods, 2,500 collisions),
  the benchmark's line1d_dense scene;
* "gas3d_n256": the 3-D Maxwell gas of the benchmark's sweep3d workload
  at N=256, seed 48, a=0.01, covering fraction 0.2, t_max=1;
* "rows2d_p20": 20 right-movers at x = -1, ..., -20 and 20 left-movers
  at x = 1, ..., 20 on the first axis of R^2, speeds +-1, a=0.01 (400
  collisions at 39 times).
"""

from __future__ import annotations

import argparse
import json
import math
from collections import Counter
from time import perf_counter

import numpy as np

from kinkbound import dynamics, harness


def rows(harness, n: int, p: int, a: float):
    """p right-movers and p left-movers on the first axis, spacing 1, built
    with the module harness (of this tree or, in engine_ab.py, another)."""
    x = np.r_[-np.arange(1.0, p + 1), np.arange(1.0, p + 1)]
    pos = np.zeros((2 * p, n))
    vel = np.zeros((2 * p, n))
    pos[:, 0] = x
    vel[:, 0] = -np.sign(x)
    return harness.gen_explicit(n, a, pos, vel)


# the base spec of the benchmark's sweep3d workload
GAS3D = {"generator": "random_gas", "n": 3, "a": 0.01,
         "box_policy": {"kind": "fixed_fraction", "value": 0.2}}


def scenes(harness) -> dict:
    """The three scenes, built with the module harness."""
    return {"line1d_p50": harness.gen_line_1d(50),
            "gas3d_n256": harness._sweep_scenario(GAS3D, 256, 48, 1.0),
            "rows2d_p20": rows(harness, 2, 20, 0.01)}


class Costs:
    """Seconds and calls per wrapped step while installed.  Kernel calls
    and their rows are also kept by the step that made them: "init" (the
    initial scan), "rescan" or "repredict"."""

    def __init__(self):
        self.seconds: Counter = Counter()
        self.calls: Counter = Counter()
        self.step = "init"
        self._saved: list = []

    def _patch(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        scan = dynamics.contact_times_scan

        def kernel(*args):
            start = perf_counter()
            try:
                return scan(*args)
            finally:
                dt = perf_counter() - start
                self.seconds["kernel"] += dt
                self.seconds["kernel", self.step] += dt
                self.calls["kernel", self.step] += 1
                self.calls["rows", self.step] += np.size(args[3])

        predict = {name: self._timed(name, dynamics._Engine._predict)
                   for name in ("init", "rescan", "repredict")}

        def by_arguments(engine, rows, t=None):
            if t is not None:
                return predict["rescan"](engine, rows, t)
            name = "init" if len(rows) == len(engine.ids) else "repredict"
            return predict[name](engine, rows)

        self._patch(dynamics, "contact_times_scan", kernel)
        self._patch(dynamics._Engine, "_predict", by_arguments)
        self._patch(dynamics._Engine, "_collide", self._timed(
            "_collide", dynamics._Engine._collide))

    def _timed(self, name: str, method):
        def step(engine, *args):
            start = perf_counter()
            outer, self.step = self.step, name
            try:
                return method(engine, *args)
            finally:
                self.step = outer
                self.seconds[name] += perf_counter() - start
                self.calls[name] += 1
        return step

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def one_run(scenario) -> tuple:
    costs = Costs()
    costs.install()
    try:
        start = perf_counter()
        block, _ = dynamics._Engine(scenario.states, scenario.config).run()
        whole = perf_counter() - start
    finally:
        costs.uninstall()
    return len(block), whole, costs


def measure(name: str, scenario, runs: int) -> dict:
    best: dict = {}
    for _ in range(runs):
        E, whole, costs = one_run(scenario)
        s = costs.seconds
        us = {"whole_us": whole, "kernel_us": s["kernel"],
              "collide_us": s["_collide"],
              "rescan_rest_us": s["rescan"] - s["kernel", "rescan"]}
        for key, value in us.items():
            best[key] = min(best.get(key, math.inf), 1e6 * value / max(E, 1))
    calls = costs.calls
    N, n = scenario.states.position.shape
    return {"scene": name, "N": N, "n": n,
            "runs": runs, "collisions": E,
            "repredictions": calls["repredict"],
            "kernel_calls": {"initial": calls["kernel", "init"],
                             "one_row": calls["kernel", "repredict"],
                             "rescan": calls["kernel", "rescan"]},
            "rows_per_rescan_call": round(
                calls["rows", "rescan"] / max(calls["kernel", "rescan"], 1), 2),
            "collide_calls": calls["_collide"],
            "pairs_per_collide_call": round(E / max(calls["_collide"], 1), 2),
            **{key: round(value, 1) for key, value in best.items()}}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=5,
                        help="runs per scene; each time is the best of them")
    args = parser.parse_args()
    for name, scenario in scenes(harness).items():
        print(json.dumps(measure(name, scenario, max(1, args.runs))))


if __name__ == "__main__":
    main()
