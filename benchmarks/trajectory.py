#!/usr/bin/env python3
"""Exact work counts and best-of times of the event engine and of tensor
augmentation on one table of rows, or the table on two source trees timed
against each other.

    PYTHONPATH=src python3 benchmarks/trajectory.py [--runs K] [--tiny] > BENCH_<sha7>.json
    PYTHONPATH=src python3 benchmarks/trajectory.py --parent DIR [--rounds R] [--tiny]

A row pairs config documents of benchmarks/golden_artifacts.py with one
step, and is built through the package's public
harness.scenario_from_config:

* "engine": one dynamics._Engine run of each scene (set-up with its
  initial scan, and the event loop);
* "augment": tensor.build_augmented of the tensor of the scene's log, in
  the window of its first `collisions` collisions (from before 0 to
  midway between the last of them and the next) or, without, in the
  whole-log window of its audit.

Without --parent, each row runs K times (default 5) with wrappers put in
place around the functions below and taken off again; no file of the
program changes.  The script prints one JSON record: "tiny" and (without
--tiny) "full", each {row: {"counts": ..., "times": ...}}.  The counts are
pure functions of the code and the scenes, the same on any machine and in
every run (checked), so a diff of two records shows each count that moved;
each time is the best of the K runs, taken on its own.  An engine row:

* scenes, N (their particles together) and n;
* collisions; repredictions, the entries whose partner had collided
  since, each re-predicted with a one-row kernel call (_predict);
* heap_pushes, the predictions pushed on the event heap, and stale_pops,
  the popped entries whose owner had collided since: every pop but the
  collisions, the re-predictions and a run's last, past t_max (the heap's
  calls are counted through a stand-in for dynamics.heapq);
* kernel_calls of dynamics.contact_times_scan in the initial scan, the
  re-predictions ("one_row") and the rescans of the collisions (two rows
  a collision; one call rescans the collisions of one time, up to
  max(2, dynamics._BLOCK // N) & -2 rows), with rows_per_rescan_call;
  kernel_pairs, rows x columns over every call;
* collide_calls of _Engine._collide, with pairs_per_collide_call;
* whole_us, kernel_us, collide_us and rescan_rest_us: microseconds per
  collision of the step, of every kernel call, of _collide, and of the
  rescans outside their kernel calls.

An augmentation row: kinks and edges of the tensor; box_gap_pairs, rows x
columns over tensor._box_gaps calls (all kinks x edges, were nothing
pruned), and exact_pairs, rows over tensor._distances calls; seconds of
tensor._default_eps, of tensor.complement_basis and of the whole step.

With --parent DIR, DIR is a checkout of another commit whose src/kinkbound
is loaded as kinkbound_parent.  Both trees build every row with their own
package; the script asserts that they build bit-identical initial states
and give bit-identical results (event blocks and terminations, augmented
tensors).  Then it makes R rounds (default 20): a round runs every row on
each tree without wrappers, the tree that goes first alternating, so that
a drift of the machine's speed falls on both alike.  A side of a round
runs its row as many times as last about a second (from the time of the
check's run; once, for a row that takes longer) and keeps the best, so a
stall of the machine that hits one run of a short row does not land on
its side.  It prints one JSON object per row: the runs per side, the
quartiles of each tree's seconds and of the ratio change / parent within
a round.  This runs the full table, or with --tiny the tiny one, a smoke
run in which each side of a round runs once.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import datetime
import importlib.util
import json
import math
import os
import platform
import statistics
import sys
import types
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np

import kinkbound
from golden_artifacts import gas_config, line_config, rows_config


def engine(*configs):
    return "engine", list(configs), None


def augment(config, collisions=None):
    return "augment", [config], collisions


TINY = {
    "line1d_p5": engine(line_config(5)),
    "rows2d_p3": engine(rows_config(2, 3)),
    "gas3d_n16": engine(gas_config(3, 16, 48)),
    "sweep3d": engine(*[gas_config(3, N, seed) for N in (8, 16) for seed in (48, 49)]),
    "augment_gas2d_n16": augment(gas_config(2, 16, 12, t_max=None), collisions=5),
}

# line1d_dense's scene, rows in R^2 (400 collisions at 39 times), the
# sweep3d workload's largest gas and all 12 of its gases, the 2-D gas at
# three sizes, and the tensor_augment workload's window with two whole logs
FULL = {
    "line1d_p50": engine(line_config(50)),
    "rows2d_p20": engine(rows_config(2, 20)),
    "gas3d_n256": engine(gas_config(3, 256, 48)),
    "sweep3d": engine(*[gas_config(3, N, seed)
                        for N in (64, 128, 256) for seed in range(48, 52)]),
    "gas2d_n256": engine(gas_config(2, 256, 12)),
    "gas2d_n1024": engine(gas_config(2, 1024, 12, t_max=0.5)),
    "gas2d_n4096": engine(gas_config(2, 4096, 12, t_max=0.12)),
    "tensor_augment": augment(gas_config(2, 64, 12, t_max=None), collisions=96),
    "augment_gas2d_n256": augment(gas_config(2, 256, 12)),
    "augment_gas2d_n1024": augment(gas_config(2, 1024, 12, t_max=None)),
}


def window(log, collisions):
    t = log.events.t
    last = float(t[-1 if collisions is None else collisions - 1])
    pad = 0.05 * (last + 1.0)
    return -pad, last + pad if collisions is None else 0.5 * (last + float(t[collisions]))


def prepare(kb, row) -> tuple:
    """The row's scenarios, built with the package kb, and the step's
    inputs: the scenarios, or the tensor of the scene's log."""
    step, configs, collisions = row
    scenes = [kb.harness.scenario_from_config(doc)[0] for doc in configs]
    if step == "engine":
        return scenes, scenes
    log = kb.dynamics.run_simulation(scenes[0].states, scenes[0].config)
    return scenes, [kb.tensor.build_tensor(log, window(log, collisions))]


def run(kb, step: str, inputs) -> list:
    if step == "engine":
        return [kb.dynamics._Engine(sc.states, sc.config).run() for sc in inputs]
    return [kb.tensor.build_augmented(T) for T in inputs]


def predict_phase(self, rows, t=None) -> str:
    if t is not None:
        return "rescan"
    return "initial" if len(rows) == len(self.ids) else "one_row"


def targets(kb, step: str) -> list:
    """(owner, attribute, name) of the functions a step is measured by;
    name is the key, or a function of the call's arguments, or for a
    module a dict {function: key} of the functions of it that are wrapped
    (the module is replaced by a namespace of them)."""
    if step == "engine":
        return [(kb.dynamics, "contact_times_scan", "kernel"),
                (kb.dynamics._Engine, "_collide", "collide"),
                (kb.dynamics._Engine, "_predict", predict_phase),
                (kb.dynamics, "heapq", {"heappush": "push", "heappop": "pop"})]
    return [(kb.tensor, "_default_eps", "default_eps"),
            (kb.tensor, "complement_basis", "bases"),
            (kb.tensor, "_box_gaps", "box_gaps"),
            (kb.tensor, "_distances", "distances")]


# (rows, pairs) of a call, from its arguments
SIZES = {"kernel": lambda pos, vel, tupd, i, js, *_: (np.size(i), np.size(i) * len(js)),
         "box_gaps": lambda lo, hi, x: (len(x), len(x) * lo.shape[1]),
         "distances": lambda x, *_: (len(x), len(x))}


class Meter:
    """Calls, rows, pairs and seconds of the wrapped functions while they
    are wrapped, by (name, the name of the wrapped call they ran inside,
    "step" outside any, quantity)."""

    def __init__(self):
        self.tally: Counter = Counter()
        self.inside = "step"

    def total(self, name: str, quantity: str):
        return sum(v for (key, _, what), v in self.tally.items()
                   if key == name and what == quantity)

    @contextlib.contextmanager
    def wrapped(self, targets: list):
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in targets]
        try:
            for (owner, attr, original), (_, _, name) in zip(saved, targets):
                setattr(owner, attr, self._wrap(original, name))
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    def _wrap(self, original, name):
        if isinstance(name, dict):
            return types.SimpleNamespace(**{
                attr: self._wrap(getattr(original, attr), key)
                for attr, key in name.items()})

        def wrapper(*args):
            key = name(*args) if callable(name) else name
            outer, self.inside = self.inside, key
            start = perf_counter()
            try:
                return original(*args)
            finally:
                self.inside = outer
                tally = self.tally
                tally[key, outer, "seconds"] += perf_counter() - start
                tally[key, outer, "calls"] += 1
                if key in SIZES:
                    rows, pairs = SIZES[key](*args)
                    tally[key, outer, "rows"] += rows
                    tally[key, outer, "pairs"] += pairs
        return wrapper


def engine_figures(m: Meter, inputs, results, whole: float) -> tuple:
    E = sum(len(block) for block, _ in results)
    kernel = {phase: m.tally["kernel", phase, "calls"]
              for phase in ("initial", "one_row", "rescan")}
    collide = m.total("collide", "calls")
    repredictions = m.total("one_row", "calls")
    stops = sum(termination == "t_max" for _, termination in results)
    counts = {
        "collisions": E, "repredictions": repredictions,
        "heap_pushes": m.total("push", "calls"),
        "stale_pops": m.total("pop", "calls") - E - repredictions - stops,
        "kernel_calls": kernel, "kernel_pairs": m.total("kernel", "pairs"),
        "rows_per_rescan_call": round(
            m.tally["kernel", "rescan", "rows"] / max(kernel["rescan"], 1), 2),
        "collide_calls": collide,
        "pairs_per_collide_call": round(E / max(collide, 1), 2)}
    rescan_rest = m.total("rescan", "seconds") - m.tally["kernel", "rescan", "seconds"]
    seconds = {"whole_us": whole, "kernel_us": m.total("kernel", "seconds"),
               "collide_us": m.total("collide", "seconds"), "rescan_rest_us": rescan_rest}
    return counts, {key: 1e6 * s / max(E, 1) for key, s in seconds.items()}


def augment_figures(m: Meter, inputs, results, whole: float) -> tuple:
    T, = inputs
    counts = {"kinks": len(T.kinks), "edges": len(T.edges),
              "box_gap_pairs": m.total("box_gaps", "pairs"),
              "exact_pairs": m.total("distances", "rows")}
    return counts, {"default_eps_s": m.total("default_eps", "seconds"),
                    "bases_s": m.total("bases", "seconds"), "build_augmented_s": whole}


FIGURES = {"engine": engine_figures, "augment": augment_figures}


def measure(kb, rows: dict, runs: int) -> dict:
    """{row: {"counts": ..., "times": ...}}, the times the best of runs."""
    record = {}
    for name, row in rows.items():
        step = row[0]
        scenes, inputs = prepare(kb, row)
        counts, best = None, {}
        for _ in range(runs):
            meter = Meter()
            with meter.wrapped(targets(kb, step)):
                start = perf_counter()
                results = run(kb, step, inputs)
                whole = perf_counter() - start
            got, times = FIGURES[step](meter, inputs, results, whole)
            if counts not in (None, got):
                raise AssertionError(f"{name}: counts differ between runs")
            counts = got
            for key, value in times.items():
                best[key] = min(best.get(key, math.inf), value)
        shapes = [sc.states.position.shape for sc in scenes]
        record[name] = {
            "counts": {"scenes": len(scenes), "N": sum(N for N, _ in shapes),
                       "n": shapes[0][1], **counts},
            "times": {key: round(value, 1 if key.endswith("_us") else 6)
                      for key, value in best.items()}}
    return record


def same_bits(a, b) -> bool:
    """a and b hold the same values to the bit: arrays of one dtype, shape
    and bytes; dataclasses field by field; lists and tuples item by item;
    anything else by repr (which tells -0.0 from 0.0)."""
    if isinstance(a, np.ndarray):
        return (isinstance(b, np.ndarray) and a.dtype == b.dtype
                and a.shape == b.shape and a.tobytes() == b.tobytes())
    if dataclasses.is_dataclass(a):
        return (type(a).__name__ == type(b).__name__
                and all(same_bits(getattr(a, f.name), getattr(b, f.name))
                        for f in dataclasses.fields(a)))
    if isinstance(a, (list, tuple)):
        return (type(a) is type(b) and len(a) == len(b)
                and all(map(same_bits, a, b)))
    return repr(a) == repr(b)


def load(src: Path, name: str):
    """The package src/kinkbound, imported under the name name."""
    package = src / "kinkbound"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def quartiles(values: list) -> dict:
    if len(values) < 2:
        return dict.fromkeys(("q1", "median", "q3"), values[0])
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def best_of(kb, step: str, inputs, runs: int) -> float:
    """The least seconds of runs runs of the step."""
    best = math.inf
    for _ in range(runs):
        start = perf_counter()
        run(kb, step, inputs)
        best = min(best, perf_counter() - start)
    return best


def compare(sides: dict, rows: dict, rounds: int, side_s: float) -> None:
    """The A/B of --parent: bit-identity first, then alternating rounds,
    each side of a round the best of the runs that last about side_s."""
    built = {side: {name: prepare(kb, row) for name, row in rows.items()}
             for side, kb in sides.items()}
    runs = {}
    for name, row in rows.items():
        (scenes_p, inputs_p), (scenes_c, inputs_c) = (built[side][name] for side in sides)
        if not same_bits([sc.states for sc in scenes_p], [sc.states for sc in scenes_c]):
            raise AssertionError(f"{name}: the trees build different initial states")
        start = perf_counter()
        changed = run(sides["change"], row[0], inputs_c)
        runs[name] = max(1, round(side_s / (perf_counter() - start)))
        if not same_bits(run(sides["parent"], row[0], inputs_p), changed):
            raise AssertionError(f"{name}: the trees give different results")
    seconds = {(name, side): [] for name in rows for side in sides}
    for r in range(max(1, rounds)):
        order = ("parent", "change") if r % 2 == 0 else ("change", "parent")
        for name, row in rows.items():
            for side in order:
                seconds[name, side].append(
                    best_of(sides[side], row[0], built[side][name][1], runs[name]))
    for name, row in rows.items():
        parent, change = seconds[name, "parent"], seconds[name, "change"]
        ratios = [c / p for p, c in zip(parent, change)]
        print(json.dumps({
            "row": name, "scenes": len(row[1]), "rounds": len(ratios),
            "runs_per_side": runs[name],
            "parent_s": {k: round(v, 5) for k, v in quartiles(parent).items()},
            "change_s": {k: round(v, 5) for k, v in quartiles(change).items()},
            "ratio": {k: round(v, 4) for k, v in quartiles(ratios).items()},
            "change_faster": sum(x < 1.0 for x in ratios)}))


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=5,
                        help="runs per row; each time is the best of them")
    parser.add_argument("--parent", type=Path,
                        help="checkout whose src/kinkbound is the baseline")
    parser.add_argument("--rounds", type=int, default=20,
                        help="with --parent: alternating rounds of every row on both trees")
    parser.add_argument("--tiny", action="store_true",
                        help="the tiny table only: a smoke run, not a measurement")
    args = parser.parse_args(argv)
    if args.parent is not None:
        parent = load(args.parent.resolve() / "src", "kinkbound_parent")
        compare({"parent": parent, "change": kinkbound}, TINY if args.tiny else FULL,
                args.rounds, side_s=0.0 if args.tiny else 1.0)
        return
    runs = max(1, args.runs)
    record = {"recorded": datetime.datetime.now(datetime.timezone.utc).isoformat(
                  timespec="seconds"),
              "machine": {"processor": platform.processor() or platform.machine(),
                          "cpus": os.cpu_count(), "python": platform.python_version(),
                          "numpy": np.__version__},
              "runs": runs, "tiny": measure(kinkbound, TINY, runs)}
    if not args.tiny:
        record["full"] = measure(kinkbound, FULL, runs)
    json.dump(record, sys.stdout, indent=1)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
