#!/usr/bin/env python3
"""Time the event engine of two source trees against each other, in one
process.

    python3 benchmarks/engine_ab.py --parent DIR [--rounds R] [--tiny]

DIR is a checkout of another commit; its src/kinkbound is loaded under the
package name kinkbound_parent, and this tree's src/kinkbound under
kinkbound_change.  Both sides run dynamics._Engine on the same scene sets:
each scene of benchmarks/engine_costs.py as a set of its own, and the 12
scenes of the benchmark's sweep3d workload (3-D gas, a=0.01, covering
fraction 0.2, N in {64, 128, 256}, seeds 48-51, t_max=1) as one set.

Each side builds its scenes with its own package, so that each engine
gets the config type it reads.  The script first asserts that the two
sides build bit-identical initial states, and that they give
bit-identical event blocks and the same termination on every scene.  Then
it makes R rounds (default 20); a round runs every set once on each side,
the side that goes first alternating from round to round, so that a drift
of the machine's speed (20-40 % between runs on a shared VM) falls on
both sides alike.
It prints one JSON object per set: the quartiles and median over the
rounds of each side's seconds, and of the ratio change / parent within a
round.

--tiny swaps in small scenes (line_1d p=5, a 2-D rows scene with p=3, a
3-D gas at N=16, and a sweep of N in {8, 16} x 2 seeds): a smoke run,
not a measurement.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import engine_costs  # noqa: E402  (the scenes)


def load(src: Path, name: str):
    """The package src/kinkbound, imported under the name name."""
    package = src / "kinkbound"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def scene_sets(kb, tiny: bool) -> dict:
    """{set name: [scenario, ...]}: engine_costs.py's scenes, one set
    each, and the sweep3d scenes, built with the package kb."""
    harness, gas3d = kb.harness, engine_costs.GAS3D
    if tiny:
        return {"line1d_p5": [harness.gen_line_1d(5)],
                "rows2d_p3": [engine_costs.rows(harness, 2, 3, 0.01)],
                "gas3d_n16": [harness._sweep_scenario(gas3d, 16, 48, 1.0)],
                "sweep3d": [harness._sweep_scenario(gas3d, N, seed, 1.0)
                            for N in (8, 16) for seed in (48, 49)]}
    return {**{name: [sc] for name, sc in engine_costs.scenes(harness).items()},
            "sweep3d": [harness._sweep_scenario(gas3d, N, seed, 1.0)
                        for N in (64, 128, 256) for seed in range(48, 52)]}


def run_set(kb, scenarios) -> tuple:
    """Seconds of one _Engine run of each scenario, and the results."""
    results = []
    start = perf_counter()
    for sc in scenarios:
        results.append(kb.dynamics._Engine(sc.states, sc.config).run())
    return perf_counter() - start, results


def assert_same_states(name: str, a: list, b: list) -> None:
    """Bit-identical initial states, scene by scene."""
    for k, (sa, sb) in enumerate(zip(a, b)):
        for col in ("id", "position", "velocity"):
            x, y = getattr(sa.states, col), getattr(sb.states, col)
            assert x.dtype == y.dtype and x.shape == y.shape \
                and x.tobytes() == y.tobytes(), (name, k, col)


def assert_same(name: str, a: list, b: list) -> None:
    """Bit-identical event blocks and equal terminations."""
    for k, ((block_a, end_a), (block_b, end_b)) in enumerate(zip(a, b)):
        assert end_a == end_b, (name, k, end_a, end_b)
        for col in ("t", "i", "j", "y", "v", "v_post"):
            x, y = getattr(block_a, col), getattr(block_b, col)
            assert x.dtype == y.dtype and x.shape == y.shape \
                and x.tobytes() == y.tobytes(), (name, k, col)


def quartiles(values: list) -> dict:
    if len(values) < 2:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path,
                        help="checkout whose src/kinkbound is the baseline")
    parser.add_argument("--rounds", type=int, default=20,
                        help="alternating rounds of every set on both sides")
    parser.add_argument("--tiny", action="store_true",
                        help="small scenes: a smoke run, not a measurement")
    args = parser.parse_args(argv)
    sides = {"parent": load(args.parent.resolve() / "src", "kinkbound_parent"),
             "change": load(HERE.parent / "src", "kinkbound_change")}
    sets = {side: scene_sets(kb, args.tiny) for side, kb in sides.items()}
    for name in sets["change"]:
        parent, change = sets["parent"][name], sets["change"][name]
        assert_same_states(name, parent, change)
        assert_same(name, run_set(sides["parent"], parent)[1],
                    run_set(sides["change"], change)[1])
    seconds = {(name, side): [] for name in sets["change"] for side in sides}
    for r in range(max(1, args.rounds)):
        order = ("parent", "change") if r % 2 == 0 else ("change", "parent")
        for name in sets["change"]:
            for side in order:
                seconds[name, side].append(
                    run_set(sides[side], sets[side][name])[0])
    for name, scenarios in sets["change"].items():
        parent, change = seconds[name, "parent"], seconds[name, "change"]
        ratios = [c / p for p, c in zip(parent, change)]
        print(json.dumps({
            "set": name, "scenes": len(scenarios), "rounds": len(ratios),
            "parent_s": {k: round(v, 5) for k, v in quartiles(parent).items()},
            "change_s": {k: round(v, 5) for k, v in quartiles(change).items()},
            "ratio": {k: round(v, 4) for k, v in quartiles(ratios).items()},
            "change_faster": sum(x < 1.0 for x in ratios)}))


if __name__ == "__main__":
    main()
