#!/usr/bin/env python3
"""Time the parts of tensor augmentation on a small and a large tensor.

    PYTHONPATH=src python3 benchmarks/augment_scaling.py

Prints one JSON object per tensor: its kink count K, edge count M, the
kinks per block of the clearance scan, the fraction of the K x M
kink x edge pairs whose exact distance the scan takes (the rest are pruned
by their bounding-box gaps), and the best of several runs, in seconds, of
the clearances (tensor._default_eps), the complement bases
(tensor._complement_bases) and the whole augmentation
(tensor.build_augmented).  A block holds at most tensor._BLOCK kink x edge
pairs, so a large tensor runs blocks of a few kinks; its times per kink
show what that costs.

The tensors, both of a 2-D Maxwell gas with a=0.01 at covering fraction
0.3 and seed 12:

* "tensor_augment": N=64, run to its last collision, in the window of
  the benchmark's tensor_augment workload, which ends midway between
  collisions 96 and 97 (192 kinks, 352 edges);
* "gas2d_n256": N=256 with t_max=1, in the whole-log window of its audit
  (2,142 kinks, 3,469 edges).
"""

from __future__ import annotations

import json
from time import perf_counter

import numpy as np

from kinkbound import harness, tensor


def gas_log(N: int, t_max: float | None):
    doc = {"scenario": {"generator": "random_gas", "n": 2, "N": N, "a": 0.01,
                        "box_policy": {"kind": "fixed_fraction", "value": 0.3},
                        "seed": 12,
                        "velocities": {"kind": "maxwell", "sigma": 1.0}}}
    if t_max is not None:
        doc["sim"] = {"t_max": t_max}
    scenario, _ = harness.scenario_from_config(doc)
    return harness.simulate_scenario(scenario)


def augment_window(log, collisions: int = 96) -> tuple:
    """The window of the first `collisions` collisions: from before 0 to
    midway between the last of them and the next."""
    t = log.events.t
    last = float(t[collisions - 1])
    return (-0.05 * (last + 1.0), 0.5 * (last + float(t[collisions])))


def best_of(repeats: int, fn) -> float:
    best = np.inf
    for _ in range(repeats):
        start = perf_counter()
        fn()
        best = min(best, perf_counter() - start)
    return best


def kept_fraction(T) -> float:
    """Share of the K x M pairs kept for exact distances.  _default_eps
    calls _distances twice a block: first for each kink's least-gap edge,
    then for the pairs that the bound keeps; the second calls are counted."""
    sizes = []
    distances = tensor._distances

    def counted(x, *args):
        sizes.append(len(x))
        return distances(x, *args)

    tensor._distances = counted
    try:
        tensor._default_eps(T, T.kinks)
    finally:
        tensor._distances = distances
    return sum(sizes[1::2]) / (len(T.kinks) * len(T.edges))


def measure(name: str, T, repeats: int) -> dict:
    sites = T.kinks
    ones = np.ones((len(sites), 1))
    V = np.concatenate((ones, sites.v), axis=1)
    V2 = np.concatenate((ones, sites.v_post), axis=1)
    K, M = len(sites), len(T.edges)
    return {
        "tensor": name, "kinks": K, "edges": M,
        "kinks_per_block": max(1, tensor._BLOCK // M),
        "kept_pairs": round(kept_fraction(T), 4),
        "default_eps_s": best_of(repeats, lambda: tensor._default_eps(T, sites)),
        "bases_s": best_of(repeats, lambda: tensor._complement_bases(V, V2, T.n)),
        "build_augmented_s": best_of(repeats, lambda: tensor.build_augmented(T)),
    }


def main() -> None:
    small = gas_log(64, None)
    large = gas_log(256, 1.0)
    for name, T, repeats in (
            ("tensor_augment", tensor.build_tensor(small, augment_window(small)), 30),
            ("gas2d_n256", tensor.build_tensor(large, harness._audit_window(large)), 5)):
        print(json.dumps(measure(name, T, repeats)))


if __name__ == "__main__":
    main()
