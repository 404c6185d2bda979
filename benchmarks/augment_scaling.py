#!/usr/bin/env python3
"""Time the parts of tensor augmentation on a small and two large tensors.

    PYTHONPATH=src python3 benchmarks/augment_scaling.py

Prints one JSON object per tensor: its kink count K, edge count M, two
exact counts of the clearance scan (tensor._default_eps) and the best of
several runs, in seconds, of the clearances, the complement bases
(tensor.complement_basis) and the whole augmentation
(tensor.build_augmented).  The counts are pure functions of the code and
the tensor, the same on any machine:

* box_gap_pairs: rows x columns over the scan's tensor._box_gaps calls,
  the kink x candidate pairs whose bounding-box gap it takes (all K x M
  pairs, were nothing pruned);
* exact_pairs: rows over its tensor._distances calls, the pairs whose
  exact distance it takes.

The tensors, all of a 2-D Maxwell gas with a=0.01 at covering fraction
0.3 and seed 12:

* "tensor_augment": N=64, run to its last collision, in the window of
  the benchmark's tensor_augment workload, which ends midway between
  collisions 96 and 97 (192 kinks, 352 edges);
* "gas2d_n256": N=256 with t_max=1, in the whole-log window of its audit
  (2,142 kinks, 3,469 edges);
* "gas2d_n1024": N=1024 run to its last collision, in the whole-log
  window of its audit (18,684 kinks, 29,050 edges).
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


def scan_counts(T) -> dict:
    """box_gap_pairs and exact_pairs of one _default_eps over all kinks,
    counted by wrappers that come off again."""
    counts = {"box_gap_pairs": 0, "exact_pairs": 0}
    box_gaps, distances = tensor._box_gaps, tensor._distances

    def counted_box_gaps(lo, hi, x):
        counts["box_gap_pairs"] += len(x) * lo.shape[1]
        return box_gaps(lo, hi, x)

    def counted_distances(x, *args):
        counts["exact_pairs"] += len(x)
        return distances(x, *args)

    tensor._box_gaps, tensor._distances = counted_box_gaps, counted_distances
    try:
        tensor._default_eps(T, T.kinks)
    finally:
        tensor._box_gaps, tensor._distances = box_gaps, distances
    return counts


def measure(name: str, T, repeats: int) -> dict:
    sites = T.kinks
    ones = np.ones((len(sites), 1))
    V = np.concatenate((ones, sites.v), axis=1)
    V2 = np.concatenate((ones, sites.v_post), axis=1)
    return {
        "tensor": name, "kinks": len(sites), "edges": len(T.edges),
        **scan_counts(T),
        "default_eps_s": best_of(repeats, lambda: tensor._default_eps(T, sites)),
        "bases_s": best_of(repeats, lambda: tensor.complement_basis(V, V2)),
        "build_augmented_s": best_of(repeats, lambda: tensor.build_augmented(T)),
    }


def main() -> None:
    small = gas_log(64, None)
    print(json.dumps(measure(
        "tensor_augment", tensor.build_tensor(small, augment_window(small)), 30)))
    for name, N, t_max, repeats in (("gas2d_n256", 256, 1.0, 5),
                                    ("gas2d_n1024", 1024, None, 2)):
        log = gas_log(N, t_max)
        T = tensor.build_tensor(log, harness._audit_window(log))
        print(json.dumps(measure(name, T, repeats)))


if __name__ == "__main__":
    main()
