#!/usr/bin/env python3
"""Print sha256 digests of the artifacts of a fixed scenario and sweep set.

Every scenario runs through ``kinkbound simulate`` (``cli.main``), which
writes events.jsonl, ledger.csv, report.json and audit.json; every sweep
runs through ``kinkbound sweep``, which writes ratios.csv.  The output is
one JSON object mapping ``"<scenario>/<artifact>"`` to the hex digest.
Run it on two commits and diff the two maps to see which artifacts a
refactor changed:

    PYTHONPATH=src python3 benchmarks/golden_artifacts.py > golden.json

tests/golden_digests.json is the map of the committed sources, and
tests/test_benchmark_scripts.py checks its fast scenes in tier-1.  A
change that alters artifacts on purpose writes the new map there,

    KINKBOUND_THREADS=1 PYTHONPATH=src python3 benchmarks/golden_artifacts.py > tests/golden_digests.json

and names the digests that changed.

The set:

* 25 Maxwell gases, a=0.01, t_max=1, boxes sized by covering fraction:
  n=2 at 0.3 and n=3 at 0.2, N in {64, 128, 256}, seeds 0-3, and n=4 at
  0.2, N=64, seed 0;
* two 2-D gases at N=64 (fraction 0.3, t_max=1) through the transforms
  and the other velocity draw: seed 0 with "boost": [0.5, -0.25] and
  "time_scale": 2.0, and seed 1 with uniform velocities (v0=1);
* line_1d with p in {1, 5, 50};
* rows in n=2 and n=3: p=20 right-movers at x = -1, ..., -20 and 20
  left-movers at x = 1, ..., 20 on the first axis, speeds +-1, a=0.01
  (400 collisions, up to 20 at one time);
* two explicit scenes at the edge shapes of the event log: two spheres
  in R^3 flying apart (no collision) and a head-on pair in R^2 (one);
* the configs of the benchmark's gas2d_pipeline (2-D gas, N=256) and
  line1d_dense (line_1d, p=50) workloads at seed 12;
* five gases at seed 12 at the scale and in the regimes that a neighbor
  list or a second sweep axis changes: n=2 at N=1024 with t_max=0.5
  (8,601 collisions); n=2 at N=256 at covering fraction 0.5 (1,339; at
  0.6 the spheres cannot be placed); n=2 at N=256 run to its last
  collision (1,083); n=3 at N=1024, whose last collision comes before
  t_max=1 (3,165); and n=1 at N=256, fraction 0.3, run to its last
  collision (13,743);
* two sweeps: the spec of the benchmark's sweep3d workload at seed 12 (3-D
  gas, a=0.01, covering fraction 0.2, sizes 64/128/256, seeds 48-51,
  t_max=1) and line_1d with p in {1, 5, 20}, t_max=2.5.

Sweeps run in worker processes; KINKBOUND_THREADS caps their number.

Every dot product and norm on the artifact path adds its components in
index order (kinkbound/kernel.py), so the BLAS build does not enter the
digests; libm still can, where the scenario generators call it (the tail
of the Maxwell draws, the n-th roots of box sides).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

from kinkbound import cli

ARTIFACTS = ("events.jsonl", "ledger.csv", "report.json", "audit.json")


def gas_config(n: int, N: int, seed: int, t_max: float | None = 1.0,
               fraction: float | None = None) -> dict:
    """Maxwell gas, a=0.01, run to t_max (None: to its last collision), in
    a cube sized for a covering fraction, by default 0.3 (n=2) or 0.2
    (other n)."""
    if fraction is None:
        fraction = 0.3 if n == 2 else 0.2
    return {
        "scenario": {"generator": "random_gas", "n": n, "N": N, "a": 0.01,
                     "box_policy": {"kind": "fixed_fraction", "value": fraction},
                     "seed": seed,
                     "velocities": {"kind": "maxwell", "sigma": 1.0}},
        "sim": {"t_max": t_max},
    }


def line_config(p: int) -> dict:
    return {"scenario": {"generator": "line_1d", "p": p}}


def explicit_config(n: int, positions: list, velocities: list,
                    a: float = 0.125) -> dict:
    return {"scenario": {"generator": "explicit", "n": n, "a": a,
                         "positions": positions, "velocities": velocities}}


def rows_config(n: int, p: int) -> dict:
    """p right-movers and p left-movers on the first axis, spacing 1,
    speeds +-1, a=0.01."""
    x = [-(k + 1.0) for k in range(p)] + [k + 1.0 for k in range(p)]
    rest = [0.0] * (n - 1)
    return explicit_config(n, [[xk] + rest for xk in x],
                           [[1.0 if xk < 0 else -1.0] + rest for xk in x],
                           a=0.01)


def scenarios() -> dict:
    out = {}
    for n in (2, 3):
        for N in (64, 128, 256):
            for seed in range(4):
                out[f"gas{n}d_N{N}_s{seed}"] = gas_config(n, N, seed)
    out["gas4d_N64_s0"] = gas_config(4, 64, 0)
    out["gas2d_N64_s0_boost_time_scale"] = {
        **gas_config(2, 64, 0), "boost": [0.5, -0.25], "time_scale": 2.0}
    uniform = gas_config(2, 64, 1)
    uniform["scenario"]["velocities"] = {"kind": "uniform", "v0": 1.0}
    out["gas2d_N64_s1_uniform"] = uniform
    for p in (1, 5, 50):
        out[f"line1d_p{p}"] = line_config(p)
    for n in (2, 3):
        out[f"rows{n}d_p20"] = rows_config(n, 20)
    out["explicit3d_no_events"] = explicit_config(
        3, [[0.0, 0.0, 0.0], [1.0, 0.5, 0.0]],
        [[-1.0, 0.25, 0.0], [1.0, 0.0, 0.5]])
    out["explicit2d_one_event"] = explicit_config(
        2, [[-1.0, 0.0625], [1.0, 0.0]], [[1.0, 0.0], [-0.5, 0.0]])
    out["cli_gas2d_pipeline_s12"] = gas_config(2, 256, 12)
    out["cli_line1d_dense_s12"] = line_config(50)
    # the scale and regimes that a neighbor list or a second sweep axis
    # changes: N = 1024, a dense packing, whole histories, a > 0 on the line
    out["gas2d_N1024_s12"] = gas_config(2, 1024, 12, t_max=0.5)
    out["gas2d_N256_s12_dense"] = gas_config(2, 256, 12, fraction=0.5)
    out["gas2d_N256_s12_whole"] = gas_config(2, 256, 12, t_max=None)
    out["gas3d_N1024_s12"] = gas_config(3, 1024, 12)
    out["gas1d_N256_s12_whole"] = gas_config(1, 256, 12, t_max=None, fraction=0.3)
    return out


def sweeps() -> dict:
    return {
        "sweep3d_s12": {
            "sizes": [64, 128, 256], "seeds": [48, 49, 50, 51],
            "base": {"generator": "random_gas", "n": 3, "a": 0.01,
                     "box_policy": {"kind": "fixed_fraction", "value": 0.2}},
            "epsilon": 1.0, "t_max": 1.0},
        "sweep_line1d": {"sizes": [1, 5, 20], "seeds": [0],
                         "base": {"generator": "line_1d"}, "t_max": 2.5},
    }


def digests(command: str, name: str, doc: dict, artifacts, work: Path) -> dict:
    """Run ``kinkbound <command>`` on doc; digest what it wrote."""
    doc_path = work / f"{name}.json"
    doc_path.write_text(json.dumps(doc))
    out_dir = work / name
    option = "--config" if command == "simulate" else "--spec"
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([command, option, str(doc_path), "--out", str(out_dir)])
    if code != 0:
        raise SystemExit(f"kinkbound {command} exited {code} on {name}")
    return {f"{name}/{artifact}":
            hashlib.sha256((out_dir / artifact).read_bytes()).hexdigest()
            for artifact in artifacts}


def main() -> int:
    result = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, config in scenarios().items():
            result.update(digests("simulate", name, config, ARTIFACTS, Path(tmp)))
        for name, spec in sweeps().items():
            result.update(digests("sweep", name, spec, ("ratios.csv",), Path(tmp)))
    json.dump(result, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
