"""Scenario generation, experiment driving, sweeps, and frame transforms.

Scenarios are pure functions of (parameters, seed); the RNG is numpy's
counter-based Philox so identical seeds give identical initial data on
any platform, and the algorithm name travels in the log provenance.
"""

from __future__ import annotations

import csv
import os
import shutil
import statistics
import tempfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import _jsonio
from ._jsonio import read_array, read_int, read_number, read_object
from .dynamics import (LOW, EventLog, SimConfig, StateBlock, check_range, check_size,
                       read_run_fields, run_simulation, write_events_jsonl)
from .kernel import norms
from .ledger import (bound_report, build_ledger, build_report, bulk_invariants,
                     write_ledger_csv)
from .tensor import audit_tensor, build_tensor

__all__ = [
    "PackingError",
    "Scenario",
    "SweepSpec",
    "gen_random_gas",
    "gen_line_1d",
    "gen_explicit",
    "apply_boost",
    "apply_time_scale",
    "scenario_from_config",
    "run_experiment",
    "sweep",
    "default_workers",
]

RNG_ALGORITHM = "numpy-philox4x64"
_PACKING_ATTEMPT_CAP = 100_000
_PLACE_BLOCK = 1 << 12  # candidate x sphere pairs per placement batch


class PackingError(ValueError):
    """Rejection sampling could not place all spheres."""


@dataclass
class Scenario:
    config: SimConfig
    states: StateBlock
    provenance: dict = field(default_factory=dict)


@dataclass
class SweepSpec:
    """Grid of runs: one per (size, seed).

    base is a scenario document, as under "scenario" in a simulate config.
    Each run sets the generator's size field to its size (N for random_gas,
    p for line_1d) and, for random_gas, seed to its seed; a box_policy of
    kind "fixed_fraction" then sizes the box per N at a constant covering
    fraction.
    """

    sizes: list
    seeds: list
    base: dict
    epsilon: float = 1.0
    t_max: float | None = None

    def __post_init__(self):
        if not self.sizes or min(self.sizes) < 1:
            raise ValueError("sizes must be a nonempty list of positive ints")
        if not self.seeds:
            raise ValueError("need at least one seed")


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(int(seed)))


def _draw_velocities(gen, dist: dict, N: int, n: int) -> np.ndarray:
    """Velocities of a random gas, sigma and v0 in the numeric range."""
    dist = read_object(dist, "velocities")
    kind = dist.get("kind", "maxwell")
    if kind == "maxwell":
        sigma = read_number(dist.get("sigma", 1.0), "velocities.sigma")
        check_range(sigma, "velocities.sigma", LOW)
        return gen.normal(0.0, sigma, size=(N, n))
    if kind == "uniform":
        v0 = read_number(dist.get("v0", 1.0), "velocities.v0")
        check_range(v0, "velocities.v0", LOW)
        return gen.uniform(-v0, v0, size=(N, n))
    if kind == "explicit":
        v = read_array(dist["values"], "velocities.values")
        if v.shape != (N, n):
            raise ValueError(f"explicit velocities must be shape {(N, n)}")
        return v
    raise ValueError(f"unknown velocity distribution {kind!r}")


def gen_random_gas(n: int, N: int, box, a: float, velocity_dist: dict,
                   seed: int) -> Scenario:
    """Uniform non-overlapping spheres in [0, box] with drawn velocities.

    Placement is rejection sampling with a global attempt cap; packings
    too dense to place raise PackingError.  Candidates are drawn and tested
    in batches of at most 64 candidates and _PLACE_BLOCK candidate x
    sphere pairs (their 64 x 64 clash matrix is _PLACE_BLOCK too); they are
    placed as one candidate at a time would place them, and the generator
    is left where that loop leaves it (the Philox stream gives the same
    values for random((k, n)) as for k draws of random(n)), so the
    velocities drawn next are the same too.
    """
    check_size(N, n)
    box = np.broadcast_to(np.asarray(box, dtype=np.float64), (n,))
    if np.any(box <= 0):
        raise ValueError("box sides must be positive")
    check_range(box, "box")
    gen = _rng(seed)
    placed = np.empty((N, n))
    min_dist = 2.0 * a * (1.0 + 1e-9)  # strict separation for clean starts
    batch = max(1, min(64, _PLACE_BLOCK // N))
    i = attempts = 0
    while i < N:
        k = min(batch, _PACKING_ATTEMPT_CAP - attempts)
        if not k:
            raise PackingError(
                f"could not place sphere {i} of {N} within "
                f"{_PACKING_ATTEMPT_CAP} attempts (box {box.tolist()}, a={a})"
            )
        state = gen.bit_generator.state
        cand = gen.random((k, n)) * box
        # candidate j is placed when it is more than min_dist from every
        # sphere placed before it: those of earlier batches, and the earlier
        # candidates of this batch that were placed (clash[j, l], l < j)
        take = (norms(placed[:i, None] - cand) > min_dist).all(axis=0)
        clash = np.tril(norms(cand[:, None] - cand) <= min_dist, -1)
        for j in np.flatnonzero(take & clash.any(axis=1)).tolist():
            take[j] = not (take[:j] & clash[j, :j]).any()
        rows = np.flatnonzero(take)[:N - i]
        used = k if len(rows) < N - i else int(rows[-1]) + 1
        if used < k:  # one at a time stops drawing at sphere N
            gen.bit_generator.state = state
            gen.random((used, n))
        placed[i:i + len(rows)] = cand[rows]
        i += len(rows)
        attempts += used
    vel = _draw_velocities(gen, velocity_dist, N, n)
    states = StateBlock(np.arange(N, dtype=np.int64), placed, vel)
    return Scenario(config=SimConfig(a=a), states=states, provenance={
        "generator": "random_gas",
        "rng": RNG_ALGORITHM,
        "seed": int(seed),
        "params": {"n": n, "N": N, "a": a, "box": box.tolist(),
                   "velocities": velocity_dist},
    })


def gen_line_1d(p: int) -> Scenario:
    """2p point particles on the line: p right-movers at -1..-p with
    velocity +1 facing p left-movers at +1..+p with velocity -1.

    Every right-mover meets every left-mover, so exactly p^2 collisions
    occur and each kink has |v'-v| = 2.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    check_size(2 * p, 1)
    k = np.arange(1.0, p + 1.0)
    states = StateBlock(np.arange(2 * p, dtype=np.int64),
                        np.concatenate((-k, k))[:, None],
                        np.repeat([1.0, -1.0], p)[:, None])
    return Scenario(config=SimConfig(a=0.0), states=states, provenance={
        "generator": "line_1d", "rng": None, "seed": None, "params": {"p": p},
    })


def gen_explicit(n: int, a: float, positions, velocities) -> Scenario:
    """The given (N, n) positions and velocities, ids 0..N-1; n must be
    their width (ConfigurationError "dimension_mismatch")."""
    positions = np.array(positions, dtype=np.float64)
    velocities = np.array(velocities, dtype=np.float64)
    if positions.shape != velocities.shape or positions.ndim != 2:
        raise ValueError("positions and velocities must both be (N, n)")
    N = positions.shape[0]
    states = StateBlock(np.arange(N, dtype=np.int64), positions, velocities)
    check_size(N, n, states)
    return Scenario(config=SimConfig(a=a), states=states, provenance={
        "generator": "explicit", "rng": None, "seed": None,
        "params": {"n": n, "N": N, "a": a},
    })


def apply_boost(scenario: Scenario, w0) -> Scenario:
    """Shift every velocity by w0, in the numeric range: v + w0 is finite."""
    v = scenario.states.velocity
    w0 = np.broadcast_to(np.asarray(w0, dtype=np.float64), v.shape[1:])
    check_range(w0, "boost", LOW)
    states = replace(scenario.states, velocity=v + w0)
    prov = dict(scenario.provenance)
    prov["boost"] = w0.tolist()
    return Scenario(config=scenario.config, states=states, provenance=prov)


def apply_time_scale(scenario: Scenario, mu: float) -> Scenario:
    """Speed the movie up by mu: velocities scale by mu, positions fixed.

    Collision times map to t/mu and every velocity jump scales by mu.
    """
    if not mu > 0:
        raise ValueError(f"mu must be positive, got {mu!r}")
    check_range(mu, "time_scale", LOW)
    check_range(scenario.states.velocity, "velocity")  # so mu * v is finite
    states = replace(scenario.states, velocity=mu * scenario.states.velocity)
    prov = dict(scenario.provenance)
    prov["time_scale"] = float(mu)
    return Scenario(config=scenario.config, states=states, provenance=prov)


# -- config ingestion --------------------------------------------------------


def _fixed_fraction_box(n: int, N: int, a: float, fraction: float):
    """Sides of the cube that N balls of radius a cover at `fraction`,
    a * (V_n * N / fraction) ** (1 / n); the unit ball's volume V_n (V_0 = 1,
    V_1 = 2, V_k = 2 pi / k * V_(k-2)) underflows float64 at n = 453."""
    check_size(N, n)
    if not 0 < fraction < 1:
        raise ValueError("fraction must be in (0, 1)")
    if a <= 0:
        raise ValueError("fixed_fraction needs a > 0")
    before, volume = 1.0, 2.0  # V_0, V_1
    for k in range(2, n + 1):
        before, volume = volume, 2.0 * np.pi / k * before
        if not volume:
            raise ValueError(f"fixed_fraction needs n < {k} (V_n underflows), got {n}")
    return [float(a * (volume * N / fraction) ** (1.0 / n))] * n


def _box(sc: dict, n: int, N: int, a: float):
    """Box sides of a random_gas scenario: a box_policy, if given, wins
    over box (default 1.0); its one kind is fixed_fraction."""
    if "box_policy" not in sc:
        return read_array(sc.get("box", 1.0), "scenario.box")
    policy = read_object(sc["box_policy"], "scenario.box_policy")
    if policy.get("kind") != "fixed_fraction":
        raise ValueError(f"unknown box policy {policy.get('kind')!r}")
    return _fixed_fraction_box(
        n, N, a, read_number(policy["value"], "scenario.box_policy.value"))


def scenario_from_config(doc: dict) -> tuple:
    """Build (Scenario, sim options dict) from a config document.

    Schema (README has the full story): {"scenario": {...}, "sim": {...},
    "ledger": {"epsilon": x}, "boost": [...], "time_scale": mu}.  Numeric
    fields must be finite JSON numbers, and n, N, p and seed integral;
    anything else raises ValueError.  Sweeps build each run's scenario here.
    """
    sc = read_object(doc.get("scenario"), "scenario")
    generator = sc.get("generator", "random_gas")
    if generator == "random_gas":
        n = read_int(sc.get("n", 2), "scenario.n")
        N = read_int(sc["N"], "scenario.N")
        a = read_number(sc["a"], "scenario.a")
        check_range(a, "scenario.a", LOW)  # before it sizes a box
        scenario = gen_random_gas(
            n=n, N=N, box=_box(sc, n, N, a), a=a,
            velocity_dist=sc.get("velocities", {"kind": "maxwell", "sigma": 1.0}),
            seed=read_int(sc.get("seed", 0), "scenario.seed"),
        )
    elif generator == "line_1d":
        scenario = gen_line_1d(read_int(sc["p"], "scenario.p"))
    elif generator == "explicit":
        scenario = gen_explicit(
            n=read_int(sc["n"], "scenario.n"),
            a=read_number(sc["a"], "scenario.a"),
            positions=read_array(sc["positions"], "scenario.positions"),
            velocities=read_array(sc["velocities"], "scenario.velocities"),
        )
    else:
        raise ValueError(f"unknown generator {generator!r}")

    if "boost" in doc:
        scenario = apply_boost(scenario, read_array(doc["boost"], "boost"))
    if "time_scale" in doc:
        scenario = apply_time_scale(
            scenario, read_number(doc["time_scale"], "time_scale"))

    scenario.config = replace(scenario.config, **read_run_fields(
        read_object(doc.get("sim", {}), "sim"), "sim", scenario.config))
    epsilon = read_object(doc.get("ledger", {}), "ledger").get("epsilon", 1.0)
    return scenario, {"epsilon": read_number(epsilon, "ledger.epsilon")}


def simulate_scenario(scenario: Scenario) -> EventLog:
    log = run_simulation(scenario.states, scenario.config)
    log.provenance = scenario.provenance
    return log


def _audit_window(log: EventLog) -> tuple:
    t = log.events.t
    t_end = float(t[-1]) if len(t) else 1.0
    pad = 0.05 * (t_end + 1.0)
    return (-pad, t_end + pad)


def run_experiment(config: dict, out_dir) -> dict:
    """Simulate one config and write events.jsonl, ledger.csv, report.json,
    audit.json into out_dir.  Returns paths plus a small summary.

    The artifacts are written into a temporary sibling of out_dir and
    moved into it only when all four are written, so a run that fails
    leaves no partial output.
    """
    scenario, options = scenario_from_config(config)
    log = simulate_scenario(scenario)
    out = Path(out_dir)
    out.parent.mkdir(parents=True, exist_ok=True)
    staging = Path(tempfile.mkdtemp(prefix=f".{out.name}.", dir=out.parent))
    try:
        staged = {name: staging / name for name in
                  ("events.jsonl", "ledger.csv", "report.json", "audit.json")}
        write_events_jsonl(log, staged["events.jsonl"])
        ledger = build_ledger(log)
        write_ledger_csv(ledger, staged["ledger.csv"])
        report = build_report(log, ledger, epsilon=options["epsilon"])
        staged["report.json"].write_text(_jsonio.dumps(report) + "\n")
        audit = audit_tensor(build_tensor(log, _audit_window(log)))
        staged["audit.json"].write_text(_jsonio.dumps(audit) + "\n")
        out.mkdir(exist_ok=True)
        paths = {name: out / name for name in staged}
        for name, path in staged.items():
            os.replace(path, paths[name])
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    return {
        "paths": {k: str(v) for k, v in paths.items()},
        "events": len(log.events),
        "termination": log.termination,
        "ratio1": report["ratio1"],
        "ratio2": report["ratio2"],
    }


# -- sweeps ------------------------------------------------------------------


def default_workers() -> int:
    """The CPUs this process may run on (its affinity, where the platform
    tells it, else the CPU count), capped by KINKBOUND_THREADS."""
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    cap = os.environ.get("KINKBOUND_THREADS", "").strip() or cpus
    try:
        return max(1, min(int(cap), cpus))
    except ValueError:
        raise ValueError(f"KINKBOUND_THREADS must be an integer, got {cap!r}") from None


def _sweep_scenario(base: dict, size: int, seed: int,
                    t_max: float | None) -> Scenario:
    """One run of a sweep: base with its size field set, through
    scenario_from_config."""
    generator = base.get("generator", "random_gas")
    if generator not in ("random_gas", "line_1d"):
        raise ValueError(f"unknown sweep generator {generator!r}")
    sized = {"N": size, "seed": seed} if generator == "random_gas" else {"p": size}
    scenario, _ = scenario_from_config(
        {"scenario": {**base, **sized}, "sim": {"t_max": t_max}})
    return scenario


def _sweep_run(args) -> dict:
    base, size, seed, epsilon, t_max = args
    scenario = _sweep_scenario(base, size, seed, t_max)
    log = simulate_scenario(scenario)
    inv = bulk_invariants(log.initial.velocity)
    rep = bound_report(build_ledger(log), inv, epsilon)
    return {
        "N": len(log.initial), "size": size, "seed": seed,
        "events": len(log.events),
        "ratio1": rep.ratio1, "ratio2": rep.ratio2,
        "strong": rep.strong, "weak": rep.weak,
    }


@dataclass
class SweepResult:
    rows: list
    medians: dict   # size -> median ratio1 across seeds


def sweep(spec: SweepSpec, out_dir=None, workers: int | None = None) -> SweepResult:
    """Run the (size x seed) grid, aggregate median ratio1 per size.

    Rows are sorted by (N, seed) regardless of completion order; workers
    defaults to default_workers(), and no more start than there are runs.
    """
    tasks = [(spec.base, int(size), int(seed), spec.epsilon, spec.t_max)
             for size in spec.sizes for seed in spec.seeds]
    workers = min(default_workers() if workers is None else workers, len(tasks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_run, tasks))
    else:
        rows = [_sweep_run(t) for t in tasks]
    rows.sort(key=lambda r: (r["N"], r["seed"]))
    medians = {}
    for size in spec.sizes:
        vals = [r["ratio1"] for r in rows if r["size"] == size]
        medians[int(size)] = float(statistics.median(vals))
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "ratios.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["N", "size", "seed", "events", "ratio1",
                             "ratio2", "strong", "weak"])
            for r in rows:
                writer.writerow([
                    r["N"], r["size"], r["seed"], r["events"],
                    format(r["ratio1"], ".17g"),
                    "" if r["ratio2"] is None else format(r["ratio2"], ".17g"),
                    r["strong"], r["weak"],
                ])
    return SweepResult(rows=rows, medians=medians)
