"""The four workloads of the benchmark.

Each workload builds its inputs from the workload seed alone (the program
only sees the generated config documents and logs), runs one pass through
kinkbound's public entry points, and checks that pass's outputs.  Calls go
through module attributes (``cli.main``, ``tensor.build_tensor``) so that
the tracer's wrappers see them.

Workload sizes and why each workload exists:

* gas2d_pipeline -- ``kinkbound simulate`` on a 2-D Maxwell gas (N=256,
  a=0.01, covering fraction 0.3, broad phase "auto", which picks cells):
  the main user path, every layer but augmentation, with cell crossings
  outnumbering collisions.  t_max=1 fixes the simulated span: without it a
  late straggler collision keeps every particle crossing cells, and the
  simulation alone took 0.86-3.8 s across seeds 0-9 (2-vCPU Xeon VM).
  BENCHMARK.json leaves it out of the regression gate: its collision count
  varies with the seed, and on that VM its wall_s spread across ten seeds
  reached 0.31 of the median.  Its layers are gated on the other three.
* line1d_dense -- ``simulate`` on line_1d with p=50, then ``verify-tensor``
  on the log it wrote: all-pairs scheduling with stale predictions flooding
  the heap, coincident vertices (zero radius), and a read of events.jsonl.
* tensor_augment -- read a fixed log, build the tensor over the window of
  its first 96 collisions, augment it, audit it and take dm_kink at every
  kink.  The tensor layer does the work, the engine none.  Fixing the kink
  count keeps the K^2 augmentation cost from varying with the seed.
* sweep3d -- ``harness.sweep`` over a 3-D gas, sizes {64, 128, 256} x 4
  seeds, covering fraction 0.2: the only parallel path, the n=3 cell grid,
  and the ledger's bound and classify step without any tensor.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from kinkbound import cli, detmass, dynamics, harness, tensor

BALANCE_TOL = 1e-12   # max_interior_balance is normalized by incident weight
CONSERVE_TOL = 1e-9   # relative drift allowed in E and Q over a whole log
SEGMENT_WEIGHT = 1.0  # b of every augmentation segment


class CheckError(AssertionError):
    """A pass produced wrong output."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


@dataclass
class PassResult:
    work: int
    outputs: dict = field(default_factory=dict)


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _gas_config(n: int, N: int, a: float, fraction: float, seed: int,
                t_max: float) -> dict:
    """Config document of a Maxwell gas at a given covering fraction."""
    if n == 2:
        side = a * math.sqrt(math.pi * N / fraction)
    else:
        side = a * (4.0 * math.pi * N / (3.0 * fraction)) ** (1.0 / 3.0)
    return {
        "scenario": {"generator": "random_gas", "n": n, "N": N, "a": a,
                     "box": [side] * n, "seed": seed,
                     "velocities": {"kind": "maxwell", "sigma": 1.0}},
        "sim": {"t_max": t_max},
    }


def _run_cli(argv: list) -> dict:
    """cli.main with its stdout captured; returns the JSON it printed."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    if code != 0:
        raise CheckError(f"kinkbound {argv[0]} exited {code}: {buf.getvalue()[:300]}")
    return json.loads(buf.getvalue().splitlines()[-1])


def _read_log(path) -> tuple:
    """(initial velocities by id, event dicts) of an events.jsonl file."""
    lines = Path(path).read_text().splitlines()
    header, footer = json.loads(lines[0]), json.loads(lines[-1])
    events = [json.loads(line) for line in lines[1:-1]]
    _require(footer["events"] == len(events), "footer event count mismatch")
    velocities = {rec["id"]: np.array(rec["v"]) for rec in header["initial"]}
    return velocities, events


def _invariants(velocities) -> tuple:
    V = np.array(list(velocities))
    return len(V), 0.5 * float(np.sum(V * V)), V.sum(axis=0)


def check_conserved(initial: dict, events: list) -> None:
    """M, E and Q of the final state equal those of the initial state."""
    final = dict(initial)
    for ev in events:
        final[ev["i"]] = np.array(ev["vi_post"])
        final[ev["j"]] = np.array(ev["vj_post"])
    M0, E0, Q0 = _invariants(initial.values())
    M1, E1, Q1 = _invariants(final.values())
    _require(M0 == M1, f"mass changed: {M0} -> {M1}")
    _require(abs(E1 - E0) <= CONSERVE_TOL * E0, f"energy drift {E1 - E0!r}")
    scale = CONSERVE_TOL * math.sqrt(2.0 * E0 * M0)
    _require(float(np.max(np.abs(Q1 - Q0))) <= scale,
             f"momentum drift {(Q1 - Q0).tolist()}")


def check_audit(audit: dict, N: int) -> None:
    _require(audit["max_interior_balance"] <= BALANCE_TOL,
             f"interior balance {audit['max_interior_balance']!r}")
    _require(all(m == N for m in audit["trace_masses"]),
             f"trace masses {audit['trace_masses']} != {N}")


class Workload:
    """One benchmark workload; subclasses fill in the three steps."""

    name = ""
    work_unit = ""
    sizes: dict = {}        # "full" and "smoke" parameter sets

    def setup(self, seed: int, work_dir: Path, size: str):
        """Inputs and fixed artifacts for one run; returns the state."""
        raise NotImplementedError

    def reference(self, state) -> None:
        """One-off reference output the checks compare against."""

    def run_pass(self, state, tracer=None) -> PassResult:
        """One pass.  tracer is None in an end-to-end run, and a Tracer or
        NullTracer in the traced and untraced passes of a traced run."""
        raise NotImplementedError

    def check(self, state, result: PassResult) -> None:
        raise NotImplementedError

    @staticmethod
    def check_digest(state, digest: str) -> None:
        """The same file digest in every pass of a run."""
        if state.digest is None:
            state.digest = digest
        _require(digest == state.digest,
                 f"sha256 changed between passes: {digest} vs {state.digest}")


@dataclass
class CliState:
    config: Path
    out: Path
    N: int
    digest: str | None = None


class Gas2dPipeline(Workload):
    name = "gas2d_pipeline"
    work_unit = "collisions"
    sizes = {"full": {"N": 256}, "smoke": {"N": 24}}

    def setup(self, seed, work_dir, size):
        N = self.sizes[size]["N"]
        config = work_dir / "gas2d.json"
        config.write_text(json.dumps(_gas_config(2, N, 0.01, 0.3, seed, 1.0)))
        return CliState(config=config, out=work_dir / "gas2d_out", N=N)

    def run_pass(self, state, tracer=None):
        summary = _run_cli(["simulate", "--config", str(state.config),
                            "--out", str(state.out)])
        return PassResult(work=summary["events"])

    def check(self, state, result):
        events_path = state.out / "events.jsonl"
        initial, events = _read_log(events_path)
        _require(len(events) == result.work, "summary and log disagree on events")
        check_conserved(initial, events)
        check_audit(json.loads((state.out / "audit.json").read_text()), state.N)
        self.check_digest(state, sha256(events_path))


class Line1dDense(Workload):
    name = "line1d_dense"
    work_unit = "collisions"
    sizes = {"full": {"p": 50}, "smoke": {"p": 5}}

    def setup(self, seed, work_dir, size):
        p = self.sizes[size]["p"]
        config = work_dir / "line1d.json"
        config.write_text(json.dumps(
            {"scenario": {"generator": "line_1d", "p": p}}))
        return CliState(config=config, out=work_dir / "line1d_out", N=2 * p)

    def run_pass(self, state, tracer=None):
        summary = _run_cli(["simulate", "--config", str(state.config),
                            "--out", str(state.out)])
        audit = _run_cli(["verify-tensor", "--events",
                          str(state.out / "events.jsonl")])
        return PassResult(work=summary["events"], outputs={"audit": audit})

    def check(self, state, result):
        p = state.N // 2
        events_path = state.out / "events.jsonl"
        _, events = _read_log(events_path)
        _require(result.work == p * p == len(events),
                 f"{len(events)} collisions, expected p^2 = {p * p}")
        for ev in events:
            for v, vp in ((ev["vi"], ev["vi_post"]), (ev["vj"], ev["vj_post"])):
                _require(abs(vp[0] - v[0]) == 2.0, f"kink |dv| != 2 at t={ev['t']}")
        written = json.loads((state.out / "audit.json").read_text())
        _require(written == result.outputs["audit"],
                 "verify-tensor on the written log disagrees with audit.json")
        check_audit(written, state.N)
        self.check_digest(state, sha256(events_path))


@dataclass
class AugmentState:
    events: Path
    window: tuple
    N: int
    n: int
    kinks: int
    digest: str


class TensorAugment(Workload):
    name = "tensor_augment"
    work_unit = "kink sites"
    sizes = {"full": {"N": 64, "collisions": 96},
             "smoke": {"N": 16, "collisions": 6}}

    def setup(self, seed, work_dir, size):
        N, cut = self.sizes[size]["N"], self.sizes[size]["collisions"]
        doc = _gas_config(2, N, 0.01, 0.3, seed, 1.0)["scenario"]
        scenario = harness.gen_random_gas(
            n=2, N=N, box=doc["box"], a=doc["a"],
            velocity_dist=doc["velocities"], seed=seed)
        log = harness.simulate_scenario(scenario)
        path = work_dir / "augment_events.jsonl"
        dynamics.write_events_jsonl(log, path)
        # the window ends midway between collision `cut` and the next one
        times = [ev.t for ev in log.events]
        C = min(cut, len(times))
        last = times[C - 1] if C else 0.0
        hi = 0.5 * (last + times[C]) if C < len(times) else last + 0.05 * (last + 1.0)
        window = (-0.05 * (last + 1.0), hi)
        return AugmentState(events=path, window=window, N=N, n=2,
                            kinks=2 * C, digest=sha256(path))

    def run_pass(self, state, tracer=None):
        log = dynamics.read_events_jsonl(state.events)
        T = tensor.build_tensor(log, state.window)
        A = tensor.build_augmented(T, b=SEGMENT_WEIGHT)
        audit = tensor.audit_tensor(A)
        masses = [detmass.dm_kink(np.concatenate(([1.0], k.v)),
                                  np.concatenate(([1.0], k.v_post)), SEGMENT_WEIGHT)
                  for k in A.kinks]
        return PassResult(work=len(A.kinks), outputs={
            "audit": audit, "div_mass": A.div_mass, "masses": masses})

    def check(self, state, result):
        K = result.work
        _require(K == state.kinks, f"{K} kinks in the window, expected {state.kinks}")
        expected = 2.0 * (state.n - 1) * K * SEGMENT_WEIGHT
        _require(result.outputs["div_mass"] == expected == result.outputs["audit"]["div_mass"],
                 f"div_mass {result.outputs['div_mass']!r} != 2(n-1)Kb = {expected}")
        check_audit(result.outputs["audit"], state.N)
        _require(all(math.isfinite(m) and m > 0.0 for m in result.outputs["masses"]),
                 "dm_kink not finite and positive at every kink")
        _require(sha256(state.events) == state.digest, "the fixed log changed")


@dataclass
class SweepState:
    spec: object
    workers: int
    out: Path
    rows: list | None = None
    digest: str | None = None


class Sweep3d(Workload):
    name = "sweep3d"
    work_unit = "collisions"
    sizes = {"full": {"sizes": [64, 128, 256], "seeds": 4},
             "smoke": {"sizes": [8, 16], "seeds": 2}}

    @staticmethod
    def workers() -> int:
        return min(2, len(os.sched_getaffinity(0)))

    def setup(self, seed, work_dir, size):
        p = self.sizes[size]
        spec = harness.SweepSpec(
            sizes=p["sizes"],
            seeds=[p["seeds"] * seed + k for k in range(p["seeds"])],
            base={"generator": "random_gas", "n": 3, "a": 0.01,
                  "box_policy": {"kind": "fixed_fraction", "value": 0.2}},
            epsilon=1.0, t_max=1.0)
        return SweepState(spec=spec, workers=self.workers(), out=work_dir / "sweep_out")

    def reference(self, state):
        """Serial rows of the same grid, with M, E, Q checked on every log."""
        simulate = harness.simulate_scenario

        def simulate_checked(scenario):
            log = simulate(scenario)
            check_conserved({s.id: s.velocity for s in log.initial},
                            [{"i": ev.i, "j": ev.j, "vi_post": ev.vi_post,
                              "vj_post": ev.vj_post} for ev in log.events])
            return log

        harness.simulate_scenario = simulate_checked
        try:
            state.rows = harness.sweep(state.spec, workers=1).rows
        finally:
            harness.simulate_scenario = simulate

    def run_pass(self, state, tracer=None):
        serial = None
        if tracer is not None:
            # traced runs add a serial sweep in-process, so that the trace
            # sees each task and its layers
            with tracer.wrapping(harness, "_sweep_run", "harness.sweep_task"):
                serial = harness.sweep(state.spec, workers=1).rows
        result = harness.sweep(state.spec, out_dir=state.out, workers=state.workers)
        return PassResult(work=sum(r["events"] for r in result.rows),
                          outputs={"rows": result.rows, "serial": serial})

    def check(self, state, result):
        for rows in (result.outputs["rows"], result.outputs["serial"]):
            if rows is not None:
                _require(rows == state.rows, "sweep rows differ from the serial run")
        self.check_digest(state, sha256(state.out / "ratios.csv"))


WORKLOADS = {w.name: w for w in (Gas2dPipeline(), Line1dDense(),
                                 TensorAugment(), Sweep3d())}
