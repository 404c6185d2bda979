#!/usr/bin/env python3
"""Layered benchmark of kinkbound.

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the program is imported from
``src/``.  Without --workload, every workload runs in turn, each in a
process of its own; the seed defaults to 12 and the measuring time to
run_seconds of BENCHMARK.json.  One run of a workload imports the program
and sets the workload up three times (set-up time is the import time plus
the median set-up), then repeats passes for S seconds and checks the
outputs of every pass.  With ``--trace 0`` it reports the
end-to-end metrics; with ``--trace 1`` it alternates untraced and traced
passes and reports the per-layer metrics of the traced ones.  Metric names,
units and bounds are in BENCHMARK.json.  Every metric is printed as
``name = value unit``; the last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  A record of the run
(environment, pass times, hashes; spans of the last traced pass) is
written under ``.bench_out/``.

``--smoke`` runs the same code on tiny inputs (see test_smoke.py).
"""

from __future__ import annotations

import os

# one thread per process for BLAS/OpenMP, so they do not fight the sweep
# workers; set before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 3
WORKLOAD_NAMES = ("gas2d_pipeline", "line1d_dense", "tensor_augment", "sweep3d")
END_TO_END_UNITS = {"wall_s": "s", "work_per_s": "1/s", "setup_s": "s",
                    "peak_rss_mb": "MB"}


def import_program() -> float:
    """Import kinkbound from src/ and the modules it loads lazily; returns
    the seconds taken.  Exits non-zero when the sources are missing."""
    if not (SRC / "kinkbound" / "__init__.py").is_file():
        sys.exit(f"perfbench: no kinkbound sources under {SRC}")
    sys.path.insert(0, str(SRC))
    start = perf_counter()
    import kinkbound
    import scipy.spatial  # noqa: F401  (audit_tensor imports it on first use)
    elapsed = perf_counter() - start
    if Path(kinkbound.__file__).resolve().parent != SRC / "kinkbound":
        sys.exit(f"perfbench: imported kinkbound from {kinkbound.__file__}, not {SRC}")
    return elapsed


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment() -> dict:
    """What a result depends on besides the code; results whose
    kernel_backend differs are not comparable (see compare.py)."""
    import numpy
    import scipy

    import kinkbound
    return {
        "kernel_backend": kinkbound.kernel_backend,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "kinkbound_env": {k: v for k, v in sorted(os.environ.items())
                          if k.startswith("KINKBOUND_")},
    }


def _quartiles(values: list) -> list:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def run_setup(workload, seed: int, work_dir: Path, size: str) -> tuple:
    """Set up SETUP_REPEATS times, each after a warm-up pass on the smoke
    inputs that pays one-time costs (first process pool, first use of each
    code path); returns (state of the last set-up, their times)."""
    times = []
    state = None
    for k in range(SETUP_REPEATS):
        start = perf_counter()
        warm_dir = work_dir / f"warm{k}"
        warm_dir.mkdir()
        warm = workload.setup(seed, warm_dir, "smoke")
        workload.reference(warm)
        workload.check(warm, workload.run_pass(warm))
        state = workload.setup(seed, work_dir, size)
        times.append(perf_counter() - start)
    return state, times


def measure(workload, state, seconds: float, tracer=None) -> dict:
    """Repeat passes for `seconds`, checking each; with a tracer, alternate
    untraced and traced passes.  A pass that raises or fails its check
    counts as failed and the run goes on."""
    from tracing import NullTracer, layer_metrics

    untraced, traced, layers = [], [], []
    attempted = failed = 0
    spans = None
    deadline = perf_counter() + seconds
    while True:
        is_traced = tracer is not None and attempted % 2 == 1
        pass_tracer = None
        if tracer is not None:
            pass_tracer = tracer if is_traced else NullTracer()
        attempted += 1
        try:
            if is_traced:
                tracer.reset()
                tracer.install()
            start = perf_counter()
            try:
                result = workload.run_pass(state, pass_tracer)
            finally:
                wall = perf_counter() - start
                if is_traced:
                    tracer.uninstall()
            workload.check(state, result)
        except Exception as exc:  # noqa: BLE001 -- a failed pass is a measured outcome
            failed += 1
            print(f"pass {attempted} failed: {exc!r}", file=sys.stderr)
        else:
            (traced if is_traced else untraced).append((wall, result.work))
            if is_traced:
                layers.append(layer_metrics(tracer.spans, tracer.counts, wall))
                spans = tracer.spans
        enough = len(untraced) >= 3 and (tracer is None or len(traced) >= 2)
        if perf_counter() >= deadline and (enough or attempted >= 20):
            break
    return {"untraced": untraced, "traced": traced, "layers": layers,
            "attempted": attempted, "failed": failed, "spans": spans}


def _peak_rss_mb(with_children: bool) -> float:
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


def _median_or_zero(values: list) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(run: dict, setup_s: float, with_children: bool) -> dict:
    walls = [w for w, _ in run["untraced"]]
    return {
        "wall_s": _median_or_zero(walls),
        "work_per_s": _median_or_zero([n / w for w, n in run["untraced"]]),
        "setup_s": setup_s,
        "peak_rss_mb": _peak_rss_mb(with_children),
    }


def per_layer(run: dict) -> dict:
    from tracing import PER_LAYER_UNITS

    layers = run["layers"]
    out = {name: statistics.median_low([m[name] for m in layers]) if layers else 0.0
           for name in PER_LAYER_UNITS if name != "trace.overhead_frac"}
    plain = _median_or_zero([w for w, _ in run["untraced"]])
    busy = _median_or_zero([w for w, _ in run["traced"]])
    out["trace.overhead_frac"] = (busy - plain) / plain if plain else 0.0
    return out


def run_all(args) -> int:
    """Every workload in a process of its own, one after the other; the
    last line sums their results."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd + (["--smoke"] if args.smoke else []),
                              stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {name: r["metrics"] for name, r in results.items()},
    }))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=("all",) + WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=12)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time per workload (default: run_seconds "
                         "of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs, for the benchmark's self-test")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if args.seconds is None:
        args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    if args.workload == "all":
        return run_all(args)

    import_s = import_program()
    from tracing import PER_LAYER_UNITS, Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    size = "smoke" if args.smoke else "full"
    work_dir = OUT / f"work-{os.getpid()}"
    work_dir.mkdir(parents=True)
    os.environ["TMPDIR"] = str(work_dir)
    try:
        state, setups = run_setup(workload, args.seed, work_dir, size)
        start = perf_counter()
        workload.reference(state)
        reference_s = perf_counter() - start
        run = measure(workload, state, args.seconds,
                      Tracer() if args.trace else None)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    setup_s = import_s + statistics.median(setups)
    if args.trace:
        metrics, units = per_layer(run), PER_LAYER_UNITS
    else:
        metrics = end_to_end(run, setup_s, with_children=args.workload == "sweep3d")
        units = END_TO_END_UNITS
    walls = [w for w, _ in run["untraced"]]
    env = environment()
    digest = getattr(state, "digest", None)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(walls)} untraced passes, wall quartiles "
          f"{[round(q, 4) for q in _quartiles(walls)] if walls else []} s; "
          f"work {run['untraced'][0][1] if walls else 0} {workload.work_unit} per pass")
    print(f"setup: import {import_s:.4f} s + median of set-ups "
          f"{[round(x, 4) for x in setups]} s; reference {reference_s:.4f} s")
    print(f"sha256 {digest}")
    print("env " + json.dumps(env, sort_keys=True))
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    error_rate = run["failed"] / run["attempted"]
    print(f"error_rate = {error_rate:.6g} ratio")

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "smoke": args.smoke, "env": env, "sha256": digest,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "error_rate": error_rate, "import_s": import_s, "setups_s": setups,
        "reference_s": reference_s, "untraced": run["untraced"],
        "traced": run["traced"],
    }
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    Path(f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if run["spans"] is not None:
        Path(f"{stem}-spans.json").write_text(json.dumps(run["spans"]) + "\n")

    print(json.dumps({
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
