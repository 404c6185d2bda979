"""Command-line front end.

Exit codes: 0 success, 2 invalid input (config, packing, CLI usage),
3 genericity violation (simultaneous multi-body contact), 4 internal
simulation guard tripped.  Failures print one machine-readable JSON
object to stdout.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import _jsonio
from ._jsonio import read_int, read_list, read_number, read_object
from .dynamics import (ConfigurationError, GenericityViolation, SimulationBug,
                       check_range, read_events_jsonl)
from .detmass import measure_from_dict, measure_report
from .harness import (PackingError, SweepSpec, _audit_window, apply_time_scale,
                      run_experiment, scenario_from_config, simulate_scenario,
                      sweep)
from .kernel import norms
from .tensor import audit_tensor, build_tensor

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_GENERICITY = 3
EXIT_BUG = 4


def _load_json(path: str) -> dict:
    with open(path) as fh:
        return read_object(json.load(fh), path)


def _emit(doc: dict) -> None:
    print(_jsonio.dumps(doc))


def _cmd_simulate(args) -> int:
    summary = run_experiment(_load_json(args.config), args.out)
    _emit(summary)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    doc = _load_json(args.spec)
    t_max = doc.get("t_max")
    spec = SweepSpec(
        sizes=read_list(doc["sizes"], "sizes", read_int),
        seeds=read_list(doc.get("seeds", [0]), "seeds", read_int),
        base=read_object(doc.get("base", {}), "base"),
        epsilon=read_number(doc.get("epsilon", 1.0), "epsilon"),
        t_max=None if t_max is None else read_number(t_max, "t_max"),
    )
    result = sweep(spec, out_dir=args.out)
    _emit({"rows": len(result.rows),
           "medians": {str(k): v for k, v in result.medians.items()},
           "ratios_csv": str(args.out) + "/ratios.csv"})
    return EXIT_OK


def _cmd_detmass(args) -> int:
    mu = measure_from_dict(_load_json(args.measure))
    _emit(measure_report(mu))
    return EXIT_OK


def _cmd_verify_tensor(args) -> int:
    log = read_events_jsonl(args.events)
    if args.window is not None:
        lo, hi = (float(x) for x in args.window.split(","))
        window = (lo, hi)
        check_range(window, "window")
    else:
        window = _audit_window(log)
    audit = audit_tensor(build_tensor(log, window))
    _emit(audit)
    return EXIT_OK


def _cmd_scale_check(args) -> int:
    """Simulate a config and its time-scaled sibling; report the worst
    relative mismatch of event times (x 1/mu) and jump sizes (x mu)."""
    mu = float(args.mu)
    scenario, _ = scenario_from_config(_load_json(args.config))
    b = simulate_scenario(scenario).events
    s = simulate_scenario(apply_time_scale(scenario, mu)).events
    if len(b) != len(s):
        _emit({"ok": False, "error": "event_count_mismatch",
               "base_events": len(b), "scaled_events": len(s)})
        return EXIT_INVALID
    mismatch = (b.i != s.i) | (b.j != s.j)
    if mismatch.any():
        _emit({"ok": False, "error": "partner_mismatch",
               "t": float(b.t[np.argmax(mismatch)])})
        return EXIT_INVALID
    expect_t = b.t / mu
    rel_t = np.abs(s.t - expect_t) / np.maximum(1.0, np.abs(expect_t))
    worst_t = float(np.max(rel_t, initial=0.0))
    # particle i's jump of each event
    dv_b = norms(b.v_post[:, 0] - b.v[:, 0])
    dv_s = norms(s.v_post[:, 0] - s.v[:, 0])
    jumped = dv_b > 0
    dv_b, dv_s = dv_b[jumped], dv_s[jumped]
    worst_dv = float(np.max(np.abs(dv_s - mu * dv_b) / (mu * dv_b), initial=0.0))
    ok = worst_t <= 1e-10 and worst_dv <= 1e-10
    _emit({"ok": ok, "events": len(b), "mu": mu,
           "max_rel_time_err": worst_t, "max_rel_dv_err": worst_dv})
    return EXIT_OK if ok else EXIT_INVALID


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 2 like any invalid input
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="kinkbound",
        description="Event-driven hard-sphere dynamics and its verification suite",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run one scenario, write artifacts")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("sweep", help="run a (size x seed) grid, write ratios.csv")
    p.add_argument("--spec", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("detmass", help="determinantal mass of an angular measure")
    p.add_argument("--measure", required=True)
    p.set_defaults(func=_cmd_detmass)

    p = sub.add_parser("verify-tensor", help="audit the graph tensor of a log")
    p.add_argument("--events", required=True)
    p.add_argument("--window", default=None, metavar="T0,T1")
    p.set_defaults(func=_cmd_verify_tensor)

    p = sub.add_parser("scale-check", help="verify time-scaling covariance")
    p.add_argument("--config", required=True)
    p.add_argument("--mu", required=True)
    p.set_defaults(func=_cmd_scale_check)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except ConfigurationError as exc:
        _emit({"error": exc.reason, "detail": str(exc)})
        return EXIT_INVALID
    except GenericityViolation as exc:
        _emit({"error": "genericity", "time": exc.time,
               "particles": list(exc.particles)})
        return EXIT_GENERICITY
    except SimulationBug as exc:
        _emit({"error": "simulation_bug", "detail": str(exc)})
        return EXIT_BUG
    except PackingError as exc:
        _emit({"error": "packing", "detail": str(exc)})
        return EXIT_INVALID
    except MemoryError as exc:  # sizes within check_size that still do not fit
        _emit({"error": "memory", "detail": str(exc)})
        return EXIT_INVALID
    except (ValueError, KeyError, OSError) as exc:
        _emit({"error": "invalid_input", "detail": str(exc)})
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
