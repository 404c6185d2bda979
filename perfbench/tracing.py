"""Spans and counters recorded around calls into kinkbound's layers.

The tracer replaces module-level names with wrappers for the length of one
traced pass.  A wrapper only sees calls made through the name it replaced,
so each entry of LAYER_WRAPS names the module whose code makes the call
(``harness.build_ledger`` is the name ``run_experiment`` looks up, not
``ledger.build_ledger``).  No file of the program changes.

A span is ``[name, start, end, parent]``; parent indexes the enclosing span
or is -1 at top level.  Spans stay in memory until the pass ends.
"""

from __future__ import annotations

import contextlib
import heapq
import os
import statistics
import types
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

from kinkbound import _jsonio, cli, detmass, dynamics, harness, ledger, tensor


def _count_simulate(counts, args, kwargs, log):
    counts["dynamics.collisions"] += len(log.events)


def _count_scan(counts, args, kwargs, result):
    js, out = args[4], args[7]
    counts["kernel.calls"] += 1
    counts["kernel.pairs"] += len(js)
    counts["kernel.hits"] += int(np.count_nonzero(np.isfinite(out)))


def _count_build(counts, args, kwargs, T):
    counts["tensor.edges"] += len(T.edges)
    counts["tensor.kinks"] += len(T.kinks)


def _count_balances(counts, args, kwargs, balances):
    counts["tensor.vertices"] += len(balances)


def _count_dm_kink(counts, args, kwargs, result):
    counts["detmass.calls"] += 1


def _count_written(counts, args, kwargs, result):
    counts["jsonio.bytes"] += os.path.getsize(args[1])


def _count_read(counts, args, kwargs, result):
    counts["jsonio.bytes"] += os.path.getsize(args[0])


def _count_dumps(counts, args, kwargs, text):
    counts["jsonio.bytes"] += len(text)


def _count_sweep(counts, args, kwargs, result):
    workers = kwargs.get("workers") or 1
    counts["harness.sweep.workers"] = max(counts["harness.sweep.workers"], workers)


# (owner, attribute, span name, count hook).  harness and cli reach _jsonio
# through a per-module shim (see Tracer.install) so that the recursive calls
# inside _jsonio.dumps stay unwrapped.
LAYER_WRAPS = [
    (cli, "main", "cli", None),
    (cli, "run_experiment", "harness.run_experiment", None),
    (harness, "scenario_from_config", "harness.config", None),
    (harness, "gen_random_gas", "harness.gen", None),
    (harness, "gen_line_1d", "harness.gen", None),
    (harness, "sweep", "harness.sweep", _count_sweep),
    (harness, "run_simulation", "dynamics.simulate", _count_simulate),
    (dynamics, "validate_configuration", "dynamics.validate", None),
    (dynamics, "contact_times_scan", "kernel.scan", _count_scan),
    (harness, "write_events_jsonl", "jsonio.write", _count_written),
    (cli, "read_events_jsonl", "jsonio.read", _count_read),
    (dynamics, "read_events_jsonl", "jsonio.read", _count_read),
    (harness, "build_ledger", "ledger.build", None),
    (ledger, "build_ledger", "ledger.build", None),
    (harness, "write_ledger_csv", "ledger.csv", None),
    (harness, "build_report", "ledger.report", None),
    (harness, "bound_report", "ledger.bound", None),
    (ledger, "bound_report", "ledger.bound", None),
    (harness, "build_tensor", "tensor.build", _count_build),
    (cli, "build_tensor", "tensor.build", _count_build),
    (tensor, "build_tensor", "tensor.build", _count_build),
    (harness, "audit_tensor", "tensor.audit", None),
    (cli, "audit_tensor", "tensor.audit", None),
    (tensor, "audit_tensor", "tensor.audit", None),
    (tensor, "vertex_balances", "tensor.vertex_balances", _count_balances),
    (tensor, "slice_trace", "tensor.slice_trace", None),
    (tensor, "build_augmented", "tensor.augment", None),
    (detmass, "dm_kink", "detmass.dm_kink", _count_dm_kink),
]

# name -> unit of every per-layer metric, in report order
PER_LAYER_UNITS = {
    "harness.gen_s": "s",
    "harness.sweep.serial_s": "s",
    "harness.sweep.parallel_eff": "ratio",
    "harness.sweep.task_imbalance": "ratio",
    "dynamics.validate_s": "s",
    "dynamics.simulate_s": "s",
    "dynamics.collisions": "count",
    "dynamics.heap_pushes": "count",
    "dynamics.heap_pops": "count",
    "dynamics.pop_yield": "ratio",
    "kernel.calls": "count",
    "kernel.pairs": "count",
    "kernel.pairs_per_call": "count",
    "kernel.busy_s": "s",
    "kernel.hit_frac": "ratio",
    "ledger.build_s": "s",
    "ledger.report_s": "s",
    "ledger.csv_s": "s",
    "ledger.bound_s": "s",
    "tensor.build_s": "s",
    "tensor.edges": "count",
    "tensor.kinks": "count",
    "tensor.vertex_balances_s": "s",
    "tensor.vertices": "count",
    "tensor.slice_trace_s": "s",
    "tensor.audit_s": "s",
    "tensor.augment_s": "s",
    "detmass.calls": "count",
    "detmass.dm_kink_s": "s",
    "jsonio.write_s": "s",
    "jsonio.read_s": "s",
    "jsonio.bytes": "B",
    "cli.self_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.coverage_frac": "ratio",
}


class Tracer:
    """Records spans and counts while installed; see the module docstring."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list = []
        self._patches: list = []

    def reset(self) -> None:
        self.spans = []
        self.counts = Counter()
        self._stack = []

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Replace owner.attr with a wrapper that records one span per call."""
        fn = getattr(owner, attr)

        def traced(*args, **kwargs):
            spans, stack = self.spans, self._stack
            idx = len(spans)
            spans.append([name, perf_counter(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = perf_counter()
            if count is not None:
                count(self.counts, args, kwargs, result)
            return result

        self._patch(owner, attr, traced)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        for owner in (harness, cli):
            self._patch(owner, "_jsonio", types.SimpleNamespace(dumps=_jsonio.dumps))
            self.wrap(owner._jsonio, "dumps", "jsonio.dumps", _count_dumps)
        for owner, attr, name, count in LAYER_WRAPS:
            self.wrap(owner, attr, name, count)
        self._patch(dynamics, "heapq", self._counting_heapq())

    def uninstall(self) -> None:
        self._restore_to(0)

    @contextlib.contextmanager
    def wrapping(self, owner, attr: str, name: str):
        """Wrap owner.attr for the length of the with block only."""
        mark = len(self._patches)
        self.wrap(owner, attr, name)
        try:
            yield
        finally:
            self._restore_to(mark)

    def _restore_to(self, mark: int) -> None:
        while len(self._patches) > mark:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _counting_heapq(self):
        push, pop = heapq.heappush, heapq.heappop

        def heappush(heap, item):
            self.counts["dynamics.heap_pushes"] += 1
            push(heap, item)

        def heappop(heap):
            self.counts["dynamics.heap_pops"] += 1
            return pop(heap)

        return types.SimpleNamespace(heappush=heappush, heappop=heappop)


class NullTracer:
    """Stands in for Tracer in the untraced passes of a traced run, so that
    they do the same work as the traced ones."""

    def wrapping(self, owner, attr: str, name: str):
        return contextlib.nullcontext()


def span_times(spans: list) -> tuple:
    """(inclusive seconds by name, self seconds by name, top-level seconds).

    A span nested directly in a span of the same name is not counted again
    in the inclusive total.
    """
    child = [0.0] * len(spans)
    inclusive: dict = defaultdict(float)
    top = 0.0
    for name, start, end, parent in spans:
        dur = end - start
        if parent < 0:
            top += dur
        else:
            child[parent] += dur
        if parent < 0 or spans[parent][0] != name:
            inclusive[name] += dur
    self_time: dict = defaultdict(float)
    for (name, start, end, _), inner in zip(spans, child):
        self_time[name] += end - start - inner
    return inclusive, self_time, top


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list, counts: Counter, wall: float) -> dict:
    """Per-layer values of one traced pass (trace.overhead_frac excluded).

    A layer the pass never calls reads 0.  The sweep metrics assume the
    pass ran a serial sweep and then a parallel one, in that order.
    """
    incl, self_time, top = span_times(spans)
    sweeps = [end - start for name, start, end, _ in spans if name == "harness.sweep"]
    tasks = [end - start for name, start, end, _ in spans
             if name == "harness.sweep_task"]
    serial = sweeps[0] if len(sweeps) >= 2 else 0.0
    parallel = sweeps[-1] if len(sweeps) >= 2 else 0.0
    workers = counts["harness.sweep.workers"]
    return {
        "harness.gen_s": incl["harness.gen"],
        "harness.sweep.serial_s": serial,
        "harness.sweep.parallel_eff": _ratio(serial, workers * parallel),
        "harness.sweep.task_imbalance": (
            _ratio(max(tasks), statistics.fmean(tasks)) if tasks else 0.0),
        "dynamics.validate_s": incl["dynamics.validate"],
        "dynamics.simulate_s": incl["dynamics.simulate"],
        "dynamics.collisions": counts["dynamics.collisions"],
        "dynamics.heap_pushes": counts["dynamics.heap_pushes"],
        "dynamics.heap_pops": counts["dynamics.heap_pops"],
        "dynamics.pop_yield": _ratio(counts["dynamics.collisions"],
                                     counts["dynamics.heap_pops"]),
        "kernel.calls": counts["kernel.calls"],
        "kernel.pairs": counts["kernel.pairs"],
        "kernel.pairs_per_call": _ratio(counts["kernel.pairs"], counts["kernel.calls"]),
        "kernel.busy_s": incl["kernel.scan"],
        "kernel.hit_frac": _ratio(counts["kernel.hits"], counts["kernel.pairs"]),
        "ledger.build_s": incl["ledger.build"],
        "ledger.report_s": incl["ledger.report"],
        "ledger.csv_s": incl["ledger.csv"],
        "ledger.bound_s": incl["ledger.bound"],
        "tensor.build_s": incl["tensor.build"],
        "tensor.edges": counts["tensor.edges"],
        "tensor.kinks": counts["tensor.kinks"],
        "tensor.vertex_balances_s": incl["tensor.vertex_balances"],
        "tensor.vertices": counts["tensor.vertices"],
        "tensor.slice_trace_s": incl["tensor.slice_trace"],
        "tensor.audit_s": incl["tensor.audit"],
        "tensor.augment_s": incl["tensor.augment"],
        "detmass.calls": counts["detmass.calls"],
        "detmass.dm_kink_s": incl["detmass.dm_kink"],
        "jsonio.write_s": incl["jsonio.write"] + incl["jsonio.dumps"],
        "jsonio.read_s": incl["jsonio.read"],
        "jsonio.bytes": counts["jsonio.bytes"],
        "cli.self_s": self_time["cli"],
        "trace.coverage_frac": _ratio(top, wall),
    }
