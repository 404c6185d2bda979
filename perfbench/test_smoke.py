"""Self-test of the benchmark on tiny inputs.

    python3 -m pytest -q perfbench/test_smoke.py

Every workload run.py knows (BENCHMARK.json lists all but gas2d_pipeline)
runs once untraced and once traced with --smoke; each run must be correct
and emit exactly the metrics BENCHMARK.json names, with their units.  A
broken output check must count as a failed pass.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(HERE))
import run  # noqa: E402

WORKLOADS = run.WORKLOAD_NAMES


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, cwd=ROOT, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_broken_check_counts_as_failed(tmp_path, monkeypatch):
    run.import_program()
    import workloads

    workload = workloads.WORKLOADS["line1d_dense"]
    state = workload.setup(0, tmp_path, "smoke")

    def broken(state, result):
        raise workloads.CheckError("deliberately broken check")

    monkeypatch.setattr(workload, "check", broken)
    outcome = run.measure(workload, state, seconds=0.2)
    assert outcome["attempted"] >= 3
    assert outcome["failed"] == outcome["attempted"]
    assert outcome["untraced"] == []
