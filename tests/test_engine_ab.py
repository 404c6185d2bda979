"""benchmarks/engine_ab.py: a smoke run with this tree on both sides, and
its bit-identity check."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import kinkbound as kb
from kinkbound import dynamics

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "benchmarks" / "engine_ab.py"


def test_engine_ab_smoke_run_on_tiny_scenes():
    out = subprocess.run(
        [sys.executable, str(SCRIPT), "--parent", str(ROOT), "--tiny",
         "--rounds", "2"],
        capture_output=True, text=True, check=True, timeout=600).stdout
    rows = [json.loads(line) for line in out.splitlines()]
    assert [r["set"] for r in rows] == ["line1d_p5", "rows2d_p3", "gas3d_n16",
                                       "sweep3d"]
    assert [r["scenes"] for r in rows] == [1, 1, 1, 4]
    for r in rows:
        assert r["rounds"] == 2 and 0 <= r["change_faster"] <= 2
        for key in ("parent_s", "change_s", "ratio"):
            q = r[key]
            assert 0 < q["q1"] <= q["median"] <= q["q3"]


def test_engine_ab_tells_event_blocks_apart_by_one_bit():
    spec = importlib.util.spec_from_file_location("engine_ab", SCRIPT)
    engine_ab = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(engine_ab)
    sc = kb.gen_line_1d(3)
    block, end = dynamics._Engine(sc.states, sc.config).run()
    again = dynamics._Engine(sc.states, sc.config).run()
    engine_ab.assert_same("line", [(block, end)], [again])
    block.y[-1, 0, 0] = np.nextafter(block.y[-1, 0, 0], np.inf)
    with pytest.raises(AssertionError):
        engine_ab.assert_same("line", [(block, end)], [again])
