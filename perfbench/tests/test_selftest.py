"""Tiny-size self-test of the benchmark.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/tests

It checks that every metric BENCHMARK.json names is produced with its
unit, that a wrong expected value injected into a check is counted as a
failure, and that the benchmark refuses to run without the sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = 0.05
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]


def _tiny(workload: str, trace: int) -> dict:
    return run.run(workload, seed=3, seconds=0, trace=trace, scale=TINY)


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_end_to_end_metrics_present_with_units(workload):
    result = _tiny(workload, 0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", ["int_kernel", "exact_domains"])
def test_per_layer_metrics_present_with_units(workload):
    result = _tiny(workload, 1)
    assert result["correct"], "trace sanity checks or op checks failed"
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want
    counts = [result["metrics"][c]["value"] for c in (
        "exactnum.quad_new", "exactnum.poly_new", "exactnum.squarefree_calls")]
    if workload == "int_kernel":
        assert counts == [0, 0, 0]
    else:
        assert all(c > 0 for c in counts)


def test_injected_wrong_double_sum_is_a_failure(monkeypatch):
    honest = workloads.double_sum
    monkeypatch.setattr(workloads, "double_sum", lambda a, r, n: honest(a, r, n) + 1)
    result = _tiny("int_kernel", 0)
    assert not result["correct"]
    assert result["failed"] > 0


def test_injected_wrong_golden_bytes_are_a_failure(monkeypatch, tmp_path):
    wrong = tmp_path / "table2_segments.csv"
    wrong.write_bytes(workloads.GOLDEN_SEGMENTS.read_bytes().replace(b"2584", b"2585"))
    monkeypatch.setattr(workloads, "GOLDEN_SEGMENTS", wrong)
    result = _tiny("cli_calls", 0)
    assert not result["correct"]
    assert result["failed"] == 1


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "int_kernel", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
