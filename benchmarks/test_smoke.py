"""Smoke test of the benchmark itself; it never gates on a timing.

Run from the repository root:

    python3 -m pytest benchmarks/test_smoke.py

Every workload runs in the seconds-long ``--smoke`` mode; the test checks
the result line's schema and that the metric names and units are exactly
the ones BENCHMARK.json declares.
"""
from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import REFERENCE_RTOL, _diff  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def run_benchmark(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "benchmarks", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_result(result: dict, declared: list) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    for metric in result["metrics"].values():
        assert set(metric) == {"value", "unit"}
        assert isinstance(metric["value"], float) and math.isfinite(metric["value"])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_end_to_end_metrics(workload):
    proc = run_benchmark("--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "0", "--smoke")
    check_result(result_of(proc), SPEC["end_to_end"])


def test_traced_run_reports_every_layer_metric():
    proc = run_benchmark("--workload", "simulate", "--seconds", "1", "--trace", "1", "--smoke")
    result = result_of(proc)
    check_result(result, SPEC["per_layer"])
    for name in ("ds_solver.fft_calls_per_step", "ds_solver.fft_calls_per_sample", "blocks.support_points"):
        value = result["metrics"][name]["value"]
        assert value > 0 and value.is_integer()


def test_refuses_without_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("results", ".work", "__pycache__")
    )
    proc = run_benchmark("--workload", "simulate", "--seconds", "1", "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_reference_comparison_allows_roundoff_only():
    want = {"files": {"x.csv": [["t", "mass"], [[0.0, 1.25], [0.5, 3.0]]]}}
    roundoff = {"files": {"x.csv": [["t", "mass"], [[0.0, 1.25 * (1 + 1e-13)], [0.5, 3.0]]]}}
    changed = {"files": {"x.csv": [["t", "mass"], [[0.0, 1.25 * (1 + 100 * REFERENCE_RTOL)], [0.5, 3.0]]]}}
    assert _diff(want, roundoff, "ref") == []
    assert len(_diff(want, changed, "ref")) == 1
