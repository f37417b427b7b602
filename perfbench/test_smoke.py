"""Smoke test of the benchmark itself, at a tiny size.

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import run

ROOT = Path(run.__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = sorted(run.WORKLOADS)


def names(section: str) -> set[str]:
    return {m["name"] for m in SPEC[section]}


def test_spec_lists_what_the_benchmark_reports():
    assert {w["name"] for w in SPEC["workloads"]} == set(WORKLOADS)
    assert names("end_to_end") == {name for name, _unit in run.END_TO_END}
    assert names("per_layer") == {
        f"{name}.{v}" for name, _unit, _better, _exact in run.PER_LAYER for v in run.VARIANTS
    }


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_all_present_and_correct(workload):
    result, _notes = run.run_benchmark(workload, seed=3, seconds=0.6, trace=False, scale="tiny")
    assert result["correct"]
    assert result["attempted"] > 0
    assert result["failed"] / result["attempted"] == 0  # failed_frac
    assert set(result["metrics"]) == names("end_to_end")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_for_a_seed(workload):
    first, _ = run.run_benchmark(workload, seed=3, seconds=0.1, trace=True, scale="tiny")
    second, _ = run.run_benchmark(workload, seed=3, seconds=0.1, trace=True, scale="tiny")
    for result in (first, second):
        assert result["correct"]
        assert result["failed"] == 0
        assert set(result["metrics"]) == names("per_layer")
    exact = sorted(k for k in first["metrics"] if k.rsplit(".", 1)[0] in run.EXACT)
    assert exact
    assert [first["metrics"][k]["value"] for k in exact] == [
        second["metrics"][k]["value"] for k in exact
    ]


def test_fails_without_the_library():
    """In a directory holding only the benchmark, it exits non-zero and prints no result."""
    run.OUT.mkdir(parents=True, exist_ok=True)
    bare = Path(tempfile.mkdtemp(dir=run.OUT))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
