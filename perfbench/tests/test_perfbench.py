"""Tests of the benchmark itself. They run the benchmark in subprocesses,
so they take a few minutes:

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
EXACT_COUNTS = ("numerics.nodes_per_step", "numerics.finite_checks_per_step",
                "spectral.fft2_per_step")


def _bench(workload, seed, trace, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


_cache: dict = {}


def bench(workload, seed, trace, repeat=0):
    """(result, stdout lines) of one benchmark run; runs are shared by tests."""
    key = (workload, seed, trace, repeat)
    if key not in _cache:
        proc = _bench(workload, seed, trace)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().splitlines()
        _cache[key] = (json.loads(lines[-1]), lines)
    return _cache[key]


def _declared(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_passes_its_checks(workload):
    result, _ = bench(workload, 0, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_printed_metrics_are_declared(workload):
    result, _ = bench(workload, 0, 0)
    assert {n: m["unit"] for n, m in result["metrics"].items()} == _declared("end_to_end")


def test_traced_metrics_are_declared_and_counts_repeat():
    first, _ = bench("train32", 0, 1)
    second, _ = bench("train32", 0, 1, repeat=1)
    assert first["correct"] and second["correct"]
    assert {n: m["unit"] for n, m in first["metrics"].items()} == _declared("per_layer")
    for name in EXACT_COUNTS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
        assert first["metrics"][name]["value"] > 0, name


def test_seed_changes_inputs_not_metric_names():
    def inputs(lines):
        return next(line.split()[2] for line in lines if line.startswith("# inputs "))

    a, lines_a = bench("train32", 0, 0)
    b, lines_b = bench("train32", 1, 0)
    assert inputs(lines_a) != inputs(lines_b)
    assert set(a["metrics"]) == set(b["metrics"])


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("train32", 0, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
