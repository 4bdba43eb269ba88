"""Smoke test of ``tools/setup_phases.py``, the set-up timer: one repeat at
32x32 prints the build line and one phase line, and the phase line's
backbone is the one this process calibrates on the same benchmark."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from apex import synthdata as sd

TOOL = Path(__file__).resolve().parent.parent / "tools" / "setup_phases.py"
PHASES = ("import", "load_benchmark", "backbone_calibrate", "init_state")


@pytest.mark.skipif(not Path("/proc/self/status").exists(),
                    reason="the tool reads peak RSS from Linux's /proc")
def test_one_repeat_prints_every_phase():
    proc = subprocess.run([sys.executable, str(TOOL), "--size", "32", "--repeats", "1"],
                          capture_output=True, text=True, check=True, timeout=300)
    build, phases = (json.loads(line) for line in proc.stdout.splitlines())
    assert set(build) == {"size", "build_benchmark_s", "build_benchmark_peak_rss_mb",
                          "save_benchmark_s", "save_benchmark_peak_rss_mb"}
    assert set(phases) == ({"repeat", "size", "total_s", "backbone"}
                           | {f"{name}{unit}" for name in PHASES
                              for unit in ("_s", "_peak_rss_mb")})
    assert (build["size"], phases["size"], phases["repeat"]) == (32, 32, 0)
    assert all(phases[f"{name}_s"] >= 0.0 for name in PHASES)
    bench = sd.build_benchmark(sd.BenchmarkConfig(image_size=32), seed=5)
    assert phases["backbone"] == sd.backbone_calibrate(bench.splits["source_cal"]).digest()[:16]
