"""Time the set-up every apex CLI command pays, phase by phase, in fresh
processes: ``import apex`` (with NumPy), ``load_benchmark``,
``backbone_calibrate`` and the first ``init_state``.

The script saves one benchmark (or uses ``--bench DIR``), then starts one
fresh Python process per repeat and prints one JSON line per repeat with
the seconds of each phase, the process's peak RSS in MB at the end of it
(``*_peak_rss_mb``) and the backbone digest. A benchmark it builds itself
adds one first line with the seconds and peak RSS of ``build_benchmark``
and ``save_benchmark``, the two halves of ``apex gen-bench``:

    python3 tools/setup_phases.py [--size 32] [--bench-seed 5] [--repeats 5]

Run it in two checkouts to compare their set-up; a phase that stalls in one
process (a slow first BLAS call, say) shows up in that repeat's line.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def peak_rss_mb() -> float:
    """This process's peak resident set size so far, in MB: Linux's VmHWM,
    which starts afresh at ``exec``. ``getrusage``'s ``ru_maxrss`` does not:
    it carries over the peak of the process that started this one, so every
    child would read at least the benchmark build of this script's parent."""
    status = Path("/proc/self/status").read_text(encoding="ascii").splitlines()
    kib = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
    return round(int(kib) / 1024.0, 1)


def phases(bench_dir: str, size: int, bench_seed: int) -> dict:
    """Run the set-up once in this process; time each phase and read the
    peak RSS after it."""
    marks = [time.perf_counter()]
    sys.path.insert(0, str(SRC))
    from apex import harness, prompting, synthdata
    marks.append(time.perf_counter())
    peaks = [peak_rss_mb()]
    bench = synthdata.load_benchmark(bench_dir, synthdata.BenchmarkConfig(image_size=size),
                                     bench_seed)
    marks.append(time.perf_counter())
    peaks.append(peak_rss_mb())
    backbone = synthdata.backbone_calibrate(bench.splits["source_cal"])
    marks.append(time.perf_counter())
    peaks.append(peak_rss_mb())
    h, w, c = bench.splits["train_seen"][0].image.shape
    prompting.init_state(harness.TrainConfig().apex, h, w, c)
    marks.append(time.perf_counter())
    peaks.append(peak_rss_mb())
    out = {}
    for name, a, b, peak in zip(("import", "load_benchmark", "backbone_calibrate",
                                 "init_state"), marks, marks[1:], peaks):
        out[f"{name}_s"], out[f"{name}_peak_rss_mb"] = round(b - a, 4), peak
    out["total_s"] = round(marks[-1] - marks[0], 4)
    out["backbone"] = backbone.digest()[:16]
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--size", type=int, default=32)
    parser.add_argument("--bench-seed", type=int, default=5)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--bench", help="a saved benchmark of --size and --bench-seed")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if args.child:
        print(json.dumps(phases(args.bench, args.size, args.bench_seed)), flush=True)
        return 0
    with tempfile.TemporaryDirectory() as tmp:
        bench_dir = args.bench
        if bench_dir is None:
            sys.path.insert(0, str(SRC))
            from apex import synthdata
            bench_dir = tmp
            t0 = time.perf_counter()
            bench = synthdata.build_benchmark(synthdata.BenchmarkConfig(image_size=args.size),
                                              args.bench_seed)
            t1, peak1 = time.perf_counter(), peak_rss_mb()
            synthdata.save_benchmark(bench, bench_dir)
            t2, peak2 = time.perf_counter(), peak_rss_mb()
            del bench
            print(json.dumps({"size": args.size, "build_benchmark_s": round(t1 - t0, 4),
                              "build_benchmark_peak_rss_mb": peak1,
                              "save_benchmark_s": round(t2 - t1, 4),
                              "save_benchmark_peak_rss_mb": peak2}), flush=True)
        for repeat in range(args.repeats):
            child = subprocess.run(
                [sys.executable, __file__, "--child", "--bench", bench_dir,
                 "--size", str(args.size), "--bench-seed", str(args.bench_seed)],
                capture_output=True, text=True, check=True)
            record = {"repeat": repeat, "size": args.size, **json.loads(child.stdout)}
            print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
