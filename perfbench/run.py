"""Benchmark of the apex pipeline, one workload per run.

    python3 perfbench/run.py --workload train32 --seed 0 --seconds 10 --trace 0

With ``--trace 0`` the run measures the end-to-end metrics with nothing
wrapped; with ``--trace 1`` it wraps the public functions of the apex
modules and reports the per-layer metrics instead. Each metric is printed
as ``name value unit``; the last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
Outputs go to ``.perfbench_out/`` in the checkout: the result with its
environment record, and for traced runs the spans and per-function totals.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

import environment

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
TRACED_MODULES = ("synthdata", "tensorio", "prompting", "spectral", "losses", "numerics",
                  "harness")

environment.pin_blas_threads()  # before anything loads NumPy


def import_apex():
    sys.path.insert(0, str(SRC))
    try:
        import apex
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import apex from {SRC}: {exc}")
    if not Path(apex.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"perfbench: apex was imported from {apex.__file__}, not {SRC}")
    return apex


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def untraced(run, seconds: float) -> dict:
    bench_dir = run.workdir / "bench"
    run.gen_bench(bench_dir)
    run.setup(bench_dir)
    run.warm_up()
    run.loop(bench_dir, seconds)
    return {
        "setup_s": (statistics.median(run.setup_times), "s"),
        "gen_bench_s": (statistics.median(run.gen_times), "s"),
        "train_steps_per_s": (run.train_steps_per_s(), "1/s"),
        "eval_images_per_s": (run.eval_images_per_s(), "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def traced(run, seconds: float, tracer) -> tuple[dict, dict]:
    from apex import harness

    tracer.install()
    try:
        tracer.begin("gen")
        bench_dir = run.workdir / "bench"
        run.gen_bench(bench_dir)
        tracer.begin("setup")
        run.setup(bench_dir)
    finally:
        tracer.uninstall()
    run.warm_up()

    per_config = defaultdict(list)  # training config -> in-step counts per training
    last = tracer.step_counts("loop")

    def on_trained(job):
        nonlocal last
        now = tracer.step_counts("loop")
        per_config[job.config].append({k: now[k] - last[k] for k in now})
        last = now

    # Each cycle starts with an untraced training of the first job, which the
    # cycle then trains traced; the pairs give the tracing overhead.
    job = run.workload.jobs[0]
    untraced_s = []

    def before_cycle():
        tracer.uninstall()
        t0 = time.perf_counter()
        harness.train(job.config, run.bench, run.backbone, job.seed)
        untraced_s.append(time.perf_counter() - t0)
        tracer.install()

    tracer.begin("loop")
    try:
        run.loop(bench_dir, seconds, before_cycle, on_trained)
    finally:
        tracer.uninstall()
    for runs in per_config.values():
        run.check(all(r == runs[0] for r in runs),
                  f"per-step counts differ between trainings of one config: {runs}")
    ratios = [t / u for t, u in zip(run.train_times[job.label], untraced_s)]
    metrics = layer_metrics(tracer, 100.0 * (statistics.median(ratios) - 1.0))
    metrics["harness.unseen_dice"] = (run.unseen_dice(), "%")
    return metrics, {"counts_per_training": [r for runs in per_config.values() for r in runs]}


def layer_metrics(tracer, overhead_pct: float) -> dict:
    steps = tracer.steps["loop"]

    def ms_per_step(fn):
        return tracer.totals(f"apex.{fn}", "loop", in_step=True)[1] * 1e3 / steps

    def per_call(fn, phase="loop", in_step=None, scale=1e3):
        calls, total, _ = tracer.totals(f"apex.{fn}", phase, in_step)
        return total * scale / calls if calls else 0.0

    def self_time(fn):
        calls, _, self_s = tracer.totals(f"apex.{fn}", "loop")
        return calls, self_s * 1e3

    calls, eval_self = self_time("harness.evaluate")
    out = {
        "numerics.nodes_per_step": (tracer.count("nodes", "loop") / steps, "count"),
        "numerics.finite_checks_per_step":
            (tracer.count("finite_checks", "loop") / steps, "count"),
        "numerics.backward.ms_per_step": (ms_per_step("numerics.backward"), "ms"),
        "numerics.sgd_step.ms_per_step": (ms_per_step("numerics.sgd_step"), "ms"),
        "numerics.getitem.ms_per_step": (ms_per_step("numerics.getitem"), "ms"),
        "losses.dice_loss.ms_per_step": (ms_per_step("losses.dice_loss"), "ms"),
        "losses.ce_loss.ms_per_step": (ms_per_step("losses.ce_loss"), "ms"),
        "losses.lfc_loss.ms_per_step": (ms_per_step("losses.lfc_loss"), "ms"),
        "spectral.fft2_per_step": (tracer.count("fft2", "loop") / steps, "count"),
        "spectral.prompted_image_node.ms_per_call":
            (per_call("spectral.prompted_image_node"), "ms"),
        "prompting.region_amplitudes.ms_per_call":
            (per_call("prompting.region_amplitudes"), "ms"),
        "prompting.forward_batch.train.ms": (per_call("prompting.forward_batch", in_step=True),
                                             "ms"),
        "prompting.forward_batch.eval.ms": (per_call("prompting.forward_batch", in_step=False),
                                            "ms"),
        "prompting.encode_batch.ms": (per_call("prompting.encode_batch"), "ms"),
        "prompting.address.ms": (per_call("prompting.address"), "ms"),
        "prompting.retrieve.ms": (per_call("prompting.retrieve"), "ms"),
        "prompting.decode_prompt.ms": (per_call("prompting.decode_prompt"), "ms"),
        "prompting.memory_gradient.ms": (per_call("prompting.memory_gradient"), "ms"),
        "prompting.update_memory.ms": (per_call("prompting.update_memory"), "ms"),
        "prompting.init_state.s": (per_call("prompting.init_state", "setup", scale=1.0), "s"),
        "synthdata.build_benchmark.s":
            (per_call("synthdata.build_benchmark", "gen", scale=1.0), "s"),
        "synthdata.backbone_calibrate.s":
            (per_call("synthdata.backbone_calibrate", "setup", scale=1.0), "s"),
        "synthdata.backbone_forward.ms_per_call": (per_call("synthdata.backbone_forward"), "ms"),
        # per gen-bench and per set-up, the phases these metrics feed
        "tensorio.write_tensor.bytes":
            (tracer.count("apex.tensorio.write_tensor.bytes", "gen", False), "bytes"),
        "tensorio.write_tensor.s": (tracer.totals("apex.tensorio.write_tensor", "gen")[1], "s"),
        "tensorio.read_tensor.bytes":
            (tracer.count("apex.tensorio.read_tensor.bytes", "setup", False), "bytes"),
        "tensorio.read_tensor.s": (tracer.totals("apex.tensorio.read_tensor", "setup")[1], "s"),
        "harness.train.self_ms_per_step": (self_time("harness.train")[1] / steps, "ms"),
        "harness.evaluate.self_ms": (eval_self / calls if calls else 0.0, "ms"),
        "trace.overhead_pct": (overhead_pct, "%"),
    }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_apex()
    import tracer as tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    bench_seed = args.seed % reference["seeds"]
    expected = reference["dice"].get(workload.name, {}).get(str(bench_seed))

    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    details: dict = {}
    try:
        run = workloads.Run(workload, bench_seed, expected, workdir)
        run.check(expected is not None, f"no reference Dice for bench seed {bench_seed}")
        if args.trace:
            tracer = tracing.Tracer(importlib.import_module(f"apex.{m}")
                                    for m in TRACED_MODULES)
            metrics, details = traced(run, args.seconds, tracer)
            tracer.write(OUT, f"trace-{workload.name}-seed{args.seed}")
            for row in tracer.summary_rows():
                print(f"# {row['phase']:6s} {row['name']:44s} calls {row['calls']:8d} "
                      f"total {row['total_ms']:10.1f} ms self {row['self_ms']:10.1f} ms")
        else:
            metrics = untraced(run, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment.describe(SRC / "apex")
    result = {"correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    record = dict(result, workload=workload.name, seed=args.seed, bench_seed=bench_seed,
                  trace=args.trace, seconds=args.seconds, cycles=run.cycles,
                  inputs_digest=run.inputs_digest, unseen_dice=run.unseen_dice(),
                  environment=env,
                  problems=run.problems, samples=run.samples(), **details)
    (OUT / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"# environment {json.dumps(env)}")
    print(f"# inputs {run.inputs_digest} (bench seed {bench_seed}), cycles {run.cycles}")
    print(f"# unseen Dice {run.unseen_dice():.4f} %, checked against the reference")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
