"""Record the reference Dice of every workload job for bench seeds 0..31.

    python3 perfbench/record_reference.py --workers 2

Writes every workload into ``perfbench/reference.json``. The benchmark maps a
workload seed to bench seed ``seed % SEEDS`` and checks every trained job's
seen and unseen Dice against this file. Record it again only when a
workload's jobs change.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = 32


def reference_dice(task: tuple[str, int]) -> tuple[str, int, list]:
    """[seen, unseen] Dice of each job of one workload on one bench seed."""
    name, bench_seed = task
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    workload = workloads.WORKLOADS[name]
    workdir = ROOT / ".perfbench_out" / f"reference-{name}-{bench_seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        run = workloads.Run(workload, bench_seed, None, workdir)
        run.gen_bench(workdir / "bench")
        run.setup(workdir / "bench")
        run.timing = False
        for index in range(len(workload.jobs)):
            run.run_job(index)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if run.failed:
        raise RuntimeError(f"{name} seed {bench_seed}: {run.problems}")
    return name, bench_seed, [list(run.first_dice[job.label]) for job in workload.jobs]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workers", type=int, default=1)
    args = parser.parse_args()

    # one BLAS thread per worker; results do not depend on the thread count
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    dice = {name: {} for name in workloads.WORKLOADS}
    tasks = [(name, seed) for name in dice for seed in range(SEEDS)]
    with multiprocessing.get_context("spawn").Pool(args.workers) as pool:
        for name, seed, values in pool.imap_unordered(reference_dice, tasks):
            dice[name][str(seed)] = values
            print(f"{name} seed {seed}: {values}", flush=True)
    blocks = []
    for name, per in dice.items():
        rows = ",\n".join(f'   "{seed}": {json.dumps(per[str(seed)])}'
                          for seed in range(SEEDS))
        blocks.append(f'  "{name}": {{\n{rows}\n  }}')
    text = f'{{\n "seeds": {SEEDS},\n "dice": {{\n' + ",\n".join(blocks) + "\n }\n}\n"
    (HERE / "reference.json").write_text(text, encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
