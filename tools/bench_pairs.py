"""Compare two checkouts on the benchmark of ``BENCHMARK.json`` in
alternating pairs of untraced runs and write a ``BENCH_<n>.json`` file.

Each workload runs once per seed in each checkout; the order flips every
pair (parent first on even pair index), so drift of the machine's speed
falls on both sides alike. For every end-to-end metric the file holds both
sides' runs, medians and quartiles (inclusive method), the number of pairs
the change won and the median change in percent. It is rewritten after
every pair, so an interrupted comparison keeps the pairs it finished. The
source lines of ``src/apex`` and ``tests`` on each side are counted after
the last pair, so an edit made while the pairs ran is counted; a side
without ``*.py`` files in either directory is refused before any run.

Before each run a fresh process times a fixed NumPy loop (an ``fft2`` of
[8, 128, 128] and a 256x256 matmul) that no change to the code can move;
its medians per side go under ``drift_probe``, so a reader can tell drift of
the machine's speed from an effect of the change.

    python3 tools/bench_pairs.py --parent DIR --change DIR \\
        --workload train32:110 --workload hires128:120 --workload ablate32:130 \\
        --pairs 10 --out BENCH_9.json

``--workload NAME:SEED`` runs seeds SEED .. SEED + pairs - 1 of NAME.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

RUN = ["perfbench/run.py", "--trace", "0"]
# the source lines counted on each side; both counts, so code moved from the
# library into the tests is not read as deleted
COUNTED = (("src_apex_lines", "src/apex"), ("tests_lines", "tests"))
PROBE = """
import json, time
import numpy as np
x = np.random.default_rng(0).standard_normal((8, 128, 128))
m = np.random.default_rng(1).standard_normal((256, 256))
out = {}
for name, fn in (("fft2_ms", lambda: np.fft.fft2(x)), ("matmul_ms", lambda: m @ m)):
    fn()
    times = []
    for _ in range(50):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    out[name] = 1e3 * sorted(times)[len(times) // 2]
print(json.dumps(out))
"""


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run([sys.executable, *RUN, "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds)],
                          cwd=checkout, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    env = next(line for line in lines if line.startswith("# environment "))
    return dict(json.loads(lines[-1]), environment=json.loads(env[len("# environment "):]))


def drift_probe(checkout: Path) -> dict:
    """Median ms of each loop of ``PROBE``, timed in a fresh process."""
    proc = subprocess.run([sys.executable, "-c", PROBE], cwd=checkout, capture_output=True,
                          text=True, check=True)
    return json.loads(proc.stdout)


def probe_record(probes: list[dict]) -> dict:
    """Each side's probe runs and their median, per loop."""
    return {side: {name: {"median": statistics.median(p[side][name] for p in probes),
                          "runs": [p[side][name] for p in probes]}
                   for name in probes[0][side]}
            for side in ("parent", "change")}


def summary(runs: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def workload_record(seeds: list[int], pairs: list[tuple[dict, dict]], metrics) -> dict:
    out = {"pairs": len(pairs), "seeds": seeds[:len(pairs)],
           "failed_ops": {side: sum(p[k]["failed"] for p in pairs)
                          for k, side in enumerate(("parent", "change"))},
           "attempted_ops": {side: sum(p[k]["attempted"] for p in pairs)
                             for k, side in enumerate(("parent", "change"))},
           "metrics": {}}
    for name, better in metrics:
        parent = [p[0]["metrics"][name]["value"] for p in pairs]
        change = [p[1]["metrics"][name]["value"] for p in pairs]
        sign = 1.0 if better == "higher" else -1.0
        record = {"better": better}
        if len(pairs) > 1:
            record.update(parent=summary(parent), change=summary(change))
        median_p, median_c = statistics.median(parent), statistics.median(change)
        record.update(change_wins=sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
                      median_change_pct=100.0 * (median_c - median_p) / median_p,
                      parent_runs=parent, change_runs=change)
        out["metrics"][name] = record
    return out


def line_count(directory: Path) -> int:
    """Lines of the ``*.py`` files directly in ``directory``, as ``wc -l`` counts them."""
    return sum(len(path.read_text(encoding="utf-8").splitlines())
               for path in sorted(directory.glob("*.py")))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", action="append", required=True, metavar="NAME:SEED")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--what", default="", help="what the change is")
    parser.add_argument("--parent-commit", default="")
    parser.add_argument("--claim", nargs=3, metavar=("WORKLOAD", "METRIC", "TARGET"))
    parser.add_argument("--tier1", nargs=2, metavar=("PARENT", "CHANGE"),
                        help="the Tier-1 results of both sides, as pytest prints them")
    args = parser.parse_args()
    for side in ("parent", "change"):
        for _, sub in COUNTED:
            if not any((getattr(args, side) / sub).glob("*.py")):
                sys.exit(f"error: --{side} {getattr(args, side)} has no *.py files in {sub}")

    spec = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or spec["run_seconds"]
    metrics = [(m["name"], m["better"]) for m in spec["end_to_end"]]
    record = {
        "what": args.what,
        "parent_commit": args.parent_commit,
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {seconds:g} "
                   "--trace 0",
        "method": "alternating parent/change pairs, order flipped every pair (parent first "
                  "on even pair index), one pair per workload seed; medians and quartiles "
                  "(inclusive method) over each side's runs; change_wins counts pairs in "
                  "which the change was better; peak_rss_mb is a per-process maximum",
        "claimed": (dict(zip(("workload", "metric", "target"), args.claim))
                    if args.claim else None),
        "environment": None,
        "cpu": f"{os.cpu_count()} CPUs, {platform.machine()}",
        "src_apex_lines": None,  # counted after the last pair
        "tests_lines": None,
        "tier1": dict(zip(("parent", "change"), args.tier1)) if args.tier1 else None,
        "workloads": {},
        "drift_probe": {},
    }
    for item in args.workload:
        name, _, first = item.partition(":")
        seeds = [int(first) + k for k in range(args.pairs)]
        pairs: list[tuple[dict, dict]] = []
        probes: list[dict] = []
        for k, seed in enumerate(seeds):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            runs, probe = {}, {}
            for side in order:
                probe[side] = drift_probe(getattr(args, side))
                runs[side] = run_once(getattr(args, side), name, seed, seconds)
            pairs.append((runs["parent"], runs["change"]))
            probes.append(probe)
            record["environment"] = runs["change"]["environment"]
            record["workloads"][name] = workload_record(seeds, pairs, metrics)
            record["drift_probe"][name] = probe_record(probes)
            args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
            print(f"{name} seed {seed}: " + ", ".join(
                f"{m} {runs['parent']['metrics'][m]['value']:.4g} -> "
                f"{runs['change']['metrics'][m]['value']:.4g}" for m, _ in metrics), flush=True)
    record.update({key: {side: line_count(getattr(args, side) / sub)
                         for side in ("parent", "change")} for key, sub in COUNTED})
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
