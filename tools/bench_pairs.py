"""Compare two checkouts on the benchmark of ``BENCHMARK.json`` in
alternating pairs of untraced runs and write a ``BENCH_<n>.json`` file.

Each workload runs once per seed in each checkout; the order flips every
pair (parent first on even pair index), so drift of the machine's speed
falls on both sides alike. For every end-to-end metric the file holds both
sides' runs, medians and quartiles (inclusive method), the number of pairs
the change won and the median change in percent. It is rewritten after
every pair, so an interrupted comparison keeps the pairs it finished.

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


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run([sys.executable, *RUN, "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds)],
                          cwd=checkout, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    env = next(line for line in lines if line.startswith("# environment "))
    return dict(json.loads(lines[-1]), environment=json.loads(env[len("# environment "):]))


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
        # both counts, so code moved from the library into the tests is not read as deleted
        "src_apex_lines": {side: line_count(getattr(args, side) / "src" / "apex")
                           for side in ("parent", "change")},
        "tests_lines": {side: line_count(getattr(args, side) / "tests")
                        for side in ("parent", "change")},
        "tier1": dict(zip(("parent", "change"), args.tier1)) if args.tier1 else None,
        "workloads": {},
    }
    for item in args.workload:
        name, _, first = item.partition(":")
        seeds = [int(first) + k for k in range(args.pairs)]
        pairs: list[tuple[dict, dict]] = []
        for k, seed in enumerate(seeds):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            runs = {side: run_once(getattr(args, side), name, seed, seconds) for side in order}
            pairs.append((runs["parent"], runs["change"]))
            record["environment"] = runs["change"]["environment"]
            record["workloads"][name] = workload_record(seeds, pairs, metrics)
            args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
            print(f"{name} seed {seed}: " + ", ".join(
                f"{m} {runs['parent']['metrics'][m]['value']:.4g} -> "
                f"{runs['change']['metrics'][m]['value']:.4g}" for m, _ in metrics), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
