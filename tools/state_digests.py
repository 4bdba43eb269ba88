"""Build and save one benchmark, calibrate the backbone on it, train a
fixed set of configs on it, and print the digests: first a ``bench digest``
line over the saved benchmark files, then a ``backbone digest`` line, then
for each trained state a ``label digest`` line over its tensors, a
``label eval digest`` line over the CSV lines of its seen, unseen and
source-only evaluation reports, and a ``label viz digest`` line over the
three files ``harness.export_activations`` writes for ``test_unseen``.

A change that only reorganises the arithmetic (fused ops, fewer graph
nodes, fewer checks, a batched calibration, a windowed scene generator)
must leave the benchmark files, the backbone, every trained state and its
evaluation bit-identical; run this script in a checkout before and after
the change and compare the output line by line:

    python3 tools/state_digests.py [--bench-seed 10] [--size 32] [--seed 0]

The configs cover the default, the four memory x LFC ablation cells and
the slot counts J=1 and J=300, built as ``harness.run_ablation`` and
``harness.slot_sweep`` build them. The memory-off cells are the sensitive
ones: their training turns a last-bit change of a gradient into Dice
changes of several points.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from apex import harness, prompting, synthdata, tensorio  # noqa: E402


def configs() -> list[tuple[str, harness.TrainConfig]]:
    base = harness.TrainConfig()
    out = [("default", base)]
    for mem_flag, lfc_flag in harness.ABLATION_CELLS:
        out.append((f"memory_{mem_flag}-lfc_{lfc_flag}",
                    replace(base, apex=replace(base.apex, use_memory=mem_flag == "on"),
                            lfc_enabled=lfc_flag == "on")))
    for j in (1, 300):
        out.append((f"slots_{j}",
                    replace(base, apex=replace(base.apex, slot_count=j,
                                               allow_block_init=j > base.apex.feature_dim))))
    return out


def state_digest(state: prompting.ApexState) -> str:
    tensors = prompting.state_tensors(state)
    return tensorio.tensor_digest(*(tensors[name] for name in sorted(tensors)))


def eval_digest(state: prompting.ApexState, backbone: synthdata.FrozenBackbone,
                bench: synthdata.Benchmark) -> str:
    """sha256 over the CSV lines of the seen, unseen and source-only reports."""
    reports = [harness.evaluate(state, backbone, bench, "seen"),
               harness.evaluate(state, backbone, bench, "unseen"),
               harness.evaluate(None, backbone, bench, "source", source_only=True)]
    return hashlib.sha256("\n".join(line for report in reports
                                     for line in report.csv_lines()).encode()).hexdigest()


def written_digest(write) -> str:
    """sha256 over the relative paths and bytes of the files ``write(dir)``
    puts into an empty directory."""
    h = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        write(tmp)
        for path in sorted(Path(tmp).rglob("*")):
            if path.is_file():
                h.update(path.relative_to(tmp).as_posix().encode())
                h.update(path.read_bytes())
    return h.hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--bench-seed", type=int, default=10)
    parser.add_argument("--size", type=int, default=32)
    parser.add_argument("--seed", type=int, default=0, help="training seed")
    args = parser.parse_args()

    bench = synthdata.build_benchmark(synthdata.BenchmarkConfig(image_size=args.size),
                                      args.bench_seed)
    print(f"bench {written_digest(lambda d: synthdata.save_benchmark(bench, d))}", flush=True)
    backbone = synthdata.backbone_calibrate(bench.splits["source_cal"])
    print(f"backbone {backbone.digest()}", flush=True)
    for label, config in configs():
        state, _log = harness.train(config, bench, backbone, args.seed)
        print(f"{label} {state_digest(state)}", flush=True)
        print(f"{label} eval {eval_digest(state, backbone, bench)}", flush=True)
        viz = written_digest(lambda d: harness.export_activations(
            state, bench.splits["test_unseen"], d))
        print(f"{label} viz {viz}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
