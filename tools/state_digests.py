"""Build and save one benchmark, load it back as ``apex train`` does,
calibrate the backbone on the loaded copy, train a fixed set of configs on
it, and print the digests: first a ``bench digest`` line over the saved
benchmark files, then a ``backbone digest`` line, then
for each trained state a ``label digest`` line over its tensors, a
``label eval digest`` line over the CSV lines of its seen, unseen and
source-only evaluation reports, and a ``label viz digest`` line over the
three files ``harness.export_activations`` writes for ``test_unseen``.
Each trained state is also saved with ``prompting.save_state`` and loaded
back; the script exits 1 if the loaded state's tensor or evaluation digest
differs from the trained one's.

A change that only reorganises the arithmetic (fused ops, fewer graph
nodes, fewer checks, a batched calibration, a windowed scene generator)
must leave the benchmark files, the backbone, every trained state and its
evaluation bit-identical; run this script in a checkout before and after
the change and compare the output line by line:

    python3 tools/state_digests.py [--bench-seed 10] [--size 32] [--seed 0]

or let it do that: with ``--against DIR`` it also runs DIR's copy of this
script with the same arguments, prints only the lines that differ (``-``
DIR's, ``+`` this checkout's) and exits 1 if any does.

The configs cover the default, the four memory x LFC ablation cells and
the slot counts J=1 and J=300, from ``harness.ablation_variant`` and
``harness.slot_variant``, the builders that ``harness.run_ablation`` and
``harness.slot_sweep`` train. The memory-off cells are the sensitive
ones: their training turns a last-bit change of a gradient into Dice
changes of several points.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from apex import harness, prompting, synthdata, tensorio  # noqa: E402


def configs() -> list[tuple[str, harness.TrainConfig]]:
    base = harness.TrainConfig()
    return ([("default", base)]
            + [(f"memory_{mem}-lfc_{lfc}", harness.ablation_variant(base, mem, lfc))
               for mem, lfc in harness.ABLATION_CELLS]
            + [(f"slots_{j}", harness.slot_variant(base, j)) for j in (1, 300)])


def state_digest(state: prompting.ApexState) -> str:
    tensors = prompting.state_tensors(state)
    return tensorio.tensor_digest(*(tensors[name] for name in sorted(tensors)))


def eval_digest(state: prompting.ApexState, backbone: synthdata.FrozenBackbone,
                bench: synthdata.Benchmark) -> str:
    """sha256 over the CSV lines of the seen, unseen and source-only reports."""
    reports = [harness.evaluate(state, backbone, bench, "seen"),
               harness.evaluate(state, backbone, bench, "unseen"),
               harness.evaluate(None, backbone, bench, "source")]
    return hashlib.sha256("\n".join(line for report in reports
                                     for line in report.csv_lines()).encode()).hexdigest()


def tree_digest(directory) -> str:
    """sha256 over the relative paths and bytes of the files below ``directory``."""
    h = hashlib.sha256()
    for path in sorted(Path(directory).rglob("*")):
        if path.is_file():
            h.update(path.relative_to(directory).as_posix().encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def written_digest(write) -> str:
    """:func:`tree_digest` of the files ``write(dir)`` puts into an empty
    directory."""
    with tempfile.TemporaryDirectory() as tmp:
        write(tmp)
        return tree_digest(tmp)


def reloaded(state: prompting.ApexState) -> prompting.ApexState:
    """``state`` saved by ``prompting.save_state`` and read back by ``load_state``."""
    with tempfile.TemporaryDirectory() as tmp:
        prompting.save_state(state, tmp)
        return prompting.load_state(tmp)


def digest_lines(bench_seed: int, size: int, seed: int, labels=None):
    """The output lines, one at a time, as each digest is ready; with
    ``labels``, only the lines of the configs so labelled after the
    ``bench`` and ``backbone`` lines."""
    bench_config = synthdata.BenchmarkConfig(image_size=size)
    with tempfile.TemporaryDirectory() as tmp:
        synthdata.save_benchmark(synthdata.build_benchmark(bench_config, bench_seed), tmp)
        yield f"bench {tree_digest(tmp)}"
        bench = synthdata.load_benchmark(tmp, bench_config, bench_seed)
    backbone = synthdata.backbone_calibrate(bench.splits["source_cal"])
    yield f"backbone {backbone.digest()}"
    for label, config in configs():
        if labels is not None and label not in labels:
            continue
        state, _log = harness.train(config, bench, backbone, seed)
        digests = state_digest(state), eval_digest(state, backbone, bench)
        loaded = reloaded(state)
        if (state_digest(loaded), eval_digest(loaded, backbone, bench)) != digests:
            sys.exit(f"{label}: the state loaded from its checkpoint differs from the saved one")
        yield f"{label} {digests[0]}"
        yield f"{label} eval {digests[1]}"
        viz = written_digest(lambda d: harness.export_activations(
            state, bench.splits["test_unseen"], d))
        yield f"{label} viz {viz}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--bench-seed", type=int, default=10)
    parser.add_argument("--size", type=int, default=32)
    parser.add_argument("--seed", type=int, default=0, help="training seed")
    parser.add_argument("--against", type=Path, metavar="DIR",
                        help="another checkout: print only the lines that differ from its")
    args = parser.parse_args()

    lines = digest_lines(args.bench_seed, args.size, args.seed)
    if args.against is None:
        for line in lines:
            print(line, flush=True)
        return 0
    theirs = subprocess.run(
        [sys.executable, str(args.against / "tools" / "state_digests.py"),
         "--bench-seed", str(args.bench_seed), "--size", str(args.size), "--seed", str(args.seed)],
        stdout=subprocess.PIPE, text=True, check=True).stdout.splitlines()
    differ = [(t, o) for t, o in itertools.zip_longest(theirs, lines, fillvalue="(no line)")
              if t != o]
    for t, o in differ:
        print(f"- {t}\n+ {o}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
