"""Set-up as a fresh CLI process pays it: import apex, load the benchmark,
calibrate the backbone, build the first state. Prints one line, the
backbone digest and the digest of the initial memory, once ready; the
parent times the process from spawn to that line.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--bench", required=True)
    parser.add_argument("--size", type=int, required=True)
    parser.add_argument("--bench-seed", type=int, required=True)
    parser.add_argument("--train-seed", type=int, required=True)
    args = parser.parse_args()

    from dataclasses import replace

    from apex import harness, prompting, synthdata, tensorio

    bench = synthdata.load_benchmark(args.bench, synthdata.BenchmarkConfig(image_size=args.size),
                                     args.bench_seed)
    backbone = synthdata.backbone_calibrate(bench.splits["source_cal"])
    h, w, c = bench.splits["train_seen"][0].image.shape
    apex_cfg = replace(harness.TrainConfig().apex, seed=args.train_seed)
    state = prompting.init_state(apex_cfg, h, w, c)
    print(backbone.digest(), tensorio.tensor_digest(state.memory.array), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
