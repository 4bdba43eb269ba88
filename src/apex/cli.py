"""Command line interface.

    apex gen-bench   --config F --seed N --out DIR
    apex train       --config F --bench DIR --out DIR
    apex eval        --ckpt DIR --bench DIR --split {seen,unseen,source}
                     [--source-only] [--out FILE]
    apex ablate      --config F --bench DIR --out DIR
    apex sweep-slots --config F --bench DIR --j-list 1,5,... --out DIR
    apex viz-mem     --ckpt DIR --bench DIR --out DIR [--split ...]

Outputs are plain CSV, binary tensors, and PGM dumps; nothing carries
timestamps, so reruns with equal seeds are byte-identical.

No command overwrites a directory: ``gen-bench``, ``train``, ``ablate``,
``sweep-slots`` and ``viz-mem`` refuse an ``--out`` that already exists
with one ``error:`` line before any work starts, so rerunning ``viz-mem``
into its default, ``<ckpt>/viz``, needs that directory removed first. They
write into a hidden sibling directory and rename it to ``--out`` only when
the command succeeds, so a failed or interrupted run leaves no ``--out``.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import shutil
import sys
import tempfile
from pathlib import Path

from . import config as cfgmod
from . import harness, prompting, synthdata, tensorio
from .errors import ApexError, ConfigError, CorruptInputError


def _load_configs(path: str | None):
    kv = cfgmod.load_file(path) if path else {}
    return cfgmod.build_configs(kv)


def _write(path: Path, lines: list[str]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n", encoding="ascii")


def _check_out(out: Path) -> None:
    """Refuse, before any work starts, an ``--out`` that cannot be written as
    a file: a directory, or a path below a file."""
    if out.is_dir():
        raise ConfigError(f"--out {out} is a directory")
    blocker = next(p for p in out.parents if p.exists())
    if not blocker.is_dir():
        raise ConfigError(f"--out {out} lies below {blocker}, which is not a directory")


@contextlib.contextmanager
def _staged_output(out: Path):
    """Yield a directory to write ``out``'s contents into; rename it to
    ``out`` when the block succeeds, delete it when the block raises."""
    if out.exists():
        raise ConfigError(f"{out} already exists; pass a new --out or remove it")
    out.parent.mkdir(parents=True, exist_ok=True)
    staging = Path(tempfile.mkdtemp(prefix=f".{out.name}.", dir=out.parent))
    try:
        stage = staging / out.name
        stage.mkdir()  # with the mode a plain mkdir of ``out`` would get
        yield stage
        stage.rename(out)
    finally:
        shutil.rmtree(staging, ignore_errors=True)


def _load_bench(bench_dir: str) -> synthdata.Benchmark:
    path = Path(bench_dir) / "config.txt"
    kv = cfgmod.load_file(path)
    try:
        seed = int(kv.get("bench_seed", "0"))
    except ValueError:
        raise CorruptInputError(f"{path}: bad bench_seed {kv['bench_seed']!r}: "
                                "expected an integer") from None
    try:
        config = cfgmod.bench_config(kv)
    except ConfigError as exc:
        raise CorruptInputError(f"{path}: {exc}") from None
    return synthdata.load_benchmark(bench_dir, config, seed)


def _backbone_for(bench: synthdata.Benchmark) -> synthdata.FrozenBackbone:
    return synthdata.backbone_calibrate(bench.splits["source_cal"])


def cmd_gen_bench(args) -> int:
    if args.seed < 0:
        raise ConfigError(f"bad --seed {args.seed}: expected an integer >= 0")
    if args.dump_samples < 0:
        raise ConfigError(f"bad --dump-samples {args.dump_samples}: expected an integer >= 0")
    out = Path(args.out)
    with _staged_output(out) as stage:
        train_cfg, bench_cfg = _load_configs(args.config)
        bench = synthdata.build_benchmark(bench_cfg, args.seed)
        synthdata.save_benchmark(bench, stage)
        _write(stage / "config.txt",
               cfgmod.echo_lines(train_cfg, bench_cfg) + [f"bench_seed = {args.seed}"])
        if args.dump_samples > 0:
            preview = stage / "previews"
            preview.mkdir()
            for split in synthdata.Benchmark.SPLITS:
                for dom, samples in sorted(bench.by_domain(split).items()):
                    for s in samples[:args.dump_samples]:
                        tensorio.write_pgm(preview / f"{s.sample_id}.pgm", s.image)
    print(f"benchmark written to {out} "
          f"({sum(len(s) for s in bench.splits.values())} samples)")
    return 0


def cmd_train(args) -> int:
    out = Path(args.out)
    with _staged_output(out) as stage:
        train_cfg, _ = _load_configs(args.config)
        bench = _load_bench(args.bench)
        backbone = _backbone_for(bench)
        _write(stage / "config.txt", cfgmod.echo_lines(train_cfg, bench.config)
               + [f"bench_seed = {bench.seed}"])
        _write(stage / "backbone.txt", [
            f"threshold = {backbone.threshold!r}",
            f"slope = {backbone.slope!r}",
            f"blur_radius = {backbone.blur_radius}",
            f"digest = {backbone.digest()}"])

        metric_lines = ["seed,scope,dice,iou"]
        names = ("avg_seen", "avg_unseen", "avg_total")
        per_seed = []
        for seed in train_cfg.seeds:
            res = harness.train_and_eval(train_cfg, bench, backbone, seed)
            seed_dir = stage / f"seed{seed}"
            prompting.save_state(res.state, seed_dir)
            harness.write_step_log(res.log, seed_dir / "steps.csv")
            metric_lines += [f"{seed},{dom},{row['dice']!r},{row['iou']!r}"
                             for rep in (res.seen, res.unseen)
                             for dom, row in sorted(rep.per_domain.items())]
            per_seed.append(res.averages)
            metric_lines += [f"{seed},{name},{val!r}," for name, val in zip(names, res.averages)]
            seen, unseen, total = res.averages
            print(f"seed {seed}: seen {seen:.2f} unseen {unseen:.2f} total {total:.2f}")
            del res  # the next seed trains without this one's state alive
        for name, column in zip(names, zip(*per_seed)):
            m, s = harness.mean_std(column)
            metric_lines.append(f"mean,{name},{m!r},")
            metric_lines.append(f"std,{name},{s!r},")
        _write(stage / "metrics.csv", metric_lines)
    print(f"checkpoints and metrics written to {out}")
    return 0


def cmd_eval(args) -> int:
    if args.out:
        _check_out(Path(args.out))
    bench = _load_bench(args.bench)
    # a bad checkpoint fails before the backbone is calibrated
    state = None if args.source_only else prompting.load_state(args.ckpt)
    report = harness.evaluate(state, _backbone_for(bench), bench, args.split,
                              source_only=args.source_only)
    lines = report.csv_lines()
    print("\n".join(lines))
    if args.out:
        _write(Path(args.out), lines)
    return 0


def _table(args, name: str, experiment) -> int:
    """Stage ``--out``, run ``experiment(train_cfg, bench, backbone)`` and
    write its lines to ``--out``/``name``, then print them."""
    with _staged_output(Path(args.out)) as stage:
        train_cfg, _ = _load_configs(args.config)
        bench = _load_bench(args.bench)
        lines = experiment(train_cfg, bench, _backbone_for(bench))
        _write(stage / name, lines)
    print("\n".join(lines))
    return 0


def cmd_ablate(args) -> int:
    return _table(args, "ablation.csv", harness.run_ablation)


def cmd_sweep_slots(args) -> int:
    try:
        j_list = tuple(int(v) for v in args.j_list.split(","))
    except ValueError:
        j_list = ()
    if not j_list or min(j_list) < 1 or len(set(j_list)) != len(j_list):
        raise ConfigError(f"bad --j-list {args.j_list!r}: expected comma-separated "
                          "distinct slot counts, each >= 1")
    return _table(args, "slot_sweep.csv", functools.partial(harness.slot_sweep, j_list=j_list))


def cmd_viz_mem(args) -> int:
    splits = args.split.split(",")
    names = [harness.SPLIT_NAMES.get(split, split) for split in splits]
    for i, (split, name) in enumerate(zip(splits, names)):
        if name not in synthdata.Benchmark.SPLITS:
            raise ConfigError(f"unknown split {split!r}; use seen, unseen, source or one of "
                              f"{', '.join(synthdata.Benchmark.SPLITS)}")
        if name in names[:i]:  # its samples would be counted twice
            raise ConfigError(f"split {split!r} repeats {name}; name each split once")
    out = Path(args.ckpt) / "viz" if args.out is None else Path(args.out)
    with _staged_output(out) as stage:
        bench = _load_bench(args.bench)
        state = prompting.load_state(args.ckpt)
        samples = []
        for name in names:
            samples.extend(bench.splits[name])
        summary = harness.export_activations(state, samples, stage)
    within, cross = ("n/a" if v is None else repr(v) for v in summary)
    print(f"within-domain mean Jaccard {within}, cross-domain {cross}")
    print(f"activation maps written to {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="apex",
                                     description="Adaptive frequency-domain prompting harness")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-bench", help="generate the synthetic benchmark")
    p.add_argument("--config", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--dump-samples", type=int, default=0, metavar="N",
                   help="also write the first N images per domain/split as PGM")
    p.set_defaults(func=cmd_gen_bench)

    p = sub.add_parser("train", help="train one state per configured seed")
    p.add_argument("--config", default=None)
    p.add_argument("--bench", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a test split")
    p.add_argument("--ckpt", default=None)
    p.add_argument("--bench", required=True)
    p.add_argument("--split", choices=sorted(harness.SPLIT_NAMES), required=True)
    p.add_argument("--source-only", action="store_true",
                   help="skip prompting; raw images into the backbone")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", help="memory/contrastive ablation grid")
    p.add_argument("--config", default=None)
    p.add_argument("--bench", required=True)
    p.add_argument("--out", default="ablation")
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("sweep-slots", help="slot-count sweep")
    p.add_argument("--config", default=None)
    p.add_argument("--bench", required=True)
    p.add_argument("--j-list", default=",".join(map(str, harness.SWEEP_SLOT_COUNTS)))
    p.add_argument("--out", default="slot_sweep")
    p.set_defaults(func=cmd_sweep_slots)

    p = sub.add_parser("viz-mem", help="export activated-slot maps")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--bench", required=True)
    p.add_argument("--split", default="unseen",
                   help="comma-separated splits (seen, unseen, source)")
    p.add_argument("--out", default=None,
                   help="output directory (default: <ckpt>/viz)")
    p.set_defaults(func=cmd_viz_mem)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "command", None) == "eval" and not args.source_only and not args.ckpt:
        print("eval: --ckpt is required unless --source-only is given", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except (ApexError, OSError) as exc:  # an OSError: an --out that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
