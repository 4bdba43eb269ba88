"""The benchmark's workloads, the closed loop that runs them, and the checks
on their outputs.

A workload is a cycle: one set-up in a fresh process, then for each of the
workload's training jobs (a training config and a seed) one gen-bench and
the job. Every job is trained, evaluated on the seen and unseen test splits,
evaluated again (the repeat must give the identical report), saved and
reloaded (the reloaded state must evaluate identically), and its Dice is
compared with the reference recorded for the workload seed. The loop runs
whole cycles, one call at a time, until the time budget is spent, so every
aggregate covers the same mix of jobs.
"""

from __future__ import annotations

import hashlib
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, replace
from pathlib import Path

from apex import harness, prompting, synthdata, tensorio

# A reordered float sum may flip a few pixels of a prediction; a change in
# behaviour moves Dice by whole points.
DICE_TOLERANCE = 0.25
EVAL_SPLITS = ("seen", "unseen")
SETUP_PROBE = Path(__file__).resolve().parent / "setup_probe.py"


@dataclass(frozen=True)
class Job:
    label: str
    config: harness.TrainConfig
    seed: int


@dataclass(frozen=True)
class Workload:
    name: str
    image_size: int
    jobs: tuple
    eval_rounds: int  # extra rounds of seen, unseen and source-only evals per cycle

    def bench_config(self) -> synthdata.BenchmarkConfig:
        return synthdata.BenchmarkConfig(image_size=self.image_size)


def _default_jobs() -> tuple:
    config = harness.TrainConfig()
    return tuple(Job(f"seed{s}", config, s) for s in config.seeds)


def _ablation_jobs() -> tuple:
    """The cells of ``harness.run_ablation`` and ``harness.slot_sweep`` at
    J=1 and J=300, built as those functions build them, one seed each."""
    base = harness.TrainConfig()
    seed = base.seeds[0]
    jobs = []
    for mem_flag, lfc_flag in harness.ABLATION_CELLS:
        variant = replace(base, apex=replace(base.apex, use_memory=mem_flag == "on"),
                          lfc_enabled=lfc_flag == "on")
        jobs.append(Job(f"memory_{mem_flag}-lfc_{lfc_flag}", variant, seed))
    for j in (1, 300):
        apex_cfg = replace(base.apex, slot_count=j, allow_block_init=j > base.apex.feature_dim)
        jobs.append(Job(f"slots_{j}", replace(base, apex=apex_cfg), seed))
    return tuple(jobs)


WORKLOADS = {
    # what `apex train` does: the default config, consecutive seeds
    "train32": Workload("train32", 32, _default_jobs(), eval_rounds=0),
    # the CLI path at 128x128, where spectral and synthdata dominate
    "hires128": Workload("hires128", 128, _default_jobs()[:1], eval_rounds=3),
    # `apex ablate` and `apex sweep-slots`: variants that skip or widen layers
    "ablate32": Workload("ablate32", 32, _ablation_jobs(), eval_rounds=0),
}


def files_digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(directory.rglob("*")):
        if path.is_file():
            h.update(path.relative_to(directory).as_posix().encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def _bench_digest(bench: synthdata.Benchmark) -> str:
    return tensorio.tensor_digest(*(s.image for split in bench.SPLITS
                                    for s in bench.splits[split]))


class Run:
    """State of one benchmark run: inputs, timings and check outcomes."""

    def __init__(self, workload: Workload, bench_seed: int, reference, workdir: Path):
        self.workload = workload
        self.bench_seed = bench_seed
        self.reference = reference  # [seen, unseen] Dice per job; None while recording
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.gen_times: list[float] = []
        self.setup_times: list[float] = []
        self.train_times = defaultdict(list)   # job label -> seconds per training
        self.train_steps: dict = {}            # job label -> steps per training
        self.eval_times = defaultdict(list)    # (label, split, source_only) -> seconds
        self.eval_images: dict = {}            # same key -> images per call
        self.first_reports: dict = {}          # same key -> first csv lines
        self.first_dice: dict = {}             # job label -> (seen, unseen)
        self.cycles = 0
        self.timing = True  # False during warm-up: calls are checked, not timed
        self.inputs_digest = ""
        self._built_digest = ""
        self.bench = None
        self.backbone = None
        self.backbone_digest = ""
        self.init_memory_digest = ""

    # -- bookkeeping -------------------------------------------------------

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)
            print(f"check failed: {what}", file=sys.stderr)
        return ok

    def call(self, what: str, fn, *args, **kwargs):
        """One operation of the program; an exception counts as a failure."""
        try:
            return fn(*args, **kwargs)
        except Exception:  # the loop keeps running and reports the failure
            self.check(False, f"{what} raised:\n{traceback.format_exc()}")
            return None

    # -- phases --------------------------------------------------------------

    def gen_bench(self, out: Path) -> None:
        """gen-bench: build and save the benchmark; every run writes the same files."""
        t0 = time.perf_counter()
        bench = synthdata.build_benchmark(self.workload.bench_config(), self.bench_seed)
        synthdata.save_benchmark(bench, out)
        elapsed = time.perf_counter() - t0
        digest = files_digest(out)
        if not self.inputs_digest:
            self.inputs_digest = digest
            self._built_digest = _bench_digest(bench)
        elif self.timing:
            self.gen_times.append(elapsed)
        self.check(digest == self.inputs_digest, "gen-bench wrote different files")

    def setup(self, bench_dir: Path) -> None:
        """What every CLI command pays before its first operation."""
        cfg = self.workload.bench_config()
        self.bench = synthdata.load_benchmark(bench_dir, cfg, self.bench_seed)
        self.check(_bench_digest(self.bench) == self._built_digest,
                   "loaded benchmark differs from the built one")
        self.backbone = synthdata.backbone_calibrate(self.bench.splits["source_cal"])
        self.backbone_digest = self.backbone.digest()
        job = self.workload.jobs[0]
        h, w, c = self.bench.splits["train_seen"][0].image.shape
        state = prompting.init_state(replace(job.config.apex, seed=job.seed), h, w, c)
        self.init_memory_digest = tensorio.tensor_digest(state.memory.array)

    def probe_setup(self, bench_dir: Path) -> None:
        """Time set-up in a fresh process, from spawn to its ready line."""
        cmd = [sys.executable, str(SETUP_PROBE), "--bench", str(bench_dir),
               "--size", str(self.workload.image_size), "--bench-seed", str(self.bench_seed),
               "--train-seed", str(self.workload.jobs[0].seed)]
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            try:
                line = proc.stdout.readline()
                elapsed = time.perf_counter() - t0
                rest = proc.communicate(timeout=120)[0]
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
                raise
        if self.check(proc.returncode == 0 and not rest,
                      f"set-up process exited with {proc.returncode}"):
            self.setup_times.append(elapsed)
            self.check(line.split() == [self.backbone_digest, self.init_memory_digest],
                       "set-up process calibrated another backbone or memory")

    # -- the closed loop -----------------------------------------------------

    def evaluate(self, label: str, state, split: str, source_only: bool = False):
        key = (label, split, source_only)
        t0 = time.perf_counter()
        report = self.call(f"evaluate {key}", harness.evaluate, state, self.backbone,
                           self.bench, split, source_only=source_only)
        elapsed = time.perf_counter() - t0
        if report is None:
            return None
        if self.timing:
            self.eval_times[key].append(elapsed)
        self.eval_images[key] = sum(row["count"] for row in report.per_domain.values())
        lines = report.csv_lines()
        first = self.first_reports.setdefault(key, lines)
        self.check(lines == first, f"evaluate {key} changed between calls")
        return report

    def train(self, index: int):
        job = self.workload.jobs[index]
        t0 = time.perf_counter()
        result = self.call(f"train {job.label}", harness.train, job.config, self.bench,
                           self.backbone, job.seed)
        elapsed = time.perf_counter() - t0
        if result is None:
            return None
        state, log = result
        if self.timing:
            self.train_times[job.label].append(elapsed)
            self.train_steps[job.label] = len(log)
        return state

    def warm_up(self) -> None:
        """The first job once, checked but not timed."""
        self.timing = False
        self.run_job(0)
        self.timing = True

    def run_job(self, index: int, on_trained=None) -> None:
        """Train one job, then check and evaluate the trained state;
        ``on_trained(job)`` runs right after the training."""
        job = self.workload.jobs[index]
        state = self.train(index)
        if on_trained is not None:
            on_trained(job)
        if state is not None:
            self.check_state(index, state)
            if index == 0:
                for _ in range(self.workload.eval_rounds):
                    self.eval_round(state)
        self.check(self.backbone.digest() == self.backbone_digest,
                   f"backbone changed during {job.label}")

    def check_state(self, index: int, state) -> None:
        job = self.workload.jobs[index]
        reports = {split: self.evaluate(job.label, state, split) for split in EVAL_SPLITS}
        self.evaluate(job.label, state, EVAL_SPLITS[0])  # a repeat must match
        ckpt = self.workdir / "ckpt"
        loaded = self.call("checkpoint round trip", _round_trip, state, ckpt)
        if loaded is not None:
            self.evaluate(job.label, loaded, EVAL_SPLITS[1])
        if None in reports.values():
            return
        dice = (reports["seen"].avg_seen, reports["unseen"].avg_unseen)
        self.first_dice.setdefault(job.label, dice)
        if self.reference is None:  # recording the reference
            return
        ref = self.reference[index]
        self.check(all(abs(d - r) <= DICE_TOLERANCE for d, r in zip(dice, ref)),
                   f"{job.label}: seen/unseen Dice {dice} differ from reference {ref}")

    def eval_round(self, state) -> None:
        label = self.workload.jobs[0].label
        for split in EVAL_SPLITS:
            self.evaluate(label, state, split)
        self.evaluate(label, None, "source", source_only=True)

    def cycle(self, bench_dir: Path, on_trained=None) -> None:
        self.probe_setup(bench_dir)
        for index in range(len(self.workload.jobs)):
            self.gen_bench(self.workdir / "gen")
            self.run_job(index, on_trained=on_trained)
        self.cycles += 1

    def loop(self, bench_dir: Path, seconds: float, before_cycle=None,
             on_trained=None) -> None:
        """Whole cycles until ``seconds`` have passed (at least one);
        ``before_cycle()`` runs before each cycle."""
        start = time.perf_counter()
        while self.cycles == 0 or time.perf_counter() - start < seconds:
            if before_cycle is not None:
                before_cycle()
            self.cycle(bench_dir, on_trained)

    # -- end-to-end metrics ----------------------------------------------------

    def train_steps_per_s(self) -> float:
        """Steps over the median training time of each job, summed over jobs."""
        labels = [j.label for j in self.workload.jobs if self.train_times[j.label]]
        steps = sum(self.train_steps[lab] for lab in labels)
        return steps / sum(statistics.median(self.train_times[lab]) for lab in labels)

    def eval_images_per_s(self) -> float:
        """Images over the median time of each kind of evaluate call, summed."""
        keys = [k for k, v in self.eval_times.items() if v]
        return (sum(self.eval_images[k] for k in keys)
                / sum(statistics.median(self.eval_times[k]) for k in keys))

    def samples(self) -> dict:
        """Every timed sample of the run, in seconds, for the result record."""
        return {"gen_bench": self.gen_times, "setup": self.setup_times,
                "train": dict(self.train_times),
                "evaluate": {"/".join(map(str, k)): v for k, v in self.eval_times.items()}}

    def unseen_dice(self) -> float:
        return statistics.fmean(d[1] for d in self.first_dice.values())


def _round_trip(state, directory: Path):
    if directory.exists():
        shutil.rmtree(directory)
    prompting.save_state(state, directory)
    return prompting.load_state(directory)
