"""Training loop over the synthetic benchmark, seen/unseen evaluation,
ablation grid, slot sweep, and activation export.

The backbone is frozen throughout: its parameter digest is checked before
and after every run. Every parameter trains by plain SGD on its autodiff
gradient: the MLPs with the feature path's gradient norm clipped, and the
memory unclipped at its own rate, by the attention-weighted rule that
``prompting.forward_batch``'s graph gives it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from . import losses, numerics as nm, prompting, synthdata, tensorio
from .errors import ConfigError, NonFiniteError, TrainingDivergedError
from .losses import BatchPlan, LossReport
from .prompting import ApexConfig, ApexState
from .synthdata import Benchmark, FrozenBackbone


@dataclass(frozen=True)
class TrainConfig:
    apex: ApexConfig = ApexConfig()
    epochs: int = 2
    domains_per_batch: int = 2
    samples_per_domain: int = 4
    mlp_learning_rate: float = 0.25
    feature_grad_clip: float = 5.0  # global-norm clip on encoder+head grads
    lfc_enabled: bool = True
    seeds: tuple = (0, 1, 2)

    def __post_init__(self) -> None:
        if self.epochs < 0:
            raise ConfigError("epochs must be >= 0")
        if self.feature_grad_clip <= 0:
            raise ConfigError("feature_grad_clip must be positive")
        if self.mlp_learning_rate < 0:
            raise ConfigError(f"mlp_learning_rate must be >= 0, got {self.mlp_learning_rate}")
        if not self.seeds or min(self.seeds) < 0 or len(set(self.seeds)) != len(self.seeds):
            raise ConfigError("seeds must be a nonempty list of distinct integers >= 0, "
                              f"got {self.seeds}")
        self.plan  # validates P, S

    @cached_property
    def plan(self) -> BatchPlan:
        """The layout of every training batch: P domains of S rows each."""
        return BatchPlan(self.domains_per_batch, self.samples_per_domain)


def _batch_arrays(samples) -> tuple[np.ndarray, np.ndarray]:
    images = np.stack([s.image for s in samples])
    masks = np.stack([s.mask for s in samples], dtype=np.float64)[:, :, :, None]
    return images, masks


def train(config: TrainConfig, bench: Benchmark, backbone: FrozenBackbone,
          seed: int) -> tuple[ApexState, list[LossReport]]:
    """Optimize one APEX state on the benchmark's seen training split.

    Deterministic given (config, bench, seed). The backbone is never
    touched; its digest is asserted unchanged. The input centre is fitted
    once per benchmark and region and kept, read-only, in ``bench.input_centers``.
    """
    digest_before = backbone.digest()
    sample0 = bench.splits["train_seen"][0]
    h, w, c = sample0.image.shape
    state = prompting.init_state(replace(config.apex, seed=seed), h, w, c)
    cfg = state.config
    if state.region not in bench.input_centers:
        prompting.fit_input_center(state, bench.splits["train_seen"])
        state.input_center.flags.writeable = False
        bench.input_centers[state.region] = state.input_center
    state.input_center = bench.input_centers[state.region]

    by_domain = bench.by_domain("train_seen")
    counts = {dom: len(samples) for dom, samples in by_domain.items()}
    plan = config.plan
    total = sum(counts.values())
    steps_per_epoch = max(1, total // plan.batch_size)
    rng = np.random.default_rng([seed, 0x5EED])
    views = state.tensor_views()
    memory = views.pop("memory")[0]
    mlp_params = [node for node, _view in views.values()]
    clipped = [None if name.startswith("decoder.") else view for name, (_, view) in views.items()]
    log: list[LossReport] = []

    def one_step() -> LossReport:
        drawn = losses.sample_batch(counts, plan, rng)
        batch = [by_domain[dom][i] for dom, idx in drawn for i in idx]
        images, masks = _batch_arrays(batch)
        positives = losses.sample_positives(plan, rng)  # drawn with LFC off too: one stream

        nodes = prompting.forward_batch(state, images)
        preds = synthdata.backbone_forward(backbone, nodes.output)
        seg, dice_part, ce_part = losses.seg_loss(preds, masks)

        if config.lfc_enabled:
            aux = nm.mlp_forward(state.head, nodes.features)
            lfc = losses.lfc_loss(aux, plan, cfg.temperature, positives)
            total_loss = nm.add(seg, lfc)
        else:
            lfc = None
            total_loss = seg

        nm.zero_grads([memory, *mlp_params])
        nm.backward(total_loss)

        # clip the feature path (encoder + head), its norm summed over each gradient
        # in checkpoint layout, so weight norms cannot run away: cosine gradients
        # scale as 1/norm, and runaway norms freeze the addressing's feature directions
        grads = [p.grad for p in mlp_params]
        gnorm = math.sqrt(sum(float(np.square(view(g), order="C").sum())
                              for g, view in zip(grads, clipped) if view))
        if gnorm > config.feature_grad_clip:
            scale = config.feature_grad_clip / gnorm
            grads = [g * scale if view else g for g, view in zip(grads, clipped)]
        nm.sgd_step(mlp_params, grads, config.mlp_learning_rate)
        if cfg.use_memory:
            nm.sgd_step([memory], [memory.grad], cfg.learning_rate)

        return LossReport(seg=seg.item(), dice_part=dice_part, ce_part=ce_part,
                          lfc=lfc.item() if lfc is not None else 0.0)

    # a diverging run shows as the first non-finite value a node or an update
    # holds; NumPy's overflow warnings before it would only repeat that report
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for _epoch in range(config.epochs):
            for _step in range(steps_per_epoch):
                try:
                    log.append(one_step())
                except (NonFiniteError, TrainingDivergedError) as exc:
                    raise TrainingDivergedError(
                        f"training diverged at step {len(log)} (seed {seed}): {exc}") from None
                state.step += 1

    if backbone.digest() != digest_before:
        raise TrainingDivergedError("frozen backbone changed during training")
    return state, log


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def dice_iou(preds: np.ndarray, masks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dice and IoU in percent, as two [B] arrays, of each pair of [B, h, w]
    binary predictions and masks; an empty-vs-empty pair counts as perfect."""
    p = np.asarray(preds, dtype=bool).reshape(len(preds), -1)
    g = np.asarray(masks, dtype=bool).reshape(len(masks), -1)
    inter = np.count_nonzero(p & g, axis=1)
    union = np.count_nonzero(p | g, axis=1)
    total = np.count_nonzero(p, axis=1) + np.count_nonzero(g, axis=1)
    # 100 * (2 * inter / total) and 100 * (inter / union), and 100 * 1.0 for 0 / 0
    dice = 100.0 * np.divide(2.0 * inter, total, out=np.ones(len(p)), where=total > 0)
    iou = 100.0 * np.divide(inter, union, out=np.ones(len(p)), where=union > 0)
    return dice, iou


@dataclass
class MetricReport:
    """Per-domain Dice/IoU (%) of one split, plus the mean Dice of the seen or
    unseen split's domains; the source split has no mean."""

    split: str
    per_domain: dict          # domain_id -> {"dice", "iou", "count"}

    def _average(self, split: str):
        if self.split != split:
            return None
        return float(np.mean([row["dice"] for row in self.per_domain.values()]))

    avg_seen = property(lambda self: self._average("seen"))
    avg_unseen = property(lambda self: self._average("unseen"))

    def csv_lines(self) -> list[str]:
        lines = ["domain,group,dice,iou,count"]
        for dom in sorted(self.per_domain):
            row = self.per_domain[dom]
            lines.append(f"{dom},{self.split},{row['dice']!r},{row['iou']!r},{row['count']}")
        if self.split in ("seen", "unseen"):
            lines.append(f"avg_{self.split},,{self._average(self.split)!r},,")
        return lines


SPLIT_NAMES = {"seen": "test_seen", "unseen": "test_unseen", "source": "source_test"}


def evaluate(state: ApexState | None, backbone: FrozenBackbone, bench: Benchmark,
             split: str, source_only: bool = False) -> MetricReport:
    """Dice/IoU at threshold 0.5 on one test split.

    ``source_only`` (or ``state=None``) skips prompting entirely: the raw
    image goes straight to the backbone.
    """
    if split not in SPLIT_NAMES:
        raise ConfigError(f"unknown split {split!r}; use seen, unseen, or source")
    samples = bench.splits[SPLIT_NAMES[split]]
    if not samples:
        raise ConfigError(f"split {split!r} is empty")
    if source_only:
        state = None

    def score(chunk, images) -> tuple:
        if state is not None:
            images = prompting.forward_batch(state, images).output.array
        preds = synthdata.backbone_forward(backbone, images).array[..., 0] > 0.5
        return dice_iou(preds, np.stack([s.mask for s in chunk]))

    dice, iou = (np.concatenate(parts) for parts in zip(*prompting.map_chunks(score, samples)))
    domains = np.array([s.domain_id for s in samples])
    per_domain = {}
    for dom in dict.fromkeys(domains.tolist()):  # first-seen order, which the average sums in
        of = domains == dom
        per_domain[dom] = {"dice": float(dice[of].mean()), "iou": float(iou[of].mean()),
                           "count": int(of.sum())}
    return MetricReport(split=split, per_domain=per_domain)


def mean_std(values) -> tuple[float, float]:
    arr = np.asarray(values, dtype=np.float64)
    return float(arr.mean()), float(arr.std())


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

@dataclass
class RunResult:
    state: ApexState
    log: list
    seen: MetricReport
    unseen: MetricReport

    @property
    def averages(self) -> tuple[float, float, float]:
        """(seen, unseen, total) mean Dice; the total is the mean of the two."""
        both = (self.seen.avg_seen, self.unseen.avg_unseen)
        return (*both, float(np.mean(both)))


def train_and_eval(config: TrainConfig, bench: Benchmark, backbone: FrozenBackbone,
                   seed: int) -> RunResult:
    state, log = train(config, bench, backbone, seed)
    return RunResult(state=state, log=log,
                     seen=evaluate(state, backbone, bench, "seen"),
                     unseen=evaluate(state, backbone, bench, "unseen"))


ABLATION_CELLS = (("on", "on"), ("on", "off"), ("off", "on"), ("off", "off"))


def ablation_variant(config: TrainConfig, mem_flag: str, lfc_flag: str) -> TrainConfig:
    """``config`` with the memory and the contrastive loss each "on" or "off"."""
    return replace(config, apex=replace(config.apex, use_memory=mem_flag == "on"),
                   lfc_enabled=lfc_flag == "on")


def slot_variant(config: TrainConfig, j: int) -> TrainConfig:
    """``config`` with ``j`` slots, set up in orthonormal blocks if j > feature_dim."""
    return replace(config, apex=replace(config.apex, slot_count=j,
                                        allow_block_init=j > config.apex.feature_dim))


def run_ablation(config: TrainConfig, bench: Benchmark, backbone: FrozenBackbone) -> list[str]:
    """Memory on/off x contrastive on/off, every seed; Table-shaped CSV rows.

    Memory-off routes the encoder feature straight to the decoder and never
    touches the slot matrix.
    """
    lines = ["memory,lfc,seed,avg_seen_dice,avg_unseen_dice,avg_total_dice"]
    summary = []
    for mem_flag, lfc_flag in ABLATION_CELLS:
        variant = ablation_variant(config, mem_flag, lfc_flag)
        runs = [train_and_eval(variant, bench, backbone, seed).averages for seed in config.seeds]
        lines += [f"{mem_flag},{lfc_flag},{seed}," + ",".join(map(repr, averages))
                  for seed, averages in zip(config.seeds, runs)]
        means = [mean_std(column) for column in zip(*runs)]
        summary.append(f"{mem_flag},{lfc_flag},mean," + ",".join(f"{m!r}" for m, _ in means))
        summary.append(f"{mem_flag},{lfc_flag},std," + ",".join(f"{s!r}" for _, s in means))
    return lines + summary


SWEEP_SLOT_COUNTS = (1, 5, 25, 75, 150, 300)  # what `apex sweep-slots` trains by default


def slot_sweep(config: TrainConfig, bench: Benchmark, backbone: FrozenBackbone,
               j_list) -> list[str]:
    """One trained run per slot count per seed; CSV of J vs mean Dice."""
    lines = ["slots,seed,avg_total_dice"]
    for j in j_list:
        variant = slot_variant(config, j)
        totals = [train_and_eval(variant, bench, backbone, seed).averages[2]
                  for seed in config.seeds]
        lines += [f"{j},{seed},{total!r}" for seed, total in zip(config.seeds, totals)]
        m, s = mean_std(totals)
        lines.append(f"{j},mean,{m!r}")
        lines.append(f"{j},std,{s!r}")
    return lines


TOP_SLOT_FRACTION = 0.10  # share of the slots counted as a sample's activated set


def top_slot_sets(state: ApexState, samples) -> tuple[np.ndarray, np.ndarray]:
    """The [n, J] addressing of ``samples`` and the boolean [n, J] matrix marking each
    row's ``TOP_SLOT_FRACTION`` most activated slots, the first ones among equals."""
    k = max(1, int(np.floor(state.config.slot_count * TOP_SLOT_FRACTION + 0.5)))
    addressing = np.concatenate(prompting.map_chunks(
        lambda _chunk, images: prompting.forward_batch(state, images).addressing.array, samples))
    member = np.zeros(addressing.shape, dtype=bool)
    np.put_along_axis(member, np.argsort(-addressing, axis=1, kind="stable")[:, :k], True, axis=1)
    return addressing, member


def jaccard_matrix(member: np.ndarray) -> np.ndarray:
    """[n, n] Jaccard index of each pair of rows of a boolean [n, J] matrix, 1.0 for
    two empty rows; exact integer counts make each one ``len(a & b) / len(a | b)``."""
    m = member.astype(np.float64)
    inter = m @ m.T  # its diagonal holds each row's size
    union = np.add.outer(inter.diagonal(), inter.diagonal()) - inter
    return np.divide(inter, union, out=np.ones_like(inter), where=union > 0)


def slot_overlap_summary(domains, jac) -> tuple[float | None, float | None]:
    """(mean within-domain, mean cross-domain) of the entries i < j of the [n, n]
    Jaccard matrix ``jac`` by the rows' ``domains``; None for a group without pairs."""
    ids = np.asarray(domains)
    i, j = np.triu_indices(len(ids), k=1)
    pairs = jac[i, j]
    same = ids[i] == ids[j]
    return tuple(float(np.mean(pairs[of])) if of.any() else None for of in (same, ~same))


def export_activations(state: ApexState, samples, out_dir) -> tuple:
    """CSV of per-sample top slots, a domain-pair overlap matrix, and a PGM
    heatmap of addressing magnitudes; returns :func:`slot_overlap_summary`."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    addressing, member = top_slot_sets(state, samples)
    ids = np.array([s.domain_id for s in samples])

    lines = ["sample_id,domain_id,top_slots"]
    lines += [f"{s.sample_id},{s.domain_id},{'|'.join(map(str, np.flatnonzero(row)))}"
              for s, row in zip(samples, member)]
    (out / "activations.csv").write_text("\n".join(lines) + "\n", encoding="ascii")

    jac = jaccard_matrix(member)
    domains = sorted(set(ids.tolist()))
    matrix = ["domain," + ",".join(domains)]
    for da in domains:
        cells = []
        for db in domains:  # the block's pairs row-major; within one domain, those i < j
            block = jac[np.ix_(ids == da, ids == db)]
            pairs = block[np.triu_indices(len(block), k=1)] if da == db else block.ravel()
            cells.append(repr(float(np.mean(pairs))) if pairs.size else "")
        matrix.append(f"{da}," + ",".join(cells))
    (out / "overlap_matrix.csv").write_text("\n".join(matrix) + "\n", encoding="ascii")

    heat = np.abs(addressing)
    peak = heat.max()
    tensorio.write_pgm(out / "activations.pgm", heat / peak if peak > 0 else heat)
    return slot_overlap_summary(ids, jac)
