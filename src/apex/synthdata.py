"""Deterministic synthetic multi-domain segmentation benchmark plus a
frozen, differentiable toy backbone.

Scenes are lesion-on-background images; domain shifts are purely intensity
transforms (gain, bias, smooth multiplicative shading, pixel noise) whose
spectral footprint sits inside the default low-frequency mask, so the
backbone breaks on shifted domains for exactly the reasons amplitude
prompting can repair.

The backbone is an analytic intensity segmenter, sigmoid((blur(x) - t) / s),
calibrated once on source data and then frozen; gradients flow to its input
only, never to its parameters. In training it is one fused graph node
(:func:`backbone_forward`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import numerics as nm
from . import tensorio
from .errors import (ConfigError, CorruptInputError, InputNotFoundError, NonFiniteError,
                     ShapeError, read_text)
from .numerics import Node

SCENE_BACKGROUND = 0.3
SCENE_LESION = 0.7
AREA_FRACTION_RANGE = (0.02, 0.20)


@dataclass(frozen=True)
class DomainSpec:
    """Intensity transform defining one domain.

    ``shading`` lists low-frequency cosine modes as (freq_u, freq_v, amp);
    per-image phases and small amplitude jitter come from the sample seed,
    which is where intra-domain variability enters.
    """

    domain_id: str
    gain: float
    bias: float
    shading: tuple = ()
    noise_sigma: float = 0.0

    def __post_init__(self) -> None:
        if self.gain <= 0.0:
            raise ConfigError(f"domain {self.domain_id!r}: gain must be positive")
        if len(self.shading) > 3:
            raise ConfigError(f"domain {self.domain_id!r}: at most 3 shading modes")
        for fu, fv, amp in self.shading:
            if (fu, fv) == (0, 0) or abs(fu) > 3 or abs(fv) > 3:
                raise ConfigError("shading modes must be low nonzero frequencies")
            if amp < 0:
                raise ConfigError("shading amplitude must be nonnegative")

    def shading_text(self) -> str:
        """The modes as ``fu:fv:amp`` joined by ``;``, as config files spell them."""
        return ";".join(f"{fu}:{fv}:{amp!r}" for fu, fv, amp in self.shading)

    def manifest_fields(self) -> str:
        return f"{self.gain!r},{self.bias!r},{self.shading_text()},{self.noise_sigma!r}"


@dataclass(frozen=True)
class DomainSample:
    sample_id: str
    domain_id: str
    image: np.ndarray   # [h, w, 1]
    mask: np.ndarray    # [h, w] bool; saved as float64 0.0 and 1.0
    scene_seed: int


# Both caches fill on first use, on any thread; two threads that miss at once
# each build an equal read-only array, so the bytes cannot depend on it.
@functools.cache
def _grid(h: int, w: int) -> np.ndarray:
    """``np.mgrid[0:h, 0:w]``, built once per size and read-only."""
    grid = np.mgrid[0:h, 0:w]
    grid.flags.writeable = False
    return grid


def _lesion_window(cy: float, cx: float, a: float, b: float, h: int,
                   w: int) -> tuple[slice, slice]:
    """Rows and columns around (cy, cx) that hold every pixel of an ellipse
    with semi-axes a and b, with a two-pixel margin, clipped to the image."""
    r = math.ceil(max(a, b)) + 2
    y, x = int(cy), int(cx)
    return slice(max(y - r, 0), min(y + r + 1, h)), slice(max(x - r, 0), min(x + r + 1, w))


def _base_scene(seed: int, h: int, w: int) -> tuple[np.ndarray, np.ndarray]:
    """Textured background near 0.3 with 1-3 brighter elliptical lesions, as
    a clipped [h, w] image and a boolean mask.

    Redraws until the lesion area fraction lands in [2%, 20%], so the
    generator satisfies its own area contract by construction. Each lesion
    still draws a full [h, w] noise field, so the random stream and the
    image are those of a full-grid evaluation; only the lesion's window is
    evaluated.
    """
    rng = np.random.default_rng(seed)
    yy, xx = _grid(h, w)
    for _ in range(64):
        img = SCENE_BACKGROUND + 0.03 * rng.standard_normal((h, w))
        mask = np.zeros((h, w), dtype=bool)
        scale = min(h, w) / 32.0
        for _ in range(int(rng.integers(1, 4))):
            cy = rng.uniform(0.22, 0.78) * h
            cx = rng.uniform(0.22, 0.78) * w
            a = rng.uniform(2.8, 5.2) * scale
            b = rng.uniform(2.8, 5.2) * scale
            theta = rng.uniform(0.0, np.pi)
            win = _lesion_window(cy, cx, a, b, h, w)
            dx, dy = xx[win] - cx, yy[win] - cy
            u = dx * np.cos(theta) + dy * np.sin(theta)
            v = -dx * np.sin(theta) + dy * np.cos(theta)
            inside = (u / a) ** 2 + (v / b) ** 2 <= 1.0
            level = SCENE_LESION + rng.uniform(-0.03, 0.03)
            noise = rng.standard_normal((h, w))
            img[win][inside] = (level + 0.02 * noise[win])[inside]
            mask[win] |= inside
        frac = mask.mean()
        if AREA_FRACTION_RANGE[0] <= frac <= AREA_FRACTION_RANGE[1]:
            break
    else:
        raise RuntimeError(f"scene generator failed to hit area range for seed {seed}")
    return np.clip(img, 0.0, 1.0, out=img), mask


@functools.cache
def _shading_table(fu: int, fv: int, h: int, w: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of a mode's argument 2 pi (fu y / h + fv x / w)
    and the [h, w] index of each pixel's value among them; built once per
    mode and size and read-only."""
    yy, xx = _grid(h, w)
    vals, inv = np.unique(2.0 * np.pi * (fu * yy / h + fv * xx / w), return_inverse=True)
    table = (vals, inv.reshape(h, w))
    for arr in table:
        arr.flags.writeable = False
    return table


def _shading_field(spec: DomainSpec, rng: np.random.Generator, h: int, w: int) -> np.ndarray:
    """Smooth multiplicative field: 1 plus the domain's cosine modes with
    per-image phase and mild amplitude jitter. Each mode's cosine is taken
    once per distinct argument value and spread over the grid, which gives
    the full-grid expression's bits."""
    out = np.ones((h, w))
    for fu, fv, amp in spec.shading:
        phase = rng.uniform(0.0, 2.0 * np.pi)
        amp_eff = amp * rng.uniform(0.75, 1.25)
        vals, inv = _shading_table(fu, fv, h, w)
        out += (amp_eff * np.cos(vals + phase))[inv]
    return out


def _apply_domain(arr: np.ndarray, spec: DomainSpec, seed: int) -> np.ndarray:
    """clamp(gain * shading * img + bias + noise, 0, 1) of an [h, w, c] image
    as a new array; the adds and the clamp run in place, in that order."""
    h, w = arr.shape[:2]
    rng = np.random.default_rng(seed)
    fld = _shading_field(spec, rng, h, w)[:, :, None]
    noise = spec.noise_sigma * rng.standard_normal(arr.shape) if spec.noise_sigma else 0.0
    shifted = spec.gain * fld * arr
    shifted += spec.bias
    shifted += noise
    return np.clip(shifted, 0.0, 1.0, out=shifted)


# Seen domains shade along different axes, so confusing them costs Dice;
# unseen gains/biases sit outside the seen convex hull.
DEFAULT_SOURCE = DomainSpec("source", gain=1.0, bias=0.0, shading=(), noise_sigma=0.01)
DEFAULT_SEEN = (
    DomainSpec("A", gain=0.55, bias=0.03,
               shading=((0, 1, 0.17), (0, 2, 0.11), (1, 1, 0.07)), noise_sigma=0.02),
    DomainSpec("B", gain=0.85, bias=0.30,
               shading=((1, 0, 0.17), (2, 0, 0.11), (1, 1, 0.07)), noise_sigma=0.02),
)
DEFAULT_UNSEEN = (
    DomainSpec("C", gain=0.42, bias=0.06,
               shading=((0, 1, 0.19), (1, 1, 0.09)), noise_sigma=0.02),
    DomainSpec("D", gain=0.95, bias=0.40,
               shading=((1, 0, 0.15), (1, 1, 0.10)), noise_sigma=0.02),
)


@dataclass(frozen=True)
class BenchmarkConfig:
    image_size: int = 32
    train_per_domain: int = 200
    test_per_domain: int = 50
    source_train: int = 120
    source_test: int = 50
    source: DomainSpec = DEFAULT_SOURCE
    seen: tuple = DEFAULT_SEEN
    unseen: tuple = DEFAULT_UNSEEN

    def __post_init__(self) -> None:
        if self.image_size < 32 or self.image_size % 2:
            raise ConfigError(f"image_size must be even and >= 32, got {self.image_size}")
        for name in ("train_per_domain", "test_per_domain", "source_train", "source_test"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if len(self.seen) < 2 or len(self.unseen) < 2:
            raise ConfigError("need at least 2 seen and 2 unseen domains")
        seen_params = {(d.gain, d.bias) for d in self.seen}
        unseen_params = {(d.gain, d.bias) for d in self.unseen}
        if seen_params & unseen_params:
            raise ConfigError("seen and unseen domain parameters overlap")
        ids = [self.source.domain_id] + [d.domain_id for d in self.seen + self.unseen]
        if len(set(ids)) != len(ids):
            raise ConfigError("domain ids must be unique")


@dataclass
class Benchmark:
    config: BenchmarkConfig
    seed: int
    splits: dict  # split name -> list[DomainSample]

    SPLITS = ("source_cal", "source_test", "train_seen", "test_seen", "test_unseen")

    def by_domain(self, split: str) -> dict:
        out: dict = {}
        for s in self.splits[split]:
            out.setdefault(s.domain_id, []).append(s)
        return out

    def manifest_csv(self) -> str:
        lines = ["sample_id,domain_id,split,scene_seed,gain,bias,shading,noise_sigma"]
        domains = {spec.domain_id: spec for spec, _, _ in _plan(self.config)}
        for split in self.SPLITS:
            for s in self.splits[split]:
                spec = domains[s.domain_id]
                lines.append(f"{s.sample_id},{s.domain_id},{split},{s.scene_seed},"
                             f"{spec.manifest_fields()}")
        return "\n".join(lines) + "\n"


def _plan(config: BenchmarkConfig) -> list:
    """``(spec, split, count)`` for each domain of each split, in the order
    the samples take their seeds."""
    plan = [(config.source, "source_cal", config.source_train),
            (config.source, "source_test", config.source_test)]
    for spec in config.seen:
        plan += [(spec, "train_seen", config.train_per_domain),
                 (spec, "test_seen", config.test_per_domain)]
    return plan + [(spec, "test_unseen", config.test_per_domain) for spec in config.unseen]


def build_benchmark(config: BenchmarkConfig, seed: int) -> Benchmark:
    """Generate every split; scene seeds are disjoint between train and test
    (and unique per sample), so no base scene is ever shared.

    A sample draws only from its own two seeded generators, so samples can
    be built in any order, with the same bytes; from
    ``numerics.PARALLEL_MIN_PIXELS`` pixels up they are built on every usable
    CPU (:func:`numerics.map_ordered`).
    """
    size = config.image_size
    jobs = [(spec, split, i)  # (spec, split, index in split), in seed order
            for spec, split, count in _plan(config) for i in range(count)]

    def build(n: int) -> DomainSample:
        # no public (tracer-wrapped) calls: this may run on a worker thread
        spec, split, i = jobs[n]
        scene_seed = (seed << 24) + n
        img, mask = _base_scene(scene_seed, size, size)
        return DomainSample(f"{spec.domain_id}-{split}-{i:04d}", spec.domain_id,
                            _apply_domain(img[:, :, None], spec, scene_seed + 0x800000), mask,
                            scene_seed)

    samples = nm.map_ordered(build, range(len(jobs)),
                             threaded=size * size >= nm.PARALLEL_MIN_PIXELS)
    splits: dict = {name: [] for name in Benchmark.SPLITS}
    for (_, split, _), sample in zip(jobs, samples):
        splits[split].append(sample)
    return Benchmark(config=config, seed=seed, splits=splits)


def save_benchmark(bench: Benchmark, directory) -> None:
    d = Path(directory)
    d.mkdir(parents=True, exist_ok=True)
    (d / "manifest.csv").write_text(bench.manifest_csv(), encoding="ascii")
    for split, samples in bench.splits.items():
        tensorio.write_tensor(d / f"{split}_images.apxt", [s.image for s in samples])
        tensorio.write_tensor(d / f"{split}_masks.apxt", [s.mask for s in samples])


def _read_split(path: Path, entries: list, shape: tuple, binary: bool) -> np.ndarray:
    """A split's tensor: one sample of ``shape`` per manifest entry, and values
    in [0, 1], or 0 and 1 only if ``binary``, which returns it as ``bool``; a
    NaN fails every comparison. Samples are read and checked one at a time; a
    binary one is read into one reused float64 buffer and converted, so no
    float64 copy of a whole mask split is made."""
    with tensorio.tensor_reader(path) as (file_shape, read):
        if file_shape != (len(entries), *shape):
            raise CorruptInputError(f"{path}: shape {file_shape}, but manifest.csv lists "
                                    f"{len(entries)} samples of shape {shape}")
        out = np.empty(file_shape, dtype=bool if binary else "<f8")
        x = np.empty(shape, dtype="<f8")
        for (sample_id, _, _), o in zip(entries, out):
            if binary:
                read(x)
                np.equal(x, 1.0, out=o)
                ok = (o | (x == 0.0)).all()
            else:
                read(o)
                ok = ((o >= 0.0) & (o <= 1.0)).all()
            if not ok:
                raise CorruptInputError(f"{path}: sample {sample_id} has values "
                                        + ("other than 0 and 1" if binary else "outside [0, 1]"))
    return out


def load_benchmark(directory, config: BenchmarkConfig, seed: int) -> Benchmark:
    """Load tensors saved by :func:`save_benchmark`; metadata comes from the
    manifest, each of whose rows must name a split and one of that split's
    domains in ``config``. :func:`_read_split` checks each split's image and
    mask tensors; a fault raises :class:`CorruptInputError`."""
    d, side = Path(directory), config.image_size
    manifest = d / "manifest.csv"
    if not manifest.is_file():
        raise InputNotFoundError(f"no benchmark in {d}: {manifest.name} does not exist")
    planned = {(split, spec.domain_id) for spec, split, _ in _plan(config)}
    rows = read_text(manifest, "ascii", CorruptInputError).splitlines()[1:]
    meta: dict = {name: [] for name in Benchmark.SPLITS}
    for lineno, row in enumerate(rows, start=2):
        try:
            sample_id, domain_id, split, scene_seed = row.split(",")[:4]
            scene_seed = int(scene_seed)
        except ValueError:
            raise CorruptInputError(f"{manifest}: line {lineno}: malformed row {row!r}") from None
        if (split, domain_id) not in planned:
            raise CorruptInputError(f"{manifest}: line {lineno}: the config has no domain "
                                    f"{domain_id!r} in split {split!r}")
        meta[split].append((sample_id, domain_id, scene_seed))
    splits: dict = {}
    for split, entries in meta.items():
        images = _read_split(d / f"{split}_images.apxt", entries, (side, side, 1), binary=False)
        masks = _read_split(d / f"{split}_masks.apxt", entries, (side, side), binary=True)
        splits[split] = [DomainSample(sample_id, domain_id, img, mask, scene_seed)
                         for (sample_id, domain_id, scene_seed), img, mask
                         in zip(entries, images, masks)]
    return Benchmark(config=config, seed=seed, splits=splits)


# ---------------------------------------------------------------------------
# frozen backbone
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FrozenBackbone:
    """Differentiable intensity segmenter: sigmoid((blur_r(x) - t) / s)."""

    threshold: float
    slope: float
    blur_radius: int

    def digest(self) -> str:
        return tensorio.tensor_digest(
            np.array([self.threshold, self.slope, float(self.blur_radius)]))


def _circular_mean(x: np.ndarray, radius: int) -> np.ndarray:
    """Mean of the circular shifts -radius..radius of [N, n, m] data along
    axis 1: the shifts summed in that order into zeros, then divided by
    2 * radius + 1, the values of summing ``np.roll`` copies. Every shift is
    one add of a contiguous slice of a circularly padded copy: the entries
    that wrap across the copy's rows land in its padding, which is dropped.
    """
    n, step = x.shape[1], x.shape[2]
    padded = np.concatenate((x[:, n - radius:], x, x[:, :radius]), axis=1).reshape(-1)
    end = padded.size - radius * step
    acc = np.zeros_like(padded)
    for shift in range(-radius, radius + 1):
        acc[radius * step:end] += padded[(radius - shift) * step:end - shift * step]
    return acc.reshape(len(x), n + 2 * radius, step)[:, radius:radius + n] / (2 * radius + 1)


def _blur(data: np.ndarray, radius: int) -> np.ndarray:
    """Circular box blur of [..., h, w, c] data: the circular mean along the
    rows, then along the columns. ``radius`` is at most the shorter side."""
    h, w, c = data.shape[-3:]
    if radius > min(h, w):
        raise ShapeError(f"blur radius {radius} exceeds the image side {min(h, w)}")
    rows = _circular_mean(data.reshape(-1, h, w * c), radius)
    return _circular_mean(rows.reshape(-1, w, c), radius).reshape(data.shape)


def backbone_forward(bb: FrozenBackbone, img) -> Node:
    """Probability map sigmoid((blur(x) - t) / s) of an [h, w, c] or
    [batch, h, w, c] image, array or node; differentiable w.r.t. the image
    only.

    One fused node with the values and input gradient of the chain
    ``blur -> sub -> div -> sigmoid``, whose ``box_blur`` and ``sigmoid``
    are in ``tests/oracles.py``: z = (blur(x) - t) / s, then the
    stable sigmoid 1 / (1 + e) for z >= 0 and e / (1 + e) below, with
    e = exp(-|z|); the backward is blur(g * y * (1 - y) / s), as blur is
    self-adjoint. A non-finite z raises :class:`NonFiniteError`, as the
    chain's ``div`` node did.
    """
    img = nm.as_node(img)
    z = _blur(img.array, bb.blur_radius)
    z -= bb.threshold
    z /= bb.slope
    if not np.isfinite(z).all():
        raise NonFiniteError("tensor values must all be finite")
    e = np.abs(z)
    np.negative(e, out=e)
    np.exp(e, out=e)
    d = e + 1.0
    # where(z >= 0, 1.0 / d, e / d) in one division: the same correctly rounded quotients
    y = np.where(z >= 0, 1.0, e)
    y /= d

    def back(g: np.ndarray) -> None:
        img.accumulate(_blur(g * y * (1.0 - y) / bb.slope, bb.blur_radius))

    return Node(y, parents=(img,), backward=back, op="backbone")


# Samples are scored in row blocks of about this many float64 values, so a
# block's four arrays stay in L2 while every grid point re-reads them; blocks
# run on every usable CPU, so this working set is per thread. One unblocked
# batch of 128x128 images is slower than a per-sample loop.
CALIBRATION_BLOCK_ELEMENTS = 32768
CALIBRATION_BLUR_RADIUS = 1
CALIBRATION_THRESHOLDS = tuple(np.round(np.linspace(0.2, 0.8, 61), 10).tolist())
CALIBRATION_SLOPES = (0.05, 0.08, 0.12)
# far above the relative rounding of a score or a bound (about 1e-13)
CALIBRATION_BOUND_MARGIN = 1.0 + 1e-6


def calibration_scorer(samples):
    """A function of ``points`` that gives the mean soft Dice of
    sigmoid((blur(x) - t) / s) on ``samples`` at each (t, s) of ``points``,
    as a [points] array, and the per-sample sums it is made of, inter =
    sum(p m) and denom = sum p + sum m + 1, as [points, samples] arrays.

    A sample's soft Dice is (2 inter + 1) / denom over its channel-0 pixels;
    the mean adds the samples in order, then divides. The samples are
    blurred once, here, a block of rows at a time, and their masks stacked
    and summed once; every call scores those blocks. A call evaluates a
    block at each point with in-place ufuncs in the per-sample expression's
    order, and each row sums on its own, so every score is bit-identical to
    evaluating one sample at one point at a time. Blocks are blurred and
    scored on every usable CPU (:func:`numerics.map_ordered`; NumPy's loops
    release the GIL).
    """
    if not samples:
        raise ConfigError("cannot calibrate on an empty source set")
    n, pixels = len(samples), samples[0].mask.size
    rows = max(1, CALIBRATION_BLOCK_ELEMENTS // pixels)
    blocks = [slice(lo, lo + rows) for lo in range(0, n, rows)]
    # one array for all blurred rows, freed whole when the search ends: one
    # array per block left the heap fragmented, and a later allocation raised
    # set-up's peak RSS; masks stay as the samples hold them, bool
    blurred = np.empty((n, pixels))
    masks = np.stack([smp.mask for smp in samples]).reshape(n, pixels)
    m_sums = masks.sum(axis=1, dtype=np.float64)

    def blur(block: slice) -> None:
        # no public (tracer-wrapped) calls: this may run on a worker thread
        images = np.stack([smp.image for smp in samples[block]])
        blurred[block] = _blur(images, CALIBRATION_BLUR_RADIUS)[..., 0].reshape(-1, pixels)

    nm.map_ordered(blur, blocks)

    def scores(points) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        def score(block: slice) -> np.ndarray:
            # no public (tracer-wrapped) calls: this may run on a worker thread
            x, m_sum = blurred[block], m_sums[block]
            # float64, as a bool mask would be cast again in every np.multiply below
            m = masks[block].astype(np.float64)
            d, p = np.empty((2, *x.shape))
            sums = np.empty((2, len(points), len(x)))
            for i, (t, s) in enumerate(points):
                # t - x is exactly -(x - t): IEEE rounding is symmetric in sign
                np.subtract(t, x, out=d)
                np.divide(d, s, out=p)
                np.exp(p, out=p)
                np.add(p, 1.0, out=p)
                np.reciprocal(p, out=p)
                sums[0, i] = np.multiply(p, m, out=d).sum(axis=1)
                sums[1, i] = p.sum(axis=1) + m_sum + 1.0
            return sums

        inter, denom = np.concatenate(nm.map_ordered(score, blocks), axis=2)
        dice = (2.0 * inter + 1.0) / denom
        # the mean adds the samples in order; np.sum would reorder the adds
        total = np.zeros(len(points))
        for k in range(n):
            total += dice[:, k]
        return total / n, inter, denom

    return scores


def calibration_search(samples) -> dict:
    """Branch and bound (Land and Doig, 1960) over the ``CALIBRATION_*``
    grid: the score of each point it visits, keyed by (threshold index,
    slope index); every point it skips scores below the best it visited.

    With s > 0, p = sigmoid((x - t) / s) falls as t rises, so for t_a < t <
    t_b a sample's inter is at most inter(t_a) and its denom at least
    denom(t_b), and the score at t is at most bound = mean over samples of
    (2 inter(t_a) + 1) / denom(t_b). Per slope, it scores the first and last
    threshold, then bisects, one call of a :func:`calibration_scorer` per
    level, and skips the points inside [t_a, t_b] when bound times the margin
    ``CALIBRATION_BOUND_MARGIN`` is below the best score so far; the margin
    covers the rounding, so a skipped point can neither beat nor tie that
    best. Thresholds that do not increase strictly or a slope that is not
    positive raise :class:`ConfigError`.
    """
    thresholds, slopes = CALIBRATION_THRESHOLDS, CALIBRATION_SLOPES
    if any(a >= b for a, b in zip(thresholds, thresholds[1:])) or min(slopes) <= 0:
        raise ConfigError("calibration thresholds must increase strictly, slopes be positive")
    last = len(thresholds) - 1
    todo = sorted({(i, j) for i in (0, last) for j in range(len(slopes))})
    intervals, scored, sums = [(0, last, j) for j in range(len(slopes))], {}, {}
    scorer = calibration_scorer(samples)
    while todo:
        scores, inter, denom = scorer([(thresholds[i], slopes[j]) for i, j in todo])
        for key, score, *sample_sums in zip(todo, scores, inter, denom):
            scored[key], sums[key] = score, sample_sums
        best, todo, split = max(scored.values()), [], []
        for a, b, j in intervals:
            bound = np.mean((2.0 * sums[a, j][0] + 1.0) / sums[b, j][1])
            if b - a > 1 and bound * CALIBRATION_BOUND_MARGIN >= best:
                mid = (a + b) // 2
                todo.append((mid, j))
                split += [(a, mid, j), (mid, b, j)]
        intervals = split
    return scored


def backbone_calibrate(samples) -> FrozenBackbone:
    """The grid point (t, s) of highest mean soft Dice on the source samples,
    by :func:`calibration_search`: the full grid's argmax, as each visited
    score is the full grid's, a skipped point scores below the best, and ties
    keep the first maximum in scan order (thresholds outer, slopes inner).
    The returned backbone is immutable; hash it with ``digest()``.
    """
    scored = calibration_search(samples)
    ti, si = max(sorted(scored), key=scored.get)  # max keeps the first of equal scores
    return FrozenBackbone(float(CALIBRATION_THRESHOLDS[ti]), float(CALIBRATION_SLOPES[si]),
                          CALIBRATION_BLUR_RADIUS)
