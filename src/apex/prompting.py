"""Adaptive prompt extraction: domain encoder, prompt memory, decoder.

The pipeline runs on a batch of images [B, h, w, c]:

    fft2 -> region_amplitudes -> encode_batch -> address -> retrieve
         -> decode_prompt -> apply to amplitudes -> ifft2

Every stage takes [B, ...] arrays; a single image is a batch of one.

The memory is a [J, K] slot matrix queried by cosine similarity (the
addressing vector) and combined by a plain weighted sum; no normalization
or softmax is applied across slots.

The memory is a parameter like the MLP weights, trained by autodiff with
the addressing path held constant: addressing reads it through
``stop_gradient`` and retrieval reads it live, so backpropagation gives
it the attention-weighted rule dL/dB = sum_batch a g^T with g = dL/dz'.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import numerics as nm
from . import spectral as sp
from . import tensorio
from .errors import ConfigError, CorruptInputError, InputNotFoundError, ShapeError, read_text
from .numerics import MlpParams, Node

RAW_PROMPT_LIMIT = 20.0  # |log multiplier| bound; exp stays finite and positive
CHUNK = 25  # images per spectral transform when fitting the centre or evaluating


@dataclass(frozen=True)
class ApexConfig:
    """Architecture and optimization knobs.

    ``feature_dim`` defaults to 256 so the default 150 slots admit strictly
    orthonormal initialization.
    """

    feature_dim: int = 256            # K
    slot_count: int = 150             # J
    encoder_hidden: tuple = (96, 96, 96)
    decoder_hidden: tuple = (96, 96, 96)
    head_hidden: tuple = (96,)
    beta: float = 0.25
    aux_dim: int = 64                 # K_aux
    temperature: float = 0.1          # tau
    learning_rate: float = 0.05       # eta, the memory's SGD step
    seed: int = 0
    use_memory: bool = True
    allow_block_init: bool = False

    def __post_init__(self) -> None:
        widths = self.encoder_hidden + self.decoder_hidden + self.head_hidden
        if min(self.slot_count, self.feature_dim, self.aux_dim, *widths) < 1:
            raise ConfigError("slot_count, feature_dim, aux_dim and hidden widths must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.slot_count > self.feature_dim and not self.allow_block_init:
            raise ConfigError(
                f"slot_count {self.slot_count} > feature_dim {self.feature_dim} "
                "requires allow_block_init")
        if not 0.0 < self.beta <= 1.0:
            raise ConfigError(f"beta must be in (0, 1], got {self.beta}")
        if self.temperature <= 0.0:
            raise ConfigError("temperature must be positive")


@dataclass
class ApexState:
    """All trainable pieces plus the region geometry they are sized for.

    ``input_center`` is a fixed preprocessing constant (mean log-amplitude
    profile of the training data, set once by the trainer): subtracting it
    turns encoder inputs into deviation vectors, whose directions carry the
    domain signal the cosine addressing needs.
    """

    config: ApexConfig
    region: sp.LowFreqRegion
    encoder: MlpParams
    memory: Node          # [J, K]
    decoder: MlpParams
    head: MlpParams
    input_center: np.ndarray
    step: int = 0

    def parameters(self) -> dict[str, Node]:
        """The trainable nodes by checkpoint tensor name: the memory, then
        the encoder, decoder and head, weight then bias per layer."""
        nodes = {"memory": self.memory}
        for name, mlp in (("encoder", self.encoder), ("decoder", self.decoder),
                          ("head", self.head)):
            for i, (w, b) in enumerate(mlp.layers):
                nodes[f"{name}.w{i}"], nodes[f"{name}.b{i}"] = w, b
        return nodes


def init_state(config: ApexConfig, height: int, width: int, channels: int = 1) -> ApexState:
    """Fresh state; the decoder's final layer is zeroed so the initial
    prompt is the identity."""
    region = sp.LowFreqRegion.plan(height, width, channels, config.beta)
    rng = np.random.default_rng(config.seed)
    enc_sizes = [region.flat_size, *config.encoder_hidden, config.feature_dim]
    dec_sizes = [config.feature_dim, *config.decoder_hidden, region.flat_size]
    head_sizes = [config.feature_dim, *config.head_hidden, config.aux_dim]
    encoder = nm.init_mlp(enc_sizes, rng, name="enc")
    decoder = nm.init_mlp(dec_sizes, rng, final_zero=True, name="dec")
    head = nm.init_mlp(head_sizes, rng, name="head")
    memory = nm.parameter(
        nm.orthogonal_rows(config.slot_count, config.feature_dim, config.seed), op="memory")
    return ApexState(config=config, region=region, encoder=encoder, memory=memory,
                     decoder=decoder, head=head, input_center=np.zeros(region.flat_size))


# ---------------------------------------------------------------------------
# pipeline stages
# ---------------------------------------------------------------------------

def lowfreq_features(region_values: np.ndarray) -> np.ndarray:
    """log(1 + amplitude) of a [batch, l, l, c] stack, flattened per image;
    the encoder's input scaling."""
    vals = np.asarray(region_values, dtype=np.float64)
    if vals.ndim != 4:
        raise ShapeError(f"region amplitudes must be [batch, l, l, c], got {vals.shape}")
    return np.log1p(vals).reshape(vals.shape[0], -1)


def encode_batch(encoder: MlpParams, region_values: np.ndarray, center: np.ndarray) -> Node:
    """Domain features for a [batch, l, l, c] stack of region amplitudes,
    their :func:`lowfreq_features` centred on ``center``."""
    return nm.mlp_forward(encoder, nm.as_node(lowfreq_features(region_values) - center))


def region_amplitudes(region: sp.LowFreqRegion, spectrum: np.ndarray) -> np.ndarray:
    """Row-major amplitude stack [batch, l, l, c] of the low-frequency square,
    gathered from the unshifted spectra ``np.fft.fft2(images, axes=(1, 2))``
    of a [batch, h, w, c] stack."""
    return np.abs(region._gather(spectrum))


def map_chunks(fn, samples) -> list:
    """``fn(chunk, images)`` for each run of ``CHUNK`` consecutive samples
    (each with an ``image``), the run's images stacked [B, h, w, c], in chunk
    order, inside :func:`numerics.no_grad`, through :func:`numerics.map_ordered`
    (threaded from ``numerics.PARALLEL_MIN_PIXELS`` pixels up: pocketfft, the
    blur and ``exp`` release the GIL). No array of the whole set is held."""
    chunks = [samples[lo:lo + CHUNK] for lo in range(0, len(samples), CHUNK)]
    pixels = samples[0].image.shape[0] * samples[0].image.shape[1] if samples else 0
    with nm.no_grad():
        return nm.map_ordered(lambda chunk: fn(chunk, np.stack([s.image for s in chunk])),
                              chunks, threaded=pixels >= nm.PARALLEL_MIN_PIXELS)


def fit_input_center(state: ApexState, samples) -> None:
    """Set the encoder's centering constant to the mean training profile of
    ``samples`` (each with an ``image``), transformed a chunk at a time."""
    def features(_chunk, images):
        spectrum = np.fft.fft2(images, axes=(1, 2), out=np.empty(images.shape, complex))
        return lowfreq_features(region_amplitudes(state.region, spectrum))

    state.input_center = np.concatenate(map_chunks(features, samples)).mean(axis=0)


def address(memory, z) -> Node:
    """Addressing vectors [B, J]: cosine similarities between each feature
    of ``z`` [B, K] and each slot.

    Gradient flows into whatever nodes are passed in, so callers control the
    attention-weighted barrier by passing ``stop_gradient(memory)``.
    """
    zn = nm.as_node(z)
    if zn.array.ndim != 2:
        raise ShapeError(f"features must be [batch, K], got {zn.shape}")
    return nm.cosine_rows(zn, nm.as_node(memory))


def retrieve(memory, a) -> Node:
    """Weighted sums of slots [B, K]: z'_i = sum_j a_ij b_j for ``a`` [B, J]."""
    mem = nm.as_node(memory)
    an = nm.as_node(a)
    if an.array.ndim != 2 or an.shape[1] != mem.shape[0]:
        raise ShapeError(f"addressing {an.shape} is not [batch, {mem.shape[0]} slots]")
    return nm.matmul(an, mem)


def decode_prompt(decoder: MlpParams, zprime, region: sp.LowFreqRegion) -> Node:
    """Strictly positive, symmetrized multiplier values, flat over the region.

    The decoder's raw output r becomes exp(r), so a zero stack yields the
    identity prompt; symmetrization then averages each entry with its
    frequency-negation partner (boundary entries pinned to 1).
    """
    if decoder.out_dim != region.flat_size:
        raise ShapeError(f"decoder output {decoder.out_dim} != region size {region.flat_size}")
    raw = nm.mlp_forward(decoder, nm.as_node(zprime))
    # clamp keeps exp() finite and positive however far a run drifts
    return sp.symmetrize_multiplier(nm.exp(nm.clip(raw, -RAW_PROMPT_LIMIT, RAW_PROMPT_LIMIT)),
                                    region)


def project_aux(head: MlpParams, z) -> Node:
    """Auxiliary embedding for the contrastive loss; training only."""
    return nm.mlp_forward(head, nm.as_node(z))


# ---------------------------------------------------------------------------
# forward passes
# ---------------------------------------------------------------------------

@dataclass
class ForwardNodes:
    """Graph handles from a batched training forward pass."""

    features: Node        # z      [B, K]
    addressing: Node      # a      [B, J]
    prompt_feature: Node  # z'     [B, K]
    multiplier: Node      # p      [B, l*l*c]
    output: Node          # x'     [B, h, w, c]


def forward_batch(state: ApexState, images: np.ndarray) -> ForwardNodes:
    """Full differentiable chain on a [B, h, w, c] image stack.

    Addressing reads the memory through ``stop_gradient`` and retrieval
    reads it live, so :func:`numerics.backward` leaves the
    attention-weighted rule a^T g in ``state.memory.grad``. Inside
    :func:`numerics.no_grad`, which builds no graph, the images and the
    output are checked finite instead.
    """
    region = state.region
    imgs = np.asarray(images, dtype=np.float64)
    if imgs.shape[1:] != (region.height, region.width, region.channels):
        raise ShapeError(f"image stack {list(imgs.shape)} is not [batch, {region.height}, "
                         f"{region.width}, {region.channels}], the size the state is for")
    checked = not nm.grad_enabled()
    if checked:
        nm.check_finite(imgs)
    # read by the encoder input, then owned by the prompt; both passes write into one array
    spectrum = np.fft.fft2(imgs, axes=(1, 2), out=np.empty(imgs.shape, complex))
    amps = region_amplitudes(region, spectrum)
    z = encode_batch(state.encoder, amps, center=state.input_center)
    a = address(nm.stop_gradient(state.memory), z)
    zprime = retrieve(state.memory, a) if state.config.use_memory else z
    p = decode_prompt(state.decoder, zprime, region)
    out = sp.prompted_image_node(p, region, spectrum)
    if checked:
        nm.check_finite(out.array)
    return ForwardNodes(features=z, addressing=a, prompt_feature=zprime,
                        multiplier=p, output=out)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def state_tensors(state: ApexState) -> dict:
    tensors = {name: node.array for name, node in state.parameters().items()}
    tensors["input_center"] = state.input_center
    return tensors


def save_state(state: ApexState, directory) -> None:
    from . import config as cfgmod  # not at the top: config imports this module
    d = Path(directory)
    d.mkdir(parents=True, exist_ok=True)
    tensors = state_tensors(state)
    for name, arr in sorted(tensors.items()):
        tensorio.write_tensor(d / f"{name}.apxt", arr)
    lines = ["[apex-checkpoint]"]
    lines += [f"{key} = {cfgmod.format_value(getattr(state.config, key))}"
              for key in cfgmod.schema(ApexConfig)]
    lines += [f"region = {state.region.height},{state.region.width},{state.region.channels}",
              f"step = {state.step}",
              f"digests = {','.join(tensorio.tensor_digest(tensors[n]) for n in sorted(tensors))}",
              f"tensors = {','.join(sorted(tensors))}"]
    (d / "manifest.txt").write_text("\n".join(lines) + "\n", encoding="ascii")


def load_state(directory) -> ApexState:
    """Checkpoint written by :func:`save_state`.

    Manifest keys that name no config field are ignored, so a checkpoint
    that records a field removed since it was written still loads, unless
    it records ``softmax_addressing = true``: that removed switch changed
    what the state computes. Every tensor the state holds must be listed
    and present, with ``init_state``'s shape and finite values, and with
    the ``tensorio.tensor_digest`` that ``digests`` lists for it in the
    order of ``tensors``. A manifest written before checkpoints recorded
    digests has no ``digests`` key; its tensors load unchecked. Any other
    manifest or tensor fault raises :class:`CorruptInputError`.
    """
    from . import config as cfgmod  # not at the top: config imports this module
    d = Path(directory)
    manifest = d / "manifest.txt"
    if not manifest.is_file():
        raise InputNotFoundError(f"no checkpoint in {d}: {manifest.name} does not exist")
    # below its "[apex-checkpoint]" header line, the manifest is a config file
    meta = cfgmod.parse_kv(read_text(manifest, "ascii", CorruptInputError).partition("\n")[2])

    def need(key: str) -> str:
        if key not in meta:
            raise CorruptInputError(f"{manifest}: missing key {key!r}")
        return meta[key]

    def ints(key: str, count: int, least: int) -> list[int]:
        vals = need(key).split(",")
        if len(vals) != count or not all(v.strip().isdigit() and int(v) >= least
                                         for v in vals):
            raise CorruptInputError(f"{manifest}: bad {key} {meta[key]!r}: expected "
                                    f"{count} comma-separated int(s) >= {least}")
        return [int(v) for v in vals]

    if meta.get("softmax_addressing", "false").lower() != "false":
        raise ConfigError(f"{manifest}: softmax_addressing = {meta['softmax_addressing']} "
                          "is no longer supported; addressing is plain cosine similarity")
    try:
        config = ApexConfig(**{key: cfgmod.parse_value(key, need(key), parse)
                               for key, parse in cfgmod.schema(ApexConfig).items()})
    except ConfigError as exc:
        raise ConfigError(f"{manifest}: {exc}") from None
    state = init_state(config, *ints("region", 3, 1))
    expected = state_tensors(state)
    names = need("tensors").split(",")
    missing, extra = sorted(set(expected) - set(names)), sorted(set(names) - set(expected))
    if missing or extra:
        raise CorruptInputError(f"{manifest}: tensors missing {missing}, unexpected {extra}")
    digests = meta["digests"].split(",") if "digests" in meta else [None] * len(names)
    if len(digests) != len(names):
        raise CorruptInputError(f"{manifest}: {len(digests)} digests for {len(names)} tensors")
    params = state.parameters()
    for name, digest in zip(names, digests):
        path = d / f"{name}.apxt"
        arr = tensorio.read_tensor(path)
        if arr.shape != expected[name].shape:
            raise CorruptInputError(f"{path}: shape {arr.shape}, expected "
                                    f"{expected[name].shape}")
        if not np.isfinite(arr).all():
            raise CorruptInputError(f"{path}: non-finite values")
        if digest is not None and tensorio.tensor_digest(arr) != digest:
            raise CorruptInputError(f"{path}: digest does not match the one {manifest.name} "
                                    "records; the file has changed since it was saved")
        if name == "input_center":
            state.input_center = arr
        else:
            params[name].set(arr)
    state.step = ints("step", 1, 0)[0]
    return state
