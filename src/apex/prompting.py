"""Adaptive prompt extraction: domain encoder, prompt memory, decoder.

The pipeline for one image is

    fft2 -> extract_low_freq -> encode_domain -> address -> retrieve
         -> decode_prompt -> apply to amplitudes -> ifft2

The memory is a [J, K] slot matrix queried by cosine similarity (the
addressing vector) and combined by a plain weighted sum; no normalization
or softmax is applied across slots unless the experimental flag is set.

Memory updates follow the explicit rule dL/dB = sum_batch a g^T with
g = dL/dz' and the addressing path treated as constant; the full-graph
alternative (gradient also through the cosine addressing) is available
behind ``memory_grad_mode = "fullgraph"``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import numerics as nm
from . import spectral as sp
from . import tensorio
from .errors import ConfigError, InputNotFoundError, ShapeError
from .numerics import MlpParams, Node, Tensor

RAW_PROMPT_LIMIT = 20.0  # |log multiplier| bound; exp stays finite and positive


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
    encoder_final_scale: float = 1.0
    use_memory: bool = True
    softmax_addressing: bool = False
    memory_grad_mode: str = "attention"   # "attention" | "fullgraph"
    allow_block_init: bool = False

    def __post_init__(self) -> None:
        if self.slot_count < 1 or self.feature_dim < 1:
            raise ConfigError("slot_count and feature_dim must be >= 1")
        if self.slot_count > self.feature_dim and not self.allow_block_init:
            raise ConfigError(
                f"slot_count {self.slot_count} > feature_dim {self.feature_dim} "
                "requires allow_block_init")
        if self.memory_grad_mode not in ("attention", "fullgraph"):
            raise ConfigError(f"unknown memory_grad_mode {self.memory_grad_mode!r}")
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
    input_center: np.ndarray = None
    step: int = 0

    def __post_init__(self) -> None:
        if self.input_center is None:
            self.input_center = np.zeros(self.region.flat_size)

    def mlp_parameters(self) -> list[Node]:
        return self.encoder.parameters() + self.decoder.parameters() + self.head.parameters()

    def all_parameters(self) -> list[Node]:
        return self.mlp_parameters() + [self.memory]


def init_state(config: ApexConfig, height: int, width: int, channels: int = 1) -> ApexState:
    """Fresh state; the decoder's final layer is zeroed so the initial
    prompt is the identity."""
    region = sp.LowFreqRegion.plan(height, width, channels, config.beta)
    rng = np.random.default_rng(config.seed)
    enc_sizes = [region.flat_size, *config.encoder_hidden, config.feature_dim]
    dec_sizes = [config.feature_dim, *config.decoder_hidden, region.flat_size]
    head_sizes = [config.feature_dim, *config.head_hidden, config.aux_dim]
    encoder = nm.init_mlp(enc_sizes, rng, final_scale=config.encoder_final_scale, name="enc")
    decoder = nm.init_mlp(dec_sizes, rng, final_zero=True, name="dec")
    head = nm.init_mlp(head_sizes, rng, name="head")
    memory = nm.parameter(
        nm.orthogonal_rows(config.slot_count, config.feature_dim, config.seed,
                           allow_blocks=config.allow_block_init),
        op="memory")
    return ApexState(config=config, region=region, encoder=encoder,
                     memory=memory, decoder=decoder, head=head)


# ---------------------------------------------------------------------------
# pipeline stages
# ---------------------------------------------------------------------------

def lowfreq_features(region_values: np.ndarray) -> np.ndarray:
    """log(1 + amplitude), flattened; the encoder's input scaling."""
    vals = np.asarray(region_values, dtype=np.float64)
    return np.log1p(vals).reshape(vals.shape[0], -1) if vals.ndim == 4 \
        else np.log1p(vals).reshape(-1)


def encode_domain(encoder: MlpParams, low: sp.LowFreqRegion, center=None) -> Node:
    """Domain feature z from the masked amplitudes of one image."""
    if low.values is None:
        raise ValueError("region carries no amplitude values")
    x = lowfreq_features(low.values[None])[0]
    if x.shape[0] != encoder.in_dim:
        raise ShapeError(f"region size {x.shape[0]} != encoder input {encoder.in_dim}")
    if center is not None:
        x = x - center
    return nm.mlp_forward(encoder, nm.as_node(x))


def encode_batch(encoder: MlpParams, region_values: np.ndarray, center=None) -> Node:
    """Domain features for a [batch, l, l, c] stack of region amplitudes."""
    x = lowfreq_features(region_values)
    if center is not None:
        x = x - center
    return nm.mlp_forward(encoder, nm.as_node(x))


def region_amplitudes(region: sp.LowFreqRegion, spectrum: np.ndarray) -> np.ndarray:
    """Masked amplitude stack [batch, l, l, c] from the unshifted spectra
    ``np.fft.fft2(images, axes=(1, 2))`` of a [batch, h, w, c] stack."""
    spec = np.fft.fftshift(spectrum, axes=(1, 2))
    return np.abs(spec)[:, region.row0:region.row0 + region.side,
                        region.col0:region.col0 + region.side, :]


def fit_input_center(state: ApexState, images: np.ndarray) -> None:
    """Set the encoder's centering constant to the mean training profile."""
    spectrum = np.fft.fft2(images, axes=(1, 2))
    feats = lowfreq_features(region_amplitudes(state.region, spectrum))
    state.input_center = feats.mean(axis=0)


def _softmax_rows(a: Node) -> Node:
    shifted = nm.sub(a, nm.reduce_max(a, axis=1, keepdims=True))
    e = nm.exp(shifted)
    return nm.div(e, nm.reduce_sum(e, axis=1, keepdims=True))


def address(memory, z, *, softmax: bool = False) -> Node:
    """Addressing vector of cosine similarities between z and each slot.

    ``z`` may be a single feature [K] or a batch [B, K]; the result is [J]
    or [B, J]. Gradient flows into whatever nodes are passed in, so callers
    control the attention-weighted barrier by passing ``stop_gradient(memory)``.
    """
    mem = nm.as_node(memory)
    zn = nm.as_node(z)
    single = zn.array.ndim == 1
    zmat = nm.reshape(zn, (1, -1)) if single else zn
    sims = nm.cosine_rows(zmat, mem)
    if softmax:
        sims = _softmax_rows(sims)
    return nm.reshape(sims, (-1,)) if single else sims


def retrieve(memory, a) -> Node:
    """Weighted sum of slots: z' = sum_j a_j b_j."""
    mem = nm.as_node(memory)
    an = nm.as_node(a)
    single = an.array.ndim == 1
    amat = nm.reshape(an, (1, -1)) if single else an
    if amat.shape[1] != mem.shape[0]:
        raise ShapeError(f"addressing length {amat.shape[1]} != slot count {mem.shape[0]}")
    out = nm.matmul(amat, mem)
    return nm.reshape(out, (-1,)) if single else out


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


def forward_batch(state: ApexState, images: np.ndarray, *, train: bool = True) -> ForwardNodes:
    """Full differentiable chain on a [B, h, w, c] image stack.

    In ``attention`` mode the memory is barriered out of the graph entirely
    (the trainer applies the explicit attention-weighted rule); in
    ``fullgraph`` mode it is live in both addressing and retrieval.
    """
    cfg = state.config
    region = state.region
    imgs = np.asarray(images, dtype=np.float64)
    spectrum = np.fft.fft2(imgs, axes=(1, 2))  # shared by the encoder input and the prompt
    amps = region_amplitudes(region, spectrum)
    z = encode_batch(state.encoder, amps, center=state.input_center)
    mem_for_graph = state.memory if (train and cfg.memory_grad_mode == "fullgraph") \
        else nm.stop_gradient(state.memory)
    a = address(mem_for_graph, z, softmax=cfg.softmax_addressing)
    zprime = retrieve(mem_for_graph, a) if cfg.use_memory else z
    p = decode_prompt(state.decoder, zprime, region)
    out = sp.prompted_image_node(imgs, p, region, spectrum)
    return ForwardNodes(features=z, addressing=a, prompt_feature=zprime,
                        multiplier=p, output=out)


def apex_forward(state: ApexState, img: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Inference on one image: (prompted image, addressing vector, feature)."""
    arr = sp.validate_image(img)
    nodes = forward_batch(state, arr[None], train=False)
    return nodes.output.array[0], nodes.addressing.array[0], nodes.features.array[0]


# ---------------------------------------------------------------------------
# memory update rule
# ---------------------------------------------------------------------------

def memory_gradient(a, g) -> Tensor:
    """dL/dB = a g^T with the addressing path held constant.

    ``a`` is [J] or [B, J]; ``g`` = dL/dz' is [K] or [B, K]; batches are
    summed. Slot j receives exactly a_j * g.
    """
    aa = a.array if isinstance(a, (Node, Tensor)) else np.asarray(a, dtype=np.float64)
    gg = g.array if isinstance(g, (Node, Tensor)) else np.asarray(g, dtype=np.float64)
    if aa.ndim == 1:
        aa = aa[None]
    if gg.ndim == 1:
        gg = gg[None]
    if aa.ndim != 2 or gg.ndim != 2 or aa.shape[0] != gg.shape[0]:
        raise ShapeError(f"incompatible addressing {aa.shape} and upstream {gg.shape}")
    return Tensor._wrap(aa.T @ gg)


def update_memory(memory: Tensor, grad, eta: float) -> Tensor:
    """One plain SGD step on the slot matrix. A non-finite gradient raises
    :class:`TrainingDivergedError` from :func:`numerics.sgd_step`; the
    caller's gradient array is neither copied nor frozen."""
    garr = grad.array if isinstance(grad, (Node, Tensor)) else np.asarray(grad, dtype=np.float64)
    if garr.shape != memory.shape:
        raise ShapeError(f"memory grad shape {garr.shape} != {memory.shape}")
    return nm.sgd_step(memory, garr, eta)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def _mlp_tensors(name: str, mlp: MlpParams) -> dict:
    out = {}
    for i, (w, b) in enumerate(mlp.layers):
        out[f"{name}.w{i}"] = w.array
        out[f"{name}.b{i}"] = b.array
    return out


def state_tensors(state: ApexState) -> dict:
    tensors = {"memory": state.memory.array, "input_center": state.input_center}
    tensors.update(_mlp_tensors("encoder", state.encoder))
    tensors.update(_mlp_tensors("decoder", state.decoder))
    tensors.update(_mlp_tensors("head", state.head))
    return tensors


def config_items(config: ApexConfig) -> list[tuple[str, str]]:
    items = []
    for key in ("feature_dim", "slot_count", "encoder_hidden", "decoder_hidden",
                "head_hidden", "beta", "aux_dim", "temperature", "learning_rate",
                "seed", "encoder_final_scale", "use_memory", "softmax_addressing",
                "memory_grad_mode", "allow_block_init"):
        val = getattr(config, key)
        if isinstance(val, tuple):
            val = ",".join(str(v) for v in val)
        items.append((key, str(val)))
    return items


def save_state(state: ApexState, directory) -> None:
    d = Path(directory)
    d.mkdir(parents=True, exist_ok=True)
    tensors = state_tensors(state)
    for name, arr in sorted(tensors.items()):
        tensorio.write_tensor(d / f"{name}.apxt", arr)
    lines = ["[apex-checkpoint]"]
    lines += [f"{k} = {v}" for k, v in config_items(state.config)]
    lines += [f"region = {state.region.height},{state.region.width},{state.region.channels}",
              f"step = {state.step}",
              f"tensors = {','.join(sorted(tensors))}"]
    (d / "manifest.txt").write_text("\n".join(lines) + "\n", encoding="ascii")


def _parse_manifest(path: Path) -> dict:
    items = {}
    for line in path.read_text(encoding="ascii").splitlines():
        line = line.strip()
        if not line or line.startswith("["):
            continue
        key, _, val = line.partition("=")
        items[key.strip()] = val.strip()
    return items


def load_state(directory) -> ApexState:
    d = Path(directory)
    manifest = d / "manifest.txt"
    if not manifest.is_file():
        raise InputNotFoundError(f"no checkpoint in {d}: {manifest.name} does not exist")
    meta = _parse_manifest(manifest)

    def tup(key):
        return tuple(int(v) for v in meta[key].split(",") if v)

    config = ApexConfig(
        feature_dim=int(meta["feature_dim"]), slot_count=int(meta["slot_count"]),
        encoder_hidden=tup("encoder_hidden"), decoder_hidden=tup("decoder_hidden"),
        head_hidden=tup("head_hidden"), beta=float(meta["beta"]),
        aux_dim=int(meta["aux_dim"]), temperature=float(meta["temperature"]),
        learning_rate=float(meta["learning_rate"]), seed=int(meta["seed"]),
        encoder_final_scale=float(meta["encoder_final_scale"]),
        use_memory=meta["use_memory"] == "True",
        softmax_addressing=meta["softmax_addressing"] == "True",
        memory_grad_mode=meta["memory_grad_mode"],
        allow_block_init=meta["allow_block_init"] == "True")
    h, w, c = (int(v) for v in meta["region"].split(","))
    state = init_state(config, h, w, c)
    for name in meta["tensors"].split(","):
        arr = tensorio.read_tensor(d / f"{name}.apxt")
        part, _, idx = name.partition(".")
        if part == "memory":
            state.memory.value = Tensor(arr)
            state.memory.zero_grad()
            continue
        if part == "input_center":
            state.input_center = arr
            continue
        mlp = {"encoder": state.encoder, "decoder": state.decoder, "head": state.head}[part]
        layer = int(idx[1:])
        node = mlp.layers[layer][0 if idx[0] == "w" else 1]
        node.value = Tensor(arr)
        node.zero_grad()
    state.step = int(meta["step"])
    return state
