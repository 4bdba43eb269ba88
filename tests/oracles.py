"""Reference helpers that only the tests use: finite-difference gradient
checks, the primitive chains that the library's fused nodes replace, the
box blur as a graph node, the backbone's calibration score, the
low-frequency region's mask and amplitudes, the identity prompt, and a
reader for PGM dumps.

The primitive chains define what the fused nodes compute: ``numerics.linear``
(with ``relu`` and ``transpose``), ``numerics.cosine_rows``, the backbone
(with ``sigmoid``), ``losses.seg_loss`` (``dice_loss`` and ``ce_loss``) and
``losses.lfc_loss`` (``lfc_term`` per anchor). The tests compare the fused
nodes against them and check the primitives' gradients by finite
differences. They build on ``numerics``' own ``_unary``, ``_binary`` and
:class:`Node`, so they make the same nodes as the library's ops.

Test modules import this file as ``oracles``: pytest puts ``tests/`` on
``sys.path`` when it collects them.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from apex import losses
from apex import numerics as nm
from apex import spectral as sp
from apex import synthdata as sd
from apex.errors import ConfigError, DegenerateInputError, NumericDomainError, ShapeError
from apex.numerics import Node


# ---------------------------------------------------------------------------
# gradient checks
# ---------------------------------------------------------------------------

def finite_difference(f: Callable[[Sequence[np.ndarray]], float],
                      inputs: Sequence[np.ndarray], step: float = 1e-5) -> list[np.ndarray]:
    """Central finite-difference gradients of scalar ``f`` w.r.t. each input."""
    grads = []
    # row-major copies, so that the flat views below write into them
    work = [np.array(x, dtype=np.float64, order="C") for x in inputs]
    for i, x in enumerate(work):
        g = np.zeros_like(x)
        flat = x.reshape(-1)
        gflat = g.reshape(-1)
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + step
            hi = f(work)
            flat[idx] = orig - step
            lo = f(work)
            flat[idx] = orig
            gflat[idx] = (hi - lo) / (2.0 * step)
        grads.append(g)
    return grads


def relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """max |a-n| scaled by the larger magnitude present (floored at 1e-8)."""
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    denom = max(1e-8, float(np.max(np.abs(a))) if a.size else 0.0,
                float(np.max(np.abs(n))) if n.size else 0.0)
    return float(np.max(np.abs(a - n))) / denom if a.size else 0.0


def gradcheck(build: Callable[[Sequence[Node]], Node],
              inputs: Sequence[np.ndarray], step: float = 1e-5) -> float:
    """Max relative error between autodiff and finite-difference gradients.

    ``build`` maps leaf nodes to a scalar loss node.
    """
    leaves = [nm.parameter(x) for x in inputs]
    loss = build(leaves)
    nm.backward(loss)
    analytic = [leaf.grad.copy() for leaf in leaves]

    def f(arrays: Sequence[np.ndarray]) -> float:
        nodes = [nm.as_node(a) for a in arrays]
        return build(nodes).item()

    numeric = finite_difference(f, inputs, step=step)
    return max(relative_error(a, n) for a, n in zip(analytic, numeric))


# ---------------------------------------------------------------------------
# the primitive chains of the fused nodes
# ---------------------------------------------------------------------------

def mul(a, b) -> Node:
    return nm._binary("mul", a, b, np.multiply, lambda g, x, y: g * y, lambda g, x, y: g * x)


def neg(a) -> Node:
    return nm._unary(a, np.negative, lambda g, x, y: -g)


def sqrt(a) -> Node:
    a = nm.as_node(a)
    if np.any(a.array < 0.0):
        raise NumericDomainError("sqrt requires nonnegative input")
    return nm._unary(a, np.sqrt, lambda g, x, y: g / (2.0 * np.maximum(y, nm.NORM_EPS)))


def sigmoid(a) -> Node:
    def fwd(x):
        out = np.empty_like(x)
        pos = x >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        out[~pos] = ex / (1.0 + ex)
        return out

    return nm._unary(a, fwd, lambda g, x, y: g * y * (1.0 - y))


def relu(a) -> Node:
    return nm._unary(a, lambda x: np.maximum(x, 0.0), lambda g, x, y: g * (x > 0.0))


def clip_min(a, lo: float) -> Node:
    return nm._unary(a, lambda x: np.maximum(x, lo), lambda g, x, y: g * (x >= lo))


def reduce_max(a) -> Node:
    a = nm.as_node(a)
    out = np.max(a.array)

    def back(g: np.ndarray) -> None:
        a.accumulate(g * (a.array == out))

    return Node(out, parents=(a,), backward=back)


def reshape(a, shape) -> Node:
    a = nm.as_node(a)
    out = a.array.reshape(shape)

    def back(g: np.ndarray) -> None:
        a.accumulate(g.reshape(a.shape))

    return Node(out, parents=(a,), backward=back)


def transpose(a) -> Node:
    a = nm.as_node(a)
    if a.array.ndim != 2:
        raise ShapeError(f"transpose expects a matrix, got shape {a.shape}")
    out = a.array.T.copy()

    def back(g: np.ndarray) -> None:
        a.accumulate(g.T)

    return Node(out, parents=(a,), backward=back)


def _guarded_norm(v: Node) -> Node:
    sq = nm.reduce_sum(mul(v, v))
    # max(norm, eps) rather than norm + eps so that scaling by powers of two
    # leaves the similarity bit-identical (exact scale invariance).
    return clip_min(sqrt(sq), nm.NORM_EPS)


def cosine_similarity(u, v) -> Node:
    """cos(u, v) for vectors, differentiable in both arguments.

    Raises on an exactly-zero input; near-zero norms are guarded by
    ``NORM_EPS`` instead so training never divides by zero.
    """
    u, v = nm.as_node(u), nm.as_node(v)
    if u.array.ndim != 1 or v.array.ndim != 1 or u.shape != v.shape:
        raise ShapeError(f"cosine_similarity expects equal-length vectors, got {u.shape}, {v.shape}")
    if not np.any(u.array) or not np.any(v.array):
        raise DegenerateInputError("cosine_similarity: zero-norm input")
    uhat = nm.div(u, _guarded_norm(u))
    vhat = nm.div(v, _guarded_norm(v))
    raw = nm.reduce_sum(mul(uhat, vhat))
    return nm.clip(raw, -1.0, 1.0)  # trims fp overshoot beyond the cosine range


def _pair(pred, gt) -> tuple[Node, Node]:
    p, g = nm.as_node(pred), nm.as_node(gt)
    if p.shape != g.shape:
        raise ShapeError(f"prediction shape {p.shape} != mask shape {g.shape}")
    return p, g


def dice_loss(pred, gt, batched: bool = False) -> Node:
    """1 - (2 sum(p g) + eps) / (sum p + sum g + eps), eps = 1.

    The sums run over every entry. With ``batched`` the leading axis indexes
    samples instead: each sample's Dice sums over its own entries, and the
    mean over the batch is returned.
    """
    p, g = _pair(pred, gt)
    axis = None
    if batched:
        rows = (p.shape[0], -1)
        p, g, axis = reshape(p, rows), reshape(g, rows), 1
    inter = nm.reduce_sum(mul(p, g), axis=axis)
    total = nm.add(nm.reduce_sum(p, axis=axis), nm.reduce_sum(g, axis=axis))
    loss = nm.sub(1.0, nm.div(nm.add(mul(2.0, inter), losses.DICE_SMOOTH),
                              nm.add(total, losses.DICE_SMOOTH)))
    return nm.reduce_mean(loss) if batched else loss


def ce_loss(pred, gt) -> Node:
    """Mean binary cross-entropy; predictions clamped to [1e-7, 1 - 1e-7].

    Over a batch of equally sized samples the mean over every entry equals
    the mean of the per-sample losses.
    """
    p, g = _pair(pred, gt)
    pc = nm.clip(p, losses.CE_CLAMP, 1.0 - losses.CE_CLAMP)
    pos = mul(g, nm.log(pc))
    negt = mul(nm.sub(1.0, g), nm.log(nm.sub(1.0, pc)))
    return neg(nm.reduce_mean(nm.add(pos, negt)))


def lfc_term(pos_sim, neg_sims, tau: float) -> Node:
    """One anchor's term: -log( exp(pos/tau) / sum_i exp(neg_i/tau) ).

    Evaluated as logsumexp(neg/tau) - pos/tau for stability.
    """
    if tau <= 0.0:
        raise ConfigError("temperature must be positive")
    pos = nm.div(nm.as_node(pos_sim), tau)
    negs = nm.div(nm.as_node(neg_sims), tau)
    peak = nm.stop_gradient(reduce_max(negs))
    lse = nm.add(peak, nm.log(nm.reduce_sum(nm.exp(nm.sub(negs, peak)))))
    return nm.sub(lse, pos)


# ---------------------------------------------------------------------------
# the backbone's blur as a node, and its calibration score
# ---------------------------------------------------------------------------

def box_blur(x, radius: int):
    """Circular box blur over the two spatial axes; self-adjoint, so the
    backward rule is the blur itself. Accepts arrays or Nodes shaped
    [h, w, c] or [batch, h, w, c]."""
    node = isinstance(x, Node)
    arr = x.array if node else np.asarray(x, dtype=np.float64)
    result = sd._blur(arr, radius)
    if not node:
        return result

    def back(g: np.ndarray) -> None:
        if x._needs_grad:
            x.accumulate(sd._blur(g, radius))

    return Node(result, parents=(x,), backward=back)


def calibration_scores(samples, thresholds, slopes) -> np.ndarray:
    """The calibration score by its definition, as a [thresholds, slopes]
    array: mean soft Dice of sigmoid((blur(x) - t) / s), one sample at one
    point at a time, summed in sample order."""
    out = np.empty((len(thresholds), len(slopes)))
    for i, t in enumerate(thresholds):
        for j, s in enumerate(slopes):
            score = 0.0
            for smp in samples:
                blurred = box_blur(smp.image, 1)[:, :, 0]
                pred = 1.0 / (1.0 + np.exp(-(blurred - t) / s))
                inter = float((pred * smp.mask).sum())
                score += ((2.0 * inter + 1.0)
                          / (float(pred.sum()) + float(smp.mask.sum()) + 1.0))
            out[i, j] = score / len(samples)
    return out


# ---------------------------------------------------------------------------
# the low-frequency region
# ---------------------------------------------------------------------------

def mask(region: sp.LowFreqRegion) -> np.ndarray:
    """[h, w] booleans, true on the region's square in the centered layout."""
    m = np.zeros((region.height, region.width), dtype=bool)
    m[region.row0:region.row0 + region.side, region.col0:region.col0 + region.side] = True
    return m


def extract_low_freq(spec: sp.Spectrum, region: sp.LowFreqRegion) -> np.ndarray:
    """[side, side, c] amplitudes of ``spec`` under the region's mask."""
    if spec.shape != (region.height, region.width, region.channels):
        raise ShapeError(f"spectrum shape {spec.shape} does not match region")
    return spec.amplitude[region.row0:region.row0 + region.side,
                          region.col0:region.col0 + region.side, :].copy()


def identity_prompt(region: sp.LowFreqRegion) -> sp.PromptMultiplier:
    return sp.PromptMultiplier(region=region,
                               values=np.ones((region.side, region.side, region.channels)))


# ---------------------------------------------------------------------------
# image dumps
# ---------------------------------------------------------------------------

def read_pnm(path) -> np.ndarray:
    """Read back a ``tensorio.write_pgm`` dump as [h, w, 1] floats in [0, 1]."""
    kind, size, maxval, pixels = Path(path).read_bytes().split(b"\n", 3)
    if kind != b"P5" or maxval != b"255":
        raise ValueError(f"{path}: unsupported PNM header")
    w, h = (int(v) for v in size.split())
    raw = np.frombuffer(pixels[:w * h], dtype=np.uint8)
    return raw.reshape(h, w, 1).astype(np.float64) / 255.0
