"""Reference helpers that only the tests use: finite-difference gradient
checks, the box blur as a graph node, the low-frequency region's mask and
amplitudes, the identity prompt, and a reader for PGM dumps.

Test modules import this file as ``oracles``: pytest puts ``tests/`` on
``sys.path`` when it collects them.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from apex import numerics as nm
from apex import spectral as sp
from apex import synthdata as sd
from apex.errors import ShapeError
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
# the backbone's blur as a node
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

    return Node(result, parents=(x,), backward=back, op="box_blur")


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
