"""2-D discrete Fourier analysis of images and amplitude-domain prompting.

Conventions used everywhere in this package:

* images are float64 arrays of shape [h, w, c] with h, w even and >= 4;
* spectra are stored in the centered layout (DC at (h//2, w//2));
* frequency negation maps index i to (n - i) % n on each axis, so index 0
  (the Nyquist row/column) and the DC index are their own mirrors;
* the low-frequency region is the centered square of side
  l = max(1, round(beta * min(h, w))), anchored so that for even l the
  square starts at the DC index (an 8x8 spectrum with beta = 0.25 selects
  rows and columns {4, 5}).

For even l < min(h, w) the top row and rightmost column of the square have
their negation partners outside the square. Multiplier entries there are
pinned to 1 so the spectrum outside the region is never touched and the
product spectrum stays Hermitian; all other entries pair up inside the
square and are free.

The differentiable path (:func:`prompted_image_node`) takes the unshifted
spectra of ``np.fft.fft2`` and touches only the square, gathered at the
region's unshifted rows and columns; the NumPy reference path above builds
the full multiplier field and is the test oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import numerics as nm
from .errors import AsymmetricSpectrumError, ShapeError

HERMITIAN_TOL = 1e-6
SYMMETRY_TOL = 1e-12


def validate_image(img) -> np.ndarray:
    """Coerce to [h, w, c] float64 and enforce the image contract."""
    arr = np.asarray(img, dtype=np.float64)
    if arr.ndim == 2:
        arr = arr[:, :, None]
    if arr.ndim != 3:
        raise ShapeError(f"image must be [h, w] or [h, w, c], got shape {arr.shape}")
    h, w = arr.shape[:2]
    if h < 4 or w < 4 or h % 2 or w % 2:
        raise ShapeError(f"image sides must be even and >= 4, got {h}x{w}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("image contains non-finite values")
    return arr


def mirror_indices(n: int) -> np.ndarray:
    """Index map of frequency negation on an axis of (even) length n."""
    return (-np.arange(n)) % n


@dataclass(frozen=True)
class Spectrum:
    """Amplitude/phase split of a per-channel 2-D DFT, centered layout."""

    amplitude: np.ndarray  # [h, w, c], >= 0
    phase: np.ndarray      # [h, w, c], in (-pi, pi]

    def __post_init__(self) -> None:
        if self.amplitude.shape != self.phase.shape or self.amplitude.ndim != 3:
            raise ShapeError(f"amplitude {self.amplitude.shape} and phase "
                             f"{self.phase.shape} must be matching [h, w, c]")
        if np.any(self.amplitude < 0.0) or not np.all(np.isfinite(self.amplitude)):
            raise ValueError("amplitude must be finite and nonnegative")

    @property
    def shape(self) -> tuple:
        return self.amplitude.shape

    def to_complex(self) -> np.ndarray:
        return self.amplitude * np.exp(1j * self.phase)

    def hermitian_defect(self) -> float:
        """Max |C(u,v) - conj(C(-u,-v))| over the centered complex spectrum."""
        c = self.to_complex()
        h, w = c.shape[:2]
        mirrored = c[mirror_indices(h)][:, mirror_indices(w)]
        return float(np.max(np.abs(c - np.conj(mirrored))))


def fft2(img) -> Spectrum:
    """Per-channel 2-D DFT of a real image, shifted to the centered layout."""
    arr = validate_image(img)
    c = np.fft.fftshift(np.fft.fft2(arr, axes=(0, 1)), axes=(0, 1))
    amplitude = np.abs(c)
    phase = np.angle(c)
    phase = np.where(phase <= -np.pi, phase + 2.0 * np.pi, phase)
    return Spectrum(amplitude=amplitude, phase=phase)


def ifft2(spec: Spectrum) -> np.ndarray:
    """Reconstruct the real image; rejects spectra that are not Hermitian."""
    amp = spec.amplitude
    defect = spec.hermitian_defect()
    tol = HERMITIAN_TOL * max(1.0, float(np.max(amp)) if amp.size else 0.0)
    if defect > tol:
        raise AsymmetricSpectrumError(
            f"spectrum violates Hermitian symmetry (defect {defect:.3e} > tol {tol:.3e})")
    c = np.fft.ifftshift(spec.to_complex(), axes=(0, 1))
    img = np.fft.ifft2(c, axes=(0, 1))
    return np.real(img)  # residual imaginary part is below tolerance by the check above


def lowfreq_side(beta: float, h: int, w: int) -> int:
    if not 0.0 < beta <= 1.0:
        raise ValueError(f"beta must be in (0, 1], got {beta}")
    return max(1, int(math.floor(beta * min(h, w) + 0.5)))


@dataclass(frozen=True)
class LowFreqRegion:
    """Geometry of the centered low-frequency square of an [h, w, c] spectrum."""

    beta: float
    height: int
    width: int
    channels: int
    row0: int
    col0: int
    side: int

    @classmethod
    def plan(cls, height: int, width: int, channels: int, beta: float) -> "LowFreqRegion":
        side = lowfreq_side(beta, height, width)
        row0 = min(max(height // 2 - (side - 1) // 2, 0), height - side)
        col0 = min(max(width // 2 - (side - 1) // 2, 0), width - side)
        return cls(beta=beta, height=height, width=width, channels=channels,
                   row0=row0, col0=col0, side=side)

    @property
    def flat_size(self) -> int:
        return self.side * self.side * self.channels

    @cached_property
    def _unshifted(self) -> tuple[np.ndarray, np.ndarray]:
        """(rows, cols) of the square in the unshifted layout of ``np.fft.fft2``:
        centered index r on an axis of length n is unshifted index (r - n//2) % n."""
        rows = (self.row0 + np.arange(self.side) - self.height // 2) % self.height
        cols = (self.col0 + np.arange(self.side) - self.width // 2) % self.width
        return rows, cols

    def _gather(self, spectra: np.ndarray) -> np.ndarray:
        """The square of an unshifted [batch, h, w, c] stack as a row-major
        [batch, l, l, c] array. ``take`` keeps row-major order, where a fancy
        index would not, so sums over the result keep their order."""
        rows, cols = self._unshifted
        return spectra.take(rows, axis=1).take(cols, axis=2)

    @cached_property
    def _pairing(self) -> tuple[np.ndarray, np.ndarray]:
        """(perm, pinned) over flat [side*side*c] local indices.

        ``perm`` maps each entry to its negation partner inside the region
        (an involution); entries whose partner lies outside are marked in
        ``pinned`` and their perm is the identity.
        """
        l, c = self.side, self.channels
        rows = self.row0 + np.arange(l)
        cols = self.col0 + np.arange(l)
        mrow = mirror_indices(self.height)[rows]
        mcol = mirror_indices(self.width)[cols]
        row_in = (mrow >= self.row0) & (mrow < self.row0 + l)
        col_in = (mcol >= self.col0) & (mcol < self.col0 + l)
        local_r = np.where(row_in, mrow - self.row0, 0)
        local_c = np.where(col_in, mcol - self.col0, 0)
        inside = row_in[:, None] & col_in[None, :]
        pr = np.where(inside, local_r[:, None], np.arange(l)[:, None])
        pc = np.where(inside, local_c[None, :], np.arange(l)[None, :])
        spatial_perm = pr * l + pc  # [l, l]
        perm = (spatial_perm[:, :, None] * c + np.arange(c)[None, None, :]).reshape(-1)
        pinned = np.broadcast_to(~inside[:, :, None], (l, l, c)).reshape(-1).copy()
        return perm, pinned


@dataclass(frozen=True)
class PromptMultiplier:
    """Strictly positive, negation-symmetric multipliers over a region.

    The implicit value outside the region is 1; entries of the region whose
    negation partner falls outside (even side lengths only) must equal 1.
    """

    region: LowFreqRegion
    values: np.ndarray  # [side, side, c]

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=np.float64)
        expected = (self.region.side, self.region.side, self.region.channels)
        if vals.shape != expected:
            raise ShapeError(f"multiplier shape {vals.shape} != region shape {expected}")
        if not np.all(np.isfinite(vals)) or np.any(vals <= 0.0):
            raise ValueError("prompt multiplier must be strictly positive and finite")
        flat = vals.reshape(-1)
        perm, pinned = self.region._pairing
        if np.max(np.abs(flat - flat[perm])) > SYMMETRY_TOL:
            raise ValueError("prompt multiplier is not symmetric under frequency negation")
        if np.any(np.abs(flat[pinned] - 1.0) > SYMMETRY_TOL):
            raise ValueError("unpaired boundary entries of the multiplier must be 1")
        object.__setattr__(self, "values", vals)

    def full_field(self) -> np.ndarray:
        """[h, w, c] multiplier field, 1 outside the region."""
        r = self.region
        field_arr = np.ones((r.height, r.width, r.channels))
        field_arr[r.row0:r.row0 + r.side, r.col0:r.col0 + r.side, :] = self.values
        return field_arr


def apply_prompt(spec: Spectrum, p: PromptMultiplier) -> Spectrum:
    """Scale the low-frequency amplitudes by ``p``; phase untouched."""
    h, w, c = spec.amplitude.shape
    r = p.region
    if (r.height, r.width, r.channels) != (h, w, c):
        raise ShapeError(f"multiplier region {r.height}x{r.width}x{r.channels} "
                         f"does not match spectrum {h}x{w}x{c}")
    amplitude = spec.amplitude * p.full_field()
    return Spectrum(amplitude=amplitude, phase=spec.phase.copy())


def prompted_image(img, p: PromptMultiplier) -> np.ndarray:
    """ifft2(apply_prompt(fft2(img), p)); pure-numpy reference path."""
    return ifft2(apply_prompt(fft2(img), p))


# ---------------------------------------------------------------------------
# differentiable path (used by the prompting module during training)
# ---------------------------------------------------------------------------

def symmetrize_multiplier(raw: nm.Node, region: LowFreqRegion) -> nm.Node:
    """Average each multiplier entry with its negation partner.

    ``raw`` is flat [flat_size] or [batch, flat_size], strictly positive.
    Entries whose partner falls outside the region are pinned to exactly 1.
    Affine in ``raw``; the backward rule is its transpose.
    """
    perm, pinned = region._pairing
    x = raw.array
    if x.shape[-1] != region.flat_size:
        raise ShapeError(f"multiplier length {x.shape[-1]} != region size {region.flat_size}")
    out = 0.5 * (x + x[..., perm])
    out[..., pinned] = 1.0

    def back(g: np.ndarray) -> None:
        gg = g.copy()
        gg[..., pinned] = 0.0
        raw.accumulate(0.5 * (gg + gg[..., perm]))

    return nm.Node(out, parents=(raw,), backward=back, op="symmetrize")


def prompted_image_node(imgs: np.ndarray, p_flat: nm.Node, region: LowFreqRegion,
                        spectrum: np.ndarray) -> nm.Node:
    """Differentiable reconstruction of a batch of prompted images.

    ``imgs`` is a constant [batch, h, w, c] array and ``spectrum`` its
    unshifted ``np.fft.fft2(imgs, axes=(1, 2))``, which the caller has
    already computed for the encoder input. ``p_flat`` [batch, flat_size]
    holds symmetric multipliers, flat per image. Gradients flow to the
    multipliers only. Linear in the multiplier, so the backward rule is the
    exact adjoint: d L / d M = Re(FFT(x) * IFFT(G)) on the region. Both
    directions work on the region's square alone, gathered from the unshifted
    layout; values are the same as scaling by the full multiplier field.
    """
    arr = np.asarray(imgs, dtype=np.float64)
    if arr.ndim != 4:
        raise ShapeError(f"images must be [batch, h, w, c], got {arr.shape}")
    b, h, w, c = arr.shape
    if (h, w, c) != (region.height, region.width, region.channels):
        raise ShapeError(f"image shape {(h, w, c)} does not match region")
    if spectrum.shape != arr.shape:
        raise ShapeError(f"spectrum shape {spectrum.shape} != image batch shape {arr.shape}")
    p = p_flat.array
    if p.shape != (b, region.flat_size):
        raise ShapeError(f"multiplier batch shape {p.shape} != {(b, region.flat_size)}")
    if np.any(p <= 0.0):
        raise ValueError("prompt multiplier must be strictly positive")

    # only the square is scaled: the rest of the spectrum passes through as it is
    square = region._gather(spectrum)
    rows, cols = region._unshifted
    prompted = spectrum.copy()
    prompted[:, rows[:, None], cols, :] = p.reshape(square.shape) * square
    out = np.real(np.fft.ifft2(prompted, axes=(1, 2)))

    def back(g: np.ndarray) -> None:
        # ifft2 in its own order, axis 2 then axis 1, transforming along
        # axis 1 only the square's columns: the same values as gathering
        # the square from the full inverse transform
        g_cols = np.fft.ifft(np.fft.ifft(g, axis=2).take(cols, axis=2), axis=1)
        grad = np.real(square * g_cols.take(rows, axis=1))
        p_flat.accumulate(grad.reshape(b, region.flat_size))

    return nm.Node(out, parents=(p_flat,), backward=back, op="prompted_image")
