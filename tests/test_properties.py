"""Property tests over random even image shapes and random ``beta``: the
prompted reconstruction and the multiplier symmetrization match their
backward rules as adjoints, the reconstruction stays real, unpaired
multiplier entries stay exactly 1, and row cosines are scale invariant.

They add to the fixed-seed loops of acceptance criteria 1 and 2. Examples
are derived from the test names (``derandomize``) and no example database
is kept, so runs are deterministic and leave nothing in the checkout.
"""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import configuration, given, settings, strategies as st

from apex import numerics as nm
from apex import spectral as sp

PROPERTY = settings(derandomize=True, deadline=None, max_examples=40, database=None)
# Hypothesis's pytest plugin caches the constants of local source files under
# ``.hypothesis/`` in the working directory at collection, whatever the
# settings; this module is imported before that, so the cache goes here
configuration.set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "apex-hypothesis")

SIDES = st.integers(2, 8).map(lambda half: 2 * half)  # even sides 4..16
BETAS = st.floats(0.05, 1.0)
SEEDS = st.integers(0, 2 ** 32 - 1)


def _region_and_rng(h, w, c, beta, seed):
    return sp.LowFreqRegion.plan(h, w, c, beta), np.random.default_rng(seed)


def _adjoint_gap(apply, x1, x2, g, transpose_g) -> tuple[float, float]:
    """|<A x1 - A x2, g> - <x1 - x2, A^T g>| for an affine map A, and the
    sum of the magnitudes of the terms, which bounds the rounding."""
    diff = apply(x1) - apply(x2)
    lhs_terms, rhs_terms = diff * g, (x1 - x2) * transpose_g
    scale = np.abs(lhs_terms).sum() + np.abs(rhs_terms).sum()
    return abs(lhs_terms.sum() - rhs_terms.sum()), scale


@PROPERTY
@given(h=SIDES, w=SIDES, c=st.integers(1, 2), beta=BETAS, batch=st.integers(1, 3),
       seed=SEEDS)
def test_prompted_image_backward_is_the_adjoint(h, w, c, beta, batch, seed):
    region, rng = _region_and_rng(h, w, c, beta, seed)
    imgs = rng.random((batch, h, w, c))
    spectrum = np.fft.fft2(imgs, axes=(1, 2))
    p1, p2 = (rng.uniform(0.2, 3.0, (batch, region.flat_size)) for _ in range(2))
    g = rng.standard_normal(imgs.shape)

    def apply(p):
        return sp.prompted_image_node(imgs, nm.as_node(p), region, spectrum.copy()).array

    leaf = nm.parameter(p1)
    out = sp.prompted_image_node(imgs, leaf, region, spectrum.copy())
    nm.backward(nm.reduce_sum(nm.mul(out, nm.as_node(g))))
    gap, scale = _adjoint_gap(apply, p1, p2, g, leaf.grad)
    assert gap <= 1e-12 * scale


@PROPERTY
@given(h=SIDES, w=SIDES, c=st.integers(1, 2), beta=BETAS, batch=st.integers(1, 3),
       seed=SEEDS)
def test_symmetrize_backward_is_the_adjoint(h, w, c, beta, batch, seed):
    region, rng = _region_and_rng(h, w, c, beta, seed)
    x1, x2 = (rng.uniform(0.2, 3.0, (batch, region.flat_size)) for _ in range(2))
    g = rng.standard_normal(x1.shape)

    def apply(x):
        return sp.symmetrize_multiplier(nm.as_node(x), region).array

    leaf = nm.parameter(x1)
    nm.backward(nm.reduce_sum(nm.mul(sp.symmetrize_multiplier(leaf, region), nm.as_node(g))))
    gap, scale = _adjoint_gap(apply, x1, x2, g, leaf.grad)
    assert gap <= 1e-12 * scale


@PROPERTY
@given(h=SIDES, w=SIDES, c=st.integers(1, 2), beta=BETAS, batch=st.integers(1, 3),
       seed=SEEDS)
def test_symmetrized_multiplier_pins_unpaired_entries_to_exactly_one(h, w, c, beta, batch,
                                                                     seed):
    region, rng = _region_and_rng(h, w, c, beta, seed)
    raw = rng.uniform(0.01, 50.0, (batch, region.flat_size))
    out = sp.symmetrize_multiplier(nm.as_node(raw), region).array
    perm, pinned = region._pairing
    assert np.all(out[:, pinned] == 1.0)
    assert np.array_equal(out, out[:, perm])


@PROPERTY
@given(h=SIDES, w=SIDES, c=st.integers(1, 2), beta=BETAS, seed=SEEDS)
def test_reconstruction_stays_real(h, w, c, beta, seed):
    region, rng = _region_and_rng(h, w, c, beta, seed)
    img = rng.random((h, w, c))
    raw = nm.as_node(rng.uniform(-3.0, 3.0, (1, region.flat_size)))
    p = sp.symmetrize_multiplier(nm.exp(raw), region)
    prompt = sp.PromptMultiplier(region=region,
                                 values=p.array.reshape(region.side, region.side, c))
    field = np.fft.ifftshift(prompt.full_field(), axes=(0, 1))
    recon = np.fft.ifft2(field * np.fft.fft2(img, axes=(0, 1)), axes=(0, 1))
    peak = np.abs(recon.real).max()
    assert np.abs(recon.imag).max() <= 1e-12 * peak
    out = sp.prompted_image_node(img[None], p, region, np.fft.fft2(img[None], axes=(1, 2)))
    assert np.max(np.abs(out.array[0] - sp.prompted_image(img, prompt))) <= 1e-12 * peak


@PROPERTY
@given(m=st.integers(1, 6), n=st.integers(1, 6), k=st.integers(1, 8), seed=SEEDS,
       exponent=st.integers(-30, 30), scale=st.floats(1e-3, 1e3))
def test_cosine_rows_is_scale_invariant(m, n, k, seed, exponent, scale):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, k))
    b = rng.standard_normal((n, k))
    base = nm.cosine_rows(a, b).array
    power_of_two = 2.0 ** exponent
    assert np.array_equal(nm.cosine_rows(a * power_of_two, b).array, base)
    assert np.array_equal(nm.cosine_rows(a, b * power_of_two).array, base)
    assert np.max(np.abs(nm.cosine_rows(a * scale, b / scale).array - base)) <= 1e-14
