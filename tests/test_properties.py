"""Property tests over random even image shapes and random ``beta``: the
prompted reconstruction and the multiplier symmetrization match their
backward rules as adjoints, the reconstruction stays real, unpaired
multiplier entries stay exactly 1, and row cosines are scale invariant.
Over random calibration grids and small scene sets, flat ones among them
whose scores tie, the backbone's branch-and-bound calibration finds the
full grid's argmax and scores each point it visits as the full grid does.

They add to the fixed-seed loops of acceptance criteria 1 and 2. Examples
are derived from the test names (``derandomize``) and no example database
is kept, so runs are deterministic and leave nothing in the checkout.
"""

import functools
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, configuration, example, given, settings, strategies as st

from apex import numerics as nm
from apex import spectral as sp
from apex import synthdata as sd
from apex.errors import ConfigError

import oracles

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
        return sp.prompted_image_node(nm.as_node(p), region, spectrum.copy()).array

    leaf = nm.parameter(p1)
    out = sp.prompted_image_node(leaf, region, spectrum.copy())
    nm.backward(nm.reduce_sum(oracles.mul(out, nm.as_node(g))))
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
    nm.backward(nm.reduce_sum(oracles.mul(sp.symmetrize_multiplier(leaf, region), nm.as_node(g))))
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
    out = sp.prompted_image_node(p, region, np.fft.fft2(img[None], axes=(1, 2)))
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


@functools.cache
def _calibration_sample(kind: str, value, full_mask: bool = False) -> sd.DomainSample:
    """A 32x32 source sample: the base scene of seed ``value``, or a flat
    image at level ``value`` with an empty or a full mask."""
    if kind == "scene":
        img, mask = sd._base_scene(value, 32, 32)
    else:
        img, mask = np.full((32, 32), value), np.full((32, 32), full_mask)
    return sd.DomainSample(f"{kind}{value}", "source", img[:, :, None], mask, 0)


# the ends of [0, 1] and the smallest slope saturate the sigmoid of a flat
# image, so a set of flat images ties at a soft Dice of exactly 1 over a run
# of thresholds
LEVELS = st.sampled_from((0.0, 1.0)) | st.floats(0.0, 1.0)
SLOPES = st.lists(st.sampled_from((0.01, 0.05)) | st.floats(0.01, 0.3), min_size=1,
                  max_size=3).map(tuple)
FLATS = st.builds(_calibration_sample, st.just("flat"), LEVELS, st.booleans())
SAMPLE_SETS = (st.lists(FLATS, min_size=1, max_size=3)
               | st.lists(FLATS | st.builds(_calibration_sample, st.just("scene"),
                                            st.integers(900, 905)), min_size=1, max_size=4))


def _calibration_grid(thresholds, slopes):
    return mock.patch.multiple(sd, CALIBRATION_THRESHOLDS=thresholds, CALIBRATION_SLOPES=slopes)


@PROPERTY
@given(samples=SAMPLE_SETS, slopes=SLOPES,
       thresholds=st.lists(LEVELS, min_size=1, max_size=12, unique=True).map(sorted).map(tuple))
# ties at 1 from threshold 0.5 up, in the last two slopes: the first maximum in
# scan order, (0.5, 0.01), is visited after the last threshold's
@example(samples=[_calibration_sample("flat", 0.0)], slopes=(0.05, 0.01, 0.01),
         thresholds=(0.2, 0.3, 0.5, 0.6, 0.7, 0.8))
def test_calibration_search_finds_the_full_grid_argmax(samples, thresholds, slopes):
    oracle = oracles.calibration_scores(samples, thresholds, slopes)
    with _calibration_grid(thresholds, slopes):
        scored = sd.calibration_search(samples)
        backbone = sd.backbone_calibrate(samples)
    assert all(score.tobytes() == oracle[key].tobytes() for key, score in scored.items())
    t, s = np.unravel_index(np.argmax(oracle), oracle.shape)  # the first of equal maxima
    assert (backbone.threshold, backbone.slope) == (thresholds[t], slopes[s])


@PROPERTY
@given(samples=SAMPLE_SETS, slopes=SLOPES,
       thresholds=st.lists(LEVELS, min_size=2, max_size=12).map(tuple))
def test_calibration_refuses_thresholds_that_do_not_increase(samples, thresholds, slopes):
    assume(any(a >= b for a, b in zip(thresholds, thresholds[1:])))
    with _calibration_grid(thresholds, slopes), pytest.raises(ConfigError):
        sd.backbone_calibrate(samples)
