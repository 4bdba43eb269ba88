"""Fourier analysis tests against a naive O(N^2) DFT oracle, plus the
prompting invariants (Parseval, phase preservation, realness)."""

import numpy as np
import pytest

from apex import numerics as nm
from apex import spectral as sp
from apex.errors import AsymmetricSpectrumError, ShapeError

import oracles


def naive_dft2(img2d: np.ndarray) -> np.ndarray:
    """Direct double-sum DFT, unshifted layout."""
    h, w = img2d.shape
    out = np.zeros((h, w), dtype=complex)
    for u in range(h):
        for v in range(w):
            acc = 0.0
            for x in range(h):
                for y in range(w):
                    acc += img2d[x, y] * np.exp(-2j * np.pi * (u * x / h + v * y / w))
            out[u, v] = acc
    return out


class TestFft2:
    def test_constant_image(self):
        img = np.full((6, 8, 1), 0.37)
        spec = sp.fft2(img)
        assert abs(spec.amplitude[3, 4, 0] - 0.37 * 48) < 1e-9
        off_dc = spec.amplitude.copy()
        off_dc[3, 4, 0] = 0.0
        assert np.max(off_dc) < 1e-9

    def test_unit_impulse(self):
        img = np.zeros((6, 6, 1))
        img[0, 0, 0] = 1.0
        spec = sp.fft2(img)
        assert np.max(np.abs(spec.amplitude - 1.0)) < 1e-12

    @pytest.mark.parametrize("side", [8, 16])
    def test_matches_naive_dft(self, side):
        rng = np.random.default_rng(side)
        img = rng.random((side, side, 1))
        spec = sp.fft2(img)
        oracle = np.fft.fftshift(naive_dft2(img[:, :, 0]))
        assert np.max(np.abs(spec.amplitude[:, :, 0] - np.abs(oracle))) < 1e-9
        assert np.max(np.abs(spec.to_complex()[:, :, 0] - oracle)) < 1e-9

    def test_odd_sides_rejected(self):
        with pytest.raises(ShapeError):
            sp.fft2(np.zeros((7, 8, 1)))
        with pytest.raises(ShapeError):
            sp.fft2(np.zeros((8, 10, 1))[:2])

    def test_nonfinite_rejected(self):
        img = np.zeros((4, 4, 1))
        img[0, 0, 0] = np.nan
        with pytest.raises(ValueError):
            sp.fft2(img)

    def test_linearity(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            a, b = rng.random((8, 8, 1)), rng.random((8, 8, 1))
            ca = sp.fft2(a).to_complex() + sp.fft2(b).to_complex()
            cb = sp.fft2(a + b).to_complex()
            assert np.max(np.abs(ca - cb)) < 1e-9


class TestIfft2:
    def test_roundtrip(self):
        rng = np.random.default_rng(4)
        img = rng.random((12, 10, 2))
        assert np.max(np.abs(sp.ifft2(sp.fft2(img)) - img)) < 1e-9

    def test_dc_only_spectrum(self):
        h, w, c = 8, 8, 1
        amp = np.zeros((h, w, c))
        amp[4, 4, 0] = 0.42 * h * w
        spec = sp.Spectrum(amplitude=amp, phase=np.zeros((h, w, c)))
        img = sp.ifft2(spec)
        assert np.max(np.abs(img - 0.42)) < 1e-12

    def test_amplitude_doubling_scales_image(self):
        rng = np.random.default_rng(6)
        img = rng.random((8, 8, 1))
        spec = sp.fft2(img)
        doubled = sp.Spectrum(amplitude=2.0 * spec.amplitude, phase=spec.phase)
        assert np.max(np.abs(sp.ifft2(doubled) - 2.0 * img)) < 1e-9

    def test_asymmetric_spectrum_rejected(self):
        spec = sp.fft2(np.random.default_rng(1).random((8, 8, 1)))
        amp = spec.amplitude.copy()
        amp[5, 5, 0] += 1.0  # breaks the (u,v) <-> (-u,-v) pairing
        with pytest.raises(AsymmetricSpectrumError):
            sp.ifft2(sp.Spectrum(amplitude=amp, phase=spec.phase))


class TestLowFreqRegion:
    def test_full_plane(self):
        reg = sp.LowFreqRegion.plan(8, 8, 1, 1.0)
        assert (reg.row0, reg.col0, reg.side) == (0, 0, 8)
        assert oracles.mask(reg).all()

    def test_limit_beta_to_zero(self):
        reg = sp.LowFreqRegion.plan(8, 8, 1, 1e-9)
        assert (reg.row0, reg.col0, reg.side) == (4, 4, 1)

    def test_worked_example_8x8_quarter(self):
        spec = sp.fft2(np.random.default_rng(0).random((8, 8, 1)))
        reg = sp.LowFreqRegion.plan(8, 8, 1, 0.25)
        assert (reg.row0, reg.col0, reg.side) == (4, 4, 2)
        assert np.array_equal(oracles.extract_low_freq(spec, reg), spec.amplitude[4:6, 4:6, :])
        mask = oracles.mask(reg)
        assert mask[4:6, 4:6].all() and mask.sum() == 4

    def test_mask_symmetric_for_odd_side(self):
        reg = sp.LowFreqRegion.plan(8, 8, 1, 0.375)  # side 3
        mask = oracles.mask(reg)
        mirrored = mask[sp.mirror_indices(8)][:, sp.mirror_indices(8)]
        assert np.array_equal(mask, mirrored)

    def test_beta_out_of_range(self):
        with pytest.raises(ValueError):
            sp.LowFreqRegion.plan(8, 8, 1, 0.0)
        with pytest.raises(ValueError):
            sp.LowFreqRegion.plan(8, 8, 1, 1.5)


class TestPromptMultiplier:
    def test_identity_prompt_valid(self):
        reg = sp.LowFreqRegion.plan(8, 8, 1, 0.25)
        p = oracles.identity_prompt(reg)
        assert np.all(p.values == 1.0)

    def test_nonpositive_rejected(self):
        reg = sp.LowFreqRegion.plan(8, 8, 1, 0.375)
        vals = np.ones((3, 3, 1))
        vals[1, 1, 0] = 0.0
        with pytest.raises(ValueError):
            sp.PromptMultiplier(region=reg, values=vals)

    def test_asymmetric_rejected(self):
        reg = sp.LowFreqRegion.plan(8, 8, 1, 0.375)
        vals = np.ones((3, 3, 1))
        vals[0, 0, 0] = 2.0  # pairs with (2, 2); leaving that at 1 is asymmetric
        with pytest.raises(ValueError):
            sp.PromptMultiplier(region=reg, values=vals)

    def test_unpaired_boundary_must_be_one(self):
        reg = sp.LowFreqRegion.plan(8, 8, 1, 0.25)  # side 2: only DC is free
        vals = np.ones((2, 2, 1))
        vals[1, 1, 0] = 2.0  # (5,5) has mirror (3,3) outside the region
        with pytest.raises(ValueError):
            sp.PromptMultiplier(region=reg, values=vals)
        vals = np.ones((2, 2, 1))
        vals[0, 0, 0] = 2.0  # DC is self-paired, free
        sp.PromptMultiplier(region=reg, values=vals)


class TestApplyPrompt:
    def test_identity_prompt_is_noop(self):
        img = np.random.default_rng(3).random((8, 8, 1))
        spec = sp.fft2(img)
        reg = sp.LowFreqRegion.plan(8, 8, 1, 0.25)
        out = sp.apply_prompt(spec, oracles.identity_prompt(reg))
        assert np.array_equal(out.amplitude, spec.amplitude)
        assert np.max(np.abs(sp.ifft2(out) - img)) < 1e-12

    def test_dc_scaling_on_constant_image(self):
        img = np.full((8, 8, 1), 0.5)
        spec = sp.fft2(img)
        reg = sp.LowFreqRegion.plan(8, 8, 1, 0.25)
        vals = np.ones((2, 2, 1))
        vals[0, 0, 0] = 2.0  # DC at local (0, 0) for this region
        out = sp.ifft2(sp.apply_prompt(spec, sp.PromptMultiplier(region=reg, values=vals)))
        assert np.max(np.abs(out - 1.0)) < 1e-12

    def test_dc_to_zero_limit(self):
        img = np.full((8, 8, 1), 0.5)
        spec = sp.fft2(img)
        reg = sp.LowFreqRegion.plan(8, 8, 1, 0.25)
        vals = np.ones((2, 2, 1))
        vals[0, 0, 0] = 1e-9
        out = sp.ifft2(sp.apply_prompt(spec, sp.PromptMultiplier(region=reg, values=vals)))
        assert np.max(np.abs(out)) < 1e-8


class TestPromptedImage:
    def test_identity(self):
        img = np.random.default_rng(8).random((8, 8, 1))
        reg = sp.LowFreqRegion.plan(8, 8, 1, 0.25)
        out = sp.prompted_image(img, oracles.identity_prompt(reg))
        assert np.max(np.abs(out - img)) < 1e-9

    def test_dc_scaling_shifts_by_mean(self):
        rng = np.random.default_rng(9)
        img = rng.random((8, 8, 1))
        reg = sp.LowFreqRegion.plan(8, 8, 1, 0.375)
        vals = np.ones((3, 3, 1))
        vals[1, 1, 0] = 1.6  # DC sits at the center of an odd-sided region
        out = sp.prompted_image(img, sp.PromptMultiplier(region=reg, values=vals))
        assert np.max(np.abs(out - (img + 0.6 * img.mean()))) < 1e-9

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(10)
        imgs = rng.random((1, 8, 8, 1))
        reg = sp.LowFreqRegion.plan(8, 8, 1, 0.375)
        spectrum = np.fft.fft2(imgs, axes=(1, 2))
        raw0 = rng.standard_normal((1, reg.flat_size)) * 0.3

        def build(leaves):
            p = sp.symmetrize_multiplier(nm.exp(leaves[0]), reg)
            out = sp.prompted_image_node(p, reg, spectrum.copy())
            return nm.reduce_sum(out)

        assert oracles.gradcheck(build, [raw0]) < 1e-4

    def test_node_path_matches_reference(self):
        rng = np.random.default_rng(12)
        imgs = rng.random((3, 8, 8, 1))
        reg = sp.LowFreqRegion.plan(8, 8, 1, 0.375)
        raws = rng.standard_normal((3, reg.flat_size)) * 0.2
        p = sp.symmetrize_multiplier(nm.exp(nm.as_node(raws)), reg)
        spectrum = np.fft.fft2(imgs, axes=(1, 2))
        outs = sp.prompted_image_node(p, reg, spectrum)
        for i in range(3):
            pm = sp.PromptMultiplier(region=reg,
                                     values=p.array[i].reshape(3, 3, 1))
            ref = sp.prompted_image(imgs[i], pm)
            assert np.max(np.abs(outs.array[i] - ref)) < 1e-12
        with pytest.raises(ShapeError):
            sp.prompted_image_node(p, reg, spectrum[:2])
        with pytest.raises(ShapeError):
            sp.prompted_image_node(p, reg, spectrum[0])
        with pytest.raises(ShapeError):
            sp.prompted_image_node(p, reg, spectrum[:, :6])


def full_field_prompted(imgs, p, region, spectrum, upstream):
    """The full-spectrum formulation the region-only node replaced: a field
    of ones with the multipliers in the square, ifftshifted, times the whole
    spectrum; the gradient is fftshifted over the whole spectrum and then
    sliced. Returns (output, multiplier gradient)."""
    b, h, w, c = imgs.shape
    l, r0, c0 = region.side, region.row0, region.col0
    mult = np.ones((b, h, w, c))
    mult[:, r0:r0 + l, c0:c0 + l, :] = p.reshape(b, l, l, c)
    mult_unshifted = np.fft.ifftshift(mult, axes=(1, 2))
    out = np.real(np.fft.ifft2(mult_unshifted * spectrum, axes=(1, 2)))
    grad_mult = np.real(spectrum * np.fft.ifft2(upstream, axes=(1, 2)))
    grad_mult = np.fft.fftshift(grad_mult, axes=(1, 2))
    return out, grad_mult[:, r0:r0 + l, c0:c0 + l, :].reshape(b, region.flat_size)


class TestRegionOnlyNode:
    """``prompted_image_node`` touches only the square; output and gradient
    are bytes-equal to the full-field formulation."""

    @pytest.mark.parametrize("shape,beta", [((8, 32, 32, 1), 0.25), ((3, 128, 128, 1), 0.25),
                                            ((2, 12, 20, 3), 0.3), ((4, 8, 8, 1), 0.375),
                                            ((2, 6, 6, 1), 1.0)])
    def test_matches_full_field(self, shape, beta):
        rng = np.random.default_rng(shape[1] + shape[2])
        imgs = rng.random(shape)
        b, h, w, c = shape
        region = sp.LowFreqRegion.plan(h, w, c, beta)
        spectrum = np.fft.fft2(imgs, axes=(1, 2))
        p0 = np.exp(0.3 * rng.standard_normal((b, region.flat_size)))
        upstream = rng.standard_normal(shape)
        p = nm.parameter(p0)
        out = sp.prompted_image_node(p, region, spectrum.copy())
        nm.backward(nm.reduce_sum(oracles.mul(out, upstream)))
        ref_out, ref_grad = full_field_prompted(imgs, p0, region, spectrum, upstream)
        assert out.array.tobytes() == ref_out.tobytes()
        assert p.grad.tobytes() == ref_grad.tobytes()

    @pytest.mark.parametrize("shape", [(8, 32, 32, 1), (2, 128, 128, 1), (2, 12, 20, 3)])
    def test_in_place_equals_ifft2_of_a_prompted_copy(self, shape):
        """The node scales the square and inverts the spectrum it is given in
        place: its output is ``real(ifft2(copy))`` of a prompted copy, bit for
        bit, the caller's spectrum is overwritten, and the gradient is the
        full-field formulation's."""
        rng = np.random.default_rng(shape[1])
        imgs = rng.random(shape)
        region = sp.LowFreqRegion.plan(*shape[1:], 0.25)
        spectrum = np.fft.fft2(imgs, axes=(1, 2))
        p0 = np.exp(0.3 * rng.standard_normal((shape[0], region.flat_size)))
        rows, cols = region._unshifted
        prompted = spectrum.copy()
        prompted[:, rows[:, None], cols, :] *= p0.reshape(region._gather(spectrum).shape)
        expected = np.real(np.fft.ifft2(prompted, axes=(1, 2)))
        upstream = rng.standard_normal(shape)
        _ref_out, ref_grad = full_field_prompted(imgs, p0, region, spectrum.copy(), upstream)

        p = nm.parameter(p0)
        out = sp.prompted_image_node(p, region, spectrum)
        assert out.array.tobytes() == expected.tobytes()
        assert np.real(spectrum).tobytes() == expected.tobytes()  # inverted in place
        nm.backward(nm.reduce_sum(oracles.mul(out, upstream)))
        assert p.grad.tobytes() == ref_grad.tobytes()

    def test_unshifted_indices(self):
        region = sp.LowFreqRegion.plan(8, 10, 1, 0.5)  # side 4, rows 3..6, cols 4..7
        rows, cols = region._unshifted
        assert rows.tolist() == [7, 0, 1, 2] and cols.tolist() == [9, 0, 1, 2]


class TestInvariants:
    def test_parseval(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            img = rng.random((8, 12, 1))
            spec = sp.fft2(img)
            lhs = np.sum(img ** 2)
            rhs = np.sum(spec.amplitude ** 2) / (8 * 12)
            assert abs(lhs - rhs) / max(lhs, 1e-12) < 1e-6

    def _random_prompted(self, rng, beta=0.375):
        img = rng.random((8, 8, 1))
        reg = sp.LowFreqRegion.plan(8, 8, 1, beta)
        raw = np.exp(rng.standard_normal(reg.flat_size) * 0.4)
        sym = sp.symmetrize_multiplier(nm.as_node(raw), reg)
        pm = sp.PromptMultiplier(region=reg, values=sym.array.reshape(reg.side, reg.side, 1))
        return img, reg, pm

    def test_phase_preserved(self):
        rng = np.random.default_rng(14)
        img, reg, pm = self._random_prompted(rng)
        before = sp.fft2(img)
        after = sp.fft2(sp.prompted_image(img, pm))
        significant = before.amplitude > 1e-9
        delta = np.abs(after.phase - before.phase)
        delta = np.minimum(delta, 2.0 * np.pi - delta)  # wrap-around distance
        assert np.max(delta[significant]) < 1e-6

    def test_high_frequencies_untouched(self):
        rng = np.random.default_rng(15)
        img, reg, pm = self._random_prompted(rng)
        before = sp.fft2(img)
        after = sp.apply_prompt(before, pm)
        outside = ~oracles.mask(reg)
        assert np.array_equal(after.amplitude[outside], before.amplitude[outside])

    def test_realness_for_any_symmetric_positive_prompt(self):
        rng = np.random.default_rng(16)
        for beta in (0.25, 0.375, 0.5, 1.0):
            img, reg, pm = self._random_prompted(rng, beta)
            spec = sp.apply_prompt(sp.fft2(img), pm)
            c = np.fft.ifft2(np.fft.ifftshift(spec.to_complex(), axes=(0, 1)), axes=(0, 1))
            assert np.max(np.abs(c.imag)) < 1e-9


def test_symmetrize_pins_boundary_and_averages_pairs():
    reg = sp.LowFreqRegion.plan(8, 8, 1, 0.5)  # side 4: row/col 6 unpaired
    raw = np.arange(1.0, 17.0).reshape(1, 16)
    out = sp.symmetrize_multiplier(nm.as_node(raw), reg).array.reshape(4, 4)
    perm, pinned = reg._pairing
    flat = out.reshape(-1)
    assert np.array_equal(flat[perm], flat)
    assert np.all(flat[pinned] == 1.0)
