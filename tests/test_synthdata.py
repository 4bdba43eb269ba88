"""Benchmark generator and frozen backbone tests, including the domain-shift
potency and low-frequency energy audits for the shipped domain table."""

import contextlib
import dataclasses
import inspect
import os
import sys
import threading

import numpy as np
import pytest

import apex
from apex import harness, numerics as nm, spectral as sp, synthdata as sd, tensorio
from apex.errors import (ConfigError, CorruptInputError, InputNotFoundError, NonFiniteError,
                         ShapeError)

import oracles

SMALL_BENCH = sd.BenchmarkConfig(train_per_domain=24, test_per_domain=12,
                                 source_train=24, source_test=12)


@pytest.fixture(scope="module")
def small_bench():
    return sd.build_benchmark(SMALL_BENCH, seed=5)


@pytest.fixture(scope="module")
def backbone(small_bench):
    return sd.backbone_calibrate(small_bench.splits["source_cal"])


def scene_sample(seed, size):
    """A source sample of the base scene of ``seed``, shaped as a benchmark's."""
    img, mask = sd._base_scene(seed, size, size)
    return sd.DomainSample(f"s{seed}", "source", img[:, :, None], mask, seed)


def grid_scores(samples):
    """A ``calibration_scorer``'s scores at every point of the ``CALIBRATION_*``
    grid, as a [thresholds, slopes] array."""
    thresholds, slopes = sd.CALIBRATION_THRESHOLDS, sd.CALIBRATION_SLOPES
    scores, _, _ = sd.calibration_scorer(samples)([(t, s) for t in thresholds for s in slopes])
    return scores.reshape(len(thresholds), len(slopes))


class TestBaseScene:
    def test_determinism(self):
        a_img, a_mask = sd._base_scene(99, 32, 32)
        b_img, b_mask = sd._base_scene(99, 32, 32)
        assert np.array_equal(a_img, b_img)
        assert np.array_equal(a_mask, b_mask)

    def test_lesions_brighter_than_background(self):
        for seed in range(10):
            img, mask = sd._base_scene(seed, 32, 32)
            assert img[mask].mean() > img[~mask].mean() + 0.2

    def test_area_fraction_monte_carlo(self):
        fracs = []
        for seed in range(1000):
            _, mask = sd._base_scene(seed, 32, 32)
            fracs.append(mask.mean())
        fracs = np.asarray(fracs)
        assert fracs.min() >= 0.02
        assert fracs.max() <= 0.20

    def test_mask_nonempty(self):
        for seed in range(25):
            _, mask = sd._base_scene(seed, 32, 32)
            assert mask.sum() > 0

    def test_size_contract(self):
        for size in (30, 33, 0, -32):
            with pytest.raises(ConfigError, match=f"image_size must be even and >= 32, "
                                                  f"got {size}"):
                sd.BenchmarkConfig(image_size=size)


class TestApplyDomain:
    def test_identity_spec(self):
        img = sd._base_scene(3, 32, 32)[0][:, :, None]
        spec = sd.DomainSpec("id", gain=1.0, bias=0.0)
        assert np.array_equal(sd._apply_domain(img, spec, seed=0), img)

    def test_pure_bias(self):
        img = np.full((32, 32, 1), 0.4)
        spec = sd.DomainSpec("b", gain=1.0, bias=0.2)
        out = sd._apply_domain(img, spec, seed=0)
        assert np.max(np.abs(out - 0.6)) < 1e-12

    def test_determinism(self):
        img = sd._base_scene(4, 32, 32)[0][:, :, None]
        spec = sd.DEFAULT_SEEN[0]
        assert np.array_equal(sd._apply_domain(img, spec, 11), sd._apply_domain(img, spec, 11))

    @pytest.mark.parametrize("spec", sd.DEFAULT_SEEN + sd.DEFAULT_UNSEEN,
                             ids=lambda s: s.domain_id)
    def test_shift_energy_in_low_freq_mask(self, spec):
        """>= 95% of the shading ratio's off-DC energy falls under beta=0.25."""
        from dataclasses import replace
        img = np.full((32, 32, 1), 0.5)  # flat, so img'/img isolates the field
        clean = replace(spec, bias=0.0, noise_sigma=0.0)
        out = sd._apply_domain(img, clean, seed=21)
        ratio = out[:, :, 0] / img[:, :, 0]
        centered = ratio - ratio.mean()
        amp = np.abs(np.fft.fftshift(np.fft.fft2(centered)))
        mask = oracles.mask(sp.LowFreqRegion.plan(32, 32, 1, 0.25))
        inside = float((amp[mask] ** 2).sum())
        total = float((amp ** 2).sum())
        assert inside >= 0.95 * total

    def test_mode_validation(self):
        with pytest.raises(ConfigError):
            sd.DomainSpec("x", gain=1.0, bias=0.0, shading=((0, 0, 0.1),))
        with pytest.raises(ConfigError):
            sd.DomainSpec("x", gain=-1.0, bias=0.0)


def oracle_base_scene(seed, h, w):
    """The definition of :func:`synthdata._base_scene`: every ellipse
    evaluated over the full grid and merged with a full-image ``np.where``."""
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:h, 0:w]
    for _ in range(64):
        img = sd.SCENE_BACKGROUND + 0.03 * rng.standard_normal((h, w))
        mask = np.zeros((h, w), dtype=bool)
        scale = min(h, w) / 32.0
        for _ in range(int(rng.integers(1, 4))):
            cy = rng.uniform(0.22, 0.78) * h
            cx = rng.uniform(0.22, 0.78) * w
            a = rng.uniform(2.8, 5.2) * scale
            b = rng.uniform(2.8, 5.2) * scale
            theta = rng.uniform(0.0, np.pi)
            u = (xx - cx) * np.cos(theta) + (yy - cy) * np.sin(theta)
            v = -(xx - cx) * np.sin(theta) + (yy - cy) * np.cos(theta)
            inside = (u / a) ** 2 + (v / b) ** 2 <= 1.0
            level = sd.SCENE_LESION + rng.uniform(-0.03, 0.03)
            img = np.where(inside, level + 0.02 * rng.standard_normal((h, w)), img)
            mask |= inside
        frac = mask.mean()
        if sd.AREA_FRACTION_RANGE[0] <= frac <= sd.AREA_FRACTION_RANGE[1]:
            break
    else:
        raise RuntimeError(f"scene generator failed to hit area range for seed {seed}")
    return np.clip(img, 0.0, 1.0), mask


def oracle_shading_field(spec, rng, h, w):
    """The definition of :func:`synthdata._shading_field`: every mode's cosine
    over the full grid."""
    yy, xx = np.mgrid[0:h, 0:w]
    out = np.ones((h, w))
    for fu, fv, amp in spec.shading:
        phase = rng.uniform(0.0, 2.0 * np.pi)
        amp_eff = amp * rng.uniform(0.75, 1.25)
        out += amp_eff * np.cos(2.0 * np.pi * (fu * yy / h + fv * xx / w) + phase)
    return out


def oracle_apply_domain(img, spec, seed):
    """The definition of :func:`synthdata._apply_domain`, one expression."""
    arr = np.asarray(img, dtype=np.float64)
    h, w = arr.shape[:2]
    rng = np.random.default_rng(seed)
    fld = oracle_shading_field(spec, rng, h, w)[:, :, None]
    noise = spec.noise_sigma * rng.standard_normal(arr.shape) if spec.noise_sigma else 0.0
    return np.clip(spec.gain * fld * arr + spec.bias + noise, 0.0, 1.0)


ALL_DEFAULT_SPECS = (sd.DEFAULT_SOURCE,) + sd.DEFAULT_SEEN + sd.DEFAULT_UNSEEN


class TestGeneratorMatchesOracle:
    """Windowed lesions, cached grids and cached shading tables give the
    full-grid definitions' bytes, so benchmark files do not change."""

    # 66 is not a power of two, so the shading tables' value counts are uneven
    @pytest.mark.parametrize("size", [32, 48, 66, 128])
    def test_base_scene_bytes(self, size, monkeypatch):
        clipped = []
        window = sd._lesion_window

        def extent(rows, cols):
            return rows.stop - rows.start, cols.stop - cols.start

        def recording_window(cy, cx, a, b, h, w):
            rows, cols = window(cy, cx, a, b, h, w)
            # the same window moved far from every border is never clipped
            unclipped = window(cy + 10 * h, cx + 10 * w, a, b, 30 * h, 30 * w)
            clipped.append(extent(rows, cols) != extent(*unclipped))
            return rows, cols

        monkeypatch.setattr(sd, "_lesion_window", recording_window)
        for seed in range(50):
            img, mask = sd._base_scene(seed, size, size)
            ref_img, ref_mask = oracle_base_scene(seed, size, size)
            assert img.tobytes() == ref_img.tobytes(), seed
            assert mask.tobytes() == ref_mask.tobytes(), seed
        assert len(clipped) >= 50 and not all(clipped)
        if size == 32:  # windows reach past the border at the smallest size
            assert any(clipped)

    def test_window_clipped_at_border(self):
        """An ellipse whose window leaves the image on two sides."""
        rows, cols = sd._lesion_window(1.5, 30.5, 4.0, 3.0, 32, 32)
        assert (rows, cols) == (slice(0, 8), slice(24, 32))

    def test_window_holds_whole_ellipse(self):
        rng = np.random.default_rng(3)
        yy, xx = np.mgrid[0:64, 0:64]
        for _ in range(200):
            cy, cx = rng.uniform(0, 64, size=2)
            a, b = rng.uniform(0.5, 12.0, size=2)
            theta = rng.uniform(0.0, np.pi)
            u = (xx - cx) * np.cos(theta) + (yy - cy) * np.sin(theta)
            v = -(xx - cx) * np.sin(theta) + (yy - cy) * np.cos(theta)
            inside = (u / a) ** 2 + (v / b) ** 2 <= 1.0
            rows, cols = sd._lesion_window(cy, cx, a, b, 64, 64)
            assert inside[rows, cols].sum() == inside.sum()

    @pytest.mark.parametrize("size", [32, 48, 66, 128])
    @pytest.mark.parametrize("spec", ALL_DEFAULT_SPECS, ids=lambda s: s.domain_id)
    def test_apply_domain_bytes(self, size, spec):
        for seed in range(6):
            img = sd._base_scene(seed, size, size)[0][:, :, None]
            out = sd._apply_domain(img, spec, 1000 + seed)
            assert out.tobytes() == oracle_apply_domain(img, spec, 1000 + seed).tobytes()
            assert not np.shares_memory(out, img) and out.flags.c_contiguous

    @pytest.mark.parametrize("size", [32, 48, 66, 128])
    @pytest.mark.parametrize("spec", ALL_DEFAULT_SPECS, ids=lambda s: s.domain_id)
    def test_shading_field_bytes(self, size, spec):
        rng, ref_rng = np.random.default_rng(7), np.random.default_rng(7)
        for _ in range(10):
            fld = sd._shading_field(spec, rng, size, size)
            assert fld.tobytes() == oracle_shading_field(spec, ref_rng, size, size).tobytes()
        assert rng.random() == ref_rng.random()  # the same draws were taken

    def test_non_square_scene_and_field(self):
        spec = sd.DEFAULT_SEEN[0]
        for seed in range(10):
            img, mask = sd._base_scene(seed, 32, 66)
            ref_img, ref_mask = oracle_base_scene(seed, 32, 66)
            assert img.tobytes() == ref_img.tobytes()
            assert mask.tobytes() == ref_mask.tobytes()
            img = img[:, :, None]
            assert (sd._apply_domain(img, spec, seed).tobytes()
                    == oracle_apply_domain(img, spec, seed).tobytes())

    def test_cached_tables_are_read_only(self):
        sd._base_scene(0, 32, 32)
        sd._apply_domain(np.full((32, 32, 1), 0.5), sd.DEFAULT_SEEN[0], 0)
        assert sd._grid.cache_info().currsize and sd._shading_table.cache_info().currsize
        fu, fv, _ = sd.DEFAULT_SEEN[0].shading[0]
        grid = sd._grid(32, 32)
        vals, inv = sd._shading_table(fu, fv, 32, 32)
        for arr in (grid, vals, inv):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[(0,) * arr.ndim] = 1
        yy, xx = grid
        assert not yy.flags.writeable and not xx.flags.writeable
        assert sd._grid(32, 32) is grid and sd._shading_table(fu, fv, 32, 32)[0] is vals


class TestBuildBenchmark:
    def test_default_layout(self, small_bench):
        assert len(small_bench.splits["train_seen"]) == 2 * 24
        assert len(small_bench.splits["test_seen"]) == 2 * 12
        assert len(small_bench.splits["test_unseen"]) == 2 * 12
        assert sorted(small_bench.by_domain("test_unseen")) == ["C", "D"]

    def test_scene_seeds_disjoint(self, small_bench):
        seen = {}
        for split, samples in small_bench.splits.items():
            for s in samples:
                assert s.scene_seed not in seen, (split, seen.get(s.scene_seed))
                seen[s.scene_seed] = split

    def test_unseen_outside_seen_hull(self):
        cfg = sd.BenchmarkConfig()
        gains = [d.gain for d in cfg.seen]
        biases = [d.bias for d in cfg.seen]
        for spec in cfg.unseen:
            outside_gain = spec.gain < min(gains) or spec.gain > max(gains)
            outside_bias = spec.bias < min(biases) or spec.bias > max(biases)
            assert outside_gain or outside_bias

    def test_overlapping_specs_rejected(self):
        dup = sd.DomainSpec("Z", gain=sd.DEFAULT_SEEN[0].gain,
                            bias=sd.DEFAULT_SEEN[0].bias)
        with pytest.raises(ConfigError):
            sd.BenchmarkConfig(unseen=(dup, sd.DEFAULT_UNSEEN[1]))

    def test_manifest_deterministic(self):
        a = sd.build_benchmark(SMALL_BENCH, seed=6).manifest_csv()
        b = sd.build_benchmark(SMALL_BENCH, seed=6).manifest_csv()
        assert a == b

    def test_save_load_roundtrip(self, small_bench, tmp_path):
        sd.save_benchmark(small_bench, tmp_path)
        loaded = sd.load_benchmark(tmp_path, SMALL_BENCH, seed=5)
        for split in sd.Benchmark.SPLITS:
            assert len(loaded.splits[split]) == len(small_bench.splits[split])
            for a, b in zip(loaded.splits[split], small_bench.splits[split]):
                assert a.sample_id == b.sample_id
                assert np.array_equal(a.image, b.image)
                assert np.array_equal(a.mask, b.mask)

    def test_masks_are_bool_in_memory(self, small_bench, tmp_path):
        # one byte per pixel, built or loaded; the files keep float64 0.0 and 1.0
        sd.save_benchmark(small_bench, tmp_path)
        loaded = sd.load_benchmark(tmp_path, SMALL_BENCH, seed=5)
        for bench in (small_bench, loaded):
            for samples in bench.splits.values():
                for smp in samples:
                    assert smp.mask.dtype == np.bool_ and smp.mask.nbytes == 32 * 32
        masks = tensorio.read_tensor(tmp_path / "test_seen_masks.apxt")
        assert masks.dtype == np.float64
        assert np.array_equal(masks, [s.mask for s in small_bench.splits["test_seen"]])

    def test_save_load_save_bytes_identical(self, small_bench, tmp_path):
        first, second = tmp_path / "first", tmp_path / "second"
        sd.save_benchmark(small_bench, first)
        sd.save_benchmark(sd.load_benchmark(first, SMALL_BENCH, seed=5), second)
        names = sorted(p.name for p in first.iterdir())
        assert names == sorted(p.name for p in second.iterdir())
        for name in names:
            assert (first / name).read_bytes() == (second / name).read_bytes(), name

    @pytest.mark.parametrize("value", [0.5, 7.0, -1.0, np.nan, np.inf])
    def test_load_refuses_mask_values_other_than_0_and_1(self, small_bench, tmp_path, value):
        sd.save_benchmark(small_bench, tmp_path)
        path = tmp_path / "train_seen_masks.apxt"
        masks = tensorio.read_tensor(path)
        masks[3, 10, 12] = value
        tensorio.write_tensor(path, masks)
        with pytest.raises(CorruptInputError, match="sample A-train_seen-0003 has values "
                                                    "other than 0 and 1"):
            sd.load_benchmark(tmp_path, SMALL_BENCH, seed=5)

    def test_load_refuses_mask_file_cut_in_mid_sample(self, small_bench, tmp_path):
        # masks are read a sample at a time; the file's length is still
        # checked against its header before the first one
        sd.save_benchmark(small_bench, tmp_path)
        path = tmp_path / "train_seen_masks.apxt"
        raw = path.read_bytes()
        path.write_bytes(raw[:len(raw) - 8 * 32 * 32 - 8 * 100])
        with pytest.raises(CorruptInputError, match="train_seen_masks.apxt: truncated"):
            sd.load_benchmark(tmp_path, SMALL_BENCH, seed=5)

    @pytest.mark.parametrize("count", ["train_per_domain", "test_per_domain",
                                       "source_train", "source_test"])
    def test_empty_or_negative_split_rejected(self, count):
        for value in (0, -1):
            with pytest.raises(ConfigError, match=f"{count} must be >= 1"):
                sd.BenchmarkConfig(**{count: value})

    def test_load_without_manifest_is_input_not_found(self, tmp_path):
        with pytest.raises(InputNotFoundError):
            sd.load_benchmark(tmp_path, SMALL_BENCH, seed=5)
        with pytest.raises(InputNotFoundError):
            sd.load_benchmark(tmp_path / "missing", SMALL_BENCH, seed=5)


class TestBackbone:
    def test_threshold_between_modes(self, backbone):
        assert 0.35 <= backbone.threshold <= 0.65

    @staticmethod
    def assert_search_matches(samples, oracle):
        """Every score the search visits is the oracle's, byte for byte."""
        scored = sd.calibration_search(samples)
        assert scored and all(score.tobytes() == oracle[key].tobytes()
                              for key, score in scored.items())

    def test_matches_independent_grid_search(self, small_bench, backbone):
        samples = small_bench.splits["source_cal"]
        thresholds = np.round(np.linspace(0.2, 0.8, 61), 10)
        slopes = (0.05, 0.08, 0.12)
        oracle = oracles.calibration_scores(samples, thresholds, slopes)
        assert grid_scores(samples).tobytes() == oracle.tobytes()
        self.assert_search_matches(samples, oracle)
        t, s = np.unravel_index(np.argmax(oracle), oracle.shape)
        assert (backbone.threshold, backbone.slope) == (float(thresholds[t]), slopes[s])

    def test_search_prunes_the_default_grid(self):
        # a silent fallback to the full grid would pass every bit test
        samples = sd.build_benchmark(sd.BenchmarkConfig(), seed=0).splits["source_cal"]
        assert len(sd.CALIBRATION_THRESHOLDS) * len(sd.CALIBRATION_SLOPES) == 183
        assert len(sd.calibration_search(samples)) <= 40

    def test_search_blurs_each_sample_once(self, monkeypatch):
        # the search scores 7 levels on the default grid; the blocks they
        # score are blurred once, not once per level
        samples = sd.build_benchmark(sd.BenchmarkConfig(), seed=0).splits["source_cal"]
        assert len(samples) == 120
        rows, blur = [], sd._blur

        def counting(data, radius):
            rows.append(len(data))  # list.append is atomic: blocks blur on threads
            return blur(data, radius)

        monkeypatch.setattr(sd, "_blur", counting)
        sd.backbone_calibrate(samples)
        assert sum(rows) == 120

    @pytest.mark.parametrize("slopes", [(0.05, 0.0), (-0.05,)])
    def test_slope_not_positive_rejected(self, small_bench, monkeypatch, slopes):
        # the search's bound needs p to fall as the threshold rises
        monkeypatch.setattr(sd, "CALIBRATION_SLOPES", slopes)
        with pytest.raises(ConfigError, match="slopes be positive"):
            sd.backbone_calibrate(small_bench.splits["source_cal"])

    def test_non_default_grid_across_partial_blocks(self, monkeypatch):
        # 5 images at 128x128 fill two rows per block: the last block is short
        rows = sd.CALIBRATION_BLOCK_ELEMENTS // (128 * 128)
        assert 1 < rows < 5 and 5 % rows
        samples = [scene_sample(400 + k, 128) for k in range(5)]
        thresholds, slopes = np.array([0.31, 0.5, 0.62]), (0.03, 0.2)
        monkeypatch.setattr(sd, "CALIBRATION_THRESHOLDS", thresholds)
        monkeypatch.setattr(sd, "CALIBRATION_SLOPES", slopes)
        oracle = oracles.calibration_scores(samples, thresholds, slopes)
        assert grid_scores(samples).tobytes() == oracle.tobytes()
        self.assert_search_matches(samples, oracle)
        bb = sd.backbone_calibrate(samples)
        t, s = np.unravel_index(np.argmax(oracle), oracle.shape)
        assert (bb.threshold, bb.slope) == (float(thresholds[t]), slopes[s])

    def test_source_dice_at_least_90(self, small_bench, backbone):
        rep = harness.evaluate(None, backbone, small_bench, "source", source_only=True)
        assert rep.per_domain["source"]["dice"] >= 90.0

    def test_calibration_deterministic(self, small_bench):
        a = sd.backbone_calibrate(small_bench.splits["source_cal"])
        b = sd.backbone_calibrate(small_bench.splits["source_cal"])
        assert a == b and a.digest() == b.digest()

    def test_prediction_at_threshold_is_half(self, backbone):
        img = np.full((32, 32, 1), backbone.threshold)
        pred = sd.backbone_forward(backbone, img).array
        assert np.max(np.abs(pred - 0.5)) < 1e-12

    def test_saturation_far_above_threshold(self, backbone):
        img = np.full((32, 32, 1), backbone.threshold + 0.5)
        pred = sd.backbone_forward(backbone, img).array
        assert np.min(pred) > 0.99

    def test_gradient_wrt_image(self, backbone):
        rng = np.random.default_rng(31)
        img = rng.random((8, 8, 1))

        def build(leaves):
            pred = sd.backbone_forward(backbone, leaves[0])
            return nm.reduce_sum(oracles.mul(pred, pred))

        assert oracles.gradcheck(build, [img]) < 1e-4

    def test_blur_is_self_adjoint(self):
        rng = np.random.default_rng(32)
        x, y = rng.standard_normal((6, 6, 1)), rng.standard_normal((6, 6, 1))
        bx = oracles.box_blur(x, 1)
        by = oracles.box_blur(y, 1)
        assert float((bx * y).sum()) == pytest.approx(float((x * by).sum()), abs=1e-12)

    def test_domain_shift_potency(self, small_bench, backbone):
        """Source-only Dice on every shifted domain >= 10 points below source."""
        source = harness.evaluate(None, backbone, small_bench, "source",
                                  source_only=True).per_domain["source"]["dice"]
        for split in ("seen", "unseen"):
            rep = harness.evaluate(None, backbone, small_bench, split, source_only=True)
            for dom, row in rep.per_domain.items():
                assert row["dice"] <= source - 10.0, (dom, row["dice"], source)

    def test_empty_calibration_rejected(self):
        with pytest.raises(ConfigError):
            sd.backbone_calibrate([])


def roll_blur(data, radius):
    """The blur as it was written before, summing ``np.roll`` shifts: the
    reference ``_blur`` must match byte for byte."""
    out = data
    for axis in (data.ndim - 3, data.ndim - 2):
        acc = np.zeros_like(out)
        for shift in range(-radius, radius + 1):
            acc += np.roll(out, shift, axis=axis)
        out = acc / (2 * radius + 1)
    return out


class TestBlur:
    @pytest.mark.parametrize("radius", [1, 2])
    @pytest.mark.parametrize("shape", [(4, 4, 1), (4, 4, 3), (3, 4, 4, 1), (2, 4, 4, 2),
                                       (5, 6, 7, 1), (8, 32, 32, 1)],
                             ids=lambda s: "x".join(map(str, s)))
    def test_bytes_equal_to_roll_sums(self, shape, radius):
        # a side of 4 makes the shifts wrap; a patch of -0.0 blurs to +0.0
        # only if the sums start from +0.0, as the roll sums do
        x = np.random.default_rng(sum(shape) + radius).standard_normal(shape)
        x[x > 1.0] = 0.0
        x[..., :3, :3, :] = -0.0
        assert sd._blur(x, radius).tobytes() == roll_blur(x, radius).tobytes()

    def test_radius_wider_than_image_refused(self):
        with pytest.raises(ShapeError):
            sd._blur(np.zeros((2, 5, 2, 1)), 3)


def chain_backbone(bb, img):
    """The backbone as four graph nodes, ``box_blur -> sub -> div ->
    sigmoid``, as it was built before the fusion: the reference the fused
    node must match byte for byte."""
    blurred = oracles.box_blur(nm.as_node(img), bb.blur_radius)
    return oracles.sigmoid(nm.div(nm.sub(blurred, bb.threshold), bb.slope))


class TestFusedBackbone:
    """``backbone_forward`` is one node; values and the input gradient are
    bytes-equal to the chain it replaced."""

    BB = sd.FrozenBackbone(threshold=0.5, slope=0.08, blur_radius=1)

    @staticmethod
    def images(shape, seed):
        # uniform pixels put z on both sides of 0; a constant 0.5 patch blurs
        # to exactly 0.5 inside, so z is exactly 0 there
        x = np.random.default_rng(seed).random(shape)
        x[:, 2:7, 3:9, :] = 0.5
        return x

    @pytest.mark.parametrize("shape", [(8, 32, 32, 1), (3, 128, 128, 1)])
    def test_values_and_gradient_match_chain(self, shape):
        img = self.images(shape, seed=shape[1])
        z = (oracles.box_blur(img, 1) - self.BB.threshold) / self.BB.slope
        assert (z > 0).any() and (z < 0).any() and (z == 0).sum() >= shape[0] * 12
        upstream = np.random.default_rng(7).standard_normal(shape)
        results = []
        for build in (sd.backbone_forward, chain_backbone):
            x = nm.parameter(img)
            pred = build(self.BB, x)
            nm.backward(nm.reduce_sum(oracles.mul(pred, upstream)))
            results.append((pred.array.tobytes(), x.grad.tobytes()))
        assert results[0][0] == results[1][0]
        assert results[0][1] == results[1][1]

    def test_single_image_and_array_input(self):
        """An array and a node give the chain's bytes, with and without grad."""
        batch = self.images((2, 32, 32, 1), seed=3)
        for img in (batch[0], batch):
            ref = chain_backbone(self.BB, img).array.tobytes()
            for mode in (contextlib.nullcontext, nm.no_grad):
                with mode():
                    for x in (img, nm.as_node(img)):
                        assert sd.backbone_forward(self.BB, x).array.tobytes() == ref

    def test_one_node(self):
        x = nm.parameter(self.images((2, 32, 32, 1), seed=4))
        pred = sd.backbone_forward(self.BB, x)
        assert pred._parents == (x,)

    @pytest.mark.parametrize("value", [1.5e307, np.inf, np.nan])
    def test_non_finite_z_raises_like_chain(self, value):
        # a 3x3 patch of 1.5e307 blurs to 1.5e307 at its centre, finite, but
        # (blur - t) / s overflows there
        img = np.full((1, 8, 8, 1), 0.5)
        img[0, 2:5, 2:5, 0] = value
        with np.errstate(over="ignore", invalid="ignore"):
            for build in (chain_backbone, sd.backbone_forward):
                with pytest.raises(NonFiniteError):
                    build(self.BB, nm.parameter(img) if np.isfinite(value) else img)


def _recording_public_calls(monkeypatch) -> set:
    """Wrap every public function of every apex module, as a tracer would,
    and return the set that collects the idents of the threads calling them."""
    callers = set()

    def recording(fn):
        def wrapper(*args, **kwargs):
            callers.add(threading.get_ident())
            return fn(*args, **kwargs)
        return wrapper

    for mod in (sd, nm, sp, harness, apex.tensorio, apex.prompting, apex.losses):
        for name, fn in vars(mod).items():
            if (not name.startswith("_") and inspect.isfunction(fn)
                    and fn.__module__ == mod.__name__):
                monkeypatch.setattr(mod, name, recording(fn))
    return callers


def fake_cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


class TestThreadedCalibration:
    """``calibration_scorer`` shares its row blocks out over threads; the
    scores must not depend on how the blocks interleave."""

    THRESHOLDS, SLOPES = np.array([0.3, 0.47, 0.6]), (0.04, 0.1)

    @pytest.fixture(autouse=True)
    def small_grid(self, monkeypatch):
        monkeypatch.setattr(sd, "CALIBRATION_THRESHOLDS", self.THRESHOLDS)
        monkeypatch.setattr(sd, "CALIBRATION_SLOPES", self.SLOPES)

    @pytest.fixture(scope="class")
    def samples(self):
        # 9 images at 128x128 are 5 blocks of 2 rows, the last one short: more
        # blocks than workers on any machine with fewer than 5 CPUs
        rows = sd.CALIBRATION_BLOCK_ELEMENTS // (128 * 128)
        assert rows == 2
        return [scene_sample(700 + k, 128) for k in range(9)]

    def scores(self, samples):
        return grid_scores(samples)

    def test_matches_per_sample_oracle(self, samples):
        oracle = oracles.calibration_scores(samples, self.THRESHOLDS, self.SLOPES)
        assert self.scores(samples).tobytes() == oracle.tobytes()

    def test_bool_masks_score_as_float_masks(self, samples):
        assert all(smp.mask.dtype == np.bool_ for smp in samples)
        floats = [dataclasses.replace(smp, mask=smp.mask.astype(np.float64)) for smp in samples]
        assert self.scores(samples).tobytes() == self.scores(floats).tobytes()

    def test_repeated_calls_identical(self, samples):
        first = self.scores(samples).tobytes()
        for _ in range(3):
            assert self.scores(samples).tobytes() == first

    def test_identical_under_forced_interleaving(self, samples, monkeypatch):
        # one worker per block, more than this machine's cores, switching threads
        # as often as the interpreter allows: a lost or misplaced block write
        # would change the bytes
        first = self.scores(samples).tobytes()
        fake_cpus(monkeypatch, 16)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runs = [self.scores(samples).tobytes() for _ in range(3)]
        finally:
            sys.setswitchinterval(interval)
        assert runs == [first] * 3

    def test_workers_call_no_public_function(self, samples, monkeypatch):
        fake_cpus(monkeypatch, 4)
        caller, workers = threading.get_ident(), set()
        callers = _recording_public_calls(monkeypatch)  # backbone_forward among them

        def profile(frame, event, arg):  # set in new threads only, not the caller's
            if event == "call" and frame.f_code.co_filename == sd.__file__:
                workers.add(threading.get_ident())

        threading.setprofile(profile)
        try:
            self.scores(samples)
        finally:
            threading.setprofile(None)
        assert callers <= {caller}
        assert workers and caller not in workers  # the blocks ran in other threads

    def test_no_thread_outlives_the_call(self, samples):
        before = threading.active_count()
        self.scores(samples)
        assert threading.active_count() == before

    def test_worker_exception_reaches_caller(self, samples, monkeypatch):
        # a slope that is no number fails in np.divide, in every share
        fake_cpus(monkeypatch, 4)
        monkeypatch.setattr(sd, "CALIBRATION_SLOPES", (0.04, "steep"))
        before = threading.active_count()
        with pytest.raises(TypeError):
            self.scores(samples)
        assert threading.active_count() == before

    def test_mismatched_sample_shapes_rejected(self, samples):
        odd = samples[:5] + [scene_sample(799, 64)] + samples[6:]
        with pytest.raises(ValueError):
            self.scores(odd)


class TestThreadedGeneration:
    """From ``numerics.PARALLEL_MIN_PIXELS`` up, ``build_benchmark`` shares its
    samples out over threads; the bytes must not depend on how they interleave."""

    CONFIG = sd.BenchmarkConfig(image_size=128, train_per_domain=3, test_per_domain=2,
                                source_train=3, source_test=2)
    SEED = 3

    @staticmethod
    def digest(bench):
        parts = [bench.manifest_csv().encode()]
        for split in sd.Benchmark.SPLITS:
            for smp in bench.splits[split]:
                assert smp.image.shape == (128, 128, 1) and smp.mask.shape == (128, 128)
                parts += [smp.sample_id.encode(), smp.image.tobytes(), smp.mask.tobytes()]
        return b"".join(parts)

    @pytest.fixture(scope="class")
    def inline(self):
        assert 128 * 128 >= nm.PARALLEL_MIN_PIXELS
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(nm, "PARALLEL_MIN_PIXELS", 128 * 128 + 1)
            return self.digest(sd.build_benchmark(self.CONFIG, self.SEED))

    def test_inline_path_is_the_oracle_one_by_one_path(self, inline):
        # every sample is the oracle scene, then the oracle transform with its
        # two seeds, counted in plan order: each seen domain's train samples,
        # then its test
        cfg, base = self.CONFIG, self.SEED << 24
        order = [("source_cal", cfg.source, cfg.source_train),
                 ("source_test", cfg.source, cfg.source_test)]
        for spec in cfg.seen:
            order += [("train_seen", spec, cfg.train_per_domain),
                      ("test_seen", spec, cfg.test_per_domain)]
        order += [("test_unseen", spec, cfg.test_per_domain) for spec in cfg.unseen]
        built: dict = {name: [] for name in sd.Benchmark.SPLITS}
        counter = 0
        for split, spec, count in order:
            for i in range(count):
                img, mask = oracle_base_scene(base + counter, 128, 128)
                image = oracle_apply_domain(img[:, :, None], spec, base + 0x800000 + counter)
                built[split].append((f"{spec.domain_id}-{split}-{i:04d}", image, mask))
                counter += 1
        expected = [sd.build_benchmark(cfg, self.SEED).manifest_csv().encode()]
        for split in sd.Benchmark.SPLITS:
            for sample_id, image, mask in built[split]:
                expected += [sample_id.encode(), image.tobytes(), mask.tobytes()]
        assert b"".join(expected) == inline

    def test_threads_match_inline(self, inline, monkeypatch):
        fake_cpus(monkeypatch, 2)
        assert self.digest(sd.build_benchmark(self.CONFIG, self.SEED)) == inline

    def test_identical_under_forced_interleaving(self, inline, monkeypatch):
        # more workers than this machine's cores, switching threads as often as
        # the interpreter allows, each run from cold caches that the workers
        # fill: a lost or misplaced write would change the bytes
        fake_cpus(monkeypatch, 16)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        runs = []
        try:
            for _ in range(3):
                sd._grid.cache_clear()
                sd._shading_table.cache_clear()
                runs.append(self.digest(sd.build_benchmark(self.CONFIG, self.SEED)))
        finally:
            sys.setswitchinterval(interval)
        assert runs == [inline] * 3

    def test_workers_call_no_public_function(self, monkeypatch):
        fake_cpus(monkeypatch, 4)
        caller, workers = threading.get_ident(), set()
        callers = _recording_public_calls(monkeypatch)

        def profile(frame, event, arg):  # set in new threads only, not the caller's
            if event == "call" and frame.f_code.co_filename == sd.__file__:
                workers.add(threading.get_ident())

        threading.setprofile(profile)
        try:
            sd.build_benchmark(self.CONFIG, self.SEED)
        finally:
            threading.setprofile(None)
        assert callers <= {caller}
        assert workers and caller not in workers  # shares ran in other threads too

    def test_no_thread_outlives_the_call(self, monkeypatch):
        fake_cpus(monkeypatch, 4)
        before = threading.active_count()
        sd.build_benchmark(self.CONFIG, self.SEED)
        assert threading.active_count() == before

    def test_worker_exception_reaches_caller(self, monkeypatch):
        fake_cpus(monkeypatch, 4)
        apply, raised_in = sd._apply_domain, []

        def failing(arr, spec, seed):
            if seed == (self.SEED << 24) + 0x800000 + 1:  # sample 1: share 1's first
                raised_in.append(threading.get_ident())
                raise ValueError("sample 1 failed")
            return apply(arr, spec, seed)

        monkeypatch.setattr(sd, "_apply_domain", failing)
        before = threading.active_count()
        with pytest.raises(ValueError, match="sample 1 failed"):
            sd.build_benchmark(self.CONFIG, self.SEED)
        assert raised_in and raised_in[0] != threading.get_ident()
        assert threading.active_count() == before

    @pytest.mark.parametrize("size", [32, 128])
    def test_threads_only_from_the_cut_off(self, monkeypatch, size):
        fake_cpus(monkeypatch, 4)
        started = []
        start = threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start",
                            lambda thread: started.append(thread) or start(thread))
        sd.build_benchmark(dataclasses.replace(self.CONFIG, image_size=size), self.SEED)
        # at most one thread besides the caller per CPU; an idle one may take two shares
        assert (1 <= len(started) <= 3) if size * size >= nm.PARALLEL_MIN_PIXELS else not started
