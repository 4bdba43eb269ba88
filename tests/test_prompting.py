"""Encoder/memory/decoder pipeline tests: worked addressing examples, the
memory's autodiff gradient against the attention-weighted rule and a
barrier oracle, and checkpoints."""

import contextlib
import re
import math
from types import SimpleNamespace

import numpy as np
import pytest

from apex import numerics as nm
from apex import prompting as pr
from apex import spectral as sp
from apex import tensorio
from apex.errors import (ConfigError, CorruptInputError, DegenerateInputError,
                         InputNotFoundError, NonFiniteError, ShapeError,
                         TrainingDivergedError)

import oracles

SMALL = pr.ApexConfig(feature_dim=16, slot_count=8, encoder_hidden=(10, 10, 10),
                      decoder_hidden=(10, 10, 10), head_hidden=(10,), beta=0.375,
                      aux_dim=4, seed=0)


def small_state(**overrides):
    from dataclasses import replace
    return pr.init_state(replace(SMALL, **overrides), 8, 8, 1)


class TestConfig:
    def test_slot_count_bound(self):
        with pytest.raises(ConfigError):
            pr.ApexConfig(feature_dim=8, slot_count=9)
        pr.ApexConfig(feature_dim=8, slot_count=9, allow_block_init=True)

    def test_defaults_satisfy_strict_init(self):
        cfg = pr.ApexConfig()
        assert cfg.slot_count == 150 and cfg.feature_dim == 256
        assert cfg.slot_count <= cfg.feature_dim


class TestEncodeDomain:
    def test_zero_encoder_outputs_bias(self):
        bias = np.array([0.5, -1.0, 0.25])
        enc = nm.MlpParams(
            layers=[(nm.parameter(np.zeros((4, 9))), nm.parameter(np.zeros(4))),
                    (nm.parameter(np.zeros((3, 4))), nm.parameter(bias))])
        img = np.random.default_rng(0).random((8, 8, 1))
        low = oracles.extract_low_freq(sp.fft2(img), sp.LowFreqRegion.plan(8, 8, 1, 0.375))
        z = pr.encode_batch(enc, low[None], center=np.zeros(9))
        assert np.allclose(z.array[0], bias)

    def test_sees_only_masked_amplitudes(self):
        rng = np.random.default_rng(1)
        img = rng.random((8, 8, 1))
        spec = sp.fft2(img)
        reg = sp.LowFreqRegion.plan(8, 8, 1, 0.375)
        # boost amplitudes outside the mask, symmetrically, and rebuild
        amp = spec.amplitude.copy()
        outside = ~oracles.mask(reg)
        amp[outside] *= 1.3
        img2 = sp.ifft2(sp.Spectrum(amplitude=amp, phase=spec.phase))
        state = small_state()
        n1 = pr.forward_batch(state, img[None])
        n2 = pr.forward_batch(state, img2[None])
        assert np.allclose(n1.features.array, n2.features.array, atol=1e-9)
        assert np.allclose(n1.addressing.array, n2.addressing.array, atol=1e-9)

    def test_gradient_wrt_encoder_weights(self):
        rng = np.random.default_rng(2)
        img = rng.random((8, 8, 1))
        low = oracles.extract_low_freq(sp.fft2(img), sp.LowFreqRegion.plan(8, 8, 1, 0.375))[None]
        proto = nm.init_mlp([9, 6, 6, 6, 5], rng)
        inputs = [p.array for layer in proto.layers for p in layer]

        def build(leaves):
            layers = [(leaves[2 * i], leaves[2 * i + 1]) for i in range(4)]
            enc = nm.MlpParams(layers=layers)
            z = pr.encode_batch(enc, low, center=np.zeros(9))
            return nm.reduce_sum(oracles.mul(z, z))

        assert oracles.gradcheck(build, inputs) < 1e-4


class TestAddress:
    def test_self_slot_is_one_hot(self):
        mem = nm.as_node(nm.orthogonal_rows(4, 8, seed=0))
        a = pr.address(mem, nm.as_node(mem.array[1:2].copy()))
        expected = np.zeros(4)
        expected[1] = 1.0
        assert np.max(np.abs(a.array[0] - expected)) < 1e-9

    def test_orthogonal_feature_gives_zeros(self):
        mem = nm.as_node(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
        a = pr.address(mem, nm.as_node(np.array([[0.0, 0.0, 2.0]])))
        assert np.max(np.abs(a.array[0])) < 1e-12

    def test_worked_cosine_example(self):
        mem = nm.as_node(np.array([[1.0, 1.0], [0.0, 1.0]]) / [[math.sqrt(2.0)], [1.0]])
        a = pr.address(mem, nm.as_node(np.array([[1.0, 0.0]])))
        assert abs(a.array[0, 0] - 0.7071) < 5e-5
        assert abs(a.array[0, 1]) < 1e-12

    def test_range_and_scale_invariance(self):
        rng = np.random.default_rng(3)
        mem = nm.as_node(nm.orthogonal_rows(6, 12, seed=1))
        for _ in range(50):
            z = rng.standard_normal(12) * 10.0 ** rng.integers(-3, 4)
            a = pr.address(mem, nm.as_node(z[None])).array[0]
            assert np.all(a >= -1.0) and np.all(a <= 1.0)
            a2 = pr.address(mem, nm.as_node(2.0 * z[None])).array[0]   # power of two: bit-exact
            assert np.array_equal(a, a2)
            c = float(rng.random() + 0.5)
            a3 = pr.address(mem, nm.as_node(c * z[None])).array[0]
            assert np.argmax(a3) == np.argmax(a)
            assert np.max(np.abs(a3 - a)) < 1e-12

    def test_zero_feature_rejected(self):
        mem = nm.as_node(nm.orthogonal_rows(4, 8, seed=0))
        with pytest.raises(DegenerateInputError):
            pr.address(mem, nm.as_node(np.zeros((1, 8))))


class TestBatchOnly:
    """The pipeline stages take [batch, ...] inputs only; a single image is
    a batch of one."""

    def test_unbatched_feature_rejected_by_address(self):
        mem = nm.as_node(nm.orthogonal_rows(4, 8, seed=0))
        with pytest.raises(ShapeError):
            pr.address(mem, nm.as_node(mem.array[1].copy()))

    def test_unbatched_addressing_rejected_by_retrieve(self):
        mem = nm.as_node(nm.orthogonal_rows(4, 8, seed=0))
        with pytest.raises(ShapeError):
            pr.retrieve(mem, nm.as_node(np.ones(4)))

    @pytest.mark.parametrize("shape", [(8, 8, 1), (1, 10, 8, 1), (1, 8, 8, 3)],
                             ids=["unbatched", "height", "channels"])
    def test_image_stack_size_checked_by_forward_batch(self, shape):
        """The stack must be [batch, h, w, c] at the state's planned size,
        checked before the region's indices are applied to it."""
        with pytest.raises(ShapeError, match=r"\[batch, 8, 8, 1\]"):
            pr.forward_batch(small_state(), np.ones(shape))

    def test_unbatched_amplitudes_rejected(self):
        with pytest.raises(ShapeError):
            pr.lowfreq_features(np.ones((3, 3, 1)))


class TestRetrieve:
    def test_one_hot(self):
        mem = nm.as_node(nm.orthogonal_rows(4, 8, seed=2))
        a = np.zeros(4)
        a[2] = 1.0
        out = pr.retrieve(mem, nm.as_node(a[None]))
        assert np.allclose(out.array[0], mem.array[2])

    def test_zero_addressing(self):
        mem = nm.as_node(nm.orthogonal_rows(4, 8, seed=2))
        out = pr.retrieve(mem, nm.as_node(np.zeros((1, 4))))
        assert np.array_equal(out.array[0], np.zeros(8))

    def test_linear_combination(self):
        mem = nm.as_node(np.array([[1.0, 0.0], [0.0, 1.0]]))
        out = pr.retrieve(mem, nm.as_node(np.array([[0.5, 0.5]])))
        assert np.array_equal(out.array[0], [0.5, 0.5])

    def test_linearity(self):
        rng = np.random.default_rng(5)
        mem = nm.as_node(rng.standard_normal((6, 9)))
        a1, a2 = rng.standard_normal(6), rng.standard_normal(6)
        lhs = pr.retrieve(mem, nm.as_node((a1 + a2)[None])).array[0]
        rhs = pr.retrieve(mem, nm.as_node(a1[None])).array[0] \
            + pr.retrieve(mem, nm.as_node(a2[None])).array[0]
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_prompt_feature_norm_bound(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            mem = rng.standard_normal((5, 7))
            a = rng.uniform(-1.0, 1.0, size=5)
            z = pr.retrieve(mem, nm.as_node(a[None])).array[0]
            bound = np.sum(np.abs(a) * np.linalg.norm(mem, axis=1))
            assert np.linalg.norm(z) <= bound + 1e-9


class TestDecodePrompt:
    def test_identity_at_zero_init(self):
        state = small_state()
        zprime = np.random.default_rng(7).standard_normal(16)
        p = pr.decode_prompt(state.decoder, nm.as_node(zprime[None]), state.region)
        assert np.array_equal(p.array[0], np.ones(state.region.flat_size))

    def test_constant_log_two(self):
        state = small_state()
        dec = nm.MlpParams(
            layers=[(nm.parameter(np.zeros((9, 16))),
                     nm.parameter(np.full(9, math.log(2.0))))])
        p = pr.decode_prompt(dec, nm.as_node(np.zeros((1, 16))), state.region)
        # odd-sided region: every entry pairs inside, so the 2 survives everywhere
        assert np.max(np.abs(p.array - 2.0)) < 1e-12

    def test_gradient_wrt_prompt_feature(self):
        state = small_state()
        rng = np.random.default_rng(8)
        zprime = rng.standard_normal((1, 16))

        def build(leaves):
            p = pr.decode_prompt(state.decoder, leaves[0], state.region)
            return nm.reduce_sum(p)

        # zero-init decoder has zero gradient; nudge the weights first
        for w, b in state.decoder.layers:
            w.set(np.random.default_rng(9).standard_normal(w.shape) * 0.1)
        assert oracles.gradcheck(build, [zprime]) < 1e-4

    def test_output_size_validated(self):
        state = small_state()
        bad = nm.MlpParams(layers=[(nm.parameter(np.zeros((5, 16))),
                                    nm.parameter(np.zeros(5)))])
        with pytest.raises(ShapeError):
            pr.decode_prompt(bad, nm.as_node(np.zeros((1, 16))), state.region)


class TestProjectAux:
    def test_zero_head_outputs_bias(self):
        bias = np.array([1.0, 2.0, 3.0, 4.0])
        head = nm.MlpParams(
            layers=[(nm.parameter(np.zeros((5, 16))), nm.parameter(np.zeros(5))),
                    (nm.parameter(np.zeros((4, 5))), nm.parameter(bias))])
        out = pr.project_aux(head, nm.as_node(np.ones((1, 16))))
        assert np.allclose(out.array[0], bias)

    def test_not_on_inference_path(self):
        state = small_state()
        imgs = np.random.default_rng(10).random((1, 8, 8, 1))
        out1 = pr.forward_batch(state, imgs).output.array
        for w, b in state.head.layers:  # wreck the head; inference must not care
            w.set(np.full(w.shape, 99.0))
        out2 = pr.forward_batch(state, imgs).output.array
        assert np.array_equal(out1, out2)

    def test_gradient(self):
        rng = np.random.default_rng(11)
        proto = nm.init_mlp([6, 5, 4], rng)
        z = rng.standard_normal((1, 6))
        inputs = [p.array for layer in proto.layers for p in layer]

        def build(leaves):
            layers = [(leaves[0], leaves[1]), (leaves[2], leaves[3])]
            head = nm.MlpParams(layers=layers)
            out = pr.project_aux(head, nm.as_node(z))
            return nm.reduce_sum(oracles.mul(out, out))

        assert oracles.gradcheck(build, inputs) < 1e-4


class TestApexForward:
    def test_identity_at_init(self):
        state = small_state()
        img = np.random.default_rng(12).random((8, 8, 1))
        nodes = pr.forward_batch(state, img[None])
        assert np.max(np.abs(nodes.output.array[0] - img)) < 1e-9
        assert nodes.addressing.shape == (1, 8) and nodes.features.shape == (1, 16)

    def test_end_to_end_gradient_full_graph(self):
        """FD check through encoder, memory, and decoder on an 8x8 input."""
        rng = np.random.default_rng(13)
        img = rng.random((8, 8, 1))
        region = sp.LowFreqRegion.plan(8, 8, 1, 0.375)
        target = rng.random((8, 8, 1))
        enc_proto = nm.init_mlp([9, 6, 6, 6, 8], rng)
        dec_proto = nm.init_mlp([8, 6, 6, 6, 9], rng)
        for w, _ in dec_proto.layers:
            w.set(rng.standard_normal(w.shape) * 0.1)
        mem0 = nm.orthogonal_rows(4, 8, seed=3)
        spectrum = np.fft.fft2(img[None], axes=(1, 2))
        amps = pr.region_amplitudes(region, spectrum)
        inputs = [p.array for layer in enc_proto.layers for p in layer] \
            + [p.array for layer in dec_proto.layers for p in layer] + [mem0]

        def build(leaves):
            enc = nm.MlpParams(layers=[(leaves[2 * i], leaves[2 * i + 1]) for i in range(4)])
            dec = nm.MlpParams(layers=[(leaves[8 + 2 * i], leaves[9 + 2 * i]) for i in range(4)])
            mem = leaves[16]
            z = pr.encode_batch(enc, amps, center=np.zeros(region.flat_size))
            a = pr.address(mem, z)
            zprime = pr.retrieve(mem, a)
            p = pr.decode_prompt(dec, zprime, region)
            out = sp.prompted_image_node(p, region, spectrum.copy())
            diff = nm.sub(out, nm.as_node(target[None]))
            return nm.reduce_sum(oracles.mul(diff, diff))

        assert oracles.gradcheck(build, inputs) < 1e-4

    def test_memory_off_bypasses_retrieval(self):
        state = small_state(use_memory=False)
        img = np.random.default_rng(14).random((8, 8, 1))
        nodes = pr.forward_batch(state, img[None])
        assert nodes.prompt_feature is nodes.features


def shifted_region_amplitudes(region, spectrum):
    """The full-spectrum formulation ``region_amplitudes`` replaced: shift
    and take the modulus of the whole spectrum, then slice the square."""
    spec = np.fft.fftshift(spectrum, axes=(1, 2))
    return np.abs(spec)[:, region.row0:region.row0 + region.side,
                        region.col0:region.col0 + region.side, :]


class TestRegionAmplitudes:
    @pytest.mark.parametrize("shape,beta", [((8, 32, 32, 1), 0.25), ((3, 128, 128, 1), 0.25),
                                            ((2, 12, 20, 3), 0.3), ((4, 8, 8, 1), 0.375)])
    def test_matches_shifted_slice(self, shape, beta):
        imgs = np.random.default_rng(shape[1]).random(shape)
        region = sp.LowFreqRegion.plan(*shape[1:], beta)
        spectrum = np.fft.fft2(imgs, axes=(1, 2))
        amps = pr.region_amplitudes(region, spectrum)
        ref = shifted_region_amplitudes(region, spectrum)
        assert amps.flags.c_contiguous
        assert amps.shape == ref.shape and amps.tobytes() == ref.tobytes()

    def test_chunked_input_center_matches_whole_set(self):
        # 60 images are chunks of 25, 25 and 10
        imgs = np.random.default_rng(8).random((60, 16, 16, 1))
        state = pr.init_state(SMALL, 16, 16, 1)
        pr.fit_input_center(state, [SimpleNamespace(image=img) for img in imgs])
        spectrum = np.fft.fft2(imgs, axes=(1, 2))
        feats = pr.lowfreq_features(shifted_region_amplitudes(state.region, spectrum))
        assert state.input_center.tobytes() == feats.mean(axis=0).tobytes()


def memory_grad_of(a, upstream, mem):
    """``mem.grad`` after backpropagating ``sum(retrieve(mem, a) * upstream)``,
    so the upstream gradient dL/dz' is ``upstream`` itself."""
    zprime = pr.retrieve(mem, nm.as_node(a))
    nm.backward(nm.reduce_sum(oracles.mul(zprime, nm.as_node(upstream))))
    return mem.grad


class TestMemoryGradient:
    """Retrieval's matmul gives the memory the attention-weighted rule
    dL/dB = a^T g: slot j receives sum_i a_ij g_i."""

    def test_one_hot_routes_to_single_slot(self):
        mem = nm.parameter(np.ones((2, 3)))
        grad = memory_grad_of(np.array([[1.0, 0.0]]), np.array([[1.0, 2.0, 3.0]]), mem)
        assert np.array_equal(grad, [[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]])

    def test_zero_upstream_is_zero(self):
        mem = nm.parameter(np.ones((2, 4)))
        grad = memory_grad_of(np.array([[0.3, 0.7]]), np.zeros((1, 4)), mem)
        assert np.array_equal(grad, np.zeros((2, 4)))

    def test_matches_autodiff_with_barrier(self):
        """The rule a^T g, written out, against autodiff where the addressing
        path is stop-gradiented."""
        rng = np.random.default_rng(15)
        for _ in range(10):
            mem = nm.parameter(rng.standard_normal((5, 7)))
            z = rng.standard_normal((3, 7))
            w = rng.standard_normal(7)
            a = pr.address(nm.stop_gradient(mem), nm.as_node(z))
            zprime = pr.retrieve(mem, a)  # retrieval stays live
            weights = nm.as_node(np.broadcast_to(w, (3, 7)).copy())
            loss = nm.reduce_sum(oracles.mul(zprime, weights))
            nm.backward(loss)
            explicit = a.array.T @ zprime.grad
            assert np.max(np.abs(explicit - mem.grad)) < 1e-10

    def test_differs_from_full_graph_gradient(self):
        rng = np.random.default_rng(16)
        mem_arr = rng.standard_normal((5, 7))
        z = rng.standard_normal((1, 7))
        w = rng.standard_normal(7)

        mem_full = nm.parameter(mem_arr)
        a_full = pr.address(mem_full, nm.as_node(z))
        zp_full = pr.retrieve(mem_full, a_full)
        nm.backward(nm.reduce_sum(oracles.mul(zp_full, nm.as_node(w[None].copy()))))

        explicit = a_full.array.T @ zp_full.grad
        assert np.max(np.abs(explicit - mem_full.grad)) > 1e-6

    def test_shape_mismatch(self):
        """Addressing over a different number of slots than the memory holds."""
        with pytest.raises(ShapeError):
            pr.retrieve(nm.parameter(np.zeros((2, 4))), nm.as_node(np.zeros((3, 3))))


class TestUpdateMemory:
    """The trainer moves the memory by ``sgd_step`` on its own gradient."""

    def test_zero_rate(self):
        mem = nm.parameter(nm.orthogonal_rows(3, 5, seed=4))
        before = mem.array
        nm.sgd_step([mem], [memory_grad_of(np.ones((1, 3)), np.ones((1, 5)), mem)], 0.0)
        assert np.array_equal(mem.array, before)

    def test_one_hot_arithmetic(self):
        mem = nm.parameter(nm.orthogonal_rows(3, 5, seed=5))
        before = mem.array
        grad = memory_grad_of(np.array([[1.0, 0.0, 0.0]]), before[0:1].copy(), mem)
        nm.sgd_step([mem], [grad], 1.0)
        assert np.max(np.abs(mem.array[0])) < 1e-12
        assert np.array_equal(mem.array[1:], before[1:])

    def test_nonfinite_gradient_raises(self):
        mem = nm.parameter(nm.orthogonal_rows(3, 5, seed=4))
        g = np.zeros((3, 5))
        g[1, 2] = np.nan
        with pytest.raises(TrainingDivergedError):
            nm.sgd_step([mem], [g], 0.05)

    def test_gradient_array_left_writeable(self):
        mem = nm.parameter(nm.orthogonal_rows(3, 5, seed=4))
        g = np.ones((3, 5))
        nm.sgd_step([mem], [g], 0.05)
        assert g.flags.writeable
        g[0, 0] = 2.0

    def test_hundred_random_steps_stay_finite(self):
        rng = np.random.default_rng(17)
        mem = nm.parameter(nm.orthogonal_rows(6, 10, seed=6))
        for _ in range(100):
            a = rng.uniform(-1.0, 1.0, size=(4, 6))
            g = rng.standard_normal((4, 10))
            mem.zero_grad()
            nm.sgd_step([mem], [memory_grad_of(a, g, mem)], 0.05)
        assert np.all(np.isfinite(mem.array))


class TestAttentionRuleInvariant:
    @staticmethod
    def trained_graph(state, imgs):
        """``forward_batch`` and ``backward`` of a loss on its output."""
        nodes = pr.forward_batch(state, imgs)
        nm.zero_grads(state.parameters().values())
        nm.backward(nm.reduce_sum(oracles.mul(nodes.output, nodes.output)))
        return nodes

    def test_trainer_graph_matches_explicit_rule(self):
        """The memory gradient of the trainer's forward pass equals the
        barrier oracle built independently from the stages."""
        state = small_state()
        rng = np.random.default_rng(18)
        for w, _b in state.decoder.layers:
            w.set(rng.standard_normal(w.shape) * 0.05)
        imgs = rng.random((2, 8, 8, 1))
        trainer = self.trained_graph(state, imgs)
        trainer_grad = state.memory.grad

        # oracle: same forward with the memory live in retrieval only
        spectrum = np.fft.fft2(imgs, axes=(1, 2))
        amps = pr.region_amplitudes(state.region, spectrum)
        z = pr.encode_batch(state.encoder, amps, center=state.input_center)
        a = pr.address(nm.stop_gradient(state.memory), z)
        zprime = pr.retrieve(state.memory, a)
        p = pr.decode_prompt(state.decoder, zprime, state.region)
        out = sp.prompted_image_node(p, state.region, spectrum)
        nm.zero_grads(state.parameters().values())
        nm.backward(nm.reduce_sum(oracles.mul(out, out)))
        assert np.max(np.abs(trainer_grad - state.memory.grad)) < 1e-10
        assert np.array_equal(trainer.addressing.array, a.array)

    @pytest.mark.parametrize("use_memory", [True, False])
    def test_memory_grad_is_the_rule_byte_for_byte(self, use_memory):
        """With the memory on, ``backward`` leaves exactly a^T g in
        ``memory.grad``; with it off, no gradient reaches the memory."""
        state = small_state(use_memory=use_memory)
        rng = np.random.default_rng(22)
        for w, _b in state.decoder.layers:
            w.set(rng.standard_normal(w.shape) * 0.05)
        nodes = self.trained_graph(state, rng.random((3, 8, 8, 1)))
        if use_memory:
            rule = nodes.addressing.array.T @ nodes.prompt_feature.grad
            assert state.memory.grad.tobytes() == rule.tobytes()
        else:
            assert state.memory._grad is None  # no buffer was ever allocated


class TestForwardBatch:
    def test_transforms_the_batch_once(self, monkeypatch):
        """The encoder input and the prompted reconstruction share one fft2."""
        state = small_state()
        imgs = np.random.default_rng(21).random((3, 8, 8, 1))
        calls = []
        fft2 = np.fft.fft2

        def counting_fft2(*args, **kwargs):
            calls.append(args[0].shape)
            return fft2(*args, **kwargs)

        monkeypatch.setattr(np.fft, "fft2", counting_fft2)
        nodes = pr.forward_batch(state, imgs)
        assert calls == [imgs.shape]
        monkeypatch.undo()
        ref = sp.prompted_image_node(nodes.multiplier, state.region,
                                     np.fft.fft2(imgs, axes=(1, 2)))
        assert np.array_equal(nodes.output.array, ref.array)


class TestNoGradForward:
    """``forward_batch`` inside ``numerics.no_grad``: the graph mode's values,
    bit for bit, with no graph behind them."""

    FIELDS = ("features", "addressing", "prompt_feature", "multiplier", "output")

    @staticmethod
    def state_and_chunk(config, size):
        """A state whose decoder gives a non-trivial multiplier, centred on one
        ``CHUNK`` of images in [0, 1]."""
        state = pr.init_state(config, size, size, 1)
        rng = np.random.default_rng(size)
        w = state.decoder.layers[-1][0]
        w.set(rng.standard_normal(w.shape) * 0.05)
        imgs = rng.random((pr.CHUNK, size, size, 1))
        pr.fit_input_center(state, [SimpleNamespace(image=img) for img in imgs])
        return state, imgs

    @pytest.mark.parametrize("config,size", [
        (pr.ApexConfig(), 32), (pr.ApexConfig(use_memory=False), 32),
        (pr.ApexConfig(slot_count=300, allow_block_init=True), 32), (pr.ApexConfig(), 128)],
        ids=["default", "memory_off", "slots_300", "default_128"])
    def test_values_equal_the_graph_modes(self, config, size):
        state, imgs = self.state_and_chunk(config, size)
        graph = pr.forward_batch(state, imgs)
        with nm.no_grad():
            plain = pr.forward_batch(state, imgs)
        assert not np.all(plain.multiplier.array == 1.0)
        for name in self.FIELDS:
            assert getattr(plain, name).array.tobytes() == getattr(graph, name).array.tobytes()
            assert getattr(plain, name)._parents == ()
        nm.backward(nm.reduce_sum(plain.output))
        assert all(p._grad is None for p in state.parameters().values())

    @pytest.mark.parametrize("where", [(0, 3, 4, 0), (pr.CHUNK - 1, 0, 0, 0)])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_image_raises_as_in_graph_mode(self, where, bad):
        state, imgs = self.state_and_chunk(SMALL, 8)
        imgs[where] = bad
        for mode in (contextlib.nullcontext, nm.no_grad):
            with mode(), pytest.raises(NonFiniteError,
                                       match="^tensor values must all be finite$"):
                pr.forward_batch(state, imgs)

    @pytest.mark.parametrize("mode", [contextlib.nullcontext, nm.no_grad])
    def test_zero_feature_row_raises_in_both_modes(self, mode):
        state, imgs = self.state_and_chunk(SMALL, 8)
        w, b = state.encoder.layers[-1]
        w.set(np.zeros(w.shape))
        b.set(np.zeros(b.shape))
        with mode(), pytest.raises(DegenerateInputError):
            pr.forward_batch(state, imgs)


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        state = small_state()
        state.input_center = np.random.default_rng(19).standard_normal(state.region.flat_size)
        state.step = 37
        pr.save_state(state, tmp_path / "ckpt")
        loaded = pr.load_state(tmp_path / "ckpt")
        assert loaded.step == 37
        assert loaded.config == state.config
        assert np.array_equal(loaded.memory.array, state.memory.array)
        assert np.array_equal(loaded.input_center, state.input_center)
        imgs = np.random.default_rng(20).random((1, 8, 8, 1))
        n1, n2 = pr.forward_batch(state, imgs), pr.forward_batch(loaded, imgs)
        assert np.array_equal(n1.output.array, n2.output.array)
        assert np.array_equal(n1.addressing.array, n2.addressing.array)

    def test_parameters_are_the_checkpoint_tensors_in_order(self):
        """One name list: the memory, then encoder, decoder and head, weight
        then bias per layer; the checkpoint holds these plus the centre."""
        state = small_state()
        names = list(state.parameters())
        assert names == ["memory"] + [f"{mlp}.{kind}{i}" for mlp in ("encoder", "decoder", "head")
                                      for i in range(len(getattr(state, mlp).layers))
                                      for kind in ("w", "b")]
        assert set(pr.state_tensors(state)) == {*names, "input_center"}
        nodes = list(state.parameters().values())
        assert nodes[0] is state.memory and nodes[1] is state.encoder.layers[0][0]

    def test_missing_checkpoint_rejected(self, tmp_path):
        with pytest.raises(InputNotFoundError):
            pr.load_state(tmp_path / "nothing")

    def test_manifest_echoes_config(self, tmp_path):
        state = small_state()
        pr.save_state(state, tmp_path / "ckpt")
        text = (tmp_path / "ckpt" / "manifest.txt").read_text()
        for key in ("feature_dim", "slot_count", "beta", "temperature",
                    "learning_rate", "seed", "step"):
            assert key in text

    def test_manifest_spells_booleans_as_config_files_do(self, tmp_path):
        state = small_state(use_memory=False, allow_block_init=True)
        pr.save_state(state, tmp_path / "ckpt")
        lines = (tmp_path / "ckpt" / "manifest.txt").read_text().splitlines()
        assert "use_memory = false" in lines and "allow_block_init = true" in lines
        assert pr.load_state(tmp_path / "ckpt").config == state.config

    def test_manifest_of_earlier_format_loads(self, tmp_path):
        """Checkpoints written before the config schema was derived from the
        dataclass fields spell booleans True/False and carry the removed
        ``encoder_final_scale``, ``softmax_addressing`` and
        ``memory_grad_mode``; they load to the equal config."""
        state = pr.init_state(pr.ApexConfig(), 8, 8, 1)
        pr.save_state(state, tmp_path / "ckpt")
        manifest = tmp_path / "ckpt" / "manifest.txt"
        tensors = manifest.read_text().splitlines()[-1]
        assert tensors.startswith("tensors = ")
        manifest.write_text("\n".join([
            "[apex-checkpoint]", "feature_dim = 256", "slot_count = 150",
            "encoder_hidden = 96,96,96", "decoder_hidden = 96,96,96", "head_hidden = 96",
            "beta = 0.25", "aux_dim = 64", "temperature = 0.1", "learning_rate = 0.05",
            "seed = 0", "encoder_final_scale = 1.0", "use_memory = True",
            "softmax_addressing = False", "memory_grad_mode = attention",
            "allow_block_init = False", "region = 8,8,1", "step = 0", tensors]) + "\n")
        loaded = pr.load_state(tmp_path / "ckpt")
        assert loaded.config == pr.ApexConfig()
        assert np.array_equal(loaded.memory.array, state.memory.array)

    def test_manifest_with_fullgraph_memory_mode_loads(self, tmp_path):
        """The removed ``memory_grad_mode`` steered training only, so a
        checkpoint trained with either value loads; ``softmax_addressing =
        true`` is refused (see the CLI tests)."""
        state = small_state()
        pr.save_state(state, tmp_path / "ckpt")
        manifest = tmp_path / "ckpt" / "manifest.txt"
        manifest.write_text(manifest.read_text() + "memory_grad_mode = fullgraph\n")
        assert pr.load_state(tmp_path / "ckpt").config == state.config

    @pytest.mark.parametrize("key", ["beta", "use_memory", "region", "step", "tensors"])
    def test_missing_manifest_key_names_key_and_file(self, tmp_path, key):
        pr.save_state(small_state(), tmp_path / "ckpt")
        manifest = tmp_path / "ckpt" / "manifest.txt"
        lines = manifest.read_text().splitlines()
        manifest.write_text("\n".join(ln for ln in lines
                                      if not ln.startswith(f"{key} =")) + "\n")
        with pytest.raises(CorruptInputError, match=f"manifest.txt: missing key '{key}'"):
            pr.load_state(tmp_path / "ckpt")

    @staticmethod
    def random_state(seed):
        """A state whose every tensor is random, so each one moves the output."""
        state = small_state()
        rng = np.random.default_rng(seed)
        for node in state.parameters().values():
            node.set(0.5 * rng.standard_normal(node.shape) + 0.1)
        state.input_center = rng.standard_normal(state.region.flat_size)
        return state

    @staticmethod
    def manifest_lists(ckpt, key: str) -> list[str]:
        line, = [ln for ln in (ckpt / "manifest.txt").read_text().splitlines()
                 if ln.startswith(f"{key} = ")]
        return line.partition(" = ")[2].split(",")

    def test_manifest_records_each_tensor_digest(self, tmp_path):
        state = self.random_state(40)
        pr.save_state(state, tmp_path / "ckpt")
        tensors = pr.state_tensors(state)
        names = self.manifest_lists(tmp_path / "ckpt", "tensors")
        assert self.manifest_lists(tmp_path / "ckpt", "digests") == [
            tensorio.tensor_digest(tensors[name]) for name in names]

    @pytest.mark.parametrize("name", ["decoder.b2", "decoder.b3", "encoder.b1", "encoder.w0",
                                      "input_center"])
    def test_flipped_payload_bit_rejected(self, tmp_path, name):
        # a byte-mutation probe once saw a flipped bit in each of these
        # payloads load silently and change the printed Dice
        pr.save_state(self.random_state(41), tmp_path / "ckpt")
        path = tmp_path / "ckpt" / f"{name}.apxt"
        raw = bytearray(path.read_bytes())
        raw[-8] ^= 1  # the lowest mantissa bit of the last value: still finite
        path.write_bytes(bytes(raw))
        with pytest.raises(CorruptInputError, match=re.escape(f"{name}.apxt: digest")):
            pr.load_state(tmp_path / "ckpt")

    def test_digest_count_must_match_the_tensors(self, tmp_path):
        state = small_state()
        pr.save_state(state, tmp_path / "ckpt")
        manifest = tmp_path / "ckpt" / "manifest.txt"
        manifest.write_text(manifest.read_text().replace("digests = ", "digests = 00,", 1))
        count = len(pr.state_tensors(state))
        with pytest.raises(CorruptInputError,
                           match=f"manifest.txt: {count + 1} digests for {count} tensors"):
            pr.load_state(tmp_path / "ckpt")

    def test_manifest_without_digests_loads_unchecked(self, tmp_path):
        # checkpoints written before digests were recorded keep loading
        state = self.random_state(42)
        pr.save_state(state, tmp_path / "ckpt")
        manifest = tmp_path / "ckpt" / "manifest.txt"
        manifest.write_text("".join(ln for ln in manifest.read_text().splitlines(True)
                                    if not ln.startswith("digests = ")))
        path = tmp_path / "ckpt" / "encoder.w0.apxt"
        raw = bytearray(path.read_bytes())
        raw[-8] ^= 1
        path.write_bytes(bytes(raw))
        loaded = pr.load_state(tmp_path / "ckpt")
        assert np.array_equal(loaded.memory.array, state.memory.array)
        w0 = loaded.encoder.layers[0][0].array
        assert not np.array_equal(w0, state.encoder.layers[0][0].array)

    def test_forward_after_load_state_equals_fresh_nodes(self, tmp_path, monkeypatch):
        # load_state sets each tensor into a state whose derived arrays, here,
        # were made first: none of them may reach a pass over the loaded state
        images = np.random.default_rng(43).random((3, 8, 8, 1))
        pr.save_state(self.random_state(44), tmp_path / "ckpt")
        init_state = pr.init_state

        def warmed(*args):
            state = init_state(*args)
            with nm.no_grad():
                pr.forward_batch(state, images)
            pr.forward_batch(state, images)
            return state

        monkeypatch.setattr(pr, "init_state", warmed)
        loaded = pr.load_state(tmp_path / "ckpt")
        monkeypatch.undo()

        def value_and_grads(state) -> list[bytes]:
            with nm.no_grad():
                plain = pr.forward_batch(state, images).output.array.tobytes()
            params = list(state.parameters().values())
            nodes = pr.forward_batch(state, images)
            nm.zero_grads(params)
            weights = np.random.default_rng(45).standard_normal(nodes.output.shape)
            nm.backward(nm.reduce_sum(oracles.mul(nodes.output, weights)))
            return [plain, nodes.output.array.tobytes()] + [p.grad.tobytes() for p in params]

        assert value_and_grads(loaded) == value_and_grads(self.random_state(44))
