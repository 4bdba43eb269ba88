"""Dice/CE and contrastive-loss tests: worked scalar examples against
brute-force evaluation, monotonicity, invariances, batch sampling, and the
fused segmentation loss against the chain it replaced."""

import math

import numpy as np
import pytest

from apex import losses, numerics as nm
from apex.errors import ConfigError, NonFiniteError, ShapeError
from apex.losses import BatchPlan, LossReport

import oracles


class TestDice:
    def test_perfect_overlap(self):
        mask = np.zeros((10, 10))
        mask[2:6, 2:6] = 1.0
        val = losses.dice_loss(nm.as_node(mask), nm.as_node(mask)).item()
        assert val == pytest.approx(0.0, abs=1.0 / 17.0)  # eps smoothing only

    def test_disjoint_large_masks(self):
        pred = np.zeros((40, 40))
        pred[:20] = 1.0
        gt = np.zeros((40, 40))
        gt[20:] = 1.0
        val = losses.dice_loss(nm.as_node(pred), nm.as_node(gt)).item()
        assert val == pytest.approx(1.0, abs=1e-3)

    def test_half_prediction_worked_example(self):
        gt = np.zeros(400)
        gt[:100] = 1.0
        pred = gt / 2.0
        val = losses.dice_loss(nm.as_node(pred), nm.as_node(gt)).item()
        assert val == pytest.approx(1.0 - 101.0 / 151.0, abs=1e-12)

    def test_range_and_finiteness(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            pred = rng.random((6, 6))
            gt = (rng.random((6, 6)) > 0.5).astype(float)
            val = losses.dice_loss(nm.as_node(pred), nm.as_node(gt)).item()
            assert 0.0 <= val <= 1.0

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            losses.dice_loss(nm.as_node(np.ones((2, 2))), nm.as_node(np.ones((3, 3))))


class TestCrossEntropy:
    def test_uniform_prediction(self):
        pred = np.full((5, 5), 0.5)
        gt = (np.random.default_rng(1).random((5, 5)) > 0.5).astype(float)
        assert losses.ce_loss(nm.as_node(pred), nm.as_node(gt)).item() == \
            pytest.approx(math.log(2.0), abs=1e-12)

    def test_approaches_zero_for_confident_correct(self):
        gt = np.ones((4, 4))
        for p in (0.9, 0.99, 0.999999):
            val = losses.ce_loss(nm.as_node(np.full((4, 4), p)), nm.as_node(gt)).item()
            assert val == pytest.approx(-math.log(p), abs=1e-9)

    def test_worked_example(self):
        val = losses.ce_loss(nm.as_node(np.full((3, 3), 0.9)), nm.as_node(np.ones((3, 3)))).item()
        assert val == pytest.approx(0.10536051565782628, abs=1e-12)

    def test_clamping_keeps_finite(self):
        gt = np.ones((2, 2))
        val = losses.ce_loss(nm.as_node(np.zeros((2, 2))), nm.as_node(gt)).item()
        assert np.isfinite(val)


def _one(arr):
    """A 2-D array as a batch of one [1, h, w, 1] stack."""
    return np.asarray(arr, dtype=float)[None, :, :, None]


class TestSegLoss:
    def test_perfect_prediction_near_zero(self):
        gt = np.zeros((12, 12))
        gt[3:9, 3:9] = 1.0
        val = losses.seg_loss(_one(gt), _one(gt))[0].item()
        assert val < 0.02

    def test_decomposition_exact(self):
        rng = np.random.default_rng(2)
        pred, gt = rng.random((6, 6)), (rng.random((6, 6)) > 0.6).astype(float)
        seg, dice_part, ce_part = losses.seg_loss(_one(pred), _one(gt))
        assert seg.item() == dice_part + ce_part
        assert dice_part == losses.dice_loss(nm.as_node(pred), nm.as_node(gt)).item()
        assert ce_part == losses.ce_loss(nm.as_node(pred), nm.as_node(gt)).item()

    def test_matches_independent_reimplementation(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            pred = rng.random((5, 7))
            gt = (rng.random((5, 7)) > 0.5).astype(float)
            val = losses.seg_loss(_one(pred), _one(gt))[0].item()
            inter = float((pred * gt).sum())
            dice = 1.0 - (2.0 * inter + 1.0) / (pred.sum() + gt.sum() + 1.0)
            pc = np.clip(pred, 1e-7, 1.0 - 1e-7)
            ce = float(np.mean(-(gt * np.log(pc) + (1.0 - gt) * np.log(1.0 - pc))))
            assert abs(val - (dice + ce)) < 1e-12


def chain_seg_loss(pred, masks, upstream=1.0):
    """The segmentation loss as training built it before the fusion, the
    primitive chain ``dice_loss(batched=True) + ce_loss``: its value, Dice
    part, CE part and the prediction gradient for an upstream gradient."""
    p = nm.parameter(pred)
    dice = losses.dice_loss(p, masks, batched=True)
    ce = losses.ce_loss(p, masks)
    seg = nm.add(dice, ce)
    nm.backward(nm.mul(seg, upstream))
    return seg.item(), dice.item(), ce.item(), p.grad


def fused_seg_loss(pred, masks, upstream=1.0):
    p = nm.parameter(pred)
    seg, dice, ce = losses.seg_loss(p, masks)
    nm.backward(nm.mul(seg, upstream))
    return seg.item(), dice, ce, p.grad


# exactly at and next to both clamp bounds, and outside them
EDGE_PREDICTIONS = np.array([0.0, 1e-7, np.nextafter(1e-7, 0.0), np.nextafter(1e-7, 1.0),
                             1.0 - 1e-7, np.nextafter(1.0 - 1e-7, 0.0),
                             np.nextafter(1.0 - 1e-7, 1.0), 1.0, 0.5, 1e-12])


class TestFusedSegLoss:
    """``seg_loss`` is one node whose value, parts and prediction gradient
    are bytes-equal to the chain training built before."""

    SHAPES = [(8, 32, 32, 1), (2, 128, 128, 1), (3, 12, 20, 3), (1, 9, 7, 1)]

    @staticmethod
    def case(shape, kind, seed):
        rng = np.random.default_rng(seed)
        pred = rng.random(shape)
        masks = (rng.random(shape) > 0.5).astype(float)
        if kind == "edges":
            pred = rng.choice(EDGE_PREDICTIONS, size=shape)
        elif kind == "masks_zero":
            masks[:] = 0.0
        elif kind == "masks_one":
            masks[:] = 1.0
        return pred, masks

    @pytest.mark.parametrize("kind", ["random", "edges", "masks_zero", "masks_one"])
    @pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "x".join(map(str, s)))
    def test_bytes_equal_to_chain(self, shape, kind):
        pred, masks = self.case(shape, kind, seed=sum(shape))
        chain, fused = chain_seg_loss(pred, masks), fused_seg_loss(pred, masks)
        assert [np.float64(v).tobytes() for v in fused[:3]] == \
            [np.float64(v).tobytes() for v in chain[:3]]
        assert fused[3].tobytes() == chain[3].tobytes()

    @pytest.mark.parametrize("upstream", [0.37, -2.5])
    def test_bytes_equal_for_any_upstream_gradient(self, upstream):
        pred, masks = self.case((4, 10, 6, 2), "random", seed=41)
        chain = chain_seg_loss(pred, masks, upstream)
        fused = fused_seg_loss(pred, masks, upstream)
        assert fused[:3] == chain[:3] and fused[3].tobytes() == chain[3].tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_mask_raises(self, bad):
        masks = np.zeros((2, 4, 4, 1))
        masks[1, 2, 3, 0] = bad
        with pytest.raises(NonFiniteError):
            losses.seg_loss(np.full((2, 4, 4, 1), 0.5), masks)
        with pytest.raises(NonFiniteError):  # as the chain's as_node did
            losses.ce_loss(np.full((2, 4, 4, 1), 0.5), masks)

    def test_overflowing_sum_raises_as_the_chain_did(self):
        pred = np.full((1, 2, 2, 1), 1e308)
        with np.errstate(over="ignore"):
            with pytest.raises(NonFiniteError):
                losses.dice_loss(pred, np.zeros_like(pred), batched=True)
            with pytest.raises(NonFiniteError):
                losses.seg_loss(pred, np.zeros_like(pred))

    @pytest.mark.parametrize("pred_shape, mask_shape", [
        ((2, 4, 4, 1), (3, 4, 4, 1)),
        ((2, 4, 4, 1), (2, 4, 4, 2)),
        ((2, 4, 4), (2, 4, 4)),
    ])
    def test_shape_mismatch(self, pred_shape, mask_shape):
        with pytest.raises(ShapeError):
            losses.seg_loss(np.full(pred_shape, 0.5), np.zeros(mask_shape))


class TestLfcTerm:
    def test_worked_example_minus_one(self):
        val = losses.lfc_term(nm.as_node(1.0), nm.as_node([0.0]), tau=1.0).item()
        assert val == pytest.approx(-1.0, abs=1e-12)

    def test_symmetric_case_is_zero(self):
        for s in (-0.4, 0.0, 0.9):
            val = losses.lfc_term(nm.as_node(s), nm.as_node([s]), tau=0.5).item()
            assert val == pytest.approx(0.0, abs=1e-12)

    def test_brute_force_example(self):
        val = losses.lfc_term(nm.as_node(0.8), nm.as_node([0.2, -0.4]), tau=0.5).item()
        oracle = -math.log(math.exp(1.6) / (math.exp(0.4) + math.exp(-0.8)))
        assert val == pytest.approx(oracle, abs=1e-10)

    def test_monotonicity(self):
        base = losses.lfc_term(nm.as_node(0.5), nm.as_node([0.1, 0.2]), tau=0.5).item()
        higher_pos = losses.lfc_term(nm.as_node(0.6), nm.as_node([0.1, 0.2]), tau=0.5).item()
        higher_neg = losses.lfc_term(nm.as_node(0.5), nm.as_node([0.3, 0.2]), tau=0.5).item()
        assert higher_pos < base
        assert higher_neg > base

    def test_tau_scaling_leaves_exponents_unchanged(self):
        a = losses.lfc_term(nm.as_node(0.5), nm.as_node([0.1, -0.3]), tau=0.25).item()
        b = losses.lfc_term(nm.as_node(2.0 * 0.5), nm.as_node([0.2, -0.6]), tau=0.5).item()
        assert a == b

    def test_invalid_tau(self):
        with pytest.raises(ConfigError):
            losses.lfc_term(nm.as_node(0.5), nm.as_node([0.1]), tau=0.0)


def _two_domain_embeddings():
    # unit vectors: domain x at angles 0 and 0.1; domain y at 2.0 and 2.1 rad
    angles = [0.0, 0.1, 2.0, 2.1]
    emb = np.array([[math.cos(t), math.sin(t)] for t in angles])
    labels = ["x", "x", "y", "y"]
    positives = np.array([1, 0, 3, 2])
    return emb, labels, positives


class TestLfcLoss:
    def test_brute_force_full_batch(self):
        emb, labels, positives = _two_domain_embeddings()
        val = losses.lfc_loss(nm.as_node(emb), labels, 0.5, positives=positives).item()
        sims = emb @ emb.T
        total = 0.0
        for i in range(4):
            negs = [sims[i, j] for j in range(4) if labels[j] != labels[i]]
            denom = sum(math.exp(s / 0.5) for s in negs)
            total += -math.log(math.exp(sims[i, positives[i]] / 0.5) / denom)
        assert val == pytest.approx(total / 4.0, abs=1e-10)

    def test_can_be_negative(self):
        emb, labels, positives = _two_domain_embeddings()
        val = losses.lfc_loss(nm.as_node(emb), labels, 0.1, positives=positives).item()
        assert val < 0.0  # positive term excluded from the denominator

    def test_rescaling_invariance(self):
        emb, labels, positives = _two_domain_embeddings()
        base = losses.lfc_loss(nm.as_node(emb), labels, 0.5, positives=positives).item()
        scaled = losses.lfc_loss(nm.as_node(4.0 * emb), labels, 0.5, positives=positives).item()
        assert scaled == base  # power-of-two scaling: bit-exact
        scaled2 = losses.lfc_loss(nm.as_node(3.7 * emb), labels, 0.5, positives=positives).item()
        assert scaled2 == pytest.approx(base, abs=1e-12)

    def test_permutation_invariance(self):
        emb, labels, positives = _two_domain_embeddings()
        perm = [2, 0, 3, 1]
        inv = np.argsort(perm)
        emb_p = emb[perm]
        labels_p = [labels[i] for i in perm]
        positives_p = np.array([inv[positives[perm[k]]] for k in range(4)])
        a = losses.lfc_loss(nm.as_node(emb), labels, 0.5, positives=positives).item()
        b = losses.lfc_loss(nm.as_node(emb_p), labels_p, 0.5, positives=positives_p).item()
        assert a == pytest.approx(b, abs=1e-12)

    def test_gradient_matches_finite_differences(self):
        emb, labels, positives = _two_domain_embeddings()
        rng = np.random.default_rng(4)
        emb = emb + rng.standard_normal(emb.shape) * 0.05

        def build(leaves):
            return losses.lfc_loss(leaves[0], labels, 0.5, positives=positives)

        assert oracles.gradcheck(build, [emb]) < 1e-4

    def test_single_domain_rejected(self):
        emb = np.eye(3)
        with pytest.raises(ConfigError):
            losses.lfc_loss(nm.as_node(emb), ["x", "x", "x"], 0.5,
                            positives=np.array([1, 0, 0]))

    def test_short_domain_rejected(self):
        emb = np.eye(3)
        with pytest.raises(ConfigError):
            losses.lfc_loss(nm.as_node(emb), ["x", "x", "y"], 0.5,
                            positives=np.array([1, 0, 0]))

    def test_unequal_domain_sizes_rejected(self):
        emb = np.eye(5)
        with pytest.raises(ConfigError, match="equal domain sizes"):
            losses.lfc_loss(nm.as_node(emb), ["x", "x", "x", "y", "y"], 0.5,
                            positives=np.array([1, 0, 0, 4, 3]))

    def test_monotonicity_via_perturbation(self):
        emb, labels, positives = _two_domain_embeddings()
        base = losses.lfc_loss(nm.as_node(emb), labels, 0.5, positives=positives).item()
        closer = emb.copy()
        closer[1] = closer[0]  # anchor 0's positive now identical
        val = losses.lfc_loss(nm.as_node(closer), labels, 0.5, positives=positives).item()
        assert val < base


def _rel_close(value: float, oracle: float, rel: float = 1e-12) -> bool:
    return abs(value - oracle) <= rel * abs(oracle)


class TestBatchedForms:
    """The batched losses training evaluates against the per-sample and
    per-anchor definitions they replace."""

    @staticmethod
    def _seg_batch(rng, batch: int):
        pred = rng.uniform(0.02, 0.98, size=(batch, 6, 5, 1))
        gt = (rng.random((batch, 6, 5, 1)) > 0.5).astype(float)
        return pred, gt

    def test_batched_dice_is_mean_of_per_sample(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            pred, gt = self._seg_batch(rng, int(rng.integers(1, 9)))
            val = losses.dice_loss(pred, gt, batched=True).item()
            oracle = float(np.mean([losses.dice_loss(p, g).item() for p, g in zip(pred, gt)]))
            assert _rel_close(val, oracle)

    def test_batch_ce_is_mean_of_per_sample(self):
        rng = np.random.default_rng(22)
        for _ in range(30):
            pred, gt = self._seg_batch(rng, int(rng.integers(1, 9)))
            val = losses.ce_loss(pred, gt).item()
            oracle = float(np.mean([losses.ce_loss(p, g).item() for p, g in zip(pred, gt)]))
            assert _rel_close(val, oracle)

    def test_batched_seg_gradients(self):
        rng = np.random.default_rng(23)
        pred, gt = self._seg_batch(rng, 3)

        def build(leaves):
            return nm.add(losses.dice_loss(leaves[0], gt, batched=True),
                          losses.ce_loss(leaves[0], gt))

        assert oracles.gradcheck(build, [pred]) < 1e-6

    def test_batched_seg_gradient_matches_per_sample_loop_exactly(self):
        """Training takes the same steps as with the per-sample loop."""
        rng = np.random.default_rng(25)
        pred, gt = self._seg_batch(rng, 8)
        batched = nm.parameter(pred)
        nm.backward(nm.add(losses.dice_loss(batched, gt, batched=True),
                           losses.ce_loss(batched, gt)))
        looped = nm.parameter(pred)
        dice = ce = None
        for i in range(len(pred)):
            d = losses.dice_loss(nm.getitem(looped, i), gt[i])
            e = losses.ce_loss(nm.getitem(looped, i), gt[i])
            dice = d if dice is None else nm.add(dice, d)
            ce = e if ce is None else nm.add(ce, e)
        nm.backward(nm.add(nm.div(dice, 8.0), nm.div(ce, 8.0)))
        assert np.array_equal(batched.grad, looped.grad)

    def test_batched_dice_shape_mismatch(self):
        with pytest.raises(ShapeError):
            losses.dice_loss(np.ones((2, 4, 4, 1)), np.ones((3, 4, 4, 1)), batched=True)

    def test_batched_lfc_is_mean_of_anchor_terms(self):
        rng = np.random.default_rng(24)
        for trial in range(40):
            # P domains of S samples each, shuffled
            size = int(rng.integers(2, 5))
            labels = [f"d{k}" for k in range(int(rng.integers(2, 5))) for _ in range(size)]
            labels = [labels[i] for i in rng.permutation(len(labels))]
            emb = rng.standard_normal((len(labels), 5))
            positives = losses.sample_positives(labels, rng)
            # tiny temperatures put the positive and the diagonal hundreds of
            # units above the negatives; neither may enter the peak or exp()
            tau = 1e-3 if trial % 10 == 0 else float(rng.uniform(0.05, 1.0))
            sims = nm.cosine_rows(emb, emb).array
            val = losses.lfc_loss(emb, labels, tau, positives=positives).item()
            terms = []
            for i, lab in enumerate(labels):
                cols = [j for j, other in enumerate(labels) if other != lab]
                terms.append(losses.lfc_term(sims[i, positives[i]], sims[i, cols], tau).item())
            assert _rel_close(val, float(np.mean(terms))), trial

    def test_batched_lfc_gradient_matches_anchor_loop_exactly(self):
        """With equal domain sizes, as every training batch has, each row of
        the batched form sums in the per-anchor order, so the gradient is
        bit-identical and training takes the same steps."""
        rng = np.random.default_rng(26)
        labels = ["a"] * 4 + ["b"] * 4
        emb = rng.standard_normal((8, 6))
        positives = losses.sample_positives(labels, rng)
        batched = nm.parameter(emb)
        nm.backward(losses.lfc_loss(batched, labels, 0.1, positives=positives))
        looped = nm.parameter(emb)
        sims = nm.cosine_rows(looped, looped)
        total = None
        for i, lab in enumerate(labels):
            cols = [j for j, other in enumerate(labels) if other != lab]
            pos = nm.getitem(sims, (i, int(positives[i])))
            negs = nm.getitem(sims, (np.full(len(cols), i), np.array(cols)))
            term = losses.lfc_term(pos, negs, 0.1)
            total = term if total is None else nm.add(total, term)
        nm.backward(nm.div(total, 8.0))
        assert np.array_equal(batched.grad, looped.grad)

    def test_lfc_invalid_tau(self):
        emb, labels, positives = _two_domain_embeddings()
        with pytest.raises(ConfigError):
            losses.lfc_loss(emb, labels, 0.0, positives=positives)


class TestBatchPlan:
    def test_plan_validation(self):
        with pytest.raises(ConfigError):
            BatchPlan(1, 4)
        with pytest.raises(ConfigError):
            BatchPlan(2, 1)
        assert BatchPlan(2, 2).batch_size == 4

    def test_sample_batch_shape(self):
        drawn = losses.sample_batch({"a": 10, "b": 10}, BatchPlan(2, 2),
                                    np.random.default_rng(0))
        assert len(drawn) == 2
        assert sum(len(idx) for _dom, idx in drawn) == 4
        for _dom, idx in drawn:
            assert len(set(idx)) == 2

    def test_determinism(self):
        a, b = (losses.sample_batch({"a": 10, "b": 10, "c": 10}, BatchPlan(2, 3),
                                    np.random.default_rng(7)) for _ in range(2))
        assert a == b

    def test_insufficient_samples(self):
        with pytest.raises(ConfigError):
            losses.sample_batch({"a": 1, "b": 5}, BatchPlan(2, 2), np.random.default_rng(0))

    def test_selection_frequency_near_uniform(self):
        """1000 draws; every sample within 3 sigma of the uniform count."""
        rng = np.random.default_rng(123)
        plan = BatchPlan(2, 2)
        dataset = {"a": 10, "b": 10}
        counts = {(d, i): 0 for d in dataset for i in range(10)}
        for _ in range(1000):
            drawn = losses.sample_batch(dataset, plan, rng)
            for dom, idx in drawn:
                for i in idx:
                    counts[(dom, i)] += 1
        expected = 1000 * 0.2
        sigma = math.sqrt(1000 * 0.2 * 0.8)
        for key, count in counts.items():
            assert abs(count - expected) <= 3.0 * sigma, (key, count)


class TestLossReport:
    def test_total_decomposition(self):
        rep = LossReport(seg=1.25, dice_part=0.5, ce_part=0.75, lfc=-0.1)
        assert rep.total == rep.seg + rep.lfc
        row = rep.csv_row(3)
        assert row.startswith("3,") and str(rep.total) in row
