"""Training loop, evaluation, ablation code paths, and activation export."""

from dataclasses import replace

import numpy as np
import pytest

from apex import harness as hn
from apex import numerics as nm
from apex import prompting as pr
from apex import synthdata as sd
from apex import tensorio
from apex.errors import ConfigError
from apex.prompting import ApexConfig

TINY_APEX = ApexConfig(feature_dim=16, slot_count=8, encoder_hidden=(10, 10, 10),
                       decoder_hidden=(10, 10, 10), head_hidden=(8,), aux_dim=4,
                       learning_rate=0.05, seed=0)
TINY_TRAIN = hn.TrainConfig(apex=TINY_APEX, epochs=2, samples_per_domain=2,
                            mlp_learning_rate=0.25, seeds=(0,))
TINY_BENCH = sd.BenchmarkConfig(train_per_domain=16, test_per_domain=8,
                                source_train=16, source_test=8)


@pytest.fixture(scope="module")
def bench():
    return sd.build_benchmark(TINY_BENCH, seed=1)


@pytest.fixture(scope="module")
def backbone(bench):
    return sd.backbone_calibrate(bench.splits["source_cal"])


def learnable_digest(state) -> str:
    tensors = pr.state_tensors(state)
    tensors.pop("input_center")
    return tensorio.tensor_digest(*(tensors[k] for k in sorted(tensors)))


class TestTrain:
    def test_zero_epochs_keeps_initialization(self, bench, backbone):
        cfg = replace(TINY_TRAIN, epochs=0)
        state, log = hn.train(cfg, bench, backbone, seed=0)
        fresh = pr.init_state(replace(TINY_APEX, seed=0), 32, 32, 1)
        assert log == []
        assert state.step == 0
        assert learnable_digest(state) == learnable_digest(fresh)

    def test_seed_determinism_bit_identical(self, bench, backbone):
        s1, log1 = hn.train(TINY_TRAIN, bench, backbone, seed=3)
        s2, log2 = hn.train(TINY_TRAIN, bench, backbone, seed=3)
        assert log1 == log2
        t1, t2 = pr.state_tensors(s1), pr.state_tensors(s2)
        for key in t1:
            assert np.array_equal(t1[key], t2[key]), key

    def test_loss_decreases(self, bench, backbone):
        cfg = replace(TINY_TRAIN, epochs=6)
        _state, log = hn.train(cfg, bench, backbone, seed=0)
        n = len(log)
        head = np.mean([r.total for r in log[:max(1, n // 10)]])
        tail = np.mean([r.total for r in log[-max(1, n // 10):]])
        assert tail < head

    def test_total_decomposition_every_step(self, bench, backbone):
        _state, log = hn.train(TINY_TRAIN, bench, backbone, seed=1)
        for rep in log:
            assert rep.total == rep.seg + rep.lfc
            assert rep.seg == rep.dice_part + rep.ce_part

    def test_backbone_untouched(self, bench, backbone):
        before = backbone.digest()
        hn.train(TINY_TRAIN, bench, backbone, seed=2)
        assert backbone.digest() == before

    def test_memory_off_never_touches_slots(self, bench, backbone):
        cfg = replace(TINY_TRAIN, apex=replace(TINY_APEX, use_memory=False))
        state, _ = hn.train(cfg, bench, backbone, seed=0)
        fresh = pr.init_state(replace(TINY_APEX, use_memory=False, seed=0), 32, 32, 1)
        assert tensorio.tensor_digest(state.memory.array) == \
            tensorio.tensor_digest(fresh.memory.array)

    def test_lfc_off_logs_zero(self, bench, backbone):
        cfg = replace(TINY_TRAIN, lfc_enabled=False)
        _state, log = hn.train(cfg, bench, backbone, seed=0)
        assert all(rep.lfc == 0.0 for rep in log)


class TestGraphSize:
    @pytest.fixture
    def per_step(self, bench, backbone, monkeypatch):
        """Nodes built and ``numpy.isfinite`` calls made per default training
        step (32x32, batch 8), set-up excluded."""
        counts = {"nodes": 0, "finite_checks": 0}

        def counting(key, fn):
            def wrapped(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(nm.Node, "__init__", counting("nodes", nm.Node.__init__))
        monkeypatch.setattr(np, "isfinite", counting("finite_checks", np.isfinite))
        hn.train(hn.TrainConfig(epochs=0, seeds=(0,)), bench, backbone, seed=0)
        setup = dict(counts)
        counts.update(nodes=0, finite_checks=0)
        _state, log = hn.train(hn.TrainConfig(epochs=1, seeds=(0,)), bench, backbone, seed=0)
        assert log
        return {key: (counts[key] - setup[key]) / len(log) for key in counts}

    def test_default_step_builds_at_most_36_nodes(self, per_step):
        """A batch-shaped graph: the contrastive loss adds a fixed number of
        nodes, not one set per anchor; each MLP layer, each cosine matrix,
        the backbone and the segmentation loss is one node, and scalar
        operands add none."""
        assert per_step["nodes"] <= 36

    def test_default_step_makes_at_most_59_finiteness_checks(self, per_step):
        """One check per new node array and per updated parameter, plus the
        backbone's check of its pre-activation and the segmentation loss's
        checks of the masks and the Dice denominators; a view of a parent's
        array and a stop-gradient's shared array are not checked again."""
        assert per_step["finite_checks"] <= 59


class TestMetrics:
    def test_dice_iou_trivial_cases(self):
        mask = np.zeros((8, 8))
        mask[2:5, 2:5] = 1.0
        assert hn.dice_iou(mask > 0, mask) == (100.0, 100.0)
        empty = np.zeros((8, 8))
        dice, iou = hn.dice_iou(empty > 0, mask)
        assert dice == 0.0 and iou == 0.0

    def test_dice_geq_iou_identity(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            a = rng.random((6, 6)) > 0.5
            b = rng.random((6, 6)) > 0.5
            dice, iou = hn.dice_iou(a, b.astype(float))
            assert 0.0 <= iou <= dice <= 100.0

    def test_evaluate_report_invariants(self, bench, backbone):
        for split in ("seen", "unseen", "source"):
            rep = hn.evaluate(None, backbone, bench, split, source_only=True)
            for dom, row in rep.per_domain.items():
                assert 0.0 <= row["iou"] <= row["dice"] <= 100.0

    def test_source_only_matches_direct_computation(self, bench, backbone):
        rep = hn.evaluate(None, backbone, bench, "source", source_only=True)
        scores = []
        for s in bench.splits["source_test"]:
            pred = sd.backbone_forward(backbone, s.image).array[:, :, 0]
            scores.append(hn.dice_iou(pred > 0.5, s.mask)[0])
        assert rep.per_domain["source"]["dice"] == pytest.approx(np.mean(scores), abs=1e-12)

    @pytest.mark.parametrize("split", ["seen", "unseen", "source"])
    def test_csv_lines_bytes(self, bench, backbone, split):
        """One row per domain of the split, in the split's group, then the
        group's mean Dice; the source group has no mean."""
        scores: dict = {}
        for s in bench.splits[hn.SPLIT_NAMES[split]]:
            pred = sd.backbone_forward(backbone, s.image).array[:, :, 0]
            scores.setdefault(s.domain_id, []).append(hn.dice_iou(pred > 0.5, s.mask))
        expected, dice = ["domain,group,dice,iou,count"], []
        for dom in sorted(scores):
            arr = np.asarray(scores[dom])
            dice.append(float(arr[:, 0].mean()))
            expected.append(f"{dom},{split},{dice[-1]!r},{float(arr[:, 1].mean())!r},{len(arr)}")
        if split != "source":
            expected.append(f"avg_{split},,{float(np.mean(dice))!r},,")
        assert hn.evaluate(None, backbone, bench, split, source_only=True).csv_lines() == expected

    def test_unknown_split_rejected(self, bench, backbone):
        with pytest.raises(ConfigError):
            hn.evaluate(None, backbone, bench, "nope")

    def test_catastrophic_forgetting_guard(self, bench, backbone):
        before = hn.evaluate(None, backbone, bench, "source", source_only=True)
        digest_before = backbone.digest()
        hn.train(TINY_TRAIN, bench, backbone, seed=0)
        after = hn.evaluate(None, backbone, bench, "source", source_only=True)
        assert backbone.digest() == digest_before
        assert before.csv_lines() == after.csv_lines()


class TestExperiments:
    def test_ablation_table_shape(self, bench, backbone):
        cfg = replace(TINY_TRAIN, epochs=1)
        lines = hn.run_ablation(cfg, bench, backbone)
        assert lines[0] == "memory,lfc,seed,avg_seen_dice,avg_unseen_dice,avg_total_dice"
        cells = {tuple(line.split(",")[:2]) for line in lines[1:]}
        assert cells == {("on", "on"), ("on", "off"), ("off", "on"), ("off", "off")}
        assert sum(",mean," in line for line in lines) == 4
        assert sum(",std," in line for line in lines) == 4

    def test_slot_sweep_rows(self, bench, backbone):
        cfg = replace(TINY_TRAIN, epochs=1)
        lines = hn.slot_sweep(cfg, bench, backbone, j_list=(1, 4))
        assert lines[0] == "slots,seed,avg_total_dice"
        assert any(line.startswith("1,0,") for line in lines)
        assert any(line.startswith("4,mean,") for line in lines)

    def test_sweep_handles_j_above_feature_dim(self, bench, backbone):
        cfg = replace(TINY_TRAIN, epochs=1)
        lines = hn.slot_sweep(cfg, bench, backbone, j_list=(TINY_APEX.feature_dim + 4,))
        assert any(line.startswith(f"{TINY_APEX.feature_dim + 4},0,") for line in lines)


class TestActivations:
    def test_top_slot_count_and_determinism(self, tmp_path):
        state = pr.init_state(ApexConfig(seed=0), 32, 32, 1)  # J = 150
        img, mask = sd._base_scene(0, 32, 32)
        img = img[:, :, None]
        samples = [sd.DomainSample("s0", "A", img, mask, 0),
                   sd.DomainSample("s1", "A", img, mask, 0),
                   sd.DomainSample("s2", "B", img * 0.8, mask, 0)]
        rows = hn.top_slot_sets(state, samples)
        assert all(len(top) == 15 for _s, _a, top in rows)
        assert rows[0][2] == rows[1][2]  # identical samples, identical slots

    def test_export_files(self, bench, backbone, tmp_path):
        state, _ = hn.train(TINY_TRAIN, bench, backbone, seed=0)
        samples = bench.splits["test_unseen"]
        within, cross = hn.export_activations(state, samples, tmp_path)
        assert (tmp_path / "activations.csv").exists()
        assert (tmp_path / "overlap_matrix.csv").exists()
        assert (tmp_path / "activations.pgm").exists()
        header = (tmp_path / "activations.csv").read_text().splitlines()[0]
        assert header == "sample_id,domain_id,top_slots"
        assert 0.0 <= cross <= 1.0 and 0.0 <= within <= 1.0

    def test_jaccard(self):
        assert hn.jaccard(frozenset({1, 2}), frozenset({2, 3})) == pytest.approx(1.0 / 3.0)
        assert hn.jaccard(frozenset(), frozenset()) == 1.0


class TestRunResult:
    def test_avg_total_combines_groups(self, bench, backbone):
        res = hn.train_and_eval(TINY_TRAIN, bench, backbone, seed=0)
        assert res.avg_total == pytest.approx(
            (res.seen.avg_seen + res.unseen.avg_unseen) / 2.0)
