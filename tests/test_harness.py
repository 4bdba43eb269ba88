"""Training loop, evaluation, ablation code paths, and activation export."""

import importlib.util
import inspect
import sys
import threading
import time
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from apex import harness as hn
from apex import losses
from apex import numerics as nm
from apex import prompting as pr
from apex import synthdata as sd
from apex import tensorio
from apex.errors import ConfigError, NonFiniteError
from apex.prompting import ApexConfig

import oracles

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

    def test_input_center_fitted_once_per_benchmark(self, bench, backbone, monkeypatch):
        fits = []
        fit = pr.fit_input_center

        def counting(state, samples):
            fits.append(samples)
            fit(state, samples)

        monkeypatch.setattr(pr, "fit_input_center", counting)
        one = replace(bench)  # a copy holds no centre the fixture's runs fitted
        other = replace(bench, splits={**bench.splits, "train_seen": bench.splits["test_seen"]})
        runs = [(TINY_TRAIN, one, 0), (replace(TINY_TRAIN, lfc_enabled=False), one, 1),
                (TINY_TRAIN, other, 0)]
        states = [hn.train(cfg, b, backbone, seed)[0] for cfg, b, seed in runs]
        assert len(fits) == 2 and fits[0] is bench.splits["train_seen"] \
            and fits[1] is bench.splits["test_seen"]
        assert states[0].input_center is states[1].input_center
        assert not states[0].input_center.flags.writeable
        assert not np.array_equal(states[0].input_center, states[2].input_center)
        for state, (cfg, b, seed) in zip(states, runs):
            fresh = hn.train(cfg, replace(b), backbone, seed)[0]  # fits its own centre
            assert tensorio.tensor_digest(*pr.state_tensors(state).values()) \
                == tensorio.tensor_digest(*pr.state_tensors(fresh).values())
        assert len(fits) == 5

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


def test_batch_arrays_give_float64_masks(bench):
    # seg_loss reads the masks as float64 without a copy; the samples hold bool
    samples = bench.splits["train_seen"][:5]
    images, masks = hn._batch_arrays(samples)
    assert images.shape == (5, 32, 32, 1) and masks.shape == (5, 32, 32, 1)
    assert masks.dtype == np.float64 and masks.flags.c_contiguous
    assert np.array_equal(masks[..., 0], [s.mask for s in samples])
    assert np.asarray(masks, dtype=np.float64) is masks


class TestMetrics:
    def test_dice_iou_trivial_cases(self):
        mask = np.zeros((1, 8, 8))
        mask[0, 2:5, 2:5] = 1.0
        dice, iou = hn.dice_iou(mask > 0, mask)
        assert dice.tolist() == [100.0] and iou.tolist() == [100.0]
        empty = np.zeros((1, 8, 8))
        dice, iou = hn.dice_iou(empty > 0, mask)
        assert dice.tolist() == [0.0] and iou.tolist() == [0.0]

    def test_dice_iou_of_bool_and_float_masks_agree(self, bench, backbone):
        samples = bench.splits["test_seen"]
        masks = np.stack([s.mask for s in samples])
        assert masks.dtype == np.bool_
        preds = sd.backbone_forward(backbone, np.stack([s.image for s in samples])).array
        dice, iou = hn.dice_iou(preds[..., 0] > 0.5, masks)
        dice_f, iou_f = hn.dice_iou(preds[..., 0] > 0.5, masks.astype(np.float64))
        assert dice.tobytes() == dice_f.tobytes() and iou.tobytes() == iou_f.tobytes()

    @pytest.mark.parametrize("case", ["empty_vs_empty", "empty_prediction", "empty_mask",
                                      "full_overlap", "random"])
    def test_batched_dice_iou_equals_the_per_image_formula(self, case):
        """Each pair of a stack scores as the per-image formula does, bit for
        bit: 100 * (2 * inter / total), 100 * (inter / union), and 100 for
        an empty prediction of an empty mask."""
        rng = np.random.default_rng(3)
        preds, masks = rng.random((2, 9, 7, 5)) > 0.6
        if case == "empty_vs_empty":
            preds[4] = masks[4] = False
        elif case == "empty_prediction":
            preds[4] = False
        elif case == "empty_mask":
            masks[4] = False
        elif case == "full_overlap":
            preds[4] = masks[4] = True
        expected = []
        for p, g in zip(preds, masks):
            inter, union = float((p & g).sum()), float((p | g).sum())
            total = float(p.sum() + g.sum())
            expected.append((100.0 * (2.0 * inter / total) if total else 100.0,
                             100.0 * (inter / union) if union else 100.0))
        dice, iou = hn.dice_iou(preds, masks)
        assert dice.dtype == iou.dtype == np.float64
        assert list(zip(dice.tolist(), iou.tolist())) == expected
        known = {"empty_vs_empty": (100.0, 100.0), "empty_prediction": (0.0, 0.0),
                 "empty_mask": (0.0, 0.0), "full_overlap": (100.0, 100.0)}
        if case in known:
            assert expected[4] == known[case]

    def test_dice_geq_iou_identity(self):
        rng = np.random.default_rng(0)
        a = rng.random((100, 6, 6)) > 0.5
        b = rng.random((100, 6, 6)) > 0.5
        dice, iou = hn.dice_iou(a, b.astype(float))
        assert np.all((0.0 <= iou) & (iou <= dice) & (dice <= 100.0))

    @pytest.mark.parametrize("split", ["seen", "unseen", "source"])
    def test_evaluate_report_invariants(self, bench, backbone, split):
        """Each row lies in the split's group, and only the seen or unseen
        split has a mean Dice, under its own name."""
        rep = hn.evaluate(None, backbone, bench, split, source_only=True)
        for dom, row in rep.per_domain.items():
            assert 0.0 <= row["iou"] <= row["dice"] <= 100.0
        lines = rep.csv_lines()
        rows = [line.split(",") for line in lines[1:] if not line.startswith("avg_")]
        assert [row[1] for row in rows] == [split] * len(rep.per_domain)
        averages = {"avg_seen": rep.avg_seen, "avg_unseen": rep.avg_unseen}
        present = [name for name, val in averages.items() if val is not None]
        assert present == ([] if split == "source" else [f"avg_{split}"])
        assert [line for line in lines if line.startswith("avg_")] == \
            [f"{name},,{averages[name]!r},," for name in present]

    def test_source_only_matches_direct_computation(self, bench, backbone):
        rep = hn.evaluate(None, backbone, bench, "source", source_only=True)
        scores = []
        for s in bench.splits["source_test"]:
            pred = sd.backbone_forward(backbone, s.image).array[:, :, 0]
            scores.append(hn.dice_iou(pred[None] > 0.5, s.mask[None])[0][0])
        assert rep.per_domain["source"]["dice"] == pytest.approx(np.mean(scores), abs=1e-12)

    @pytest.mark.parametrize("split", ["seen", "unseen", "source"])
    def test_csv_lines_bytes(self, bench, backbone, split):
        """One row per domain of the split, in the split's group, then the
        group's mean Dice; the source group has no mean."""
        scores: dict = {}
        for s in bench.splits[hn.SPLIT_NAMES[split]]:
            pred = sd.backbone_forward(backbone, s.image).array[:, :, 0]
            dice, iou = hn.dice_iou(pred[None] > 0.5, s.mask[None])
            scores.setdefault(s.domain_id, []).append((dice[0], iou[0]))
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

    def test_perfbench_variants_are_the_harness_builders(self, monkeypatch):
        """perfbench's ablate32 workload spells out its own copies of the
        ablation cells and of the slot counts 1 and 300; they must stay the
        configs ``ablation_variant`` and ``slot_variant`` build."""
        path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
        spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
        workloads = importlib.util.module_from_spec(spec)
        monkeypatch.setattr(sys, "dont_write_bytecode", True)  # read perfbench/, write nothing
        monkeypatch.setitem(sys.modules, spec.name, workloads)
        spec.loader.exec_module(workloads)
        base = hn.TrainConfig()
        expected = ([hn.ablation_variant(base, *cell) for cell in hn.ABLATION_CELLS]
                    + [hn.slot_variant(base, j) for j in (1, 300)])
        assert [job.config for job in workloads.WORKLOADS["ablate32"].jobs] == expected


class TestActivations:
    def test_top_slot_count_and_determinism(self, tmp_path):
        state = pr.init_state(ApexConfig(seed=0), 32, 32, 1)  # J = 150
        img, mask = sd._base_scene(0, 32, 32)
        img = img[:, :, None]
        samples = [sd.DomainSample("s0", "A", img, mask, 0),
                   sd.DomainSample("s1", "A", img, mask, 0),
                   sd.DomainSample("s2", "B", img * 0.8, mask, 0)]
        addressing, member = hn.top_slot_sets(state, samples)
        assert addressing.shape == member.shape == (3, 150)
        assert member.sum(axis=1).tolist() == [15, 15, 15]
        assert (member[0] == member[1]).all()  # identical samples, identical slots

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
        member = np.array([[0, 1, 1, 0], [0, 0, 1, 1], [0, 0, 0, 0], [0, 0, 0, 0]], dtype=bool)
        jac = hn.jaccard_matrix(member)
        assert jac[0, 1] == jac[1, 0] == 1.0 / 3.0
        assert jac[2, 3] == 1.0  # two empty sets
        assert jac[0, 2] == 0.0 and np.diag(jac).tolist() == [1.0] * 4

    @pytest.mark.parametrize("label, config", [
        ("default", hn.TrainConfig()),
        ("slots_300", hn.slot_variant(hn.TrainConfig(), 300)),
    ])
    @pytest.mark.parametrize("order", ["splits", "shuffled"])
    def test_export_matches_pair_by_pair_reference(self, bench, backbone, tmp_path,
                                                   label, config, order):
        # five domains: both seen, both unseen and the source
        samples = [s for split in ("test_seen", "test_unseen", "source_test")
                   for s in bench.splits[split]]
        if order == "shuffled":
            samples = [samples[i] for i in np.random.default_rng(0).permutation(len(samples))]
        assert len({s.domain_id for s in samples}) == 5
        state, _ = hn.train(config, bench, backbone, seed=0)
        summary = hn.export_activations(state, samples, tmp_path / "export")
        expected = oracles.export_activations(state, samples, tmp_path / "reference")
        assert repr(summary) == repr(expected)
        for name in ("activations.csv", "overlap_matrix.csv", "activations.pgm"):
            written = (tmp_path / "export" / name).read_bytes()
            assert written == (tmp_path / "reference" / name).read_bytes(), (label, name)

    @pytest.mark.parametrize("domains, expected", [
        ("AAA", (4.0 / 9.0, None)),   # one domain: no cross-domain pair
        ("ABC", (None, 4.0 / 9.0)),   # one sample per domain: no within-domain pair
        ("A", (None, None)),
        ("", (None, None)),
        ("AAB", (1.0 / 3.0, 0.5)),
    ])
    def test_overlap_summary_of_a_group_without_pairs_is_none(self, domains, expected):
        tops = [[0, 1], [1, 2], [0, 1, 2, 3]]
        member = np.zeros((len(domains), 4), dtype=bool)
        for row, top in zip(member, tops):
            row[top] = True
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # np.mean([]) used to warn and give NaN
            summary = hn.slot_overlap_summary(list(domains), hn.jaccard_matrix(member))
        assert summary == pytest.approx(expected)
        assert [v is None for v in summary] == [v is None for v in expected]


class TestRunResult:
    def test_averages_are_the_reports_means_and_their_mean(self, bench, backbone):
        res = hn.train_and_eval(TINY_TRAIN, bench, backbone, seed=0)
        seen, unseen, total = res.averages
        assert seen == np.mean([row["dice"] for row in res.seen.per_domain.values()])
        assert unseen == np.mean([row["dice"] for row in res.unseen.per_domain.values()])
        assert f"avg_seen,,{seen!r},," in res.seen.csv_lines()
        assert f"avg_unseen,,{unseen!r},," in res.unseen.csv_lines()
        assert total == np.mean([seen, unseen])


def test_library_functions_all_run(bench, backbone, tmp_path):
    """Every public function of ``numerics`` and ``losses`` is called by a
    training run with its evaluation, a checkpoint round trip and an
    activation export; reference chains that only tests call belong in
    ``tests/oracles.py``."""
    public = {f"{mod.__name__}.{name}": inspect.unwrap(fn).__code__
              for mod in (nm, losses) for name, fn in vars(mod).items()
              if inspect.isfunction(fn) and fn.__module__ == mod.__name__
              and not name.startswith("_")}
    called = set()

    def probe(frame, event, _arg):
        if event == "call":
            called.add(frame.f_code)

    previous = sys.getprofile(), threading.getprofile()
    sys.setprofile(probe)
    threading.setprofile(probe)
    try:
        res = hn.train_and_eval(TINY_TRAIN, bench, backbone, seed=0)
        pr.save_state(res.state, tmp_path / "ckpt")
        hn.export_activations(pr.load_state(tmp_path / "ckpt"),
                              bench.splits["test_unseen"], tmp_path / "viz")
    finally:
        sys.setprofile(previous[0])
        threading.setprofile(previous[1])
    assert sorted(name for name, code in public.items() if code not in called) == []


def test_evaluations_copy_no_weight_and_make_the_memory_norms_once(bench, backbone,
                                                                   monkeypatch):
    # linear reads each weight as it is stored, so no array is derived from
    # a weight; the first chunk makes the memory's norms and unit rows, and
    # every later chunk and evaluation reuses them
    state = pr.init_state(ApexConfig(), 32, 32, 1)
    memory_norms = []
    row_norms = nm._row_norms

    def counting_row_norms(v):
        if v is state.memory.array:
            memory_norms.append(v)
        return row_norms(v)

    monkeypatch.setattr(nm, "_row_norms", counting_row_norms)
    for split in ("seen", "unseen"):
        hn.evaluate(state, backbone, bench, split)
    weights = [w for mlp in (state.encoder, state.decoder) for w, _b in mlp.layers]
    assert len(weights) == 8 and all(w._derived == {} for w in weights)
    assert len(memory_norms) == 1


def drop_derived_arrays(state) -> None:
    """Give every parameter its own array again, which empties its cache."""
    for node, _view in state.tensor_views().values():
        node.set(node.array)


def force_pool(monkeypatch, cpus: int = 4) -> None:
    """Share 32x32 chunks out over threads, as if the machine had ``cpus``."""
    monkeypatch.setattr(nm, "PARALLEL_MIN_PIXELS", 32 * 32)
    monkeypatch.setattr(nm, "_usable_cpus", lambda: cpus)


class TestChunkMap:
    """``prompting.map_chunks`` at 32x32 with the pool forced on: chunks of 5
    run on up to 4 threads, and every result must equal the inline one."""

    @pytest.fixture(autouse=True)
    def small_chunks(self, monkeypatch):
        monkeypatch.setattr(pr, "CHUNK", 5)

    @pytest.fixture
    def pool(self, monkeypatch):
        force_pool(monkeypatch)

    @pytest.fixture(scope="class")
    def state(self, bench, backbone):
        return hn.train(TINY_TRAIN, bench, backbone, seed=0)[0]

    @staticmethod
    def reports(state, backbone, bench) -> list:
        return [hn.evaluate(state, backbone, bench, "seen").csv_lines(),
                hn.evaluate(state, backbone, bench, "unseen").csv_lines(),
                hn.evaluate(None, backbone, bench, "source", source_only=True).csv_lines()]

    @staticmethod
    def top_slots(state, samples) -> list:
        return [array.tobytes() for array in hn.top_slot_sets(state, samples)]

    @staticmethod
    def threads_used(samples) -> set:
        idents = set()
        pr.map_chunks(lambda chunk, images: idents.add(threading.get_ident()), samples)
        return idents

    def test_pool_really_runs_threads_and_none_outlive_it(self, bench, pool):
        before = threading.active_count()
        assert len(self.threads_used(bench.splits["test_seen"])) > 1
        assert threading.active_count() == before

    def test_inline_below_the_cut_off(self, bench, monkeypatch):
        monkeypatch.setattr(nm, "_usable_cpus", lambda: 4)
        assert 32 * 32 < nm.PARALLEL_MIN_PIXELS
        assert self.threads_used(bench.splits["test_seen"]) == {threading.get_ident()}

    def test_evaluate_matches_inline(self, state, backbone, bench, monkeypatch):
        inline = self.reports(state, backbone, bench)
        force_pool(monkeypatch)
        assert self.reports(state, backbone, bench) == inline

    def test_evaluate_identical_under_forced_interleaving(self, state, backbone, bench,
                                                          monkeypatch):
        # more workers than this machine's cores, switching threads as often as
        # the interpreter allows: a lost or misplaced chunk would change a report
        inline = self.reports(state, backbone, bench)
        force_pool(monkeypatch, cpus=16)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runs = [self.reports(state, backbone, bench) for _ in range(3)]
        finally:
            sys.setswitchinterval(interval)
        assert runs == [inline] * 3

    @pytest.mark.parametrize("cpus", [2, 16])
    def test_evaluate_from_cold_caches_matches_inline(self, state, backbone, bench,
                                                      monkeypatch, cpus):
        # every evaluation starts with no derived array: the shares that
        # miss at once each make their own, which must not change a byte
        inline = self.reports(state, backbone, bench)
        top = self.top_slots(state, bench.splits["test_unseen"])
        force_pool(monkeypatch, cpus=cpus)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        runs = []
        try:
            for split in ("seen", "unseen"):
                drop_derived_arrays(state)
                runs.append(hn.evaluate(state, backbone, bench, split).csv_lines())
            drop_derived_arrays(state)
            pooled_top = self.top_slots(state, bench.splits["test_unseen"])
        finally:
            sys.setswitchinterval(interval)
        assert runs == inline[:2] and pooled_top == top

    def test_fit_input_center_matches_inline(self, state, bench, monkeypatch):
        samples = bench.splits["train_seen"]
        pr.fit_input_center(state, samples)
        inline = state.input_center.tobytes()
        force_pool(monkeypatch)
        pr.fit_input_center(state, samples)
        assert state.input_center.tobytes() == inline

    def test_top_slot_sets_match_inline(self, state, bench, monkeypatch):
        samples = bench.splits["test_unseen"]
        inline = self.top_slots(state, samples)
        force_pool(monkeypatch)
        assert self.top_slots(state, samples) == inline

    def test_results_in_chunk_order_when_a_later_chunk_finishes_first(self, bench, pool):
        finished = []

        def fn(chunk, images):
            if chunk[0] is samples[0]:
                time.sleep(0.2)  # chunk 0, on the caller, ends last
            finished.append(chunk[0].sample_id)
            return [s.sample_id for s in chunk]

        samples = bench.splits["test_seen"]
        results = pr.map_chunks(fn, samples)
        assert finished[-1] == samples[0].sample_id
        assert [sid for ids in results for sid in ids] == [s.sample_id for s in samples]

    def test_nan_image_raises_the_inline_error_from_a_worker(self, state, bench, monkeypatch):
        samples = list(bench.splits["test_seen"])
        bad = samples[5].image.copy()  # chunk 1: the first chunk of worker share 1
        bad[3, 4, 0] = np.nan
        samples[5] = replace(samples[5], image=bad)
        with pytest.raises(NonFiniteError) as inline:
            hn.top_slot_sets(state, samples)
        force_pool(monkeypatch)
        raised_in = []
        forward = pr.forward_batch

        def recording(state, images):
            try:
                return forward(state, images)
            except NonFiniteError:
                raised_in.append(threading.get_ident())
                raise

        monkeypatch.setattr(pr, "forward_batch", recording)
        with pytest.raises(NonFiniteError) as pooled:
            hn.top_slot_sets(state, samples)
        assert str(pooled.value) == str(inline.value) == "tensor values must all be finite"
        assert raised_in and threading.get_ident() not in raised_in

    @pytest.mark.parametrize("split,source_only", [("seen", False), ("source", True)])
    def test_nan_image_in_evaluate_raises_inline_and_from_a_worker(
            self, state, backbone, bench, monkeypatch, split, source_only):
        name = hn.SPLIT_NAMES[split]
        samples = list(bench.splits[name])
        bad = samples[7].image.copy()  # chunk 1
        bad[0, 0, 0] = np.nan
        samples[7] = replace(samples[7], image=bad)
        broken = replace(bench, splits={**bench.splits, name: samples})
        messages = []
        for pooled in (False, True):
            if pooled:
                force_pool(monkeypatch)
            with pytest.raises(NonFiniteError) as exc:
                hn.evaluate(state, backbone, broken, split, source_only=source_only)
            messages.append(str(exc.value))
        assert messages == ["tensor values must all be finite"] * 2

    def test_forward_passes_build_no_graph_on_every_thread(self, state, backbone, bench,
                                                           pool, monkeypatch):
        modes = []
        forward = pr.forward_batch

        def recording(state, images):
            nodes = forward(state, images)
            modes.append((threading.get_ident(), nm.grad_enabled(), nodes.output._parents))
            return nodes

        monkeypatch.setattr(pr, "forward_batch", recording)
        hn.evaluate(state, backbone, bench, "unseen")
        hn.top_slot_sets(state, bench.splits["test_seen"])
        assert len({ident for ident, _, _ in modes}) > 1
        assert all(enabled is False and parents == () for _, enabled, parents in modes)
        assert nm.grad_enabled()

    def test_caller_errstate_reaches_the_workers(self, bench, pool):
        seen = {}

        def fn(chunk, images):
            seen[threading.get_ident()] = np.geterr()

        with np.errstate(over="raise", divide="ignore", invalid="warn", under="raise"):
            expected = np.geterr()
            pr.map_chunks(fn, bench.splits["test_seen"])
        assert len(seen) > 1 and all(err == expected for err in seen.values())
