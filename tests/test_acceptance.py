"""Acceptance criteria, one test per criterion at its stated tolerance.

Each test prints one PASS line (visible with ``pytest -s`` or in the
captured-output section). Heavy artifacts (the default benchmark, the
3-seed default training, ablation cells, the slot sweep) are session
fixtures shared across criteria. Run:

    pytest tests/test_acceptance.py -s
"""

import hashlib
import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from apex import cli, harness as hn, losses, numerics as nm, prompting as pr
from apex import spectral as sp, synthdata as sd

import oracles
from test_numerics import OP_CASES, _random_shape
from test_spectral import naive_dft2

SEEDS = (0, 1, 2)


def report(num: int, detail: str) -> None:
    print(f"\n[criterion {num:2d}] PASS  {detail}")


@pytest.fixture(scope="session")
def default_bench():
    return sd.build_benchmark(sd.BenchmarkConfig(), seed=0)


@pytest.fixture(scope="session")
def default_backbone(default_bench):
    return sd.backbone_calibrate(default_bench.splits["source_cal"])


@pytest.fixture(scope="session")
def source_only(default_bench, default_backbone):
    return {
        "source": hn.evaluate(None, default_backbone, default_bench, "source",
                              source_only=True),
        "seen": hn.evaluate(None, default_backbone, default_bench, "seen",
                            source_only=True),
        "unseen": hn.evaluate(None, default_backbone, default_bench, "unseen",
                              source_only=True),
    }


@pytest.fixture(scope="session")
def default_runs(default_bench, default_backbone):
    """Three trained default-config runs; records the total wall time."""
    config = hn.TrainConfig()
    t0 = time.time()
    runs = {seed: hn.train_and_eval(config, default_bench, default_backbone, seed)
            for seed in SEEDS}
    return {"runs": runs, "wall_seconds": time.time() - t0, "config": config}


@pytest.fixture(scope="session")
def ablation_cells(default_bench, default_backbone, default_runs):
    """3-seed mean total Dice per (memory, lfc) cell; (on, on) reuses the
    default runs."""
    config = default_runs["config"]
    cells = {("on", "on"): float(np.mean(
        [default_runs["runs"][s].averages[2] for s in SEEDS]))}
    for mem_flag, lfc_flag in (("on", "off"), ("off", "on"), ("off", "off")):
        variant = hn.ablation_variant(config, mem_flag, lfc_flag)
        totals = [hn.train_and_eval(variant, default_bench, default_backbone, s).averages[2]
                  for s in SEEDS]
        cells[(mem_flag, lfc_flag)] = float(np.mean(totals))
    return cells


@pytest.fixture(scope="session")
def sweep_means(default_bench, default_backbone, default_runs):
    config = default_runs["config"]
    means = {150: float(np.mean([default_runs["runs"][s].averages[2] for s in SEEDS]))}
    for j in (1, 25, 300):
        variant = hn.slot_variant(config, j)
        totals = [hn.train_and_eval(variant, default_bench, default_backbone, s).averages[2]
                  for s in SEEDS]
        means[j] = float(np.mean(totals))
    return means


def test_criterion_1_numeric_core():
    """Autodiff vs central finite differences, >=100 cases per op, <1e-4."""
    t0 = time.time()
    rng = np.random.default_rng(1234)
    worst = 0.0
    for name, build_op in sorted(OP_CASES.items()):
        for _ in range(100):
            if name == "matmul":
                m, k, n = rng.integers(2, 5, size=3)
                inputs = [rng.standard_normal((m, k)), rng.standard_normal((k, n))]
            elif name == "transpose":
                inputs = [rng.standard_normal((3, 4))]
            elif name == "cosine":
                inputs = [rng.standard_normal(4) + 0.1, rng.standard_normal(4) + 0.1]
            elif name in ("log", "sqrt"):
                inputs = [rng.random(_random_shape(rng)) + 0.5]
            elif name == "div":
                shape = _random_shape(rng)
                inputs = [rng.standard_normal(shape), rng.random(shape) + 0.5]
            elif name in ("add", "sub", "mul"):
                shape = _random_shape(rng)
                inputs = [rng.standard_normal(shape), rng.standard_normal(shape)]
            elif name == "max":
                inputs = [np.linspace(0.0, 1.0, 6) + rng.standard_normal(6) * 0.01]
            else:
                inputs = [rng.standard_normal(_random_shape(rng))]

            def build(leaves):
                out = build_op(leaves)
                return nm.reduce_sum(oracles.mul(out, out)) if out.array.ndim else out

            err = oracles.gradcheck(build, inputs)
            worst = max(worst, err)
            assert err < 1e-4, f"{name}: {err}"
    elapsed = time.time() - t0
    assert elapsed < 60.0
    report(1, f"{len(OP_CASES)} ops x 100 cases, worst rel err {worst:.2e}, "
              f"{elapsed:.1f}s")


def test_criterion_2_spectral_correctness():
    t0 = time.time()
    rng = np.random.default_rng(99)
    worst = 0.0
    for side in (8, 16):
        img = rng.random((side, side, 1))
        spec = sp.fft2(img)
        oracle = np.fft.fftshift(naive_dft2(img[:, :, 0]))
        worst = max(worst, float(np.max(np.abs(spec.to_complex()[:, :, 0] - oracle))))
        assert worst < 1e-9
        assert np.max(np.abs(sp.ifft2(spec) - img)) < 1e-9  # roundtrip
        lhs = np.sum(img ** 2)
        rhs = np.sum(spec.amplitude ** 2) / (side * side)
        assert abs(lhs - rhs) / lhs < 1e-6  # Parseval

    img = rng.random((16, 16, 1))
    spec = sp.fft2(img)
    reg = sp.LowFreqRegion.plan(16, 16, 1, 0.25)
    raw = np.exp(rng.standard_normal(reg.flat_size) * 0.4)
    sym = sp.symmetrize_multiplier(nm.as_node(raw), reg)
    pm = sp.PromptMultiplier(region=reg,
                             values=sym.array.reshape(reg.side, reg.side, 1))
    after = sp.apply_prompt(spec, pm)
    outside = ~oracles.mask(reg)
    assert np.array_equal(after.amplitude[outside], spec.amplitude[outside])
    c = np.fft.ifft2(np.fft.ifftshift(after.to_complex(), axes=(0, 1)), axes=(0, 1))
    assert np.max(np.abs(c.imag)) < 1e-9  # realness
    prompted = sp.ifft2(after)
    back = sp.fft2(prompted)
    significant = spec.amplitude > 1e-9
    delta = np.abs(back.phase - spec.phase)
    delta = np.minimum(delta, 2.0 * np.pi - delta)
    assert np.max(delta[significant]) < 1e-6  # phase preservation
    elapsed = time.time() - t0
    assert elapsed < 60.0
    report(2, f"DFT oracle err {worst:.2e}; roundtrip/Parseval/phase/"
              f"high-freq/realness all hold, {elapsed:.1f}s")


def test_criterion_3_addressing_semantics():
    rng = np.random.default_rng(7)
    mem = nm.as_node(nm.orthogonal_rows(6, 12, seed=0))
    for _ in range(100):
        z = rng.standard_normal(12) * 10.0 ** rng.integers(-3, 4)
        a = pr.address(mem, nm.as_node(z[None])).array[0]
        assert np.all(a >= -1.0) and np.all(a <= 1.0)
        assert np.array_equal(a, pr.address(mem, nm.as_node(4.0 * z[None])).array[0])

    one_hot = pr.address(mem, nm.as_node(mem.array[2:3].copy())).array[0]
    expected = np.zeros(6)
    expected[2] = 1.0
    assert np.max(np.abs(one_hot - expected)) < 1e-9
    assert np.allclose(pr.retrieve(mem, nm.as_node(expected[None])).array[0],
                       mem.array[2])
    assert np.array_equal(pr.retrieve(mem, nm.as_node(np.zeros((1, 6)))).array[0],
                          np.zeros(12))

    c = oracles.cosine_similarity(nm.as_node([1.0, 0.0]),
                                  nm.as_node(np.array([1.0, 1.0]) / math.sqrt(2.0)))
    assert abs(c.item() - 1.0 / math.sqrt(2.0)) < 1e-9
    mem2 = nm.as_node(np.array([[1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0)],
                                [0.0, 1.0]]))
    a2 = pr.address(mem2, nm.as_node(np.array([[1.0, 0.0]]))).array[0]
    assert abs(a2[0] - 0.7071) < 5e-5 and abs(a2[1]) < 1e-12
    report(3, "cosine range, scale invariance, one-hot/zero retrieval, "
              "worked examples")


def test_criterion_4_memory_gradient_semantics():
    """The memory's autodiff gradient is the attention-weighted rule
    dL/dB = a^T g (addressing held constant), and differs from the gradient
    with the addressing path live."""
    rng = np.random.default_rng(11)
    cfg = pr.ApexConfig(feature_dim=16, slot_count=8, encoder_hidden=(10, 10, 10),
                        decoder_hidden=(10, 10, 10), head_hidden=(10,), beta=0.375, aux_dim=4)
    worst = 0.0
    for seed in range(20):
        state = pr.init_state(replace(cfg, seed=seed), 8, 8, 1)
        for w, _b in state.decoder.layers:  # a zero final layer passes no gradient
            w.set(rng.standard_normal(w.shape) * 0.05)
        nodes = pr.forward_batch(state, rng.random((3, 8, 8, 1)))
        nm.backward(nm.reduce_sum(oracles.mul(nodes.output, nm.as_node(rng.random((3, 8, 8, 1))))))
        a, g = nodes.addressing.array, nodes.prompt_feature.grad
        worst = max(worst, float(np.max(np.abs(a.T @ g - state.memory.grad))))
        assert worst < 1e-10

    mem_full = nm.parameter(rng.standard_normal((5, 7)))
    z = rng.standard_normal((1, 7))
    a_full = pr.address(mem_full, nm.as_node(z))
    zp = pr.retrieve(mem_full, a_full)
    nm.backward(nm.reduce_sum(oracles.mul(zp, nm.as_node(rng.standard_normal((1, 7))))))
    gap = float(np.max(np.abs(a_full.array.T @ zp.grad - mem_full.grad)))
    assert gap > 1e-6
    report(4, f"explicit rule vs autodiff err {worst:.1e}; "
              f"full-graph gap {gap:.2e}")


def test_criterion_5_lfc_semantics():
    v1 = oracles.lfc_term(nm.as_node(1.0), nm.as_node([0.0]), tau=1.0).item()
    assert abs(v1 - (-1.0)) < 1e-10
    v2 = oracles.lfc_term(nm.as_node(0.3), nm.as_node([0.3]), tau=0.7).item()
    assert abs(v2) < 1e-10
    v3 = oracles.lfc_term(nm.as_node(0.8), nm.as_node([0.2, -0.4]), tau=0.5).item()
    oracle = -math.log(math.exp(1.6) / (math.exp(0.4) + math.exp(-0.8)))
    assert abs(v3 - oracle) < 1e-10

    base = oracles.lfc_term(nm.as_node(0.5), nm.as_node([0.1, 0.2]), tau=0.5).item()
    assert oracles.lfc_term(nm.as_node(0.55), nm.as_node([0.1, 0.2]), tau=0.5).item() < base
    assert oracles.lfc_term(nm.as_node(0.5), nm.as_node([0.15, 0.2]), tau=0.5).item() > base

    angles = [0.0, 0.15, 1.9, 2.2]
    emb = np.array([[math.cos(t), math.sin(t)] for t in angles])
    labels = ["x", "x", "y", "y"]
    positives = np.array([1, 0, 3, 2])

    def build(leaves):
        return losses.lfc_loss(leaves[0], labels, 0.5, positives=positives)

    err = oracles.gradcheck(build, [emb])
    assert err < 1e-4
    report(5, f"worked values within 1e-10; monotone; gradient err {err:.2e}")


def test_criterion_6_identity_at_init_and_frozen_backbone(
        default_bench, default_backbone, request):
    state = pr.init_state(pr.ApexConfig(), 32, 32, 1)
    img = sd._base_scene(17, 32, 32)[0][:, :, None]
    out = pr.forward_batch(state, img[None]).output.array[0]
    drift = float(np.max(np.abs(out - img)))
    assert drift < 1e-9

    before = hn.evaluate(None, default_backbone, default_bench, "source",
                         source_only=True)
    digest_before = default_backbone.digest()
    request.getfixturevalue("default_runs")  # forces the 3-seed training
    after = hn.evaluate(None, default_backbone, default_bench, "source",
                        source_only=True)
    assert default_backbone.digest() == digest_before
    assert before.csv_lines() == after.csv_lines()
    report(6, f"init drift {drift:.1e}; source-only eval bit-identical around "
              f"training; backbone hash stable")


def test_criterion_7_desk_scale_adaptation(source_only, default_runs):
    source_dice = source_only["source"].per_domain["source"]["dice"]
    for split in ("seen", "unseen"):
        for dom, row in source_only[split].per_domain.items():
            assert row["dice"] <= source_dice - 10.0, (dom, row["dice"])

    runs = default_runs["runs"]
    seen_mean = float(np.mean([runs[s].seen.avg_seen for s in SEEDS]))
    unseen_mean = float(np.mean([runs[s].unseen.avg_unseen for s in SEEDS]))
    base_seen = source_only["seen"].avg_seen
    base_unseen = source_only["unseen"].avg_unseen
    assert seen_mean >= base_seen + 5.0
    assert unseen_mean >= base_unseen
    wall = default_runs["wall_seconds"]
    assert wall < 900.0
    report(7, f"source {source_dice:.1f}; source-only seen {base_seen:.1f} / "
              f"unseen {base_unseen:.1f}; trained seen {seen_mean:.1f} / "
              f"unseen {unseen_mean:.1f}; 3-seed wall {wall:.0f}s")


def test_criterion_8_ablation_directions(ablation_cells):
    mem_on = ablation_cells[("on", "on")]
    mem_off = ablation_cells[("off", "on")]
    lfc_on = ablation_cells[("on", "on")]
    lfc_off = ablation_cells[("on", "off")]
    assert mem_on > mem_off
    assert lfc_on > lfc_off
    report(8, f"memory {mem_on:.2f} > {mem_off:.2f}; "
              f"contrastive {lfc_on:.2f} > {lfc_off:.2f} (3-seed mean total Dice)")


def test_criterion_9_slot_saturation(sweep_means):
    gain_small = sweep_means[25] - sweep_means[1]
    gain_large = sweep_means[150] - sweep_means[300]
    assert gain_large < gain_small
    report(9, "sweep " + " ".join(f"J={j}:{sweep_means[j]:.1f}" for j in sorted(sweep_means))
              + f"; marginal {gain_large:.2f} < {gain_small:.2f}")


def test_criterion_10_slot_overlap(default_bench, default_runs):
    margins = []
    for seed in SEEDS:
        state = default_runs["runs"][seed].state
        samples = default_bench.splits["test_unseen"]
        rows = hn.top_slot_sets(state, samples[:40] + samples[-40:])
        within, cross = hn.slot_overlap_summary(rows)
        assert within > cross, (seed, within, cross)
        margins.append((within, cross))
    detail = "; ".join(f"seed{s}: {w:.2f}>{c:.2f}" for s, (w, c) in zip(SEEDS, margins))
    report(10, detail)


REDUCED_CONFIG = """
train_per_domain = 8
test_per_domain = 4
source_train = 12
source_test = 4
feature_dim = 16
slot_count = 8
encoder_hidden = 8,8,8
decoder_hidden = 8,8,8
head_hidden = 8
aux_dim = 4
epochs = 1
samples_per_domain = 2
seeds = 0
"""


def _sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_criterion_11_cli_reproducibility(tmp_path):
    cfg = tmp_path / "reduced.cfg"
    cfg.write_text(REDUCED_CONFIG)
    hashes = {}
    for tag in ("a", "b"):
        bench_dir = tmp_path / f"bench_{tag}"
        run_dir = tmp_path / f"run_{tag}"
        eval_csv = tmp_path / f"eval_{tag}.csv"
        assert cli.main(["gen-bench", "--config", str(cfg), "--seed", "9",
                         "--out", str(bench_dir)]) == 0
        assert cli.main(["train", "--config", str(cfg), "--bench", str(bench_dir),
                         "--out", str(run_dir)]) == 0
        assert cli.main(["eval", "--ckpt", str(run_dir / "seed0"),
                         "--bench", str(bench_dir), "--split", "unseen",
                         "--out", str(eval_csv)]) == 0
        files = [bench_dir / "manifest.csv", bench_dir / "train_seen_images.apxt",
                 run_dir / "metrics.csv", run_dir / "seed0" / "steps.csv",
                 run_dir / "seed0" / "memory.apxt",
                 run_dir / "seed0" / "decoder.w3.apxt", eval_csv]
        hashes[tag] = [_sha(p) for p in files]
    assert hashes["a"] == hashes["b"]
    report(11, f"{len(hashes['a'])} artifacts byte-identical across reruns")
