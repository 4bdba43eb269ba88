"""Config parsing/echo and end-to-end CLI runs at reduced scale, including
byte-identical rerun checks."""

import dataclasses
import gc
import hashlib
import os
import shutil
import subprocess
import sys
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

import apex
from apex import cli, config as cfgmod, harness, synthdata, tensorio
from apex.errors import ConfigError
from apex.harness import TrainConfig
from apex.prompting import ApexConfig
from apex.synthdata import BenchmarkConfig

TINY_CONFIG = """
# reduced scale for CLI tests
image_size = 32
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


class TestParse:
    def test_comments_and_blanks(self):
        kv = cfgmod.parse_kv("# hi\n\na = 1  # trailing\nb = two\n")
        assert kv == {"a": "1", "b": "two"}

    def test_malformed_line(self):
        with pytest.raises(ConfigError):
            cfgmod.parse_kv("just some words\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError):
            cfgmod.parse_kv("a = 1\na = 2\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            cfgmod.build_configs({"feature_dm": "256"})

    def test_domain_override(self):
        train, bench = cfgmod.build_configs(
            {"domain_A_gain": "0.5", "domain_C_shading": "0:1:0.2;1:1:0.1"})
        assert bench.seen[0].gain == 0.5
        assert bench.unseen[0].shading == ((0, 1, 0.2), (1, 1, 0.1))

    def test_unknown_domain_rejected(self):
        with pytest.raises(ConfigError):
            cfgmod.build_configs({"domain_Z_gain": "0.5"})

    def test_boolean_parsing(self):
        train, _ = cfgmod.build_configs({"use_memory": "false", "lfc_enabled": "true"})
        assert train.apex.use_memory is False
        assert train.lfc_enabled is True
        with pytest.raises(ConfigError):
            cfgmod.build_configs({"use_memory": "yes"})

    def test_byte_order_mark_ignored(self, tmp_path):
        # what some editors write at the start of a UTF-8 file
        plain, marked = tmp_path / "plain.cfg", tmp_path / "marked.cfg"
        plain.write_bytes(TINY_CONFIG.lstrip().encode())
        marked.write_bytes(b"\xef\xbb\xbf" + TINY_CONFIG.lstrip().encode())
        kv = cfgmod.load_file(marked)
        assert kv == cfgmod.load_file(plain)
        assert "image_size" in kv
        assert cfgmod.build_configs(kv) == cfgmod.build_configs(cfgmod.load_file(plain))

    def test_echo_round_trips(self):
        kv = cfgmod.parse_kv(TINY_CONFIG)
        train, bench = cfgmod.build_configs(kv)
        echoed = cfgmod.parse_kv("\n".join(cfgmod.echo_lines(train, bench)))
        train2, bench2 = cfgmod.build_configs(echoed)
        assert train2 == train
        assert bench2 == bench

    def test_echo_covers_given_keys(self):
        kv = cfgmod.parse_kv(TINY_CONFIG)
        train, bench = cfgmod.build_configs(kv)
        echoed = cfgmod.parse_kv("\n".join(cfgmod.echo_lines(train, bench)))
        for key, val in kv.items():
            assert key in echoed
            assert echoed[key].replace(" ", "") == val.replace(" ", "")

    def test_echo_spells_domains_as_the_manifest_does(self):
        train, bench = cfgmod.build_configs({"domain_A_shading": "0:1:0.1;1:1:3",
                                             "domain_C_noise_sigma": "1e-5"})
        lines = cfgmod.echo_lines(train, bench)
        specs = (bench.source,) + bench.seen + bench.unseen
        domain_lines = [line for line in lines if line.startswith("domain_")]
        assert [line.split(" = ")[0] for line in domain_lines] == [
            f"domain_{spec.domain_id}_{name}" for spec in specs
            for name in ("gain", "bias", "noise_sigma", "shading")]
        for spec in specs:
            gain, bias, shading, noise = spec.manifest_fields().split(",")
            assert (f"domain_{spec.domain_id}_gain = {gain}" in lines
                    and f"domain_{spec.domain_id}_bias = {bias}" in lines
                    and f"domain_{spec.domain_id}_noise_sigma = {noise}" in lines
                    and f"domain_{spec.domain_id}_shading = {shading}" in lines)
        assert "domain_A_shading = 0:1:0.1;1:1:3.0" in lines


# The dataclass fields that are not config keys, spelled out by name.
NOT_KEYS = {ApexConfig: {"seed"}, TrainConfig: {"apex"},
            BenchmarkConfig: {"source", "seen", "unseen"}}


def _non_default(field: dataclasses.Field) -> str:
    default = field.default
    if field.type == "bool":
        return "false" if default else "true"
    if field.type == "tuple":
        return ",".join(str(v) for v in default + (default[-1] + 1,))  # seeds stay distinct
    if field.type == "int":
        return str(default + 2)
    return str(default / 2)


class TestSchema:
    """Config keys are the dataclass fields, so a new field cannot be left out."""

    @pytest.mark.parametrize("cls, field", [
        pytest.param(cls, f, id=f"{cls.__name__}.{f.name}")
        for cls, skip in NOT_KEYS.items()
        for f in dataclasses.fields(cls) if f.name not in skip])
    def test_every_field_parses_and_echoes(self, cls, field):
        text = _non_default(field)
        train, bench = cfgmod.build_configs({field.name: text})
        owner = {ApexConfig: train.apex, TrainConfig: train, BenchmarkConfig: bench}[cls]
        value = getattr(owner, field.name)
        assert value != field.default
        assert cfgmod.format_value(value) == text
        echoed = cfgmod.parse_kv("\n".join(cfgmod.echo_lines(train, bench)))
        assert echoed[field.name] == text

    def test_echo_lists_exactly_the_fields(self):
        train, bench = cfgmod.build_configs({})
        keys = [line.split(" = ")[0] for line in cfgmod.echo_lines(train, bench)]
        expected = [f.name for cls, skip in NOT_KEYS.items()
                    for f in dataclasses.fields(cls) if f.name not in skip]
        assert keys[:len(expected)] == expected
        assert all(k.startswith("domain_") for k in keys[len(expected):])

    def test_excluded_fields_are_not_keys(self):
        for key in ("seed", "apex", "source", "seen", "unseen", "encoder_final_scale"):
            with pytest.raises(ConfigError, match="unknown config keys"):
                cfgmod.build_configs({key: "1"})

    @pytest.mark.parametrize("module", ["apex.prompting", "apex.config", "apex.harness",
                                        "apex.cli"])
    def test_module_imports_first(self, module):
        # the import also sets OpenBLAS to one thread, whatever the environment asks
        src = str(Path(apex.__file__).resolve().parents[1])
        code = f"import {module}, apex; b = apex._openblas(); print(b and b[0]())"
        proc = subprocess.run([sys.executable, "-c", code], cwd=src,
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "2"})
        assert proc.returncode == 0, proc.stderr
        if proc.stdout == "None\n":
            pytest.skip("NumPy's bundled OpenBLAS not found")
        assert proc.stdout == "1\n"


def _sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _assert_one_error_line(capsys, *needles: str) -> str:
    """Check that stderr is one ``error:`` line holding every needle; return stdout."""
    captured = capsys.readouterr()
    err = captured.err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    for needle in needles:
        assert needle in err, err
    return captured.out


def _edit_text(path: Path, old: str, new: str) -> None:
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new, 1))


def _edit_bytes(path: Path, old: bytes, new: bytes) -> None:
    raw = path.read_bytes()
    assert old in raw
    path.write_bytes(raw.replace(old, new, 1))


def _nan_into_encoder(ckpt: Path) -> None:
    arr = tensorio.read_tensor(ckpt / "encoder.w0.apxt").copy()
    arr[0, 0] = np.nan
    tensorio.write_tensor(ckpt / "encoder.w0.apxt", arr)


def _flip_last_payload_bit(path: Path) -> None:
    raw = bytearray(path.read_bytes())
    raw[-8] ^= 1  # the lowest mantissa bit of the last value: still finite
    path.write_bytes(bytes(raw))


def _cut_one_row(bench: Path) -> None:
    arr = tensorio.read_tensor(bench / "test_seen_images.apxt")
    tensorio.write_tensor(bench / "test_seen_images.apxt", arr[:-1])


def _value_into(name: str, value: float):
    """A fault that writes ``value`` into one pixel of sample 1 of ``name``."""
    def corrupt(bench: Path) -> None:
        arr = tensorio.read_tensor(bench / name)
        arr[1, 5, 7] = value
        tensorio.write_tensor(bench / name, arr)
    return corrupt


def _short_manifest_row(bench: Path) -> None:
    manifest = bench / "manifest.csv"
    lines = manifest.read_text().splitlines()
    lines[1] = ",".join(lines[1].split(",")[:2])
    manifest.write_text("\n".join(lines) + "\n")


# (fault id, how to break a copy of a trained checkpoint, what the error names)
CKPT_FAULTS = [
    ("nan_tensor", _nan_into_encoder, ("encoder.w0.apxt", "non-finite")),
    ("flipped_payload_bit", lambda d: _flip_last_payload_bit(d / "decoder.b2.apxt"),
     ("decoder.b2.apxt", "digest")),
    ("missing_tensor_name", lambda d: _edit_text(d / "manifest.txt", "head.b0,", ""),
     ("manifest.txt", "head.b0")),
    ("extra_tensor_name", lambda d: _edit_text(d / "manifest.txt", "tensors = ",
                                               "tensors = extra.w0,"),
     ("manifest.txt", "extra.w0")),
    ("wrong_shape", lambda d: tensorio.write_tensor(d / "memory.apxt", np.eye(3)),
     ("memory.apxt", "(3, 3)")),
    ("region_two_ints", lambda d: _edit_text(d / "manifest.txt", "region = 32,32,1",
                                             "region = 32,32"),
     ("manifest.txt", "region")),
    ("region_zero", lambda d: _edit_text(d / "manifest.txt", "region = 32,32,1",
                                         "region = 32,0,1"),
     ("manifest.txt", "region")),
    # another image size with the same square loads; its state must refuse
    # 32x32 images before the square's indices are applied to them
    ("region_taller", lambda d: _edit_text(d / "manifest.txt", "region = 32,32,1",
                                           "region = 320,32,1"),
     ("[batch, 320, 32, 1]", ", 32, 32, 1]")),
    ("region_wider", lambda d: _edit_text(d / "manifest.txt", "region = 32,32,1",
                                          "region = 32,320,1"),
     ("[batch, 32, 320, 1]", ", 32, 32, 1]")),
    ("region_off_by_two", lambda d: _edit_text(d / "manifest.txt", "region = 32,32,1",
                                               "region = 34,32,1"),
     ("[batch, 34, 32, 1]", ", 32, 32, 1]")),
    ("softmax_addressing", lambda d: _edit_text(d / "manifest.txt", "tensors = ",
                                                "softmax_addressing = true\ntensors = "),
     ("manifest.txt", "softmax_addressing")),
    ("manifest_not_ascii", lambda d: _edit_bytes(d / "manifest.txt", b"region = 32,32,1",
                                                 b"region = 32,\xb2,1"),
     ("manifest.txt", "not ascii text")),
    ("negative_seed", lambda d: _edit_text(d / "manifest.txt", "\nseed = 0\n", "\nseed = -1\n"),
     ("manifest.txt", "seed must be >= 0")),
    ("zero_encoder_width", lambda d: _edit_text(d / "manifest.txt", "encoder_hidden = 8,8,8",
                                                "encoder_hidden = 8,0,8"),
     ("manifest.txt", "hidden widths must be >= 1")),
    ("zero_head_width", lambda d: _edit_text(d / "manifest.txt", "head_hidden = 8",
                                             "head_hidden = 0"),
     ("manifest.txt", "hidden widths must be >= 1")),
    ("zero_decoder_width", lambda d: _edit_text(d / "manifest.txt", "decoder_hidden = 8,8,8",
                                                "decoder_hidden = 0"),
     ("manifest.txt", "hidden widths must be >= 1")),
]
# (fault id, how to break a copy of a benchmark directory, what the error names)
BENCH_FAULTS = [
    ("short_tensor", _cut_one_row, ("test_seen_images.apxt", "manifest.csv")),
    ("unknown_split", lambda d: _edit_text(d / "manifest.csv", ",test_seen,", ",test_sean,"),
     ("manifest.csv", "'test_sean'")),
    ("short_row", _short_manifest_row, ("manifest.csv", "line 2")),
    ("unknown_domain", lambda d: _edit_text(d / "manifest.csv", ",A,test_seen,",
                                            ",Z,test_seen,"),
     ("manifest.csv", "'Z'")),
    ("domain_of_other_split", lambda d: _edit_text(d / "manifest.csv", ",A,test_seen,",
                                                   ",C,test_seen,"),
     ("manifest.csv", "'C'")),
    ("bad_bench_seed", lambda d: _edit_text(d / "config.txt", "bench_seed = 4", "bench_seed = x"),
     ("config.txt", "bench_seed", "'x'")),
    ("manifest_not_ascii", lambda d: _edit_bytes(d / "manifest.csv", b",A,test_seen,",
                                                 b",\xc3\x84,test_seen,"),
     ("manifest.csv", "not ascii text")),
    ("config_not_utf8", lambda d: _edit_bytes(d / "config.txt", b"bench_seed = 4",
                                              b"bench_seed = 4\xff"),
     ("config.txt", "not utf-8 text")),
    # a config the benchmark's config.txt holds is named as that file's fault
    ("odd_image_size", lambda d: _edit_text(d / "config.txt", "image_size = 32",
                                            "image_size = 30"),
     ("config.txt", "image_size must be even and >= 32, got 30")),
    ("negative_domain_gain", lambda d: _edit_text(d / "config.txt", "domain_A_gain = 0.55",
                                                  "domain_A_gain = -0.55"),
     ("config.txt", "'A'", "gain must be positive")),
    # masks of another size than the images used to end in a raw broadcast error
    ("small_masks", lambda d: tensorio.write_tensor(
        d / "test_seen_masks.apxt", tensorio.read_tensor(d / "test_seen_masks.apxt")[:, :30, :30]),
     ("test_seen_masks.apxt", "(8, 30, 30)", "of shape (32, 32)")),
    ("images_of_another_size", lambda d: _edit_text(d / "config.txt", "image_size = 32",
                                                    "image_size = 64"),
     ("source_cal_images.apxt", "(12, 32, 32, 1)", "of shape (64, 64, 1)")),
    # each value used to load: a NaN failed later as a divergence or a
    # non-finite backbone input, and a mask value counted as foreground
    ("nan_train_image", _value_into("train_seen_images.apxt", np.nan),
     ("train_seen_images.apxt", "A-train_seen-0001", "outside [0, 1]")),
    ("nan_test_image", _value_into("test_seen_images.apxt", np.nan),
     ("test_seen_images.apxt", "A-test_seen-0001", "outside [0, 1]")),
    ("negative_image", _value_into("test_seen_images.apxt", -3.0),
     ("test_seen_images.apxt", "A-test_seen-0001", "outside [0, 1]")),
    ("half_mask", _value_into("test_seen_masks.apxt", 0.5),
     ("test_seen_masks.apxt", "A-test_seen-0001", "other than 0 and 1")),
]
# (fault id, a line that replaces TINY_CONFIG's line of the same key or is
# added to it, what the error names)
CONFIG_FAULTS = [
    ("negative_seed", "seeds = -1", ("seeds", ">= 0", "(-1,)")),
    ("repeated_seed", "seeds = 0,0", ("seeds", "distinct", "(0, 0)")),
    ("no_seeds", "seeds = ", ("seeds", "nonempty")),
    ("zero_encoder_width", "encoder_hidden = 8,0,8", ("hidden widths must be >= 1",)),
    ("zero_decoder_width", "decoder_hidden = 0", ("hidden widths must be >= 1",)),
    ("zero_head_width", "head_hidden = 0", ("hidden widths must be >= 1",)),
    ("zero_aux_dim", "aux_dim = 0", ("aux_dim",)),
    ("negative_epochs", "epochs = -1", ("epochs must be >= 0",)),
    ("zero_grad_clip", "feature_grad_clip = 0", ("feature_grad_clip must be positive",)),
    ("zero_slots", "slot_count = 0", ("slot_count",)),
    ("zero_beta", "beta = 0", ("beta must be in (0, 1]",)),
    ("beta_above_one", "beta = 1.5", ("beta must be in (0, 1]",)),
    ("zero_temperature", "temperature = 0", ("temperature must be positive",)),
    ("four_shading_modes", "domain_A_shading = 0:1:0.1;1:0:0.1;1:1:0.1;0:2:0.1",
     ("'A'", "at most 3 shading modes")),
    ("negative_shading_amp", "domain_A_shading = 0:1:-0.1",
     ("shading amplitude must be nonnegative",)),
    ("empty_key", " = 3", ("line 17", "empty key")),
    ("malformed_shading", "domain_A_shading = 1:2", ("domain_A_shading", "fu:fv:amp")),
    ("unknown_domain_field", "domain_A_foo = 1", ("unknown config keys", "domain_A_foo")),
    ("nan_domain_gain", "domain_A_gain = nan", ("domain_A_gain", "not a finite number")),
    ("inf_temperature", "temperature = inf", ("temperature", "not a finite number")),
    ("nan_grad_clip", "feature_grad_clip = nan", ("feature_grad_clip", "not a finite number")),
    ("inf_shading_amp", "domain_A_shading = 0:1:inf", ("domain_A_shading", "not a finite")),
    ("zero_train_per_domain", "train_per_domain = 0", ("train_per_domain must be >= 1",)),
    ("negative_source_test", "source_test = -2", ("source_test must be >= 1", "-2")),
]


def _config_with(line: str) -> str:
    """TINY_CONFIG with ``line`` in place of its line of the same key, or
    added at the end."""
    key = line.partition("=")[0].strip()
    kept = [old for old in TINY_CONFIG.splitlines()
            if "=" not in old or old.partition("=")[0].strip() != key]
    return "\n".join(kept + [line]) + "\n"


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    (root / "tiny.cfg").write_text(TINY_CONFIG)
    return root


@pytest.fixture(scope="module")
def bench_dir(workdir):
    out = workdir / "bench"
    assert cli.main(["gen-bench", "--config", str(workdir / "tiny.cfg"),
                     "--seed", "4", "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def run_dir(workdir, bench_dir):
    out = workdir / "run"
    assert cli.main(["train", "--config", str(workdir / "tiny.cfg"),
                     "--bench", str(bench_dir), "--out", str(out)]) == 0
    return out


class TestCli:
    def test_gen_bench_outputs(self, bench_dir):
        assert (bench_dir / "manifest.csv").exists()
        assert (bench_dir / "config.txt").exists()
        header = (bench_dir / "manifest.csv").read_text().splitlines()[0]
        assert header == "sample_id,domain_id,split,scene_seed,gain,bias,shading,noise_sigma"

    def test_gen_bench_sample_dumps(self, workdir):
        out = workdir / "bench_dump"
        assert cli.main(["gen-bench", "--config", str(workdir / "tiny.cfg"),
                         "--seed", "4", "--out", str(out), "--dump-samples", "1"]) == 0
        previews = sorted(p.name for p in (out / "previews").glob("*.pgm"))
        assert "A-train_seen-0000.pgm" in previews
        assert "C-test_unseen-0000.pgm" in previews

    def test_gen_bench_rerun_byte_identical(self, workdir, bench_dir):
        out2 = workdir / "bench2"
        assert cli.main(["gen-bench", "--config", str(workdir / "tiny.cfg"),
                         "--seed", "4", "--out", str(out2)]) == 0
        for name in ("manifest.csv", "config.txt", "train_seen_images.apxt",
                     "test_unseen_masks.apxt"):
            assert _sha(bench_dir / name) == _sha(out2 / name), name

    def test_train_outputs(self, run_dir):
        assert (run_dir / "metrics.csv").exists()
        assert (run_dir / "backbone.txt").exists()
        assert (run_dir / "seed0" / "steps.csv").exists()
        assert (run_dir / "seed0" / "manifest.txt").exists()
        steps = (run_dir / "seed0" / "steps.csv").read_text().splitlines()
        assert steps[0] == "step,seg,dice_part,ce_part,lfc,total"
        assert len(steps) > 1

    def test_train_rerun_byte_identical(self, workdir, bench_dir, run_dir):
        out2 = workdir / "run2"
        assert cli.main(["train", "--config", str(workdir / "tiny.cfg"),
                         "--bench", str(bench_dir), "--out", str(out2)]) == 0
        for rel in ("metrics.csv", "seed0/steps.csv", "seed0/memory.apxt",
                    "seed0/encoder.w0.apxt", "seed0/manifest.txt"):
            assert _sha(run_dir / rel) == _sha(out2 / rel), rel

    def test_train_keeps_one_state_alive(self, workdir, bench_dir, monkeypatch):
        # a seed's trained state is dropped once its files are written, so it
        # is gone before the next seed trains
        train_and_eval, states = harness.train_and_eval, []

        def recording(*args, **kwargs):
            gc.collect()
            assert all(ref() is None for ref in states)
            res = train_and_eval(*args, **kwargs)
            states.append(weakref.ref(res.state))
            return res

        monkeypatch.setattr(harness, "train_and_eval", recording)
        config = workdir / "three_seeds.cfg"
        config.write_text(_config_with("seeds = 0,1,2"))
        assert cli.main(["train", "--config", str(config), "--bench", str(bench_dir),
                         "--out", str(workdir / "run_three_seeds")]) == 0
        assert len(states) == 3

    def test_eval_writes_csv(self, workdir, bench_dir, run_dir):
        out = workdir / "eval_unseen.csv"
        assert cli.main(["eval", "--ckpt", str(run_dir / "seed0"),
                         "--bench", str(bench_dir), "--split", "unseen",
                         "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "domain,group,dice,iou,count"
        assert any(line.startswith("C,unseen") for line in lines)

    def test_eval_source_only_no_ckpt(self, workdir, bench_dir):
        out = workdir / "eval_source.csv"
        assert cli.main(["eval", "--bench", str(bench_dir), "--split", "source",
                         "--source-only", "--out", str(out)]) == 0
        assert "source,source" in out.read_text()

    def test_eval_requires_ckpt_without_source_only(self, bench_dir):
        assert cli.main(["eval", "--bench", str(bench_dir), "--split", "seen"]) == 2

    def test_eval_missing_bench_is_one_line_error(self, workdir, run_dir, capsys):
        assert cli.main(["eval", "--ckpt", str(run_dir / "seed0"),
                         "--bench", str(workdir / "no_bench"), "--split", "seen"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "no_bench" in err

    def test_eval_missing_ckpt_is_one_line_error(self, workdir, bench_dir, capsys):
        assert cli.main(["eval", "--ckpt", str(workdir / "no_ckpt"),
                         "--bench", str(bench_dir), "--split", "seen"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "no_ckpt" in err

    def test_eval_reports_missing_ckpt_before_calibrating(self, workdir, bench_dir, capsys,
                                                          monkeypatch):
        def refuse(samples):
            raise AssertionError("calibrated before the checkpoint was loaded")

        monkeypatch.setattr(synthdata, "backbone_calibrate", refuse)
        assert cli.main(["eval", "--ckpt", str(workdir / "no_ckpt"),
                         "--bench", str(bench_dir), "--split", "seen"]) == 1
        _assert_one_error_line(capsys, "no_ckpt")

    def test_eval_missing_tensor_file_is_one_line_error(self, workdir, bench_dir, capsys):
        broken = workdir / "bench_missing_tensor"
        assert cli.main(["gen-bench", "--config", str(workdir / "tiny.cfg"),
                         "--seed", "4", "--out", str(broken)]) == 0
        (broken / "test_seen_images.apxt").unlink()
        capsys.readouterr()
        assert cli.main(["eval", "--source-only", "--bench", str(broken),
                         "--split", "seen"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "test_seen_images.apxt" in err

    @pytest.mark.parametrize("cut", [
        pytest.param(lambda raw: raw[:len(raw) // 2], id="halved"),
        pytest.param(lambda raw: raw[:-3], id="odd_length"),
    ])
    def test_eval_corrupt_tensor_file_is_one_line_error(self, workdir, bench_dir, capsys,
                                                        request, cut):
        broken = workdir / f"bench_{request.node.callspec.id}"
        shutil.copytree(bench_dir, broken)
        path = broken / "test_seen_images.apxt"
        path.write_bytes(cut(path.read_bytes()))
        capsys.readouterr()
        assert cli.main(["eval", "--source-only", "--bench", str(broken),
                         "--split", "seen"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "test_seen_images.apxt" in err

    def test_eval_missing_manifest_key_is_one_line_error(self, workdir, bench_dir, run_dir,
                                                         capsys):
        ckpt = workdir / "ckpt_without_beta"
        shutil.copytree(run_dir / "seed0", ckpt)
        manifest = ckpt / "manifest.txt"
        lines = manifest.read_text().splitlines()
        manifest.write_text("\n".join(ln for ln in lines if not ln.startswith("beta =")) + "\n")
        capsys.readouterr()
        assert cli.main(["eval", "--ckpt", str(ckpt), "--bench", str(bench_dir),
                         "--split", "seen"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "'beta'" in err and "manifest.txt" in err

    @pytest.mark.parametrize("fault, corrupt, needles",
                             [pytest.param(*f, id=f[0]) for f in CKPT_FAULTS])
    def test_eval_corrupt_checkpoint_is_one_line_error(self, workdir, bench_dir, run_dir,
                                                       capsys, fault, corrupt, needles):
        ckpt = workdir / f"ckpt_{fault}"
        shutil.copytree(run_dir / "seed0", ckpt)
        corrupt(ckpt)
        capsys.readouterr()
        assert cli.main(["eval", "--ckpt", str(ckpt), "--bench", str(bench_dir),
                         "--split", "seen"]) == 1
        _assert_one_error_line(capsys, *needles)

    @pytest.mark.parametrize("fault, corrupt, needles",
                             [pytest.param(*f, id=f[0]) for f in BENCH_FAULTS])
    def test_eval_corrupt_bench_is_one_line_error(self, workdir, bench_dir, capsys,
                                                  fault, corrupt, needles):
        broken = workdir / f"bench_{fault}"
        shutil.copytree(bench_dir, broken)
        corrupt(broken)
        capsys.readouterr()
        assert cli.main(["eval", "--source-only", "--bench", str(broken),
                         "--split", "seen"]) == 1
        _assert_one_error_line(capsys, *needles)

    @pytest.mark.parametrize("fault, line, needles",
                             [pytest.param(*f, id=f[0]) for f in CONFIG_FAULTS])
    def test_train_bad_config_is_one_line_error(self, workdir, bench_dir, capsys,
                                                fault, line, needles):
        config = workdir / f"config_{fault}.cfg"
        config.write_text(_config_with(line))
        out = workdir / f"run_{fault}"
        capsys.readouterr()
        assert cli.main(["train", "--config", str(config), "--bench", str(bench_dir),
                         "--out", str(out)]) == 1
        _assert_one_error_line(capsys, *needles)
        assert not out.exists()

    def test_gen_bench_negative_seed_is_one_line_error(self, workdir, capsys):
        out = workdir / "bench_negative_seed"
        capsys.readouterr()
        assert cli.main(["gen-bench", "--config", str(workdir / "tiny.cfg"), "--seed", "-1",
                         "--out", str(out)]) == 1
        _assert_one_error_line(capsys, "--seed", ">= 0")
        assert not out.exists()

    @pytest.mark.parametrize("fault, line, needle", [
        ("zero_train", "train_per_domain = 0", "train_per_domain must be >= 1"),
        ("zero_test", "test_per_domain = 0", "test_per_domain must be >= 1"),
        ("zero_source", "source_train = 0", "source_train must be >= 1"),
        ("negative_source_test", "source_test = -1", "source_test must be >= 1"),
        ("nan_gain", "domain_A_gain = nan", "domain_A_gain"),
        ("inf_bias", "domain_C_bias = -inf", "domain_C_bias"),
        ("odd_size", "image_size = 30", "image_size must be even and >= 32, got 30"),
    ])
    def test_gen_bench_bad_config_is_one_line_error(self, workdir, capsys, fault, line,
                                                    needle):
        # an empty split or a NaN domain used to be written without complaint
        config = workdir / f"gen_{fault}.cfg"
        config.write_text(_config_with(line))
        out = workdir / f"bench_{fault}"
        capsys.readouterr()
        assert cli.main(["gen-bench", "--config", str(config), "--seed", "1",
                         "--out", str(out)]) == 1
        _assert_one_error_line(capsys, needle)
        assert not out.exists()

    def test_config_not_utf8_is_one_line_error(self, workdir, capsys):
        config = workdir / "not_utf8.cfg"
        config.write_bytes(b"image_size = 8\xff\n")
        capsys.readouterr()
        assert cli.main(["gen-bench", "--config", str(config), "--seed", "1",
                         "--out", str(workdir / "bench_not_utf8")]) == 1
        _assert_one_error_line(capsys, "not_utf8.cfg", "not utf-8 text", "byte 14")
        assert not (workdir / "bench_not_utf8").exists()

    def test_train_nan_image_is_one_line_error(self, workdir, bench_dir, capsys):
        broken = workdir / "bench_train_nan"
        shutil.copytree(bench_dir, broken)
        _value_into("train_seen_images.apxt", np.nan)(broken)
        out = workdir / "run_train_nan"
        capsys.readouterr()
        assert cli.main(["train", "--config", str(workdir / "tiny.cfg"), "--bench", str(broken),
                         "--out", str(out)]) == 1
        _assert_one_error_line(capsys, "train_seen_images.apxt", "A-train_seen-0001")
        assert not out.exists()

    def test_train_divergence_is_one_line_error(self, workdir, bench_dir, capsys):
        config = workdir / "diverging.cfg"
        config.write_text(TINY_CONFIG + "mlp_learning_rate = 1e300\n")
        capsys.readouterr()
        assert cli.main(["train", "--config", str(config), "--bench", str(bench_dir),
                         "--out", str(workdir / "run_diverged")]) == 1
        _assert_one_error_line(capsys, "training diverged", "seed 0")
        assert not (workdir / "run_diverged").exists()
        assert not list(workdir.glob(".run_diverged*"))  # nor its staging directory

    @pytest.mark.parametrize("command",
                             ["gen-bench", "train", "ablate", "sweep-slots", "viz-mem"])
    def test_existing_out_is_refused_before_any_work(self, workdir, bench_dir, run_dir, capsys,
                                                     monkeypatch, command):
        out = workdir / f"existing_{command}"
        out.mkdir()
        (out / "keep.txt").write_text("kept")

        def no_work(*args, **kwargs):
            raise AssertionError("work started although --out exists")

        monkeypatch.setattr(cli.synthdata, "build_benchmark", no_work)
        monkeypatch.setattr(cli, "_load_bench", no_work)
        monkeypatch.setattr(cli.prompting, "load_state", no_work)
        capsys.readouterr()
        config = ["--config", str(workdir / "tiny.cfg")]
        args = {"gen-bench": ["gen-bench", *config],
                "viz-mem": [command, "--ckpt", str(run_dir / "seed0"), "--bench", str(bench_dir)],
                }.get(command, [command, "--bench", str(bench_dir), *config])
        assert cli.main(args + ["--out", str(out)]) == 1
        _assert_one_error_line(capsys, str(out), "already exists")
        assert sorted(p.name for p in out.iterdir()) == ["keep.txt"]
        assert (out / "keep.txt").read_text() == "kept"

    @pytest.mark.parametrize("command, out_kind", [
        ("eval", "dir"), ("eval", "under_file"), ("viz-mem", "file"), ("viz-mem", "under_file"),
        ("gen-bench", "under_file"), ("train", "under_file"), ("ablate", "under_file"),
        ("sweep-slots", "under_file")])
    def test_unwritable_out_is_one_line_error(self, workdir, bench_dir, run_dir, capsys,
                                              monkeypatch, command, out_kind):
        # each ended in a raw IsADirectoryError or FileExistsError traceback
        base = workdir / f"unwritable_{command}_{out_kind}"
        base.mkdir()
        blocker = base / "file.txt"
        blocker.write_text("kept")
        out = {"dir": base, "file": blocker, "under_file": blocker / "sub"}[out_kind]
        if command in ("eval", "viz-mem"):
            args = [command, "--ckpt", str(run_dir / "seed0"), "--bench", str(bench_dir),
                    "--split", "seen"]
        elif command == "gen-bench":
            args = ["gen-bench", "--config", str(workdir / "tiny.cfg")]
        else:
            args = [command, "--config", str(workdir / "tiny.cfg"), "--bench", str(bench_dir)]
        # refused before anything loads, so no report is printed
        monkeypatch.setattr(cli, "_load_bench", lambda *a: pytest.fail("bench loaded"))
        monkeypatch.setattr(cli.synthdata, "build_benchmark", lambda *a: pytest.fail("built"))
        capsys.readouterr()
        assert cli.main(args + ["--out", str(out)]) == 1
        assert _assert_one_error_line(
            capsys, "is a directory" if out_kind == "dir" else str(blocker)) == ""
        assert sorted(p.name for p in base.iterdir()) == ["file.txt"]
        assert blocker.read_text() == "kept"

    def test_gen_bench_negative_dump_samples_is_one_line_error(self, workdir, capsys):
        out = workdir / "bench_negative_dump"
        capsys.readouterr()
        assert cli.main(["gen-bench", "--config", str(workdir / "tiny.cfg"),
                         "--dump-samples", "-3", "--out", str(out)]) == 1
        _assert_one_error_line(capsys, "--dump-samples", "-3", ">= 0")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["ablate", "sweep-slots"])
    def test_failed_ablate_or_sweep_leaves_no_out(self, workdir, bench_dir, capsys, command):
        config = workdir / "diverging_grid.cfg"
        config.write_text(TINY_CONFIG + "mlp_learning_rate = 1e300\n")
        out = workdir / f"{command}_diverged"
        capsys.readouterr()
        assert cli.main([command, "--config", str(config), "--bench", str(bench_dir),
                         "--out", str(out)]) == 1
        _assert_one_error_line(capsys, "training diverged")
        assert not out.exists()
        assert not list(workdir.glob(f".{out.name}*"))  # nor its staging directory

    @pytest.mark.parametrize("interrupt", [KeyboardInterrupt, OSError])
    def test_interrupted_gen_bench_leaves_no_out(self, workdir, monkeypatch, capsys, interrupt):
        """A write cut short after some files exist removes them all; an
        OSError (a full disk, say) ends as one error line."""
        real_write = cli.tensorio.write_tensor
        written = []

        def write_then_fail(path, arr):
            if len(written) == 3:
                raise interrupt("cut short")
            real_write(path, arr)
            written.append(path)

        monkeypatch.setattr(cli.synthdata.tensorio, "write_tensor", write_then_fail)
        out = workdir / f"bench_cut_{interrupt.__name__}"
        args = ["gen-bench", "--config", str(workdir / "tiny.cfg"), "--seed", "4",
                "--out", str(out)]
        if interrupt is KeyboardInterrupt:
            with pytest.raises(KeyboardInterrupt):
                cli.main(args)
        else:
            capsys.readouterr()
            assert cli.main(args) == 1
            _assert_one_error_line(capsys, "cut short")
        assert len(written) == 3 and not any(p.exists() for p in written)
        assert not out.exists()
        assert not list(workdir.glob(f".{out.name}*"))

    def test_bench_config_ignores_training_keys(self, workdir, bench_dir, run_dir):
        """A benchmark's config.txt also echoes training keys, among them keys
        of fields removed since it was written; loading the benchmark needs
        only its own keys."""
        old = workdir / "bench_earlier_echo"
        shutil.copytree(bench_dir, old)
        with open(old / "config.txt", "a") as fh:
            fh.write("encoder_final_scale = 1.0\n")
        for bench in (bench_dir, old):
            assert cli.main(["eval", "--ckpt", str(run_dir / "seed0"), "--bench", str(bench),
                             "--split", "seen", "--out", str(workdir / f"{bench.name}.csv")]) == 0
        assert _sha(workdir / "bench.csv") == _sha(workdir / f"{old.name}.csv")

    def test_eval_rerun_byte_identical(self, workdir, bench_dir, run_dir):
        a = workdir / "eval_a.csv"
        b = workdir / "eval_b.csv"
        for out in (a, b):
            assert cli.main(["eval", "--ckpt", str(run_dir / "seed0"),
                             "--bench", str(bench_dir), "--split", "seen",
                             "--out", str(out)]) == 0
        assert _sha(a) == _sha(b)

    def test_ablate_and_rerun_identical(self, workdir, bench_dir):
        outs = (workdir / "ablate", workdir / "ablate2")
        for out in outs:
            assert cli.main(["ablate", "--config", str(workdir / "tiny.cfg"),
                             "--bench", str(bench_dir), "--out", str(out)]) == 0
        lines = (outs[0] / "ablation.csv").read_text().splitlines()
        assert lines[0].startswith("memory,lfc,seed")
        assert len(lines) == 1 + 4 + 8  # header, 4 cells x 1 seed, mean+std per cell
        assert _sha(outs[0] / "ablation.csv") == _sha(outs[1] / "ablation.csv")

    def test_sweep_slots_and_rerun_identical(self, workdir, bench_dir):
        outs = (workdir / "sweep", workdir / "sweep2")
        for out in outs:
            assert cli.main(["sweep-slots", "--config", str(workdir / "tiny.cfg"),
                             "--bench", str(bench_dir), "--j-list", "1,4",
                             "--out", str(out)]) == 0
        text = (outs[0] / "slot_sweep.csv").read_text()
        assert text.startswith("slots,seed,avg_total_dice")
        assert _sha(outs[0] / "slot_sweep.csv") == _sha(outs[1] / "slot_sweep.csv")

    @pytest.mark.parametrize("j_list", ["1,x", "5,0", "", "3,,4", "-2", "1,1"])
    def test_sweep_slots_bad_j_list_is_one_line_error(self, workdir, j_list, capsys):
        # checked before anything loads: the benchmark does not exist
        out = workdir / "sweep_bad_j_list"
        capsys.readouterr()
        assert cli.main(["sweep-slots", "--config", str(workdir / "tiny.cfg"),
                         "--bench", str(workdir / "no_bench"), "--j-list", j_list,
                         "--out", str(out)]) == 1
        _assert_one_error_line(capsys, "--j-list", repr(j_list), "distinct")
        assert not out.exists()

    def test_viz_mem_and_rerun_identical(self, workdir, bench_dir, run_dir):
        outs = (workdir / "viz", workdir / "viz2")
        for out in outs:
            assert cli.main(["viz-mem", "--ckpt", str(run_dir / "seed0"),
                             "--bench", str(bench_dir), "--split", "unseen",
                             "--out", str(out)]) == 0
        for name in ("activations.csv", "overlap_matrix.csv", "activations.pgm"):
            assert (outs[0] / name).exists()
            assert _sha(outs[0] / name) == _sha(outs[1] / name), name

    def test_viz_mem_rerun_into_the_default_out_is_refused(self, workdir, run_dir, bench_dir,
                                                           capsys):
        ckpt = workdir / "ckpt_default_viz"
        shutil.copytree(run_dir / "seed0", ckpt)
        args = ["viz-mem", "--ckpt", str(ckpt), "--bench", str(bench_dir)]
        assert cli.main(args) == 0
        written = {p.name: _sha(p) for p in (ckpt / "viz").iterdir()}
        assert sorted(written) == ["activations.csv", "activations.pgm", "overlap_matrix.csv"]
        capsys.readouterr()
        assert cli.main(args) == 1
        _assert_one_error_line(capsys, str(ckpt / "viz"), "already exists")
        assert {p.name: _sha(p) for p in (ckpt / "viz").iterdir()} == written

    @pytest.mark.parametrize("interrupt", [KeyboardInterrupt, OSError])
    def test_failed_viz_mem_leaves_no_out(self, workdir, bench_dir, run_dir, monkeypatch,
                                          capsys, interrupt):
        def write_then_fail(state, samples, out_dir):
            (Path(out_dir) / "activations.csv").write_text("partial")
            raise interrupt("cut short")

        monkeypatch.setattr(cli.harness, "export_activations", write_then_fail)
        out = workdir / f"viz_cut_{interrupt.__name__}"
        args = ["viz-mem", "--ckpt", str(run_dir / "seed0"), "--bench", str(bench_dir),
                "--out", str(out)]
        if interrupt is KeyboardInterrupt:
            with pytest.raises(KeyboardInterrupt):
                cli.main(args)
        else:
            capsys.readouterr()
            assert cli.main(args) == 1
            _assert_one_error_line(capsys, "cut short")
        assert not out.exists()
        assert not list(workdir.glob(f".{out.name}*"))  # nor its staging directory

    @pytest.mark.parametrize("split, single_domain", [
        ("source", True), ("source_test", True), ("unseen", False)])
    def test_viz_mem_prints_n_a_for_a_group_without_pairs(self, workdir, bench_dir, run_dir,
                                                          capsys, split, single_domain):
        # one domain used to print NumPy's mean-of-empty warning and "nan"
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["viz-mem", "--ckpt", str(run_dir / "seed0"),
                             "--bench", str(bench_dir), "--split", split,
                             "--out", str(workdir / f"viz_pairs_{split}")]) == 0
        line = capsys.readouterr().out.splitlines()[0]
        within, cross = line.removeprefix("within-domain mean Jaccard ").split(", cross-domain ")
        assert 0.0 <= float(within) <= 1.0
        assert cross == "n/a" if single_domain else 0.0 <= float(cross) <= 1.0

    @pytest.mark.parametrize("split", ["foo", "seen,foo", "unseen,", "test_seen,Source"])
    def test_viz_mem_bad_split_is_one_line_error(self, workdir, split, capsys):
        # checked before anything loads: the benchmark and checkpoint do not exist
        out = workdir / "viz_bad_split"
        capsys.readouterr()
        assert cli.main(["viz-mem", "--ckpt", str(workdir / "no_ckpt"),
                         "--bench", str(workdir / "no_bench"), "--split", split,
                         "--out", str(out)]) == 1
        _assert_one_error_line(capsys, "unknown split", repr(split.split(",")[-1]))
        assert not out.exists()

    @pytest.mark.parametrize("split,repeated,name", [
        ("unseen,test_unseen", "test_unseen", "test_unseen"), ("seen,seen", "seen", "test_seen"),
        ("source,test_seen,source_test", "source_test", "source_test")])
    def test_viz_mem_repeated_split_is_one_line_error(self, workdir, split, repeated, name,
                                                     capsys):
        # each sample would be exported twice; checked before anything loads
        out = workdir / "viz_repeated_split"
        capsys.readouterr()
        assert cli.main(["viz-mem", "--ckpt", str(workdir / "no_ckpt"),
                         "--bench", str(workdir / "no_bench"), "--split", split,
                         "--out", str(out)]) == 1
        _assert_one_error_line(capsys, repr(repeated), f"repeats {name}")
        assert not out.exists()

    def test_config_echoed_into_outputs(self, bench_dir, run_dir):
        bench_echo = cfgmod.parse_kv((bench_dir / "config.txt").read_text())
        run_echo = cfgmod.parse_kv((run_dir / "config.txt").read_text())
        for key in ("feature_dim", "slot_count", "epochs", "image_size",
                    "domain_A_gain", "bench_seed"):
            assert key in bench_echo
            assert key in run_echo
