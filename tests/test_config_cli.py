"""Config parsing/echo and end-to-end CLI runs at reduced scale, including
byte-identical rerun checks."""

import dataclasses
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import apex
from apex import cli, config as cfgmod
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


# The dataclass fields that are not config keys, spelled out by name.
NOT_KEYS = {ApexConfig: {"seed"}, TrainConfig: {"apex"},
            BenchmarkConfig: {"source", "seen", "unseen"}}
# A valid non-default spelling per str field; a new str field must be added.
STR_VALUES = {"memory_grad_mode": "fullgraph", "optimizer": "adam"}


def _non_default(field: dataclasses.Field) -> str:
    default = field.default
    if field.type == "str":
        return STR_VALUES[field.name]
    if field.type == "bool":
        return "false" if default else "true"
    if field.type == "tuple":
        return ",".join(str(v) for v in default + default[-1:])
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
        src = str(Path(apex.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-c", f"import {module}"], cwd=src,
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 0, proc.stderr


def _sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


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

    def test_viz_mem_and_rerun_identical(self, workdir, bench_dir, run_dir):
        outs = (workdir / "viz", workdir / "viz2")
        for out in outs:
            assert cli.main(["viz-mem", "--ckpt", str(run_dir / "seed0"),
                             "--bench", str(bench_dir), "--split", "unseen",
                             "--out", str(out)]) == 0
        for name in ("activations.csv", "overlap_matrix.csv", "activations.pgm"):
            assert (outs[0] / name).exists()
            assert _sha(outs[0] / name) == _sha(outs[1] / name), name

    def test_config_echoed_into_outputs(self, bench_dir, run_dir):
        bench_echo = cfgmod.parse_kv((bench_dir / "config.txt").read_text())
        run_echo = cfgmod.parse_kv((run_dir / "config.txt").read_text())
        for key in ("feature_dim", "slot_count", "epochs", "image_size",
                    "domain_A_gain", "bench_seed"):
            assert key in bench_echo
            assert key in run_echo
