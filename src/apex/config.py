"""Flat ``key = value`` config files.

Unknown keys are rejected so typos fail loudly; every effective key (given
or defaulted) is echoed back into output manifests. Booleans are ``true`` /
``false``; tuples are comma-separated; shading modes use
``freq_u:freq_v:amp`` joined by ``;``.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

from .errors import ConfigError, InputNotFoundError
from .harness import TrainConfig
from .prompting import ApexConfig
from .synthdata import BenchmarkConfig, DomainSpec


def parse_kv(text: str) -> dict:
    out: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = val.strip()
    return out


def load_file(path) -> dict:
    path = Path(path)
    if not path.is_file():
        raise InputNotFoundError(f"config file {path} does not exist")
    return parse_kv(path.read_text(encoding="utf-8"))


def _to_bool(key: str, val: str) -> bool:
    low = val.lower()
    if low in ("true", "false"):
        return low == "true"
    raise ConfigError(f"{key}: expected true/false, got {val!r}")


def _to_int_tuple(val: str) -> tuple:
    return tuple(int(v) for v in val.split(",") if v.strip())


def _to_shading(val: str) -> tuple:
    if not val:
        return ()
    modes = []
    for part in val.split(";"):
        fields = part.split(":")
        if len(fields) != 3:
            raise ValueError(f"shading mode must be fu:fv:amp, got {part!r}")
        modes.append((int(fields[0]), int(fields[1]), float(fields[2])))
    return tuple(modes)


_APEX_KEYS = {
    "feature_dim": int, "slot_count": int, "encoder_hidden": _to_int_tuple,
    "decoder_hidden": _to_int_tuple, "head_hidden": _to_int_tuple, "beta": float,
    "aux_dim": int, "temperature": float, "learning_rate": float,
    "encoder_final_scale": float, "use_memory": None, "softmax_addressing": None,
    "memory_grad_mode": str, "allow_block_init": None,
}
def _to_optional_float(val: str):
    return None if val.lower() in ("none", "off") else float(val)


_TRAIN_KEYS = {
    "epochs": int, "domains_per_batch": int, "samples_per_domain": int,
    "optimizer": str, "mlp_learning_rate": float,
    "feature_grad_clip": _to_optional_float, "lfc_enabled": None,
    "include_positive": None, "seeds": _to_int_tuple,
}
_BENCH_KEYS = {
    "image_size": int, "train_per_domain": int, "test_per_domain": int,
    "source_train": int, "source_test": int,
}
_DOMAIN_FIELDS = ("gain", "bias", "noise_sigma", "shading")


def _convert(key: str, val: str, conv):
    if conv is None:
        return _to_bool(key, val)
    try:
        return conv(val)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{key}: cannot parse {val!r}") from exc


def build_configs(kv: dict) -> tuple[TrainConfig, BenchmarkConfig]:
    """Materialize configs from a parsed mapping, defaults filling the rest."""
    apex_kwargs: dict = {}
    train_kwargs: dict = {}
    bench_kwargs: dict = {}
    domain_over: dict = {}
    unknown = []
    for key, val in kv.items():
        if key in _APEX_KEYS:
            apex_kwargs[key] = _convert(key, val, _APEX_KEYS[key])
        elif key in _TRAIN_KEYS:
            train_kwargs[key] = _convert(key, val, _TRAIN_KEYS[key])
        elif key in _BENCH_KEYS:
            bench_kwargs[key] = _convert(key, val, _BENCH_KEYS[key])
        elif key.startswith("domain_") and key.count("_") >= 2:
            _, dom, field_name = key.split("_", 2)
            if field_name not in _DOMAIN_FIELDS:
                unknown.append(key)
                continue
            conv = _to_shading if field_name == "shading" else float
            domain_over.setdefault(dom, {})[field_name] = _convert(key, val, conv)
        elif key == "bench_seed":
            continue  # carried by benchmark directories, not a tunable
        else:
            unknown.append(key)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")

    bench = BenchmarkConfig(**bench_kwargs)
    if domain_over:
        def patch(spec: DomainSpec) -> DomainSpec:
            over = domain_over.pop(spec.domain_id, None)
            return replace(spec, **over) if over else spec

        bench = replace(bench, source=patch(bench.source),
                        seen=tuple(patch(d) for d in bench.seen),
                        unseen=tuple(patch(d) for d in bench.unseen))
        if domain_over:
            raise ConfigError(f"overrides for unknown domains: {sorted(domain_over)}")
    train = TrainConfig(apex=ApexConfig(**apex_kwargs), **train_kwargs)
    return train, bench


def _fmt(val) -> str:
    if isinstance(val, bool):
        return "true" if val else "false"
    if isinstance(val, tuple):
        return ",".join(str(v) for v in val)
    return str(val)


def echo_lines(train: TrainConfig, bench: BenchmarkConfig) -> list[str]:
    """Canonical ``key = value`` listing of every effective config key."""
    lines = []
    for key in _APEX_KEYS:
        lines.append(f"{key} = {_fmt(getattr(train.apex, key))}")
    for key in _TRAIN_KEYS:
        val = getattr(train, key)
        if key == "mlp_learning_rate" and val is None:
            val = train.apex.learning_rate
        lines.append(f"{key} = {_fmt(val)}")
    for key in _BENCH_KEYS:
        lines.append(f"{key} = {_fmt(getattr(bench, key))}")
    for spec in (bench.source,) + bench.seen + bench.unseen:
        shading = ";".join(f"{fu}:{fv}:{amp}" for fu, fv, amp in spec.shading)
        lines.append(f"domain_{spec.domain_id}_gain = {spec.gain}")
        lines.append(f"domain_{spec.domain_id}_bias = {spec.bias}")
        lines.append(f"domain_{spec.domain_id}_noise_sigma = {spec.noise_sigma}")
        lines.append(f"domain_{spec.domain_id}_shading = {shading}")
    return lines
