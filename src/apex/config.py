"""Flat ``key = value`` config files.

The keys are the fields of ``ApexConfig``, ``TrainConfig`` and
``BenchmarkConfig`` (see :func:`schema`) plus ``domain_<id>_<field>``
overrides of the domain specs. Unknown keys are rejected so typos fail
loudly; every effective key (given or defaulted) is echoed back into output
manifests. Booleans are ``true`` / ``false``; tuples are comma-separated;
shading modes use ``freq_u:freq_v:amp`` joined by ``;``.
"""

from __future__ import annotations

from dataclasses import fields, replace
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


def _to_bool(val: str) -> bool:
    low = val.lower()
    if low in ("true", "false"):
        return low == "true"
    raise ValueError("expected true or false")


def _to_int_tuple(val: str) -> tuple:
    return tuple(int(v) for v in val.split(",") if v.strip())


def _to_optional_float(val: str):
    return None if val.lower() in ("none", "off") else float(val)


def _to_shading(val: str) -> tuple:
    if not val:
        return ()
    modes = []
    for part in val.split(";"):
        terms = part.split(":")
        if len(terms) != 3:
            raise ValueError(f"shading mode must be fu:fv:amp, got {part!r}")
        modes.append((int(terms[0]), int(terms[1]), float(terms[2])))
    return tuple(modes)


# parser per field annotation; the modules annotate lazily, so these are strings
_PARSERS = {"int": int, "float": float, "str": str, "bool": _to_bool,
            "tuple": _to_int_tuple, "float | None": _to_optional_float}
_DOMAIN_FIELDS = ("gain", "bias", "noise_sigma", "shading")


def schema(cls, skip: tuple = ()) -> dict:
    """Parser of every field of the config dataclass ``cls`` not named in
    ``skip``, keyed by field name, in field order."""
    return {f.name: _PARSERS[f.type] for f in fields(cls) if f.name not in skip}


# The config dataclasses, each with its fields that are not config keys: the
# apex seed, which harness.train sets per run (checkpoints record it); the
# nested apex config; the domain specs, which the domain_* keys cover
# (``seen`` and ``unseen`` are tuples of specs, not of ints).
_SECTIONS = ((ApexConfig, ("seed",)), (TrainConfig, ("apex",)),
             (BenchmarkConfig, ("source", "seen", "unseen")))
# config key -> (index into _SECTIONS, parser), in field order
_KEYS = {key: (section, parse) for section, (cls, skip) in enumerate(_SECTIONS)
         for key, parse in schema(cls, skip).items()}


def parse_value(key: str, val: str, parse):
    try:
        return parse(val)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{key}: cannot parse {val!r} ({exc})") from exc


def format_value(val) -> str:
    """The config-file spelling of ``val``, which its field's parser reads back."""
    if isinstance(val, bool):
        return "true" if val else "false"
    if isinstance(val, tuple):
        return ",".join(str(v) for v in val)
    return str(val)


def build_configs(kv: dict) -> tuple[TrainConfig, BenchmarkConfig]:
    """Materialize configs from a parsed mapping, defaults filling the rest."""
    apex_kwargs, train_kwargs, bench_kwargs = kwargs = ({}, {}, {})
    domain_over: dict = {}
    unknown = []
    for key, val in kv.items():
        if key in _KEYS:
            section, parse = _KEYS[key]
            kwargs[section][key] = parse_value(key, val, parse)
        elif key.startswith("domain_") and key.count("_") >= 2:
            _, dom, field_name = key.split("_", 2)
            if field_name not in _DOMAIN_FIELDS:
                unknown.append(key)
                continue
            conv = _to_shading if field_name == "shading" else float
            domain_over.setdefault(dom, {})[field_name] = parse_value(key, val, conv)
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


def bench_config(kv: dict) -> BenchmarkConfig:
    """The benchmark config of a benchmark's ``config.txt``. The file also
    echoes the training keys of the ``gen-bench`` run that wrote it, which
    may name fields removed since; the benchmark needs none of them."""
    names = {f.name for f in fields(BenchmarkConfig)}
    own = {key: val for key, val in kv.items() if key in names or key.startswith("domain_")}
    return build_configs(own)[1]


def echo_lines(train: TrainConfig, bench: BenchmarkConfig) -> list[str]:
    """Canonical ``key = value`` listing of every effective config key."""
    sections = (train.apex, train, bench)
    lines = [f"{key} = {format_value(getattr(sections[section], key))}"
             for key, (section, _) in _KEYS.items()]
    for spec in (bench.source,) + bench.seen + bench.unseen:
        shading = ";".join(f"{fu}:{fv}:{amp}" for fu, fv, amp in spec.shading)
        lines.append(f"domain_{spec.domain_id}_gain = {spec.gain}")
        lines.append(f"domain_{spec.domain_id}_bias = {spec.bias}")
        lines.append(f"domain_{spec.domain_id}_noise_sigma = {spec.noise_sigma}")
        lines.append(f"domain_{spec.domain_id}_shading = {shading}")
    return lines
