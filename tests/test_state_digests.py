"""The 32x32 printout of ``tools/state_digests.py``, recomputed and compared
line by line with the copy recorded in ``tests/state_digests_32.txt``.

A change that only reorganises the arithmetic must leave every benchmark
file, the backbone, each trained state, its evaluations and its activation
export bit-identical, and so the printout unchanged. The record's ``# key =
value`` lines name the environment it was recorded in: another Python,
NumPy, BLAS build, BLAS kernel set or machine may round differently, so the
test skips there and names what differs. To stay cheap it recomputes a
named subset of the record: the benchmark, the backbone, the default and
the two memory-off cells, whose training turns a last-bit change of a
gradient into Dice changes of several points.

Re-record (in full) with ``python3 tests/test_state_digests.py >
tests/state_digests_32.txt``; a re-recorded file changes the gate.
"""

import ctypes
import importlib.util
import platform
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORD = Path(__file__).with_name("state_digests_32.txt")
ARGS = {"bench_seed": 10, "size": 32, "seed": 0}  # the script's defaults
SUBSET = ("default", "memory_off-lfc_on", "memory_off-lfc_off")

_spec = importlib.util.spec_from_file_location("state_digests",
                                               ROOT / "tools" / "state_digests.py")
state_digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(state_digests)


def _blas_core() -> str:
    """The kernel set OpenBLAS chose for this CPU, or ``unknown``."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib_path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(lib_path))
        for symbol in ("scipy_openblas_get_corename64_", "openblas_get_corename64_",
                       "openblas_get_corename"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_char_p
                return fn().decode()
    return "unknown"


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # NumPy without dict-mode show_config
        blas = {}
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name', 'unknown')} {blas.get('version', 'unknown')}",
            "blas_core": _blas_core(), "machine": platform.machine()}


def read_record() -> tuple[dict, list[str]]:
    """The recorded environment and printout lines."""
    env, lines = {}, []
    for line in RECORD.read_text(encoding="ascii").splitlines():
        if line.startswith("#"):
            key, sep, value = line.lstrip("# ").partition(" = ")
            if sep:
                env[key] = value
        else:
            lines.append(line)
    return env, lines


def test_record_is_the_full_printout():
    env, lines = read_record()
    assert set(env) == set(environment())
    labels = [label for label, _config in state_digests.configs()]
    assert [line.split()[0] for line in lines] == (
        ["bench", "backbone"] + [label for label in labels for _ in range(3)])
    assert set(SUBSET) <= set(labels)


def test_printout_matches_the_record():
    env, lines = read_record()
    here = environment()
    differ = [f"{key} {here.get(key)!r} here, {value!r} recorded"
              for key, value in env.items() if here.get(key) != value]
    if differ:
        pytest.skip("the record is from another environment: " + "; ".join(differ))
    expected = [line for line in lines if line.split()[0] in ("bench", "backbone", *SUBSET)]
    assert len(expected) == 2 + 3 * len(SUBSET)
    got = list(state_digests.digest_lines(**ARGS, labels=SUBSET))
    assert got == expected


if __name__ == "__main__":
    print("# python3 tools/state_digests.py "
          + " ".join(f"--{key.replace('_', '-')} {value}" for key, value in ARGS.items()))
    for key, value in environment().items():
        print(f"# {key} = {value}")
    for line in state_digests.digest_lines(**ARGS):
        print(line)
