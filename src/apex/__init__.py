"""Adaptive frequency-domain visual prompting with a learnable prompt memory.

Modules:
  numerics   micro autodiff engine over frozen arrays, MLPs, SGD
  spectral   2-D Fourier analysis and amplitude-domain prompting
  prompting  domain encoder, prompt memory, decoder, projection head
  losses     segmentation (Dice + CE) and low-frequency contrastive losses
  synthdata  synthetic multi-domain benchmark and frozen toy backbone
  harness    training loop, evaluation, ablations, slot sweep
  tensorio   binary tensor files, their digests, PGM dumps
  config     flat key = value config files
  cli        the ``apex`` command
  errors     the package's exception types
"""

__version__ = "0.1.0"

import ctypes
import os

_M_ARENA_MAX = -8  # glibc's mallopt parameter


def _bound_malloc_arenas() -> None:
    """Make glibc's malloc serve every thread from one arena. A worker
    thread would otherwise get an arena of its own, which keeps what the
    thread frees after it ends and raises the process's peak RSS. Runs once,
    at import, before any worker thread starts; does nothing elsewhere than
    on glibc."""
    try:
        libc = os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError, OSError):  # no confstr, or no such name
        return
    if libc and libc.startswith("glibc"):
        mallopt = ctypes.CDLL(None).mallopt
        mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
        mallopt(_M_ARENA_MAX, 1)


_bound_malloc_arenas()
