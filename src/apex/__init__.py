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
from pathlib import Path

_M_ARENA_MAX = -8  # glibc's mallopt parameter


def _bound_malloc_arenas() -> None:
    """Make glibc's malloc serve every thread from one arena. A worker
    thread would otherwise get an arena of its own, which keeps what the
    thread frees after it ends and raises the process's peak RSS. Does
    nothing elsewhere than on glibc."""
    try:
        libc = os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError, OSError):  # no confstr, or no such name
        return
    if libc and libc.startswith("glibc"):
        mallopt = ctypes.CDLL(None).mallopt
        mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
        mallopt(_M_ARENA_MAX, 1)


def _openblas():
    """(get, set) of the thread count of the OpenBLAS bundled with NumPy,
    or None when that library is not found."""
    import numpy as np  # here, so that in a fresh process mallopt runs before NumPy loads

    for path in sorted((Path(np.__file__).resolve().parent.parent / "numpy.libs")
                       .glob("*openblas*")):
        lib = ctypes.CDLL(str(path))  # the copy NumPy has loaded already
        get = getattr(lib, "scipy_openblas_get_num_threads64_", None)
        put = getattr(lib, "scipy_openblas_set_num_threads64_", None)
        if get is not None and put is not None:
            get.restype, put.argtypes, put.restype = ctypes.c_int, [ctypes.c_int], None
            return get, put
    return None


# Both settings are process-wide and made once, at import, before any worker
# thread starts. OpenBLAS runs on one thread: its own threads would compete
# with the worker threads that each call BLAS for the same cores, a first
# threaded QR in a fresh process can stall, and apex's largest product
# (about [25, 1024] @ [1024, 96]) does not gain from a second thread.
_bound_malloc_arenas()
if (_blas := _openblas()) is not None:
    _blas[1](1)
