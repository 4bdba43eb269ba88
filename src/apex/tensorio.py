"""Binary tensor files, their digests, and PGM image dumps.

Tensor file layout (little-endian throughout):

    bytes 0..3   magic "APXT"
    u32          rank
    u32 * rank   dimension sizes
    f64 * n      values, row-major

A file whose length disagrees with its header is rejected before any data
is read. PGM (P5) dumps are for visual inspection only; numeric pipelines
always use the binary format.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import os
import struct

import numpy as np

from .errors import CorruptInputError, InputNotFoundError

MAGIC = b"APXT"


def write_tensor(path, arr) -> None:
    """Write ``arr``; a list or tuple of equal-shape arrays as their stack, one by one."""
    seq = isinstance(arr, (list, tuple))
    parts = arr if seq else [arr]
    shapes = {np.shape(a) for a in parts}
    if len(shapes) != 1:
        raise ValueError("write_tensor needs one or more arrays of one shape")
    shape = (len(parts), *shapes.pop()) if seq else shapes.pop()
    with open(path, "wb", buffering=1 << 16) as fh:
        fh.write(MAGIC)
        fh.write(struct.pack(f"<I{len(shape)}I", len(shape), *shape))
        # each part is converted as it is written, so a list of bool masks
        # never has a float64 copy of the whole list; parts under the 64 KiB
        # file buffer are gathered in it, larger ones go out uncopied
        for part in parts:
            fh.write(np.asarray(part, dtype="<f8", order="C"))


@contextlib.contextmanager
def tensor_reader(path):
    """Open a tensor file and check its magic, and its length against its
    header, before any data is read; give its shape and ``read(out)``, which
    fills the C-contiguous little-endian float64 array ``out`` with the
    file's next ``out.size`` values. So a caller can read a tensor a sample
    at a time, into one reused buffer."""
    try:
        fh = open(path, "rb")
    except FileNotFoundError:
        raise InputNotFoundError(f"tensor file {path} does not exist") from None
    with fh:
        file_size = os.fstat(fh.fileno()).st_size
        head = fh.read(8)
        if head[:4] != MAGIC:
            raise CorruptInputError(f"{path}: bad magic {head[:4]!r}, expected {MAGIC!r}")
        rank = struct.unpack("<I", head[4:])[0] if len(head) == 8 else 0
        if file_size < 8 + 4 * rank:
            raise CorruptInputError(f"{path}: tensor header is cut short")
        shape = struct.unpack(f"<{rank}I", fh.read(4 * rank))
        size = 8 + 4 * rank + 8 * math.prod(shape)
        if file_size < size:
            raise CorruptInputError(f"{path}: truncated tensor file "
                                    f"({file_size} bytes, header needs {size})")
        if file_size > size:
            raise CorruptInputError(f"{path}: {file_size - size} trailing bytes "
                                    "after tensor data")

        def read(out: np.ndarray) -> None:
            if fh.readinto(out) != out.nbytes:
                raise CorruptInputError(f"{path}: tensor file ended while its data was read")

        yield shape, read


def read_tensor(path) -> np.ndarray:
    with tensor_reader(path) as (shape, read):
        out = np.empty(shape, dtype="<f8")
        read(out)
    return out.astype(np.float64, copy=False)


def tensor_digest(*arrays) -> str:
    """sha256 over shapes and raw little-endian bytes; order-sensitive."""
    h = hashlib.sha256()
    for arr in arrays:
        arr = np.ascontiguousarray(arr, dtype=np.float64)
        h.update(struct.pack(f"<I{arr.ndim}I", arr.ndim, *arr.shape))
        h.update(arr.astype("<f8").tobytes())
    return h.hexdigest()


def write_pgm(path, img) -> None:
    """Single-channel dump; accepts [h, w] or [h, w, 1] in nominal [0, 1]."""
    arr = np.asarray(img, dtype=np.float64)
    if arr.ndim == 3:
        if arr.shape[2] != 1:
            raise ValueError(f"write_pgm expects one channel, got {arr.shape}")
        arr = arr[:, :, 0]
    h, w = arr.shape
    pixels = np.clip(np.floor(arr * 255.0 + 0.5), 0.0, 255.0).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(pixels.tobytes())

