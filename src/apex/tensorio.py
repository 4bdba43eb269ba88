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

import hashlib
import math
import os
import struct
from pathlib import Path

import numpy as np

from .errors import CorruptInputError, InputNotFoundError

MAGIC = b"APXT"


def write_tensor(path, arr) -> None:
    arr = np.asarray(arr, dtype=np.float64)  # tobytes() emits C order regardless
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", arr.ndim))
        fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
        fh.write(arr.astype("<f8").tobytes())


def read_tensor(path) -> np.ndarray:
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
        data = fh.read()
    return np.frombuffer(data, dtype="<f8").reshape(shape).astype(np.float64)


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


def read_pnm(path) -> np.ndarray:
    """Read back a :func:`write_pgm` dump as [h, w, 1] floats in [0, 1] (for tests)."""
    kind, size, maxval, pixels = Path(path).read_bytes().split(b"\n", 3)
    if kind != b"P5" or maxval != b"255":
        raise ValueError(f"{path}: unsupported PNM header")
    w, h = (int(v) for v in size.split())
    raw = np.frombuffer(pixels[:w * h], dtype=np.uint8)
    return raw.reshape(h, w, 1).astype(np.float64) / 255.0
