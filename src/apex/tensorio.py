"""Binary tensor files, checkpoint helpers, and PGM/PPM image dumps.

Tensor file layout (little-endian throughout):

    bytes 0..3   magic "APXT"
    u32          rank
    u32 * rank   dimension sizes
    f64 * n      values, row-major

PGM (P5) and PPM (P6) dumps are for visual inspection only; numeric
pipelines always use the binary format.
"""

from __future__ import annotations

import hashlib
import struct
from pathlib import Path

import numpy as np

from .errors import InputNotFoundError

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
        magic = fh.read(4)
        if magic != MAGIC:
            raise ValueError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
        (rank,) = struct.unpack("<I", fh.read(4))
        shape = struct.unpack(f"<{rank}I", fh.read(4 * rank)) if rank else ()
        count = int(np.prod(shape)) if shape else 1
        data = np.frombuffer(fh.read(8 * count), dtype="<f8")
        if data.size != count:
            raise ValueError(f"{path}: truncated tensor file")
        trailing = fh.read(1)
        if trailing:
            raise ValueError(f"{path}: trailing bytes after tensor data")
    return data.reshape(shape).astype(np.float64)


def tensor_digest(*arrays) -> str:
    """sha256 over shapes and raw little-endian bytes; order-sensitive."""
    h = hashlib.sha256()
    for arr in arrays:
        arr = np.ascontiguousarray(arr, dtype=np.float64)
        h.update(struct.pack(f"<I{arr.ndim}I", arr.ndim, *arr.shape))
        h.update(arr.astype("<f8").tobytes())
    return h.hexdigest()


def _to_bytes(img: np.ndarray) -> np.ndarray:
    scaled = np.floor(np.asarray(img, dtype=np.float64) * 255.0 + 0.5)
    return np.clip(scaled, 0.0, 255.0).astype(np.uint8)


def write_pgm(path, img) -> None:
    """Single-channel dump; accepts [h, w] or [h, w, 1] in nominal [0, 1]."""
    arr = np.asarray(img, dtype=np.float64)
    if arr.ndim == 3:
        if arr.shape[2] != 1:
            raise ValueError(f"write_pgm expects one channel, got {arr.shape}")
        arr = arr[:, :, 0]
    h, w = arr.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(_to_bytes(arr).tobytes())


def write_ppm(path, img) -> None:
    """Three-channel dump; accepts [h, w, 3] in nominal [0, 1]."""
    arr = np.asarray(img, dtype=np.float64)
    if arr.ndim != 3 or arr.shape[2] != 3:
        raise ValueError(f"write_ppm expects [h, w, 3], got {arr.shape}")
    h, w = arr.shape[:2]
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(_to_bytes(arr).tobytes())


def read_pnm(path) -> np.ndarray:
    """Read back a P5/P6 dump as floats in [0, 1] (for tests)."""
    data = Path(path).read_bytes()
    fields: list[bytes] = []
    pos = 0
    while len(fields) < 4:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if data[pos : pos + 1] == b"#":
            while pos < len(data) and data[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        fields.append(data[start:pos])
    pos += 1  # single whitespace after maxval
    kind, w, h, maxval = fields[0], int(fields[1]), int(fields[2]), int(fields[3])
    if kind not in (b"P5", b"P6") or maxval != 255:
        raise ValueError(f"{path}: unsupported PNM header")
    channels = 1 if kind == b"P5" else 3
    raw = np.frombuffer(data[pos : pos + w * h * channels], dtype=np.uint8)
    return raw.reshape(h, w, channels).astype(np.float64) / 255.0
