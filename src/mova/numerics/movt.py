"""MOVT binary tensor files.

Layout: magic ``4D 4F 56 54`` ("MOVT"), version byte 0x01, rank byte, then
rank little-endian uint32 extents, then product-of-extents little-endian
IEEE-754 float32 values in row-major order. Values are widened to float64 on
load and narrowed to float32 on save.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

from mova.errors import NumericError, ValidationError

MAGIC = b"MOVT"
VERSION = 1


def save_tensor(path, array) -> None:
    arr = np.ascontiguousarray(np.asarray(array, dtype=np.float64))
    if arr.ndim < 1 or arr.ndim > 255:
        raise ValidationError(f"MOVT rank must be in [1, 255], got {arr.ndim}")
    if not np.all(np.isfinite(arr)):
        raise NumericError("refusing to save non-finite values")
    payload = arr.astype("<f4").tobytes()
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<BB", VERSION, arr.ndim))
        fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
        fh.write(payload)


def load_tensor(path) -> np.ndarray:
    try:
        raw = Path(path).read_bytes()
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        raise ValidationError(f"{path}: cannot read MOVT file ({exc})") from exc
    if len(raw) < 6 or raw[:4] != MAGIC:
        raise ValidationError(f"{path}: not a MOVT file (bad magic)")
    version, rank = struct.unpack_from("<BB", raw, 4)
    if version != VERSION:
        raise ValidationError(f"{path}: unsupported MOVT version {version}")
    header_end = 6 + 4 * rank
    if len(raw) < header_end:
        raise ValidationError(f"{path}: truncated MOVT header")
    dims = struct.unpack_from(f"<{rank}I", raw, 6)
    if any(d < 1 for d in dims):
        raise ValidationError(f"{path}: MOVT extents must be >= 1, got {dims}")
    count = math.prod(dims)  # exact: np.prod wraps at 2**64
    expected = header_end + 4 * count
    if len(raw) != expected:
        raise ValidationError(
            f"{path}: MOVT payload is {len(raw) - header_end} bytes, expected {4 * count}"
        )
    values = np.frombuffer(raw, dtype="<f4", count=count, offset=header_end)
    out = values.astype(np.float64).reshape(dims)
    if not np.all(np.isfinite(out)):
        raise NumericError(f"{path}: MOVT payload contains non-finite values")
    return out
