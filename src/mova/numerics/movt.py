"""MOVT binary tensor files.

Layout: magic ``4D 4F 56 54`` ("MOVT"), version byte 0x01, rank byte, then
rank little-endian uint32 extents, then product-of-extents little-endian
IEEE-754 float32 values in row-major order. Values are widened to float64 on
load and narrowed to float32 on save.

``save_tensor`` overwrites an existing file in place: it opens without
``O_TRUNC``, writes the whole file at once and cuts it only when the old file
was longer. Truncating a file that holds data and writing it again cost about
0.25 ms per fuse request on ext4. The write is not atomic: a save that fails
after the open leaves an empty file, which ``load_tensor`` rejects.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import os
import struct
from pathlib import Path

import numpy as np

from mova.errors import NumericError, ValidationError

MAGIC = b"MOVT"
VERSION = 1


def save_tensor(path, array) -> str:
    """Write `array` as a MOVT file at `path`; returns the file's SHA-256 (hex)."""
    arr = np.ascontiguousarray(np.asarray(array, dtype=np.float64))
    if arr.ndim < 1 or arr.ndim > 255:
        raise ValidationError(f"MOVT rank must be in [1, 255], got {arr.ndim}")
    if not all(1 <= d < 2**32 for d in arr.shape):  # uint32, as load_tensor reads them
        raise ValidationError(f"MOVT extents must be in [1, 2**32 - 1], got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise NumericError("refusing to save non-finite values")
    data = MAGIC + struct.pack(f"<BB{arr.ndim}I", VERSION, arr.ndim, *arr.shape)
    data += arr.astype("<f4").tobytes()
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
        try:
            view = memoryview(data)
            while view:
                view = view[os.write(fd, view):]
            if os.fstat(fd).st_size > len(data):  # devices report 0 and are never cut
                os.ftruncate(fd, len(data))
        except BaseException:
            with contextlib.suppress(OSError):
                os.ftruncate(fd, 0)
            raise
        finally:
            os.close(fd)
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        raise ValidationError(f"{path}: cannot write MOVT file ({exc})") from exc
    return hashlib.sha256(data).hexdigest()


def load_tensor(path, sha256: str | None = None) -> np.ndarray:
    """Read a MOVT file; with `sha256`, its bytes must have that SHA-256 (hex)."""
    try:
        raw = Path(path).read_bytes()
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        raise ValidationError(f"{path}: cannot read MOVT file ({exc})") from exc
    if sha256 is not None and hashlib.sha256(raw).hexdigest() != sha256:
        raise ValidationError(f"{path}: SHA-256 differs from the one recorded at save")
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
