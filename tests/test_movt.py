import struct

import numpy as np
import pytest

from mova.errors import NumericError, ValidationError
from mova.numerics.movt import MAGIC, load_tensor, save_tensor


def test_header_layout(tmp_path, rng):
    arr = rng.standard_normal((2, 3, 4)).astype(np.float32).astype(np.float64)
    path = tmp_path / "t.movt"
    save_tensor(path, arr)
    raw = path.read_bytes()
    assert raw[:4] == b"\x4d\x4f\x56\x54" == MAGIC
    assert raw[4] == 1  # version
    assert raw[5] == 3  # rank
    assert struct.unpack_from("<3I", raw, 6) == (2, 3, 4)
    assert len(raw) == 6 + 12 + 4 * 24


def test_roundtrip_is_exact_for_f32_values(tmp_path, rng):
    arr = rng.standard_normal((5, 7)).astype(np.float32).astype(np.float64)
    path = tmp_path / "t.movt"
    save_tensor(path, arr)
    loaded = load_tensor(path)
    assert loaded.dtype == np.float64
    assert np.array_equal(loaded, arr)


def test_file_level_roundtrip_is_byte_identical(tmp_path, rng):
    first = tmp_path / "a.movt"
    second = tmp_path / "b.movt"
    save_tensor(first, rng.standard_normal((3, 3)))
    save_tensor(second, load_tensor(first))
    assert first.read_bytes() == second.read_bytes()


def test_save_narrows_to_f32(tmp_path):
    value = np.array([0.1])  # not representable in f32
    path = tmp_path / "t.movt"
    save_tensor(path, value)
    loaded = load_tensor(path)
    assert loaded[0] == np.float64(np.float32(0.1))
    assert loaded[0] != 0.1


def test_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.movt"
    path.write_bytes(b"NOPE" + bytes(10))
    with pytest.raises(ValidationError, match="magic"):
        load_tensor(path)


def test_rejects_wrong_version(tmp_path, rng):
    path = tmp_path / "t.movt"
    save_tensor(path, rng.standard_normal(4))
    raw = bytearray(path.read_bytes())
    raw[4] = 2
    path.write_bytes(bytes(raw))
    with pytest.raises(ValidationError, match="version"):
        load_tensor(path)


def test_rejects_truncated_payload(tmp_path, rng):
    path = tmp_path / "t.movt"
    save_tensor(path, rng.standard_normal(4))
    path.write_bytes(path.read_bytes()[:-3])
    with pytest.raises(ValidationError, match="payload"):
        load_tensor(path)
    # Extents whose product wraps to 0 in uint64 must not pass the length check.
    path.write_bytes(MAGIC + struct.pack("<BB3I", 1, 3, 2**31, 2**31, 4))
    with pytest.raises(ValidationError, match="payload"):
        load_tensor(path)


def test_rejects_non_finite_values(tmp_path):
    with pytest.raises(NumericError):
        save_tensor(tmp_path / "t.movt", np.array([np.nan]))
