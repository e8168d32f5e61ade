import os
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


@pytest.mark.parametrize("old_shape", [(4, 8), (3,), (1,)], ids=["longer", "same-size", "shorter"])
def test_overwrite_gives_fresh_bytes(tmp_path, rng, old_shape):
    new = rng.standard_normal(3)
    fresh, reused = tmp_path / "fresh.movt", tmp_path / "reused.movt"
    save_tensor(fresh, new)
    save_tensor(reused, rng.standard_normal(old_shape))
    save_tensor(reused, new)
    assert reused.read_bytes() == fresh.read_bytes()


def test_overwrite_never_truncates_on_open(tmp_path, rng, monkeypatch):
    path = tmp_path / "t.movt"
    save_tensor(path, rng.standard_normal(64))
    flags = []
    real_open = os.open

    def spy(file, flag, *args, **kwargs):
        flags.append(flag)
        return real_open(file, flag, *args, **kwargs)

    monkeypatch.setattr(os, "open", spy)
    save_tensor(path, rng.standard_normal(2))
    assert flags and not any(flag & os.O_TRUNC for flag in flags)
    assert len(path.read_bytes()) == 6 + 4 + 4 * 2


def test_devices_are_written_without_cutting():
    if not os.path.exists("/dev/null"):
        pytest.skip("no /dev/null")
    save_tensor("/dev/null", np.ones(4))


def test_write_errors_name_the_file(tmp_path):
    with pytest.raises(ValidationError, match="cannot write MOVT file"):
        save_tensor(str(tmp_path / "nul\0byte.movt"), np.ones(2))
    with pytest.raises(ValidationError, match="missing/t.movt: cannot write MOVT file"):
        save_tensor(tmp_path / "missing" / "t.movt", np.ones(2))
    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full")
    with pytest.raises(ValidationError, match="^/dev/full: cannot write MOVT file"):
        save_tensor("/dev/full", np.ones(2))


@pytest.mark.parametrize(
    ("error", "caught"), [(OSError(5, "injected"), ValidationError), (RuntimeError, RuntimeError)]
)
def test_failure_after_open_leaves_empty_file(tmp_path, rng, monkeypatch, error, caught):
    path = tmp_path / "t.movt"
    save_tensor(path, rng.standard_normal(16))

    def fail(fd):
        raise error

    monkeypatch.setattr(os, "fstat", fail)
    with pytest.raises(caught):
        save_tensor(path, rng.standard_normal(2))
    monkeypatch.undo()
    assert path.read_bytes() == b""
    with pytest.raises(ValidationError, match="magic"):
        load_tensor(path)


@pytest.mark.parametrize(
    ("array", "error"),
    [
        (np.array([1.0, np.inf]), NumericError),
        (np.zeros((0, 3)), ValidationError),
        (np.zeros((2**32, 0)), ValidationError),
        (np.zeros((0, 2**32)), ValidationError),
    ],
)
def test_rejected_tensor_leaves_existing_file_untouched(tmp_path, rng, array, error):
    path = tmp_path / "t.movt"
    save_tensor(path, rng.standard_normal((3, 2)))
    before = path.read_bytes()
    with pytest.raises(error):
        save_tensor(path, array)
    assert path.read_bytes() == before
