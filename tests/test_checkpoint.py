import struct

import numpy as np
import pytest

from volformer.checkpoint import MAGIC, VERSION, load_checkpoint, save_checkpoint
from volformer.errors import CheckpointError


def test_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    tensors = {
        "encoder.conv.weight": rng.normal(size=(4, 2, 3, 3)).astype(np.float32),
        "head.bias": rng.normal(size=3).astype(np.float32),
        "scalarish": np.float32([1.5]),
    }
    path = tmp_path / "model.vfwt"
    save_checkpoint(path, tensors)
    back = load_checkpoint(path)
    assert list(back) == list(tensors)
    for name in tensors:
        np.testing.assert_array_equal(back[name], tensors[name])


def test_byte_layout(tmp_path):
    path = tmp_path / "one.vfwt"
    save_checkpoint(path, {"w": np.float32([[1.0, 2.0]])})
    raw = path.read_bytes()
    assert raw[:4] == MAGIC
    version, count = struct.unpack_from("<HI", raw, 4)
    assert (version, count) == (VERSION, 1)
    (name_len,) = struct.unpack_from("<H", raw, 10)
    assert raw[12:12 + name_len] == b"w"
    ndim = raw[12 + name_len]
    assert ndim == 2
    dims = struct.unpack_from("<2I", raw, 13 + name_len)
    assert dims == (1, 2)
    payload = np.frombuffer(raw[13 + name_len + 8:], dtype="<f4")
    np.testing.assert_array_equal(payload, [1.0, 2.0])


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.vfwt"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(path)


def test_truncated_payload_reports_offset(tmp_path):
    path = tmp_path / "trunc.vfwt"
    save_checkpoint(path, {"w": np.ones((8, 8), dtype=np.float32)})
    full = path.read_bytes()
    path.write_bytes(full[:-10])
    with pytest.raises(CheckpointError, match="offset"):
        load_checkpoint(path)


def test_header_only_file(tmp_path):
    path = tmp_path / "header.vfwt"
    path.write_bytes(MAGIC + struct.pack("<HI", VERSION, 2))
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(path)


def test_float64_saved_as_float32(tmp_path):
    path = tmp_path / "f64.vfwt"
    save_checkpoint(path, {"x": np.array([1.0000001], dtype=np.float64)})
    back = load_checkpoint(path)
    assert back["x"].dtype == np.float32


def test_non_utf8_name_reports_offset(tmp_path):
    path = tmp_path / "name.vfwt"
    save_checkpoint(path, {"w": np.ones(2, dtype=np.float32)})
    raw = bytearray(path.read_bytes())
    raw[12] = 0xFF  # the name's one byte, after magic, header and name length
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="tensor 0 name at offset 12 is not UTF-8"):
        load_checkpoint(path)


@pytest.mark.parametrize("damage, message", [
    (lambda raw: b"NOPE" + raw[4:], "bad magic b'NOPE' at offset 0 (expected b'VFWT')"),
    (lambda raw: raw[:4] + struct.pack("<H", 9) + raw[6:], "unsupported checkpoint version 9"),
    (lambda raw: raw[:12] + b"\xff" + raw[13:], "tensor 0 name at offset 12 is not UTF-8"),
    (lambda raw: raw[:-1], "truncated checkpoint: w payload at offset 18"),
    (lambda raw: raw + b"\x00", "trailing bytes after the last tensor at offset 26"),
], ids=["magic", "version", "name", "truncated", "trailing-byte"])
def test_errors_name_the_file(tmp_path, damage, message):
    path = tmp_path / "damaged.vfwt"
    save_checkpoint(path, {"w": np.ones(2, dtype=np.float32)})
    path.write_bytes(damage(path.read_bytes()))
    with pytest.raises(CheckpointError) as info:
        load_checkpoint(path)
    assert str(info.value) == f"{path}: {message}"
