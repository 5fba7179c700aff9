"""Parameter checkpoint file format.

Little-endian binary: magic ``VFWT``, version u16, tensor count u32, then per
tensor: name length u16, UTF-8 name bytes, ndim u8, dims u32 x ndim, f32
payload. Values are stored as float32 regardless of in-memory precision.
"""

from __future__ import annotations

import struct

import numpy as np

from .errors import CheckpointError
from .manifest import atomic_writer

MAGIC = b"VFWT"
VERSION = 1


def save_checkpoint(path, tensors):
    """Write an ordered mapping of name -> numpy array."""
    with atomic_writer(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<HI", VERSION, len(tensors)))
        for name, arr in tensors.items():
            arr = np.asarray(arr)
            nb = name.encode("utf-8")
            fh.write(struct.pack("<H", len(nb)))
            fh.write(nb)
            fh.write(struct.pack("<B", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            fh.write(arr.astype("<f4").tobytes())


def _read_exact(fh, n, what):
    buf = fh.read(n)
    if len(buf) != n:
        raise CheckpointError(f"truncated checkpoint: {what} at offset {fh.tell() - len(buf)}")
    return buf


def load_checkpoint(path):
    """Read a checkpoint back as an ordered dict of name -> float32 array.
    A CheckpointError names ``path`` first."""
    with open(path, "rb") as fh:
        try:
            return _read_tensors(fh)
        except CheckpointError as exc:
            raise CheckpointError(f"{path}: {exc}") from None


def _read_tensors(fh):
    out = {}
    magic = _read_exact(fh, 4, "magic")
    if magic != MAGIC:
        raise CheckpointError(f"bad magic {magic!r} at offset 0 (expected {MAGIC!r})")
    version, count = struct.unpack("<HI", _read_exact(fh, 6, "header"))
    if version != VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    for i in range(count):
        (name_len,) = struct.unpack("<H", _read_exact(fh, 2, f"tensor {i} name length"))
        try:
            name = _read_exact(fh, name_len, f"tensor {i} name").decode("utf-8")
        except UnicodeDecodeError:
            raise CheckpointError(f"tensor {i} name at offset {fh.tell() - name_len} is not UTF-8") from None
        (ndim,) = struct.unpack("<B", _read_exact(fh, 1, f"{name} ndim"))
        dims = struct.unpack(f"<{ndim}I", _read_exact(fh, 4 * ndim, f"{name} dims"))
        n = int(np.prod(dims)) if ndim else 1
        payload = _read_exact(fh, 4 * n, f"{name} payload")
        out[name] = np.frombuffer(payload, dtype="<f4").reshape(dims).copy()
    if fh.read(1):
        raise CheckpointError(f"trailing bytes after the last tensor at offset {fh.tell() - 1}")
    return out
