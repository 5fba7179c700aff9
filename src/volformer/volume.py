"""Volume container, binary I/O, preprocessing chain, view reprojection and
slice-stack augmentation.

Axis convention: a freshly acquired scan is sagittal-native with in-slice
axes (0, 1) and the slice axis last (axis 2). ``reproject`` reorients any
requested view into that same layout (slices along axis 2) and resamples the
in-slice grid to isotropic spacing while preserving the total voxel count to
within 2%.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .errors import ConfigError, DataError

VOLUME_MAGIC = b"VVOL"
VOLUME_VERSION = 1
_DTYPE_CODES = {"u8": 0, "f32": 1}
_CODE_DTYPES = {0: np.dtype(np.uint8), 1: np.dtype("<f4")}

# which axis of a sagittal-native volume carries the slices of each view
VIEW_AXES = {"sag": 2, "cor": 0, "ax": 1}
# axis permutation that reorients a sagittal-native volume so that the
# requested view's slices lie along axis 2
VIEW_PERMUTATIONS = {"sag": (0, 1, 2), "cor": (1, 2, 0), "ax": (0, 2, 1)}


@dataclass
class Volume:
    voxels: np.ndarray  # 3-D, row-major
    spacing: tuple  # mm per axis

    def __post_init__(self):
        self.voxels = np.asarray(self.voxels)
        if self.voxels.ndim != 3:
            raise ConfigError(f"volumes are 3-D, got shape {self.voxels.shape}")
        self.spacing = tuple(float(s) for s in self.spacing)
        if len(self.spacing) != 3 or min(self.spacing) <= 0:
            raise ConfigError(f"spacing must be 3 positive values, got {self.spacing}")

    @property
    def dims(self):
        return self.voxels.shape

    @property
    def dtype_code(self):
        if self.voxels.dtype == np.uint8:
            return "u8"
        if self.voxels.dtype in (np.float32, np.dtype("<f4")):
            return "f32"
        raise ConfigError(f"unsupported volume dtype {self.voxels.dtype}")


@dataclass
class SliceStack:
    view: str
    slices: np.ndarray  # (k, H, W)

    def __post_init__(self):
        if self.view not in VIEW_AXES:
            raise ConfigError(f"unknown view {self.view!r}")
        if self.slices.ndim != 3 or self.slices.shape[0] < 1:
            raise ConfigError(f"slice stack must be (k>=1, H, W), got {self.slices.shape}")

    @property
    def k(self):
        return self.slices.shape[0]


# ---------------------------------------------------------------------------
# binary format

_HEADER = struct.Struct("<4sHB3I3f")  # magic, version, dtype code, dims, spacing


def save_volume(volume: Volume, path):
    code = _DTYPE_CODES[volume.dtype_code]
    payload = volume.voxels.astype(_CODE_DTYPES[code]).tobytes()
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(VOLUME_MAGIC, VOLUME_VERSION, code,
                              *volume.dims, *volume.spacing))
        fh.write(payload)


def read_volume_header(path):
    """Dims/spacing/dtype without touching the payload (fast metadata scans)."""
    with open(path, "rb") as fh:
        raw = fh.read(_HEADER.size)
    if len(raw) < _HEADER.size:
        raise DataError(f"{path}: truncated header at offset {len(raw)}")
    magic, version, code, d0, d1, d2, s0, s1, s2 = _HEADER.unpack(raw)
    if magic != VOLUME_MAGIC:
        raise DataError(f"{path}: bad magic {magic!r} at offset 0")
    if version != VOLUME_VERSION:
        raise DataError(f"{path}: unsupported version {version}")
    if code not in _CODE_DTYPES:
        raise DataError(f"{path}: unknown dtype code {code} at offset 6")
    dims = (d0, d1, d2)
    if min(dims) < 1 or int(d0) * int(d1) * int(d2) > 2**40:
        raise DataError(f"{path}: implausible dims {dims} at offset 7")
    return dims, (s0, s1, s2), code


def load_volume(path) -> Volume:
    dims, spacing, code = read_volume_header(path)
    dtype = _CODE_DTYPES[code]
    expected = int(np.prod(dims)) * dtype.itemsize
    with open(path, "rb") as fh:
        fh.seek(_HEADER.size)
        payload = fh.read(expected + 1)
    if len(payload) < expected:
        raise DataError(
            f"{path}: truncated payload at offset {_HEADER.size + len(payload)} "
            f"(expected {expected} bytes)")
    if len(payload) > expected:
        raise DataError(f"{path}: {len(payload) - expected}+ trailing bytes after payload")
    voxels = np.frombuffer(payload[:expected], dtype=dtype).reshape(dims)
    if dtype != np.uint8:
        voxels = voxels.astype(np.float32)
    return Volume(voxels.copy(), spacing)


# ---------------------------------------------------------------------------
# preprocessing


def center_crop(volume: Volume, crop_dims) -> Volume:
    crop_dims = tuple(int(c) for c in crop_dims)
    if any(c > d for c, d in zip(crop_dims, volume.dims)):
        raise ConfigError(f"crop {crop_dims} larger than volume {volume.dims}")
    if min(crop_dims) < 1:
        raise ConfigError(f"crop dims must be positive, got {crop_dims}")
    offsets = [(d - c) // 2 for d, c in zip(volume.dims, crop_dims)]
    sl = tuple(slice(o, o + c) for o, c in zip(offsets, crop_dims))
    return Volume(volume.voxels[sl].copy(), volume.spacing)


def quantize_u8(volume: Volume) -> Volume:
    """Per-volume min-max quantization to [0, 255]; constant volumes map to 0."""
    vox = volume.voxels.astype(np.float64)
    lo, hi = vox.min(), vox.max()
    if hi == lo:
        q = np.zeros(volume.dims, dtype=np.uint8)
    else:
        q = np.round((vox - lo) / (hi - lo) * 255.0).astype(np.uint8)
    return Volume(q, volume.spacing)


def downsample(volume: Volume, factors) -> Volume:
    """Anti-aliased integer-factor downsampling via block average pooling."""
    factors = tuple(int(f) for f in factors)
    if min(factors) < 1:
        raise ConfigError(f"downsample factors must be >=1, got {factors}")
    dims = volume.dims
    if any(d % f for d, f in zip(dims, factors)):
        raise ConfigError(f"dims {dims} not divisible by downsample factors {factors}")
    v = volume.voxels.reshape(dims[0] // factors[0], factors[0],
                              dims[1] // factors[1], factors[1],
                              dims[2] // factors[2], factors[2])
    pooled = v.astype(np.float64).mean(axis=(1, 3, 5))
    if volume.voxels.dtype == np.uint8:
        pooled = np.round(pooled).astype(np.uint8)
    else:
        pooled = pooled.astype(np.float32)
    spacing = tuple(s * f for s, f in zip(volume.spacing, factors))
    return Volume(pooled, spacing)


def preprocess(volume: Volume, crop_dims=(320, 320, 128), factors=(2, 2, 2)) -> Volume:
    """Center crop, min-max quantize to 8-bit, average-pool downsample."""
    return downsample(quantize_u8(center_crop(volume, crop_dims)), factors)


# ---------------------------------------------------------------------------
# reprojection


def _isotropic_grid(extents, spacings, total_target, tol=0.02, max_iter=16):
    """In-slice extents/spacing with equal spacing and preserved voxel budget."""
    l0 = extents[0] * spacings[0]
    l1 = extents[1] * spacings[1]
    in_slice_target = total_target
    s = float(np.sqrt(l0 * l1 / in_slice_target))
    best = None
    for _ in range(max_iter):
        m0 = max(1, round(l0 / s))
        m1 = max(1, round(l1 / s))
        err = abs(m0 * m1 / in_slice_target - 1.0)
        if best is None or err < best[0]:
            best = (err, m0, m1, s)
        if err <= tol:
            break
        s *= float(np.sqrt(m0 * m1 / in_slice_target))
    _, m0, m1, s = best
    return m0, m1, s


def reproject(volume: Volume, view) -> Volume:
    """Reorient so the requested view's slices lie along axis 2, resampling
    in-slice to isotropic spacing while keeping the voxel count within 2%."""
    if view not in VIEW_PERMUTATIONS:
        raise ConfigError(f"unknown view {view!r}")
    perm = VIEW_PERMUTATIONS[view]
    vox = np.transpose(volume.voxels, perm)
    spacing = tuple(volume.spacing[p] for p in perm)
    if abs(spacing[0] - spacing[1]) < 1e-9:
        return Volume(np.ascontiguousarray(vox), spacing)

    n_slices = vox.shape[2]
    m0, m1, s = _isotropic_grid(vox.shape[:2], spacing[:2], vox.size / n_slices)
    # voxel centers at (i + 0.5) * spacing; trilinear with edge clamping
    src0 = ((np.arange(m0) + 0.5) * s) / spacing[0] - 0.5
    src1 = ((np.arange(m1) + 0.5) * s) / spacing[1] - 0.5
    src2 = np.arange(n_slices, dtype=np.float64)
    grid = np.meshgrid(src0, src1, src2, indexing="ij")
    resampled = ndimage.map_coordinates(vox.astype(np.float32), grid, order=1, mode="nearest")
    if volume.voxels.dtype == np.uint8:
        resampled = np.clip(np.round(resampled), 0, 255).astype(np.uint8)
    return Volume(resampled, (s, s, spacing[2]))


def extract_slices(volume: Volume, view, count=None) -> SliceStack:
    """All (or ``count`` evenly sampled) slices along the slice axis.

    The volume must already be oriented for the view (see ``reproject``).
    """
    vox = volume.voxels
    k = vox.shape[2]
    if count is not None:
        if not 1 <= count <= k:
            raise ConfigError(f"cannot sample {count} of {k} slices")
        idx = np.linspace(0, k - 1, count).round().astype(int)
        vox = vox[:, :, idx]
    slices = np.ascontiguousarray(np.moveaxis(vox, 2, 0))
    return SliceStack(view=view, slices=slices)


# ---------------------------------------------------------------------------
# augmentation


@dataclass
class AugmentPolicy:
    max_shift_frac: float = 0.05
    max_rotate_deg: float = 10.0
    gamma_range: tuple = (0.8, 1.25)  # drawn log-uniform

    def validate(self):
        if not 0.0 <= self.max_shift_frac < 1.0:
            raise ConfigError(f"max_shift_frac must be in [0, 1), got {self.max_shift_frac}")
        if self.max_rotate_deg < 0:
            raise ConfigError(f"max_rotate_deg must be >= 0, got {self.max_rotate_deg}")
        lo, hi = self.gamma_range
        if lo <= 0 or hi < lo:
            raise ConfigError(f"gamma_range must be 0 < lo <= hi, got {self.gamma_range}")
        return self

    @property
    def is_identity(self):
        return (self.max_shift_frac == 0.0 and self.max_rotate_deg == 0.0
                and self.gamma_range == (1.0, 1.0))


IDENTITY_POLICY = AugmentPolicy(0.0, 0.0, (1.0, 1.0))


def rotate_slices(slices, angle_deg):
    """Bilinear in-slice rotation about the slice center (reflect padding)."""
    if angle_deg == 0.0:
        return slices
    return ndimage.rotate(slices.astype(np.float32), angle_deg, axes=(1, 2),
                          reshape=False, order=1, mode="reflect")


def _translate_reflect(slices, dy, dx):
    if dy == 0 and dx == 0:
        return slices
    h, w = slices.shape[1:]
    padded = np.pad(slices, ((0, 0), (abs(dy), abs(dy)), (abs(dx), abs(dx))), mode="reflect")
    y0 = abs(dy) + dy
    x0 = abs(dx) + dx
    return padded[:, y0:y0 + h, x0:x0 + w]


def augment(stack: SliceStack, rng, policy: AugmentPolicy = None) -> SliceStack:
    """Random translation (reflect-padded), in-slice rotation (bilinear about
    the slice center) and gamma correction on normalized intensities.

    One draw per stack: all slices of a scan transform together. Pure
    function of (stack, rng state, policy)."""
    policy = (policy or AugmentPolicy()).validate()
    if policy.is_identity:
        return SliceStack(stack.view, stack.slices.copy())
    h, w = stack.slices.shape[1:]
    max_dy = int(policy.max_shift_frac * h)
    max_dx = int(policy.max_shift_frac * w)
    dy = int(rng.integers(-max_dy, max_dy + 1)) if max_dy else 0
    dx = int(rng.integers(-max_dx, max_dx + 1)) if max_dx else 0
    angle = float(rng.uniform(-policy.max_rotate_deg, policy.max_rotate_deg))
    lo, hi = policy.gamma_range
    gamma = float(np.exp(rng.uniform(np.log(lo), np.log(hi))))

    out = _translate_reflect(stack.slices, dy, dx)
    if angle != 0.0:
        out = rotate_slices(out, angle)
    if gamma != 1.0 or out.dtype != stack.slices.dtype:
        norm = np.clip(out.astype(np.float64) / 255.0, 0.0, 1.0) ** gamma
        out = np.round(norm * 255.0).astype(np.uint8)
    return SliceStack(stack.view, out)
