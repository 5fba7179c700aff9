"""Volume container, binary I/O, preprocessing chain, view reprojection and
slice-stack augmentation.

Axis convention: a freshly acquired scan is sagittal-native with in-slice
axes (0, 1) and the slice axis last (axis 2). ``reproject`` reorients any
requested view into that same layout (slices along axis 2) and resamples the
in-slice grid to isotropic spacing with about the original voxel count (see
``reproject`` for the exact rule: within 2% at paper size, not on every grid).
"""

from __future__ import annotations

import itertools
import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError
from .manifest import atomic_writer

VOLUME_MAGIC = b"VVOL"
VOLUME_VERSION = 1
_DTYPE_CODES = {"u8": 0, "f32": 1}
_CODE_DTYPES = {0: np.dtype(np.uint8), 1: np.dtype("<f4")}

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
        if len(self.spacing) != 3 or not all(0 < s < math.inf for s in self.spacing):
            raise ConfigError(f"spacing must be 3 positive finite values, got {self.spacing}")

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


# ---------------------------------------------------------------------------
# binary format

_HEADER = struct.Struct("<4sHB3I3f")  # magic, version, dtype code, dims, spacing


def save_volume(volume: Volume, path):
    code = _DTYPE_CODES[volume.dtype_code]
    payload = np.ascontiguousarray(volume.voxels, dtype=_CODE_DTYPES[code])
    with atomic_writer(path, "wb") as fh:
        fh.write(_HEADER.pack(VOLUME_MAGIC, VOLUME_VERSION, code,
                              *volume.dims, *volume.spacing))
        fh.write(memoryview(payload).cast("B"))


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
    spacing = (s0, s1, s2)
    if not all(0 < s < math.inf for s in spacing):
        raise DataError(f"{path}: spacing {spacing} not positive and finite at offset 19")
    return dims, spacing, code


def load_volume(path) -> Volume:
    """Read the payload straight into a new array of the header's dtype."""
    dims, spacing, code = read_volume_header(path)
    voxels = np.empty(dims, dtype=_CODE_DTYPES[code])
    buf = memoryview(voxels).cast("B")
    with open(path, "rb") as fh:
        fh.seek(_HEADER.size)
        got = fh.readinto(buf)  # a buffered file reads until full or at EOF
        if got < len(buf):
            raise DataError(f"{path}: truncated payload at offset {_HEADER.size + got} "
                            f"(expected {len(buf)} bytes)")
        if fh.read(1):
            raise DataError(f"{path}: 1+ trailing bytes after payload")
    return Volume(voxels, spacing)


# ---------------------------------------------------------------------------
# preprocessing

# float64 bytes of one slab of ``preprocess``: small enough to stay in cache
SLAB_BYTES = 1 << 20


def preprocess(volume: Volume, crop_dims=(320, 320, 128), factors=(2, 2, 2)) -> Volume:
    """Center crop, min-max quantise to [0, 255] (a constant crop maps to 0),
    block-average downsample by integer factors and round to uint8. The crop
    view is walked in slabs of whole ``factors[0]``-row groups: no full-size
    temporary. Integer block sums are exact, so the bits match a ``mean``."""
    crop = tuple(int(c) for c in crop_dims)
    factors = tuple(int(f) for f in factors)
    if any(c > d for c, d in zip(crop, volume.dims)):
        raise ConfigError(f"crop {crop} larger than volume {volume.dims}")
    if min(crop) < 1:
        raise ConfigError(f"crop dims must be positive, got {crop}")
    if min(factors) < 1:
        raise ConfigError(f"downsample factors must be >=1, got {factors}")
    if any(c % f for c, f in zip(crop, factors)):
        raise ConfigError(f"dims {crop} not divisible by downsample factors {factors}")
    starts = [(d - c) // 2 for d, c in zip(volume.dims, crop)]
    vox = volume.voxels[tuple(slice(s, s + c) for s, c in zip(starts, crop))]
    out = np.zeros([c // f for c, f in zip(crop, factors)], np.uint8)
    spacing = tuple(s * f for s, f in zip(volume.spacing, factors))
    lo, hi = float(vox.min()), float(vox.max())
    if hi == lo:
        return Volume(out, spacing)
    f0, f1, f2 = factors
    rows = f0 * max(1, SLAB_BYTES // (8 * f0 * crop[1] * crop[2]))
    slab, pooled = np.empty((rows,) + crop[1:]), np.empty((rows // f0,) + out.shape[1:])
    blocks = list(itertools.product(range(f0), range(f1), range(f2)))
    for r in range(0, crop[0], rows):
        q, acc = slab[:min(rows, crop[0] - r)], pooled[:min(rows, crop[0] - r) // f0]
        np.copyto(q, vox[r:r + len(q)])
        q -= lo
        q /= hi - lo
        q *= 255.0
        np.round(q, out=q)
        np.copyto(acc, q[::f0, ::f1, ::f2])
        for i, j, k in blocks[1:]:
            acc += q[i::f0, j::f1, k::f2]
        acc /= len(blocks)
        out[r // f0:r // f0 + len(acc)] = np.round(acc, out=acc)
    return Volume(out, spacing)


# ---------------------------------------------------------------------------
# reprojection


def _isotropic_grid(extents, spacings, total_target, tol=0.02, max_iter=16):
    """In-slice grid (m0, m1) and its equal spacing whose count m0 * m1 comes
    closest to ``total_target`` among the spacings tried (see ``reproject``)."""
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
    in-slice to isotropic spacing s; the slice count is kept.

    Both in-slice extents are rounded from the one spacing,
    ``m_i = round(extent_i * spacing_i / s)``, so the grid can only take the
    counts m0 * m1 that some s reaches; a square field of view gets an m x m
    grid, so its in-slice count is a perfect square. The search refines s
    until m0 * m1 is within 2% of the original in-slice count, or returns the
    closest grid it visited. Paper-sized volumes land within 2%; small grids
    can miss it: 32x32x16 at (0.8, 0.8, 1.6) mm needs 512 in-slice voxels for
    ``cor`` and gets 23 x 23 (+3.3%), 16x16x8 gets 11 x 11 (-5.5%).

    Resampling is bilinear with edge clamping, into one preallocated output:
    uint8 (rounded and clipped) for a uint8 volume, float32 otherwise. The
    grid is separable, so each axis's two taps and weights are computed once
    (``_bilinear_taps``) and each output row is filled for every slice from
    gathers of two weighted source rows: the temporaries are a few rows of
    float64. The arithmetic is that of ``scipy.ndimage.map_coordinates``
    with ``order=1, mode="nearest"``, bit for bit: the four
    ``value * w_row * w_col`` terms are summed in float64 in corner order,
    then cast to float32. The slice positions are whole numbers, so this
    equals trilinear interpolation at ``(i, j, k)``, whose slice-axis terms
    carry zero weight."""
    if view not in VIEW_PERMUTATIONS:
        raise ConfigError(f"unknown view {view!r}")
    perm = VIEW_PERMUTATIONS[view]
    vox = np.transpose(volume.voxels, perm)
    spacing = tuple(volume.spacing[p] for p in perm)
    if abs(spacing[0] - spacing[1]) < 1e-9:
        return Volume(np.ascontiguousarray(vox), spacing)

    n0, n1, n_slices = vox.shape
    m0, m1, s = _isotropic_grid((n0, n1), spacing[:2], vox.size / n_slices)
    taps0, weights0 = _bilinear_taps(m0, s, spacing[0], n0)
    taps1, weights1 = _bilinear_taps(m1, s, spacing[1], n1)
    weights1 = weights1[:, :, None]
    if vox.dtype != np.uint8:
        vox = vox.astype(np.float32, copy=False)
    out = np.empty((m0, m1, n_slices), vox.dtype)
    rows = np.empty((2, n1, n_slices))
    acc, term = np.empty((2, m1, n_slices))
    plane = np.empty((m1, n_slices), np.float32)
    for i in range(m0):  # value * w_row * w_col per corner, summed in corner order
        for a in range(2):
            np.multiply(vox[taps0[a, i]], weights0[a, i], out=rows[a])
        np.take(rows[0], taps1[0], axis=0, out=acc)
        acc *= weights1[0]
        for a, b in ((0, 1), (1, 0), (1, 1)):
            np.take(rows[a], taps1[b], axis=0, out=term)
            term *= weights1[b]
            acc += term
        np.copyto(plane, acc)
        if out.dtype == np.uint8:
            np.clip(np.round(plane, out=plane), 0, 255, out=plane)
        out[i] = plane
    return Volume(out, (s, s, spacing[2]))


def _bilinear_taps(m, s, spacing, n):
    """Source taps (2, m) and weights (2, m) of ``m`` output voxels of
    spacing ``s`` on an axis of ``n`` voxels of ``spacing``: the lower tap
    ``floor(c)`` weighs ``1 - (c - floor(c))``, the upper one the rest, and
    taps outside the axis are clipped to its edge voxels (the coordinate is
    not clamped, as in ``map_coordinates``)."""
    # voxel centers at (i + 0.5) * spacing
    c = ((np.arange(m) + 0.5) * s) / spacing - 0.5
    start = np.floor(c)
    w_low = 1.0 - (c - start)
    taps = np.clip(np.stack([start, start + 1]), 0, n - 1).astype(np.intp)
    return taps, np.stack([w_low, 1.0 - w_low])


def extract_slices(volume: Volume):
    """The (k, H, W) slices of a volume already oriented for its view (see
    ``reproject``): one contiguous slice per index of axis 2."""
    return np.ascontiguousarray(np.moveaxis(volume.voxels, 2, 0))


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
    from scipy import ndimage
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


def augment(slices, rng, policy: AugmentPolicy = None):
    """Random translation (reflect-padded), in-slice rotation (bilinear about
    the slice center) and gamma correction on normalized intensities of a
    (k, H, W) uint8 slice stack; returns a new array.

    One draw per stack: all slices of a scan transform together. Pure
    function of (slices, rng state, policy)."""
    policy = (policy or AugmentPolicy()).validate()
    if policy.is_identity:
        return slices.copy()
    h, w = slices.shape[1:]
    max_dy = int(policy.max_shift_frac * h)
    max_dx = int(policy.max_shift_frac * w)
    dy = int(rng.integers(-max_dy, max_dy + 1)) if max_dy else 0
    dx = int(rng.integers(-max_dx, max_dx + 1)) if max_dx else 0
    angle = float(rng.uniform(-policy.max_rotate_deg, policy.max_rotate_deg))
    lo, hi = policy.gamma_range
    gamma = float(np.exp(rng.uniform(np.log(lo), np.log(hi))))

    out = _translate_reflect(slices, dy, dx)
    if angle != 0.0:
        out = rotate_slices(out, angle)
    if gamma != 1.0 or out.dtype != slices.dtype:
        norm = np.clip(out.astype(np.float64) / 255.0, 0.0, 1.0) ** gamma
        out = np.round(norm * 255.0).astype(np.uint8)
    return out
