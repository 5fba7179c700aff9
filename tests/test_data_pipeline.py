import json
import os
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from volformer import manifest
from volformer import volume as volume_module
from volformer.checkpoint import save_checkpoint
from volformer.cli import main
from volformer.cohort import CLASS_FAST, CLASS_NONE, CLASS_SLOW, derive_label, write_cohort_csv
from volformer.errors import ConfigError, DataError
from volformer.evaluation import PredictionSet, export_curves
from volformer.synth import DEFAULT_CLASS_PROBS, SynthSpec, synth_generate
from volformer.training import EpochStats, history_to_csv
from volformer.volume import (
    AugmentPolicy,
    IDENTITY_POLICY,
    Volume,
    augment,
    extract_slices,
    load_volume,
    preprocess,
    read_volume_header,
    reproject,
    rotate_slices,
    save_volume,
)


def random_volume(rng, dims=(16, 16, 16), dtype=np.uint8, spacing=(1.0, 1.0, 1.0)):
    if dtype == np.uint8:
        vox = rng.integers(0, 256, dims, dtype=np.uint8)
    else:
        vox = rng.random(dims).astype(np.float32)
    return Volume(vox, spacing)


class TestVolumeIO:
    @pytest.mark.parametrize("dtype", [np.uint8, np.float32])
    def test_round_trip_bit_identical(self, tmp_path, dtype):
        vol = random_volume(np.random.default_rng(0), dtype=dtype, spacing=(0.37, 0.37, 0.7))
        path = tmp_path / "v.vvol"
        save_volume(vol, path)
        back = load_volume(path)
        np.testing.assert_array_equal(back.voxels, vol.voxels)
        assert back.voxels.dtype == dtype
        assert back.voxels.flags.writeable and back.voxels.flags.owndata
        assert back.spacing == pytest.approx(vol.spacing)

    def test_header_only_file_reports_offset(self, tmp_path):
        vol = random_volume(np.random.default_rng(1))
        path = tmp_path / "v.vvol"
        save_volume(vol, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:35])  # 31-byte header + 4 payload bytes
        with pytest.raises(DataError, match="truncated payload at offset"):
            load_volume(path)
        path.write_bytes(raw[:20])  # inside the header itself
        with pytest.raises(DataError, match="truncated header"):
            read_volume_header(path)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0, -0.5])
    def test_spacing_must_be_positive_and_finite(self, bad):
        vox = np.zeros((2, 2, 2), np.uint8)
        for axis in range(3):
            spacing = [1.0, 1.0, 1.0]
            spacing[axis] = bad
            with pytest.raises(ConfigError, match="positive finite"):
                Volume(vox, spacing)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "v.vvol"
        path.write_bytes(b"XXXX" + b"\x00" * 60)
        with pytest.raises(DataError, match="bad magic"):
            load_volume(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        vol = random_volume(np.random.default_rng(2))
        path = tmp_path / "v.vvol"
        save_volume(vol, path)
        path.write_bytes(path.read_bytes() + b"junk")
        with pytest.raises(DataError, match="trailing"):
            load_volume(path)

    def test_header_scan_streams_without_payload(self, tmp_path):
        rng = np.random.default_rng(3)
        paths = []
        for i in range(50):
            path = tmp_path / f"v{i}.vvol"
            save_volume(random_volume(rng, dims=(32, 32, 16)), path)
            paths.append(path)
        read_volume_header(paths[0])  # warm the cache
        t0 = time.perf_counter()
        for path in paths:
            dims, spacing, code = read_volume_header(path)
            assert dims == (32, 32, 16)
        per_file = (time.perf_counter() - t0) / len(paths)
        assert per_file < 1e-3, f"header scan took {per_file * 1e3:.3f} ms/file"


def reference_chain(voxels, spacing, crop, factors):
    """The crop / quantise / downsample chain on whole float64 arrays."""
    start = [(d - c) // 2 for d, c in zip(voxels.shape, crop)]
    v = voxels[tuple(slice(s, s + c) for s, c in zip(start, crop))].astype(np.float64)
    lo, hi = v.min(), v.max()
    q = np.round((v - lo) / (hi - lo) * 255.0) if hi > lo else np.zeros_like(v)
    shape = [n for c, f in zip(crop, factors) for n in (c // f, f)]
    out = np.round(q.reshape(shape).mean(axis=(1, 3, 5))).astype(np.uint8)
    return out, tuple(s * f for s, f in zip(spacing, factors))


class TestPreprocess:
    def test_default_chain_dims_and_spacing(self):
        rng = np.random.default_rng(4)
        vol = Volume(rng.random((384, 384, 160)).astype(np.float32), (0.37, 0.37, 0.7))
        out = preprocess(vol)  # crop 320x320x128, downsample x2
        assert out.dims == (160, 160, 64)
        assert out.spacing == pytest.approx((0.74, 0.74, 1.4))
        assert out.voxels.dtype == np.uint8
        np.testing.assert_array_equal(out.voxels, reference_chain(
            vol.voxels, vol.spacing, (320, 320, 128), (2, 2, 2))[0])

    # odd offsets: every axis crops an odd number of voxels
    @pytest.mark.parametrize("dims,crop,factors", [
        ((21, 20, 19), (18, 17, 14), (1, 1, 1)),
        ((37, 33, 25), (32, 30, 16), (2, 2, 2)),
        ((40, 35, 23), (27, 30, 16), (3, 2, 1)),
        ((41, 39, 37), (36, 32, 28), (4, 4, 4)),
    ])
    @pytest.mark.parametrize("dtype", [np.float32, np.uint8])
    def test_matches_float64_reference(self, dims, crop, factors, dtype):
        rng = np.random.default_rng(sum(dims))
        if dtype == np.uint8:
            vox = rng.integers(3, 251, dims, dtype=np.uint8)
        else:
            vox = (rng.standard_normal(dims) * 400.0 + 90.0).astype(np.float32)
        vol = Volume(vox, (0.37, 0.5, 0.7))
        out = preprocess(vol, crop, factors)
        expected, spacing = reference_chain(vox, vol.spacing, crop, factors)
        assert out.voxels.dtype == np.uint8
        np.testing.assert_array_equal(out.voxels, expected)
        assert out.spacing == spacing

    @pytest.mark.parametrize("rows", [28, 30])
    def test_slabs_with_and_without_remainder(self, monkeypatch, rows):
        # one 2-row group of a (.., 8, 8) crop is 1 KiB of float64: slabs of 6
        # rows leave a 4-row remainder of 28 rows and none of 30
        monkeypatch.setattr(volume_module, "SLAB_BYTES", 3 * 2 * 8 * 8 * 8)
        rng = np.random.default_rng(15)
        vox = rng.random((rows + 3, 11, 9)).astype(np.float32)
        out = preprocess(Volume(vox, (1, 1, 1)), (rows, 8, 8), (2, 2, 2))
        np.testing.assert_array_equal(
            out.voxels, reference_chain(vox, (1, 1, 1), (rows, 8, 8), (2, 2, 2))[0])

    def test_constant_volume_maps_to_zero(self):
        for dtype in (np.float32, np.uint8):
            vol = Volume(np.full((8, 8, 8), 7, dtype), (1, 1, 1))
            out = preprocess(vol, (6, 6, 6), (2, 3, 1))
            assert out.dims == (3, 2, 6) and out.voxels.dtype == np.uint8
            np.testing.assert_array_equal(out.voxels, 0)

    def test_quantize_linspace_hits_every_level_once(self):
        vol = Volume(np.linspace(0.0, 1.0, 256).reshape(256, 1, 1).astype(np.float32), (1, 1, 1))
        out = preprocess(vol, (256, 1, 1), (1, 1, 1))
        values, counts = np.unique(out.voxels, return_counts=True)
        np.testing.assert_array_equal(values, np.arange(256))
        np.testing.assert_array_equal(counts, 1)

    def test_quantize_spans_full_range(self):
        rng = np.random.default_rng(5)
        vol = Volume(rng.random((12, 12, 12)).astype(np.float32), (1, 1, 1))
        out = preprocess(vol, (12, 12, 12), (1, 1, 1))
        assert out.voxels.min() == 0
        assert out.voxels.max() == 255

    def test_crop_larger_than_volume_rejected(self):
        vol = random_volume(np.random.default_rng(6), dims=(8, 8, 8))
        with pytest.raises(ConfigError, match="crop"):
            preprocess(vol, (16, 8, 8), (1, 1, 1))

    def test_non_positive_crop_and_factors_rejected(self):
        vol = random_volume(np.random.default_rng(6), dims=(8, 8, 8))
        with pytest.raises(ConfigError, match="crop dims must be positive"):
            preprocess(vol, (8, 0, 8), (1, 1, 1))
        with pytest.raises(ConfigError, match="factors must be >=1"):
            preprocess(vol, (8, 8, 8), (2, 0, 2))

    def test_downsample_requires_divisible_dims(self):
        vol = random_volume(np.random.default_rng(7), dims=(9, 8, 8))
        with pytest.raises(ConfigError, match="divisible"):
            preprocess(vol, (9, 8, 8), (2, 2, 2))

    def test_downsample_is_block_average(self):
        # 0 and 255 are present, so quantisation leaves the levels as they are
        vox = np.array([0, 255, 10, 20, 30, 40, 50, 60], np.uint8).reshape(2, 2, 2)
        out = preprocess(Volume(vox, (1, 1, 1)), (2, 2, 2), (2, 2, 2))
        assert out.voxels[0, 0, 0] == 58  # round(465 / 8)
        assert out.spacing == (2.0, 2.0, 2.0)


class _FailingFile:
    """Wraps a real file: its second write stores half of its data, then
    raises as a full disk would."""

    def __init__(self, fh):
        self.fh, self.writes = fh, 0

    def write(self, data):
        self.writes += 1
        if self.writes == 2:
            self.fh.write(data[:len(data) // 2])
            self.fh.flush()
            raise OSError(28, "No space left on device")
        return self.fh.write(data)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


def write_curves(out, seed):
    rng = np.random.default_rng(seed)
    pred = PredictionSet([f"k{i}" for i in range(12)], rng.dirichlet(np.ones(3), 12),
                         np.arange(12) % 3)
    return list(export_curves(pred, out).values())


def write_history(out, seed):
    history = [EpochStats(e, 1e-4 * seed, 1.0 / (e + seed), 0.5, 0.25, 0) for e in range(3)]
    history_to_csv(history, out / "history_fold_0.csv")
    return [out / "history_fold_0.csv"]


def write_cohort(out, seed):
    write_cohort_csv(synth_generate(4, seed, with_volumes=False)[0], out / "cohort.csv")
    return [out / "cohort.csv"]


def write_predictions(path):
    rng = np.random.default_rng(3)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("knee_id,label,p_none,p_slow,p_fast\n")
        for i, p in enumerate(rng.dirichlet(np.ones(3), 12)):
            fh.write(f"k{i},{i % 3},{','.join(map(str, p.tolist()))}\n")


def write_checkpoint(out, seed):
    rng = np.random.default_rng(seed)
    save_checkpoint(out / "fold_0.vfwt", {"w": rng.random((2, 3)), "b": rng.random(3)})
    return [out / "fold_0.vfwt"]


class TestAtomicWrites:
    @pytest.fixture
    def fail_writes(self, monkeypatch):
        """Calling it makes every later ``atomic_writer`` file fail mid-write;
        returns the list of paths opened for writing since."""
        opened = []

        def fake_open(path, mode="r", *args, **kwargs):
            if "r" in mode:  # reads, such as a file hashed for a manifest
                return open(path, mode, *args, **kwargs)
            opened.append(path)
            return _FailingFile(open(path, mode, *args, **kwargs))

        def arm():
            monkeypatch.setattr(manifest, "open", fake_open, raising=False)
            return opened

        return arm

    def test_save_volume_failure_keeps_old_file(self, tmp_path, fail_writes):
        path = tmp_path / "v.vvol"
        save_volume(random_volume(np.random.default_rng(16)), path)
        old = path.read_bytes()
        opened = fail_writes()
        with pytest.raises(OSError, match="No space"):
            save_volume(random_volume(np.random.default_rng(17)), path)
        assert len(opened) == 1 and opened[0].parent == tmp_path and opened[0] != path
        assert path.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == ["v.vvol"]

    def test_write_manifest_failure_keeps_old_file(self, tmp_path, fail_writes):
        path = manifest.write_manifest(tmp_path, "preprocess", config={"view": "sag"},
                                       inputs={}, outputs=[], seeds={})
        old = path.read_bytes()
        opened = fail_writes()
        with pytest.raises(OSError, match="No space"):
            manifest.write_manifest(tmp_path, "preprocess", config={"view": "cor"},
                                    inputs={}, outputs=[], seeds={})
        assert len(opened) == 1 and opened[0].parent == tmp_path and opened[0] != path
        assert path.read_bytes() == old
        assert json.loads(old)["config"] == {"view": "sag"}
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

    @pytest.mark.parametrize("argv,name", [
        (["synth", "--subjects", "8", "--dims", "16x16x8"], "volumes/S00000_L.vvol"),
        (["label"], "labels.csv"),
        (["split", "--holdout", "inst_a"], "splits.json"),
        (["evaluate", "--n-boot", "100"], "report.json"),
        (["curves"], "roc.csv"),
        (["profile", "--preset", "toy-2d-trf"], "report.json"),
    ], ids=["synth", "label", "split", "evaluate", "curves", "profile"])
    def test_cli_output_failure_keeps_old_file(self, tmp_path, fail_writes, argv, name):
        data, out = tmp_path / "data", tmp_path / "out"
        subjects = "30" if argv[0] == "evaluate" else "8"  # enough knees to train and evaluate
        assert main(["synth", "--subjects", subjects, "--out", str(data)]) == 0
        cohort = str(data / "cohort.csv")
        flags = {"synth": ["--out", str(out)],
                 "evaluate": ["--snapshots", str(tmp_path / "run"), "--cohort", cohort,
                              "--out", str(out)],
                 "curves": ["--predictions", str(tmp_path / "predictions.csv"), "--out", str(out)],
                 "profile": ["--out", str(out / name)]}.get(
            argv[0], ["--cohort", cohort, "--out", str(out)])
        if argv[0] == "evaluate":
            assert main(["train", "--cohort", cohort,
                         "--volumes", str(data / "volumes"), "--out", str(tmp_path / "run"),
                         "--model-preset", "toy-2d-fc", "--epochs", "1",
                         "--warmup-epochs", "0", "--folds", "2"]) == 0
        if argv[0] == "curves":
            write_predictions(tmp_path / "predictions.csv")
        assert main(argv + flags) == 0
        old = (out / name).read_bytes()
        before = sorted(str(p.relative_to(out)) for p in out.rglob("*"))
        opened = fail_writes()
        assert main(argv + flags) == 3  # the full disk is an OS error
        assert [p.name for p in opened] == [f".{Path(name).name}.{os.getpid()}.tmp"]
        assert (out / name).read_bytes() == old
        # the rerun removed its manifest before its first write, and left no temporary file
        assert sorted(str(p.relative_to(out)) for p in out.rglob("*")) == [
            n for n in before if n != f"manifest_{argv[0]}.json"]

    @pytest.mark.parametrize("write", [write_curves, write_history, write_cohort,
                                       write_checkpoint],
                             ids=["curves", "history", "cohort", "checkpoint"])
    def test_writer_failure_keeps_old_file(self, tmp_path, fail_writes, write):
        paths = write(tmp_path, 1)
        old = {p.name: p.read_bytes() for p in paths}
        opened = fail_writes()
        with pytest.raises(OSError, match="No space"):
            write(tmp_path, 2)
        # the first file fails mid-write, so no later one is opened
        assert [p.name for p in opened] == [f".{paths[0].name}.{os.getpid()}.tmp"]
        assert {p.name: p.read_bytes() for p in paths} == old
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(old)


def reproject_3d_oracle(volume, view):
    """``reproject`` as one trilinear ``map_coordinates`` call on a 3-D
    float64 coordinate grid over a float32 copy of the volume."""
    from scipy import ndimage
    perm = volume_module.VIEW_PERMUTATIONS[view]
    vox = np.transpose(volume.voxels, perm)
    spacing = tuple(volume.spacing[p] for p in perm)
    n = vox.shape[2]
    m0, m1, s = volume_module._isotropic_grid(vox.shape[:2], spacing[:2], vox.size / n)
    src0 = ((np.arange(m0) + 0.5) * s) / spacing[0] - 0.5
    src1 = ((np.arange(m1) + 0.5) * s) / spacing[1] - 0.5
    grid = np.meshgrid(src0, src1, np.arange(n, dtype=np.float64), indexing="ij")
    out = ndimage.map_coordinates(vox.astype(np.float32), grid, order=1, mode="nearest")
    if volume.voxels.dtype == np.uint8:
        out = np.clip(np.round(out), 0, 255).astype(np.uint8)
    return out, (s, s, spacing[2])


def reproject_per_slice_oracle(volume, view):
    """``reproject`` as one 2-D ``map_coordinates`` call per slice, and the
    source coordinates of the in-slice grid's rows and columns."""
    from scipy import ndimage
    perm = volume_module.VIEW_PERMUTATIONS[view]
    vox = np.transpose(volume.voxels, perm).astype(np.float32)
    spacing = tuple(volume.spacing[p] for p in perm)
    n = vox.shape[2]
    m0, m1, s = volume_module._isotropic_grid(vox.shape[:2], spacing[:2], vox.size / n)
    src0 = ((np.arange(m0) + 0.5) * s) / spacing[0] - 0.5
    src1 = ((np.arange(m1) + 0.5) * s) / spacing[1] - 0.5
    grid = np.meshgrid(src0, src1, indexing="ij")
    out = np.stack([ndimage.map_coordinates(vox[:, :, k], grid, order=1, mode="nearest")
                    for k in range(n)], axis=2)
    if volume.voxels.dtype == np.uint8:
        out = np.clip(np.round(out), 0, 255).astype(np.uint8)
    return out, (src0, src1)


def bilinear_probe_voxels(rng, dims, dtype):
    """Random voxels; float32 ones of both signs over 30 orders of
    magnitude, far outside the range of a quantised volume."""
    if dtype == np.uint8:
        return rng.integers(0, 256, dims, dtype=np.uint8)
    return (rng.standard_normal(dims) * 10.0 ** rng.integers(0, 30, dims)).astype(np.float32)


def assert_reproject_matches_scipy(vol, view):
    out = reproject(vol, view)
    expected, coords = reproject_per_slice_oracle(vol, view)
    assert out.voxels.dtype == expected.dtype and out.dims == expected.shape
    assert out.voxels.tobytes() == expected.tobytes()
    return coords


class TestReproject:
    @settings(max_examples=150, deadline=None)
    @given(dims=st.tuples(*[st.integers(1, 12)] * 3),
           spacing=st.tuples(*[st.floats(0.2, 3.0)] * 3),
           dtype=st.sampled_from([np.uint8, np.float32]),
           view=st.sampled_from(["cor", "ax"]),
           seed=st.integers(0, 2 ** 16))
    def test_equals_per_slice_scipy_bilinear(self, dims, spacing, dtype, view, seed):
        perm = volume_module.VIEW_PERMUTATIONS[view]
        assume(abs(spacing[perm[0]] - spacing[perm[1]]) >= 1e-9)  # else no resampling
        vol = Volume(bilinear_probe_voxels(np.random.default_rng(seed), dims, dtype), spacing)
        assert_reproject_matches_scipy(vol, view)

    @pytest.mark.parametrize("view", ["cor", "ax"])
    def test_paper_size_equals_per_slice_scipy_bilinear(self, view):
        # 1.65 M outputs: some land within a float32 ulp of x.5, where
        # rounding before or after the float32 cast gives different bytes
        vol = Volume(np.random.default_rng(24).integers(0, 256, (160, 160, 64), np.uint8),
                     (0.73, 0.73, 1.4))
        assert_reproject_matches_scipy(vol, view)

    @pytest.mark.parametrize("view", ["cor", "ax"])
    @pytest.mark.parametrize("dims,spacing", [
        ((9, 7, 5), (0.5, 2.5, 1.3)), ((13, 1, 6), (0.4, 0.9, 2.2)),
        ((1, 11, 4), (1.7, 0.3, 0.8)), ((6, 8, 1), (2.9, 0.6, 0.35)),
    ])
    def test_edge_coordinates_outside_the_grid(self, view, dims, spacing):
        # upsampled axes put their first source coordinate below 0 and their
        # last above n - 1
        rng = np.random.default_rng(23)
        n0, n1 = np.transpose(np.empty(dims), volume_module.VIEW_PERMUTATIONS[view]).shape[:2]
        for dtype in (np.uint8, np.float32):
            vol = Volume(bilinear_probe_voxels(rng, dims, dtype), spacing)
            src0, src1 = assert_reproject_matches_scipy(vol, view)
            low = [c[0] < 0 for c in (src0, src1)]
            high = [c[-1] > n - 1 for c, n in ((src0, n0), (src1, n1))]
            assert any(low) and any(high)

    @pytest.mark.parametrize("view", ["cor", "ax"])
    @pytest.mark.parametrize("dtype", [np.uint8, np.float32])
    def test_per_slice_equals_the_3d_interpolation(self, view, dtype):
        rng = np.random.default_rng(19)
        vol = Volume((rng.random((40, 36, 20)) * 255).astype(dtype), (0.73, 0.61, 1.4))
        out = reproject(vol, view)
        expected, spacing = reproject_3d_oracle(vol, view)
        assert out.voxels.dtype == expected.dtype and out.dims == expected.shape
        assert out.voxels.tobytes() == expected.tobytes()
        assert out.spacing == spacing

    def test_sag_identity_when_in_slice_isotropic(self):
        vol = random_volume(np.random.default_rng(8), dims=(12, 12, 6),
                            spacing=(0.74, 0.74, 1.4))
        out = reproject(vol, "sag")
        np.testing.assert_array_equal(out.voxels, vol.voxels)
        assert out.spacing == vol.spacing

    def test_cor_in_slice_spacing_pair_equal(self):
        rng = np.random.default_rng(9)
        vol = Volume(rng.integers(0, 256, (160, 160, 64), np.uint8), (0.74, 0.74, 1.4))
        out = reproject(vol, "cor")
        assert f"{out.spacing[0]:.6f}" == f"{out.spacing[1]:.6f}"
        assert abs(out.voxels.size / vol.voxels.size - 1.0) <= 0.02

    @pytest.mark.parametrize("view", ["cor", "ax"])
    def test_voxel_count_preserved(self, view):
        rng = np.random.default_rng(10)
        vol = Volume(rng.integers(0, 256, (80, 80, 32), np.uint8), (0.74, 0.74, 1.4))
        out = reproject(vol, view)
        assert abs(out.voxels.size / vol.voxels.size - 1.0) <= 0.02

    @pytest.mark.parametrize("view", ["cor", "ax"])
    @pytest.mark.parametrize("dims,side", [((32, 32, 16), 23), ((16, 16, 8), 11)])
    def test_small_grid_gets_the_closest_isotropic_count(self, view, dims, side):
        # a square in-slice field of view (25.6 or 12.8 mm) can only become an
        # m x m grid, and no m x m count lies within 2% of 512 or of 128
        vol = random_volume(np.random.default_rng(18), dims=dims, spacing=(0.8, 0.8, 1.6))
        out = reproject(vol, view)
        target = dims[0] * dims[2]  # in-slice voxels of the cor / ax layout
        assert out.dims == (side, side, dims[1])
        assert out.spacing[0] == out.spacing[1]
        miss = abs(side * side / target - 1.0)
        assert miss > 0.02
        assert all(abs(m * m / target - 1.0) >= miss for m in range(1, 2 * side))

    def test_resampled_values_match_analytic_phantom(self):
        # smooth analytic intensity field; the reprojected grid must sample
        # the same physical positions to interpolation accuracy
        spacing = (0.74, 0.74, 1.4)
        dims = (64, 64, 32)
        idx = np.meshgrid(*[np.arange(d) for d in dims], indexing="ij")
        phys = [(g + 0.5) * s for g, s in zip(idx, spacing)]

        def field(x, y, z):
            return (np.sin(x / 9.0) + np.cos(y / 7.0) + np.sin(z / 11.0) + 3.0) / 6.0 * 255.0

        vol = Volume(field(*phys).astype(np.float32), spacing)
        out = reproject(vol, "cor")
        s = out.spacing
        oidx = np.meshgrid(*[np.arange(d) for d in out.dims], indexing="ij")
        # output axes (cor layout): (old axis 1, old axis 2, old axis 0)
        y = (oidx[0] + 0.5) * s[0]
        z = (oidx[1] + 0.5) * s[1]
        x = (oidx[2] + 0.5) * s[2]
        expected = field(x, y, z)
        interior = (slice(2, -2),) * 3  # edge clamping distorts the border
        err = np.abs(out.voxels[interior] - expected[interior]).mean()
        assert err < 2.0, f"mean abs reprojection error {err:.2f} intensity levels"

    def test_unknown_view_rejected(self):
        vol = random_volume(np.random.default_rng(11))
        with pytest.raises(ConfigError, match="view"):
            reproject(vol, "oblique")


class TestAugment:
    def _stack(self, seed=12, k=4, hw=(24, 24)):
        rng = np.random.default_rng(seed)
        return rng.integers(0, 256, (k, *hw), np.uint8)

    def test_identity_policy_bit_identical(self):
        stack = self._stack()
        out = augment(stack, np.random.default_rng(0), IDENTITY_POLICY)
        np.testing.assert_array_equal(out, stack)

    def test_gamma_one_with_shift_only_preserves_values(self):
        stack = self._stack()
        policy = AugmentPolicy(max_shift_frac=0.2, max_rotate_deg=0.0, gamma_range=(1.0, 1.0))
        out = augment(stack, np.random.default_rng(3), policy)
        assert out.dtype == np.uint8
        # translation only rearranges existing intensities
        assert set(np.unique(out)) <= set(np.unique(stack))

    def test_rotation_round_trip_on_smooth_phantom(self):
        yy, xx = np.mgrid[0:32, 0:32]
        smooth = (np.sin(yy / 5.0) + np.cos(xx / 7.0) + 2.0) / 4.0 * 255.0
        stack = np.repeat(smooth[None].astype(np.float32), 3, axis=0)
        back = rotate_slices(rotate_slices(stack, 9.0), -9.0)
        interior = (slice(None), slice(4, -4), slice(4, -4))
        err = np.abs(back[interior] - stack[interior]).mean()
        assert err < 2.0

    def test_pure_function_of_rng_state(self):
        stack = self._stack()
        policy = AugmentPolicy(0.1, 10.0, (0.8, 1.25))
        a = augment(stack, np.random.default_rng(42), policy)
        b = augment(stack, np.random.default_rng(42), policy)
        np.testing.assert_array_equal(a, b)

    def test_shape_preserved(self):
        stack = self._stack()
        out = augment(stack, np.random.default_rng(1), AugmentPolicy(0.1, 10.0, (0.8, 1.25)))
        assert out.shape == stack.shape
        assert out.dtype == np.uint8

    def test_invalid_policy_rejected(self):
        with pytest.raises(ConfigError):
            AugmentPolicy(gamma_range=(0.0, 1.0)).validate()
        with pytest.raises(ConfigError):
            AugmentPolicy(max_shift_frac=1.5).validate()


class TestExtractSlices:
    def test_all_slices_along_slice_axis(self):
        vol = random_volume(np.random.default_rng(13), dims=(8, 9, 5))
        stack = extract_slices(vol)
        assert stack.shape == (5, 8, 9)
        np.testing.assert_array_equal(stack[2], vol.voxels[:, :, 2])


class TestSynthCohort:
    def test_seed_determinism(self):
        ra, va = synth_generate(5, seed=99)
        rb, vb = synth_generate(5, seed=99)
        assert [r.knee_id for r in ra] == [r.knee_id for r in rb]
        assert [r.klg_by_month for r in ra] == [r.klg_by_month for r in rb]
        for kid in va:
            np.testing.assert_array_equal(va[kid].voxels, vb[kid].voxels)

    def test_class_proportions_track_defaults(self):
        records, _ = synth_generate(400, seed=5, with_volumes=False)
        labels = [derive_label(r).progression_class for r in records]
        n = len(labels)
        for cls, target in DEFAULT_CLASS_PROBS.items():
            share = labels.count(cls) / n
            assert abs(share - target) < 0.04, f"class {cls}: {share:.3f} vs {target:.3f}"

    def test_derived_label_always_matches_planted_class(self):
        # the generator checks every knee internally; spot-check the public contract
        records, _ = synth_generate(50, seed=6, with_volumes=False)
        for r in records:
            label = derive_label(r)
            assert label.progression_class in (CLASS_NONE, CLASS_SLOW, CLASS_FAST)

    def test_inconsistent_trajectory_raises(self, monkeypatch):
        import volformer.synth as synth
        # a fast-progressor trajectory whatever class was drawn
        monkeypatch.setattr(synth, "_trajectory", lambda label, rng: {0: 1, 12: 3, 96: 3})
        with pytest.raises(DataError, match="inconsistent trajectory"):
            synth_generate(20, seed=6, with_volumes=False)

    def test_phantom_thickness_decreases_with_severity(self):
        # planted covariate: average band intensity mass shrinks none -> fast
        spec = SynthSpec()
        means = {}
        for cls in (CLASS_NONE, CLASS_SLOW, CLASS_FAST):
            from volformer.synth import make_phantom
            vols = [make_phantom(cls, np.random.default_rng(1000 + cls * 50 + i), spec)
                    for i in range(12)]
            means[cls] = np.mean([v.voxels.mean() for v in vols])
        assert means[CLASS_NONE] > means[CLASS_SLOW] > means[CLASS_FAST]
