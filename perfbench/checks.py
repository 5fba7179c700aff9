"""Output checks written apart from volformer's own code paths.

Each ``check_*`` function returns a list of error strings; an empty list
means the output passed. Nothing here imports volformer: metrics are
recomputed by brute force from their definitions, volume files are read with
this module's own parser of the documented ``.vvol`` layout, and the stem
convolution is recomputed in float64 with scipy.
"""

from __future__ import annotations

import csv
import json
import math
import struct
from pathlib import Path

import numpy as np

VVOL_HEADER = struct.Struct("<4sHB3I3f")  # magic, version, dtype code, dims, spacing
VVOL_DTYPES = {0: np.dtype(np.uint8), 1: np.dtype("<f4")}


def read_vvol(path, payload=True):
    """(dims, spacing, voxels or None) of a ``.vvol`` file."""
    with open(path, "rb") as fh:
        raw = fh.read(VVOL_HEADER.size)
        magic, version, code, d0, d1, d2, s0, s1, s2 = VVOL_HEADER.unpack(raw)
        if magic != b"VVOL" or version != 1 or code not in VVOL_DTYPES:
            raise ValueError(f"{path}: not a version-1 VVOL file")
        dims = (d0, d1, d2)
        voxels = None
        if payload:
            voxels = np.frombuffer(fh.read(), dtype=VVOL_DTYPES[code]).reshape(dims)
    return dims, (s0, s1, s2), voxels


def expected_sag(voxels, spacing, crop, factors):
    """Centre crop, min-max quantisation to uint8, block-mean downsampling."""
    start = [(d - c) // 2 for d, c in zip(voxels.shape, crop)]
    v = voxels[tuple(slice(s, s + c) for s, c in zip(start, crop))].astype(np.float64)
    lo, hi = v.min(), v.max()
    q = np.round((v - lo) / (hi - lo) * 255.0) if hi > lo else np.zeros_like(v)
    f0, f1, f2 = factors
    c0, c1, c2 = crop
    blocks = q.reshape(c0 // f0, f0, c1 // f1, f1, c2 // f2, f2)
    out = np.round(blocks.mean(axis=(1, 3, 5))).astype(np.uint8)
    return out, tuple(float(np.float32(s * f)) for s, f in zip(spacing, factors))


def check_sag_volume(path, expected, expected_spacing):
    dims, spacing, voxels = read_vvol(path)
    if dims != expected.shape:
        return [f"{path.name}: dims {dims}, expected {expected.shape}"]
    errors = []
    if not np.allclose(spacing, expected_spacing, rtol=1e-6, atol=0):
        errors.append(f"{path.name}: spacing {spacing}, expected {expected_spacing}")
    if voxels.dtype != np.uint8 or not np.array_equal(voxels, expected):
        errors.append(f"{path.name}: voxels differ from the recomputed crop/quantise/downsample")
    return errors


def check_view_volume(path, sag_voxel_count):
    """Isotropic in-slice spacing and a voxel budget within 2% of sag's."""
    dims, spacing, _ = read_vvol(path, payload=False)
    errors = []
    if not math.isclose(spacing[0], spacing[1], rel_tol=1e-6):
        errors.append(f"{path.name}: in-slice spacing {spacing[:2]} is not isotropic")
    count = dims[0] * dims[1] * dims[2]
    if abs(count / sag_voxel_count - 1.0) > 0.02:
        errors.append(f"{path.name}: {count} voxels, more than 2% off sag's {sag_voxel_count}")
    return errors


# ---------------------------------------------------------------------------
# ranking metrics by brute force


def brute_average_precision(scores, labels):
    """Sum over descending distinct thresholds t of (R(t) - R(t_prev)) * P(t),
    where everything scoring >= t counts as predicted positive."""
    n_pos = sum(labels)
    ap, prev_recall = 0.0, 0.0
    for t in sorted(set(scores), reverse=True):
        picked = [lab for s, lab in zip(scores, labels) if s >= t]
        tp = sum(picked)
        recall = tp / n_pos
        ap += (recall - prev_recall) * (tp / len(picked))
        prev_recall = recall
    return ap


def brute_roc_auc(scores, labels):
    """Share of (positive, negative) pairs ranked right; ties count half."""
    pos = [s for s, lab in zip(scores, labels) if lab]
    neg = [s for s, lab in zip(scores, labels) if not lab]
    credit = sum(1.0 if p > n else 0.5 if p == n else 0.0 for p in pos for n in neg)
    return credit / (len(pos) * len(neg))


def check_probabilities(probs, atol=1e-6):
    probs = np.asarray(probs, dtype=np.float64)
    errors = []
    if not np.all(np.isfinite(probs)):
        errors.append("non-finite probability")
    elif probs.min() < 0.0 or probs.max() > 1.0:
        errors.append(f"probability outside [0, 1]: min {probs.min()}, max {probs.max()}")
    sums = probs.sum(axis=-1)
    if np.any(np.abs(sums - 1.0) > atol):
        errors.append(f"probability rows do not sum to 1 (worst {np.max(np.abs(sums - 1.0)):.3g})")
    return errors


def read_predictions(path):
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != ["knee_id", "label", "p_none", "p_slow", "p_fast"]:
        raise ValueError(f"{path}: unexpected header {rows[0]}")
    return [(r[0], int(r[1]), [float(v) for v in r[2:]]) for r in rows[1:]]


def read_institutions(cohort_path):
    with open(cohort_path, encoding="utf-8", newline="") as fh:
        return {f"{r['subject_id']}_{r['side']}": r["institution_id"]
                for r in csv.DictReader(fh)}


def check_evaluation(eval_dir, cohort_path, holdout, tol=1e-9):
    """report.json against predictions.csv and the cohort's hold-out knees."""
    eval_dir = Path(eval_dir)
    report = json.loads((eval_dir / "report.json").read_text(encoding="utf-8"))
    rows = read_predictions(eval_dir / "predictions.csv")
    institutions = read_institutions(cohort_path)
    errors = check_probabilities([p for _, _, p in rows])
    ids = [kid for kid, _, _ in rows]
    if len(set(ids)) != len(ids):
        errors.append("a knee is predicted twice")
    strays = [kid for kid in ids if institutions.get(kid) != holdout]
    if strays:
        errors.append(f"{len(strays)} predicted knees are not in hold-out {holdout}: {strays[:3]}")
    if len(rows) != report["n_knees"]:
        errors.append(f"{len(rows)} predictions but report n_knees {report['n_knees']}")
    scores = [p[1] + p[2] for _, _, p in rows]
    labels = [int(lab > 0) for _, lab, _ in rows]
    if 0 < sum(labels) < len(labels):
        ap = brute_average_precision(scores, labels)
        auc = brute_roc_auc(scores, labels)
        if abs(report["ap"] - ap) > tol:
            errors.append(f"report ap {report['ap']!r} but brute force gives {ap!r}")
        if abs(report["roc_auc"] - auc) > tol:
            errors.append(f"report roc_auc {report['roc_auc']!r} but brute force gives {auc!r}")
        prevalence = sum(labels) / len(labels)
        if not ap > prevalence:
            errors.append(f"ensemble AP {ap:.3f} does not exceed prevalence {prevalence:.3f}")
    else:
        errors.append("hold-out predictions hold a single class")
    return errors


def check_identical(dir_a, dir_b, patterns):
    """Files matching ``patterns`` exist in both directories, byte for byte."""
    errors = []
    for pattern in patterns:
        names_a = sorted(p.name for p in Path(dir_a).glob(pattern))
        names_b = sorted(p.name for p in Path(dir_b).glob(pattern))
        if not names_a or names_a != names_b:
            errors.append(f"{pattern}: {names_a} vs {names_b}")
            continue
        for name in names_a:
            if (Path(dir_a) / name).read_bytes() != (Path(dir_b) / name).read_bytes():
                errors.append(f"{name} differs between repeated runs")
    return errors


# ---------------------------------------------------------------------------
# full-scale model


PAPER_GMACS, PAPER_MPARAMS = 141.0, 133.0
# the 50-layer encoder with the canonical 1000-way classifier head counts
# 25,557,032 parameters; that head is 2048 x 1000 weights plus 1000 biases
ENCODER_PARAMS = 25_557_032 - (2048 * 1000 + 1000)


def check_profile(report, counted_macs, encoder_params):
    """The profile report against MACs counted from operand shapes during a
    real forward pass, the paper's totals and the encoder's size."""
    errors = []
    if report["total_macs"] != counted_macs:
        errors.append(f"shape-counted MACs {counted_macs} != count_macs {report['total_macs']}")
    gmacs, mparams = report["total_macs"] / 1e9, report["total_params"] / 1e6
    if abs(gmacs / PAPER_GMACS - 1) > 0.10:
        errors.append(f"{gmacs:.1f} GMAC is not within 10% of {PAPER_GMACS}")
    if abs(mparams / PAPER_MPARAMS - 1) > 0.10:
        errors.append(f"{mparams:.1f} M parameters are not within 10% of {PAPER_MPARAMS}")
    encoder_rows = sum(r["params"] for r in report["rows"] if r["name"].startswith("encoder@sag."))
    if not encoder_params == encoder_rows == ENCODER_PARAMS:
        errors.append(f"encoder parameters {encoder_params} (registry), {encoder_rows} "
                      f"(cost rows), expected {ENCODER_PARAMS} (25,557,032 with a 1000-way head)")
    return errors


# ---------------------------------------------------------------------------
# stem convolution


def stem_reference(x, w, stride, padding, slices, channels):
    """float64 cross-correlation of ``x`` (B, C, H, W) with ``w`` for the
    given batch slices and output channels."""
    from scipy.signal import correlate
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    (s0, s1), (p0, p1) = np.broadcast_to(stride, 2), np.broadcast_to(padding, 2)
    xp = np.pad(x, ((0, 0), (0, 0), (p0, p0), (p1, p1)))
    out = []
    for b in slices:
        for c in channels:
            acc = sum(correlate(xp[b, ci], w[c, ci], mode="valid") for ci in range(x.shape[1]))
            out.append(acc[::s0, ::s1])
    return np.array(out).reshape((len(slices), len(channels)) + out[0].shape)


def check_stem(actual, reference, rtol=1e-5):
    """float32 result against the float64 reference, scaled by its range."""
    actual = np.asarray(actual, dtype=np.float64)
    if actual.shape != reference.shape:
        return [f"stem output shape {actual.shape}, reference {reference.shape}"]
    err = float(np.max(np.abs(actual - reference)))
    scale = float(np.max(np.abs(reference)))
    if not err <= rtol * scale + 1e-6:
        return [f"stem conv differs from the float64 reference by {err:.3g} (scale {scale:.3g})"]
    return []
