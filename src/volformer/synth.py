"""Synthetic knee cohort generator.

Each knee is an ellipsoidal two-bone phantom with a bright cartilage band in
the joint gap. The progression class plants a deterministic structural
covariate: the band thins proportionally to the class (none < slow < fast in
severity), on top of per-knee geometric and intensity jitter. Generated KLG
trajectories are constructed to be consistent with the planted class under
the label-derivation rules and are verified against them before emission.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .cohort import CLASS_FAST, CLASS_NONE, CLASS_SLOW, VISIT_MONTHS, KneeRecord, derive_label
from .errors import ConfigError, DataError
from .volume import Volume

# reference cohort composition: 3551 non-progressors, 941 fast and
# 374 slow progressors out of 4866 knees
DEFAULT_CLASS_PROBS = {CLASS_NONE: 3551 / 4866, CLASS_SLOW: 374 / 4866, CLASS_FAST: 941 / 4866}
BASE_THICKNESS = 10.0  # voxels, class-0 cartilage band
THINNING_PER_CLASS = 0.35  # fractional loss per severity step
NOISE_STD = 6.0

INSTITUTIONS = ("inst_a", "inst_b", "inst_c", "inst_d")
INSTITUTION_WEIGHTS = (0.35, 0.30, 0.20, 0.15)


@dataclass
class SynthSpec:
    dims: tuple = (64, 64, 32)
    spacing: tuple = (1.0, 1.0, 1.0)


def _severity(progression_class):
    """Planted structural severity: fast progressors lose the most cartilage."""
    return {CLASS_NONE: 0, CLASS_SLOW: 1, CLASS_FAST: 2}[progression_class]


def make_phantom(progression_class, rng, spec: SynthSpec) -> Volume:
    d0, d1, d2 = spec.dims
    g0, g1, g2 = np.meshgrid(np.arange(d0), np.arange(d1), np.arange(d2), indexing="ij")

    # the joint region floats: its slice-axis position varies per knee, so a
    # model must find the cartilage band, not memorize a fixed location
    gap_center = d0 / 2 + rng.uniform(-0.09, 0.09) * d0
    c1 = d1 / 2 + rng.uniform(-0.08, 0.08) * d1
    c2 = d2 / 2 + rng.uniform(-0.18, 0.18) * d2
    thickness = BASE_THICKNESS * (1.0 - THINNING_PER_CLASS * _severity(progression_class))
    thickness *= rng.uniform(0.92, 1.08)

    vol = rng.normal(22.0, NOISE_STD, size=spec.dims)

    def ellipsoid(c0, cc1, cc2, r0, r1, r2):
        return (((g0 - c0) / r0) ** 2 + ((g1 - cc1) / r1) ** 2 + ((g2 - cc2) / r2) ** 2) <= 1.0

    r1 = d1 * rng.uniform(0.26, 0.34)
    r2 = d2 * rng.uniform(0.20, 0.30)
    half_gap = thickness / 2.0
    femur = ellipsoid(gap_center - half_gap - d0 * 0.20, c1, c2,
                      d0 * rng.uniform(0.18, 0.22), r1, r2)
    tibia = ellipsoid(gap_center + half_gap + d0 * 0.20, c1, c2,
                      d0 * rng.uniform(0.18, 0.22), r1, r2)
    vol[femur] += rng.uniform(150, 170)
    vol[tibia] += rng.uniform(150, 170)

    band = (np.abs(g0 - gap_center) <= half_gap) & (
        (((g1 - c1) / r1) ** 2 + ((g2 - c2) / r2) ** 2) <= 1.0)
    vol[band] += rng.uniform(200, 220)

    return Volume(np.clip(vol, 0, 255).astype(np.float32), spec.spacing)


def _trajectory(progression_class, rng):
    """A KLG-by-month map whose derived label equals the planted class."""
    baseline = int(rng.choice([0, 1, 2, 3], p=[0.49, 0.24, 0.18, 0.09]))
    klg = {m: baseline for m in VISIT_MONTHS}

    def qualifying_grade():
        return 2 if baseline == 0 else min(4, baseline + 1)

    if progression_class == CLASS_FAST:
        event = int(rng.choice([12, 24, 36, 48, 72]))
        for m in VISIT_MONTHS:
            if m >= event:
                klg[m] = qualifying_grade()
    elif progression_class == CLASS_SLOW:
        klg[96] = qualifying_grade()
        if baseline == 0 and rng.random() < 0.35:
            onset = int(rng.choice([24, 36, 48]))
            for m in VISIT_MONTHS:
                if 0 < m < 96 and m >= onset:
                    klg[m] = 1  # doubtful grade: not progression from KL0
    else:
        if baseline == 0 and rng.random() < 0.30:
            onset = int(rng.choice([12, 24, 36, 48, 72, 96]))
            for m in VISIT_MONTHS:
                if m >= onset:
                    klg[m] = 1
    # thin out some intermediate visits; baseline and month 96 stay observed
    for m in (12, 24, 36, 48, 72):
        if rng.random() < 0.12 and not (progression_class == CLASS_FAST and klg[m] != baseline):
            del klg[m]
    return klg


def synth_generate(n_subjects, seed, spec: SynthSpec = None, out_dir=None,
                   with_volumes=True):
    """Deterministic cohort of ``n_subjects`` (two knees each).

    Returns (records, volumes) where volumes maps knee id -> Volume. When
    ``out_dir`` is given, volumes are written there as ``<knee_id>.vvol``
    (the directory is created if needed) instead of being kept in memory; ``with_volumes=False`` skips phantom
    synthesis entirely (records only).
    """
    if n_subjects < 1:
        raise ConfigError(f"n_subjects must be >= 1, got {n_subjects}")
    spec = spec or SynthSpec()
    classes = sorted(DEFAULT_CLASS_PROBS)
    probs = [DEFAULT_CLASS_PROBS[c] for c in classes]

    if out_dir is not None and with_volumes:
        os.makedirs(out_dir, exist_ok=True)
    records, volumes = [], {}
    for i in range(n_subjects):
        subject_id = f"S{i:05d}"
        sub_rng = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(i,))))
        institution = str(sub_rng.choice(INSTITUTIONS, p=INSTITUTION_WEIGHTS))
        age = float(np.clip(sub_rng.normal(60.4, 8.8), 45, 80))
        bmi = float(np.clip(sub_rng.normal(28.3, 4.7), 18, 45))
        sex = "F" if sub_rng.random() < 0.57 else "M"
        for side in ("L", "R"):
            label = int(sub_rng.choice(classes, p=probs))
            klg = _trajectory(label, sub_rng)
            record = KneeRecord(
                subject_id=subject_id, side=side, institution_id=institution,
                age=age, sex=sex, bmi=bmi, tka_baseline=False, klg_by_month=klg)
            derived = derive_label(record)
            if getattr(derived, "progression_class", None) != label:
                raise DataError(f"generator produced inconsistent trajectory for {record.knee_id}")
            records.append(record)
            if not with_volumes:
                continue
            vol = make_phantom(label, sub_rng, spec)
            if out_dir is None:
                volumes[record.knee_id] = vol
            else:
                from .volume import save_volume
                save_volume(vol, f"{out_dir}/{record.knee_id}.vvol")
    return records, volumes
