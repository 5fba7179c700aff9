"""Progression labels, exclusion rules, subject-wise stratified splitting and
balanced resampling.

The 3-class target: no progression within 96 months, slow progression (first
qualifying KLG increase after 72 and within 96 months), fast progression
(within 72 months). An increase from KL0 to KL1 never qualifies. Knees with
no qualifying increase and no month-96 observation are censored
(indeterminate) and excluded from modeling.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError, UsageError
from .kinds import BOOL, FLOAT, STR, int_in, one_of, read_table
from .manifest import atomic_writer

CLASS_NONE, CLASS_SLOW, CLASS_FAST = 0, 1, 2
CLASS_NAMES = {CLASS_NONE: "none", CLASS_SLOW: "slow", CLASS_FAST: "fast"}
VISIT_MONTHS = (0, 12, 24, 36, 48, 72, 96)
FAST_HORIZON = 72
FOLLOWUP_HORIZON = 96

# cohort.csv's header, in order, and each column's Kind; an empty cell is a
# missing value, which only the REQUIRED columns refuse
COLUMNS = {
    "subject_id": STR, "side": one_of("L", "R"), "institution_id": STR, "age": FLOAT,
    "sex": one_of("M", "F"), "bmi": FLOAT, "tka_baseline": BOOL,
    **{f"klg_m{month}": int_in(0, 4) for month in VISIT_MONTHS},
}
REQUIRED = ("subject_id", "side", "institution_id", "age")


@dataclass
class KneeRecord:
    subject_id: str
    side: str
    institution_id: str
    age: float
    sex: str | None = None
    bmi: float | None = None
    tka_baseline: bool = False
    klg_by_month: dict = field(default_factory=dict)

    @property
    def knee_id(self):
        return f"{self.subject_id}_{self.side}"

    @property
    def baseline_klg(self):
        return self.klg_by_month.get(0)


@dataclass
class ProgressionLabel:
    progression_class: int
    event_month: int | None
    rule_trace: str

    def __post_init__(self):
        m = self.event_month
        if self.progression_class == CLASS_FAST:
            ok = m is not None and m <= FAST_HORIZON
        elif self.progression_class == CLASS_SLOW:
            ok = m is not None and FAST_HORIZON < m <= FOLLOWUP_HORIZON
        else:
            ok = m is None
        if not ok:
            raise DataError(f"class {CLASS_NAMES.get(self.progression_class, self.progression_class)!r} "
                            f"cannot have event month {m}")


@dataclass
class Indeterminate:
    reason: str


def derive_label(record: KneeRecord):
    """First follow-up whose KLG exceeds baseline decides the class; the
    KL0 -> KL1 transition never counts as progression.

    Returns ProgressionLabel, or Indeterminate when no qualifying increase is
    observed and the knee lacks a month-96 KLG reading.
    """
    baseline = record.baseline_klg
    if baseline is None:
        raise UsageError(f"{record.knee_id}: baseline KLG missing")
    if baseline >= 4:
        raise UsageError(f"{record.knee_id}: baseline KLG {baseline} has no room to progress")
    for month in sorted(record.klg_by_month):
        if month == 0 or month > FOLLOWUP_HORIZON:
            continue
        grade = record.klg_by_month[month]
        if grade is None or grade <= baseline:
            continue
        if baseline == 0 and grade == 1:
            continue  # doubtful grade from a healthy baseline: not progression
        if month <= FAST_HORIZON:
            return ProgressionLabel(CLASS_FAST, month,
                                    f"first qualifying increase at month {month} <= {FAST_HORIZON}")
        return ProgressionLabel(CLASS_SLOW, month,
                                f"first qualifying increase at month {month} in "
                                f"({FAST_HORIZON}, {FOLLOWUP_HORIZON}]")
    if FOLLOWUP_HORIZON in record.klg_by_month and record.klg_by_month[FOLLOWUP_HORIZON] is not None:
        return ProgressionLabel(CLASS_NONE, None,
                                f"no qualifying increase through month {FOLLOWUP_HORIZON}")
    return Indeterminate(f"no qualifying increase and no month-{FOLLOWUP_HORIZON} observation")


def apply_exclusions(records, volume_ids=None):
    """Partition into (kept: [(record, label)], excluded: [(record, reason)])."""
    kept, excluded = [], []
    for record in records:
        if record.bmi is None:
            excluded.append((record, "missing_bmi"))
            continue
        if record.baseline_klg is None:
            excluded.append((record, "missing_klg"))
            continue
        if record.baseline_klg == 4:
            excluded.append((record, "klg4_baseline"))
            continue
        if record.tka_baseline:
            excluded.append((record, "tka_baseline"))
            continue
        if volume_ids is not None and record.knee_id not in volume_ids:
            excluded.append((record, "missing_mri"))
            continue
        label = derive_label(record)
        if isinstance(label, Indeterminate):
            excluded.append((record, "censored_followup"))
            continue
        kept.append((record, label))
    return kept, excluded


# ---------------------------------------------------------------------------
# splitting


@dataclass
class Splits:
    eval_ids: list  # knee ids of the hold-out institution
    folds: list  # list of knee-id lists, one per fold
    holdout_institution: str
    seed: int

    def fold_train_val(self, fold_index):
        val = self.folds[fold_index]
        train = [kid for i, f in enumerate(self.folds) if i != fold_index for kid in f]
        return train, val

    def to_dict(self):
        return {
            "holdout_institution": self.holdout_institution,
            "seed": self.seed,
            "eval_ids": self.eval_ids,
            "folds": self.folds,
        }


def split_dataset(labelled, holdout_institution, n_folds=5, seed=0) -> Splits:
    """Hold out every knee of one institution for evaluation, then assign the
    remaining subjects (both knees together) to stratified folds.

    Stratification groups subjects by their knees' label signature and deals
    each shuffled group round-robin, so per-fold class shares track the
    training-set proportions.
    """
    if n_folds < 2:
        raise ConfigError(f"n_folds must be >= 2, got {n_folds}")
    institutions = {r.institution_id for r, _ in labelled}
    if holdout_institution not in institutions:
        raise ConfigError(f"hold-out institution {holdout_institution!r} not in cohort "
                          f"(present: {', '.join(sorted(institutions))})")
    eval_ids = [r.knee_id for r, _ in labelled if r.institution_id == holdout_institution]

    train = [(r, lab) for r, lab in labelled if r.institution_id != holdout_institution]
    by_subject = {}
    for r, lab in train:
        by_subject.setdefault(r.subject_id, []).append((r, lab))

    groups = {}
    for subject_id, pairs in by_subject.items():
        signature = tuple(sorted(lab.progression_class for _, lab in pairs))
        groups.setdefault(signature, []).append(subject_id)

    rng = np.random.default_rng(seed)
    folds = [[] for _ in range(n_folds)]
    offset = 0
    for signature in sorted(groups):
        subjects = sorted(groups[signature])
        rng.shuffle(subjects)
        for j, subject_id in enumerate(subjects):
            fold = folds[(offset + j) % n_folds]
            fold.extend(r.knee_id for r, _ in by_subject[subject_id])
        offset += len(subjects)
    return Splits(eval_ids=eval_ids, folds=folds,
                  holdout_institution=holdout_institution, seed=seed)


def resample_balance(train_indices, labels, rng):
    """Equalized epoch indices: each class contributes majority-count samples.

    Minority classes are oversampled with replacement-by-tiling (every sample
    appears at least once per epoch); the majority class is permuted, not
    duplicated. Epoch length is 3x the majority count.
    """
    train_indices = np.asarray(train_indices)
    labels = np.asarray(labels)
    per_class = {c: train_indices[labels == c] for c in (CLASS_NONE, CLASS_SLOW, CLASS_FAST)}
    empty = [CLASS_NAMES[c] for c, idx in per_class.items() if len(idx) == 0]
    if empty:
        raise ConfigError(f"cannot balance classes with no samples: {', '.join(empty)}")
    majority = max(len(idx) for idx in per_class.values())
    epoch = []
    for c in (CLASS_NONE, CLASS_SLOW, CLASS_FAST):
        idx = per_class[c]
        reps, rem = divmod(majority, len(idx))
        chunk = np.concatenate([np.tile(idx, reps),
                                rng.choice(idx, size=rem, replace=False)])
        epoch.append(chunk)
    epoch = np.concatenate(epoch)
    rng.shuffle(epoch)
    return epoch


# ---------------------------------------------------------------------------
# CSV interface


def read_cohort_csv(path):
    records, line_of = [], {}  # knee id -> the line that gave it
    for line_no, row in read_table(path, COLUMNS):
        if missing := [c for c in REQUIRED if row[c] is None]:
            raise DataError(f"{path} line {line_no}: {missing[0]} is required")
        record = KneeRecord(
            **{c: row[c] for c in ("subject_id", "side", "institution_id", "age", "sex", "bmi")},
            tka_baseline=bool(row["tka_baseline"]),
            klg_by_month={m: row[f"klg_m{m}"] for m in VISIT_MONTHS
                          if row[f"klg_m{m}"] is not None},
        )
        if (first := line_of.setdefault(record.knee_id, line_no)) != line_no:
            raise DataError(f"{path} line {line_no}: knee {record.knee_id} repeats line {first}")
        records.append(record)
    return records


def write_cohort_csv(records, path):
    with atomic_writer(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(COLUMNS)
        for r in records:
            row = [r.subject_id, r.side, r.institution_id, f"{r.age:.1f}",
                   r.sex or "", "" if r.bmi is None else f"{r.bmi:.1f}",
                   "1" if r.tka_baseline else "0"]
            row += ["" if r.klg_by_month.get(m) is None else str(r.klg_by_month[m])
                    for m in VISIT_MONTHS]
            writer.writerow(row)
