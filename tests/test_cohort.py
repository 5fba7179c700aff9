import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from volformer.cohort import (
    CLASS_FAST,
    CLASS_NONE,
    CLASS_SLOW,
    Indeterminate,
    KneeRecord,
    ProgressionLabel,
    apply_exclusions,
    derive_label,
    read_cohort_csv,
    resample_balance,
    split_dataset,
    write_cohort_csv,
)
from volformer.errors import ConfigError, DataError, UsageError

MONTHS = (0, 12, 24, 36, 48, 72, 96)


def knee(klg, subject="S1", side="L", inst="inst_a", bmi=27.0, tka=False):
    return KneeRecord(subject_id=subject, side=side, institution_id=inst,
                      age=60.0, sex="F", bmi=bmi, tka_baseline=tka, klg_by_month=klg)


def oracle_label(klg_by_month):
    """Independent rule-table evaluation: enumerate every follow-up visit,
    collect all qualifying months, classify by the earliest."""
    baseline = klg_by_month[0]
    qualifying = [m for m, g in klg_by_month.items()
                  if 0 < m <= 96 and g is not None and g > baseline
                  and not (baseline == 0 and g == 1)]
    if qualifying:
        return CLASS_FAST if min(qualifying) <= 72 else CLASS_SLOW
    return CLASS_NONE if 96 in klg_by_month else None  # None = indeterminate


class TestDeriveLabelClauses:
    def test_kl0_to_kl1_is_no_progression(self):
        label = derive_label(knee({0: 0, 48: 1, 96: 1}))
        assert label.progression_class == CLASS_NONE
        assert label.event_month is None

    def test_event_within_72_is_fast(self):
        label = derive_label(knee({0: 1, 24: 2}))
        assert label.progression_class == CLASS_FAST
        assert label.event_month == 24

    def test_event_after_72_within_96_is_slow(self):
        label = derive_label(knee({0: 2, 84: 3}))
        assert label.progression_class == CLASS_SLOW
        assert label.event_month == 84

    def test_first_qualifying_increase_decides(self):
        # KL1 at 24 does not qualify from KL0; KL2 at 84 does
        label = derive_label(knee({0: 0, 24: 1, 84: 2}))
        assert label.progression_class == CLASS_SLOW
        assert label.event_month == 84

    def test_censored_without_month_96(self):
        label = derive_label(knee({0: 1, 24: 1, 48: 1}))
        assert isinstance(label, Indeterminate)

    def test_missing_baseline_is_precondition_error(self):
        with pytest.raises(UsageError, match="baseline"):
            derive_label(knee({12: 2, 96: 2}))

    def test_kl4_baseline_is_precondition_error(self):
        with pytest.raises(UsageError):
            derive_label(knee({0: 4, 96: 4}))

    def test_regression_never_triggers_event(self):
        # KLG decrease is ignored; comparisons stay against baseline
        label = derive_label(knee({0: 2, 24: 1, 96: 2}))
        assert label.progression_class == CLASS_NONE

    def test_visits_beyond_horizon_ignored(self):
        label = derive_label(knee({0: 1, 96: 1, 108: 3}))
        assert label.progression_class == CLASS_NONE


class TestDeriveLabelExhaustive:
    def test_all_monotone_trajectories_match_oracle(self):
        checked = 0
        for seq in itertools.combinations_with_replacement(range(5), 7):
            # nondecreasing 7-visit trajectory over the default grid
            klg = dict(zip(MONTHS, seq))
            if seq[0] >= 4:
                with pytest.raises(UsageError):
                    derive_label(knee(klg))
                continue
            expected = oracle_label(klg)
            label = derive_label(knee(klg))
            assert label.progression_class == expected
            checked += 1
        assert checked == 330 - 1  # all monotone trajectories minus baseline-4

    @settings(max_examples=300, deadline=None)
    @given(st.dictionaries(st.sampled_from(MONTHS[1:]), st.integers(0, 4), max_size=6),
           st.integers(0, 3))
    def test_partial_trajectories_match_oracle(self, visits, baseline):
        klg = {0: baseline, **visits}
        expected = oracle_label(klg)
        label = derive_label(knee(klg))
        if expected is None:
            assert isinstance(label, Indeterminate)
        else:
            assert label.progression_class == expected

    def test_label_invariants(self):
        for seq in itertools.combinations_with_replacement(range(5), 7):
            if seq[0] >= 4:
                continue
            label = derive_label(knee(dict(zip(MONTHS, seq))))
            if isinstance(label, ProgressionLabel):
                if label.progression_class == CLASS_FAST:
                    assert label.event_month <= 72
                elif label.progression_class == CLASS_SLOW:
                    assert 72 < label.event_month <= 96
                else:
                    assert label.event_month is None

    @pytest.mark.parametrize("cls, month", [(CLASS_FAST, None), (CLASS_FAST, 96),
                                            (CLASS_SLOW, 72), (CLASS_NONE, 24)])
    def test_inconsistent_label_raises(self, cls, month):
        with pytest.raises(DataError, match="cannot have event month"):
            ProgressionLabel(cls, month, "built by hand")


class TestExclusions:
    def test_kl4_baseline_excluded(self):
        kept, excluded = apply_exclusions([knee({0: 4, 96: 4})])
        assert not kept
        assert excluded[0][1] == "klg4_baseline"

    def test_missing_bmi_excluded(self):
        kept, excluded = apply_exclusions([knee({0: 2, 96: 2}, bmi=None)])
        assert excluded[0][1] == "missing_bmi"

    def test_tka_excluded(self):
        _, excluded = apply_exclusions([knee({0: 2, 96: 2}, tka=True)])
        assert excluded[0][1] == "tka_baseline"

    def test_missing_baseline_klg_excluded(self):
        _, excluded = apply_exclusions([knee({12: 2, 96: 2})])
        assert excluded[0][1] == "missing_klg"

    def test_censored_excluded(self):
        _, excluded = apply_exclusions([knee({0: 1, 48: 1})])
        assert excluded[0][1] == "censored_followup"

    def test_missing_volume_excluded(self):
        record = knee({0: 2, 96: 2})
        _, excluded = apply_exclusions([record], volume_ids=set())
        assert excluded[0][1] == "missing_mri"

    def test_complete_record_kept(self):
        kept, excluded = apply_exclusions([knee({0: 2, 96: 2})])
        assert not excluded
        assert kept[0][1].progression_class == CLASS_NONE


def synthetic_labelled(n_subjects, seed, institutions=("inst_a", "inst_b", "inst_c")):
    """Cheap labelled cohort with realistic class shares, no volumes."""
    rng = np.random.default_rng(seed)
    labelled = []
    for i in range(n_subjects):
        inst = institutions[int(rng.integers(0, len(institutions)))]
        for side in ("L", "R"):
            cls = int(rng.choice([0, 1, 2], p=[0.73, 0.077, 0.193]))
            if cls == CLASS_NONE:
                klg = {0: 1, 96: 1}
            elif cls == CLASS_SLOW:
                klg = {0: 1, 96: 2}
            else:
                klg = {0: 1, 36: 2, 96: 2}
            record = knee(klg, subject=f"P{i:05d}", side=side, inst=inst)
            labelled.append((record, derive_label(record)))
    return labelled


class TestSplitDataset:
    def test_subject_disjointness_every_seed(self):
        labelled = synthetic_labelled(120, seed=0)
        for seed in range(20):
            splits = split_dataset(labelled, "inst_c", n_folds=5, seed=seed)
            eval_subjects = {kid.rsplit("_", 1)[0] for kid in splits.eval_ids}
            fold_subjects = [{kid.rsplit("_", 1)[0] for kid in fold} for fold in splits.folds]
            for i, a in enumerate(fold_subjects):
                assert not (a & eval_subjects)
                for b in fold_subjects[i + 1:]:
                    assert not (a & b)

    def test_folds_cover_all_training_knees(self):
        labelled = synthetic_labelled(80, seed=1)
        splits = split_dataset(labelled, "inst_b", n_folds=5, seed=3)
        train_ids = {r.knee_id for r, _ in labelled if r.institution_id != "inst_b"}
        assert set().union(*map(set, splits.folds)) == train_ids

    def test_class_shares_within_three_points(self):
        labelled = synthetic_labelled(200, seed=2)
        class_of = {r.knee_id: lab.progression_class for r, lab in labelled}
        for seed in range(20):
            splits = split_dataset(labelled, "inst_c", n_folds=5, seed=seed)
            train_ids = [kid for fold in splits.folds for kid in fold]
            global_shares = np.bincount([class_of[k] for k in train_ids], minlength=3) / len(train_ids)
            for fold in splits.folds:
                shares = np.bincount([class_of[k] for k in fold], minlength=3) / len(fold)
                assert np.abs(shares - global_shares).max() <= 0.03 + 1e-9

    def test_missing_institution_rejected(self):
        labelled = synthetic_labelled(10, seed=3)
        with pytest.raises(ConfigError, match="hold-out institution"):
            split_dataset(labelled, "inst_z", n_folds=5, seed=0)

    def test_reference_scale_replay(self):
        # 2019 train / 683 eval subjects; 3607 / 1259 knees
        labelled = []
        rng = np.random.default_rng(4)

        def add(subject, inst, sides):
            for side in sides:
                record = knee({0: 1, 96: int(rng.random() < 0.27) + 1},
                              subject=subject, side=side, inst=inst)
                labelled.append((record, derive_label(record)))

        for i in range(683):  # hold-out: 1259 knees = 576 pairs + 107 singles
            add(f"E{i:05d}", "inst_holdout", ("L", "R") if i < 576 else ("L",))
        for i in range(2019):  # train: 3607 knees = 1588 pairs + 431 singles
            add(f"T{i:05d}", "inst_train", ("L", "R") if i < 1588 else ("L",))

        splits = split_dataset(labelled, "inst_holdout", n_folds=5, seed=0)
        assert len(splits.eval_ids) == 1259
        assert sum(len(f) for f in splits.folds) == 3607

    def test_reproducible_from_seed(self):
        labelled = synthetic_labelled(60, seed=5)
        a = split_dataset(labelled, "inst_b", n_folds=4, seed=11)
        b = split_dataset(labelled, "inst_b", n_folds=4, seed=11)
        assert a.to_dict() == b.to_dict()


class TestResampleBalance:
    def test_reference_like_counts_equalize(self):
        rng = np.random.default_rng(0)
        labels = np.array([0] * 730 + [1] * 193 + [2] * 77)
        epoch = resample_balance(np.arange(1000), labels, rng)
        counts = np.bincount(labels[epoch], minlength=3)
        assert counts.tolist() == [730, 730, 730]
        assert len(epoch) == 3 * 730

    def test_histogram_spread_at_most_one(self):
        rng = np.random.default_rng(1)
        labels = np.array([0] * 13 + [1] * 7 + [2] * 5)
        epoch = resample_balance(np.arange(25), labels, rng)
        counts = np.bincount(labels[epoch], minlength=3)
        assert counts.max() - counts.min() <= 1

    def test_already_balanced_is_permutation(self):
        rng = np.random.default_rng(2)
        labels = np.array([0, 0, 1, 1, 2, 2])
        epoch = resample_balance(np.arange(6), labels, rng)
        assert sorted(epoch.tolist()) == list(range(6))

    def test_minority_class_fully_covered(self):
        rng = np.random.default_rng(3)
        labels = np.array([0] * 50 + [1] * 7 + [2] * 20)
        slow_indices = set(range(50, 57))
        epoch = resample_balance(np.arange(77), labels, rng)
        assert slow_indices <= set(epoch.tolist())

    def test_empty_class_rejected(self):
        with pytest.raises(ConfigError, match="slow"):
            resample_balance(np.arange(4), np.array([0, 0, 2, 2]), np.random.default_rng(0))

    def test_deterministic_per_seed(self):
        labels = np.array([0] * 10 + [1] * 3 + [2] * 5)
        a = resample_balance(np.arange(18), labels, np.random.default_rng(7))
        b = resample_balance(np.arange(18), labels, np.random.default_rng(7))
        np.testing.assert_array_equal(a, b)


class TestCohortCsv:
    def test_round_trip(self, tmp_path):
        records = [
            knee({0: 0, 48: 1, 96: 1}, subject="A", side="L"),
            knee({0: 2, 12: 3}, subject="A", side="R", bmi=None),
            knee({0: 1, 96: 2}, subject="B", side="L", tka=True),
        ]
        path = tmp_path / "cohort.csv"
        write_cohort_csv(records, path)
        back = read_cohort_csv(path)
        assert len(back) == 3
        assert back[0].klg_by_month == {0: 0, 48: 1, 96: 1}
        assert back[1].bmi is None
        assert back[2].tka_baseline is True

    def test_bad_enum_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        write_cohort_csv([knee({0: 1, 96: 1})], path)
        lines = path.read_text().splitlines()
        lines.append(lines[1].replace("L", "Q", 1))
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match="line 3.*side"):
            read_cohort_csv(path)

    def test_bad_klg_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        write_cohort_csv([knee({0: 1, 96: 1})], path)
        text = path.read_text().replace(",1\n", ",7\n")
        path.write_text(text)
        with pytest.raises(DataError, match="line 2"):
            read_cohort_csv(path)

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,side\nA,L\n")
        with pytest.raises(DataError, match="header"):
            read_cohort_csv(path)

    def test_missing_cells_are_none(self, tmp_path):
        path = tmp_path / "cohort.csv"
        write_cohort_csv([knee({0: 1}, bmi=None)], path)
        back = read_cohort_csv(path)
        assert back[0].bmi is None
        assert back[0].klg_by_month == {0: 1}

    def test_header_is_the_column_table(self, tmp_path):
        path = tmp_path / "cohort.csv"
        write_cohort_csv([knee({0: 1})], path)
        assert path.read_bytes().split(b"\r\n")[0] == (
            b"subject_id,side,institution_id,age,sex,bmi,tka_baseline,"
            b"klg_m0,klg_m12,klg_m24,klg_m36,klg_m48,klg_m72,klg_m96")

    @pytest.mark.parametrize("column, value", [("age", "nan"), ("age", "inf"),
                                               ("bmi", "inf"), ("bmi", "-inf"), ("bmi", "nan")])
    def test_non_finite_number_reports_line(self, tmp_path, column, value):
        path = tmp_path / "cohort.csv"
        write_cohort_csv([knee({0: 1, 96: 1}), knee({0: 1, 96: 2}, side="R")], path)
        lines = path.read_text().splitlines()
        cells = lines[2].split(",")
        cells[{"age": 3, "bmi": 5}[column]] = value
        lines[2] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=f"cohort.csv line 3: bad {column} value '{value}'"):
            read_cohort_csv(path)

    @pytest.mark.parametrize("cell, expected", [("yes", True), ("no", False), ("TRUE", True),
                                                ("false", False), ("1", True), ("", False)])
    def test_tka_baseline_reads_as_bool(self, tmp_path, cell, expected):
        path = tmp_path / "cohort.csv"
        write_cohort_csv([knee({0: 1})], path)
        path.write_text(path.read_text().replace("27.0,0,", f"27.0,{cell},"))
        assert read_cohort_csv(path)[0].tka_baseline is expected

    @pytest.mark.parametrize("column", ["subject_id", "side", "institution_id", "age"])
    def test_required_cell_missing_reports_line(self, tmp_path, column):
        path = tmp_path / "cohort.csv"
        write_cohort_csv([knee({0: 1})], path)
        lines = path.read_text().splitlines()
        cells = lines[1].split(",")
        cells[lines[0].split(",").index(column)] = ""
        path.write_text("\n".join([lines[0], ",".join(cells)]) + "\n")
        with pytest.raises(DataError, match=f"line 2: {column} is required"):
            read_cohort_csv(path)

    def test_wrong_column_count_and_blank_lines(self, tmp_path):
        path = tmp_path / "cohort.csv"
        write_cohort_csv([knee({0: 1})], path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join([lines[0], "", lines[1], " , ", lines[1] + ",extra"]) + "\n")
        with pytest.raises(DataError, match="line 5: expected 14 columns, got 15"):
            read_cohort_csv(path)
        path.write_text("\n".join([lines[0], "", lines[1], " , "]) + "\n")
        assert len(read_cohort_csv(path)) == 1

    def test_repeated_knee_names_both_lines(self, tmp_path):
        path = tmp_path / "cohort.csv"
        write_cohort_csv([knee({0: 1, 96: 1}), knee({0: 1, 96: 2}, side="R"),
                          knee({0: 2, 96: 3})], path)
        with pytest.raises(DataError, match="cohort.csv line 4: knee S1_L repeats line 2$"):
            read_cohort_csv(path)

    def test_non_utf8_file_is_a_data_error(self, tmp_path):
        path = tmp_path / "cohort.csv"
        write_cohort_csv([knee({0: 1})], path)
        path.write_bytes(path.read_bytes().replace(b"S1", b"S\xff"))
        with pytest.raises(DataError, match="cohort.csv: unreadable CSV"):
            read_cohort_csv(path)
