"""Each output check passes a correct output and fails a corrupted one.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_checks.py

Correct outputs are made with volformer's own functions; the checks under
test never call them.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
from volformer import autograd as ag  # noqa: E402
from volformer.evaluation import PredictionSet, evaluate_predictions  # noqa: E402
from volformer.volume import Volume, preprocess, reproject, save_volume  # noqa: E402

# ---------------------------------------------------------------------------
# evaluation outputs


def _write_eval(root, probs, labels, institutions):
    """cohort.csv, predictions.csv and report.json laid out as the CLI does."""
    ids = [f"S{i:05d}_L" for i in range(len(labels))]
    cohort = root / "cohort.csv"
    cohort.write_text("subject_id,side,institution_id\n" + "".join(
        f"{kid[:-2]},L,{inst}\n" for kid, inst in zip(ids, institutions)), encoding="utf-8")
    pred = PredictionSet(knee_ids=ids, probs=np.asarray(probs), labels=np.asarray(labels))
    report = evaluate_predictions(pred, n_boot=100, seed=0)
    (root / "report.json").write_text(json.dumps(report.to_dict(), sort_keys=True, indent=2))
    with open(root / "predictions.csv", "w", encoding="utf-8") as fh:
        fh.write("knee_id,label,p_none,p_slow,p_fast\n")
        for kid, lab, p in zip(ids, labels, probs):
            fh.write(f"{kid},{lab},{p[0]!r},{p[1]!r},{p[2]!r}\n")
    return cohort


@pytest.fixture
def evaluation(tmp_path):
    rng = np.random.default_rng(3)
    labels = [0, 0, 1, 0, 2, 0, 0, 2, 0, 1, 0, 0]
    raw = rng.random((len(labels), 3)) + np.eye(3)[labels] * 1.5
    probs = (raw / raw.sum(axis=1, keepdims=True)).tolist()
    cohort = _write_eval(tmp_path, probs, labels, ["inst_d"] * len(labels))
    return tmp_path, cohort


def _rewrite_predictions(root, edit):
    lines = (root / "predictions.csv").read_text(encoding="utf-8").splitlines()
    rows = [line.split(",") for line in lines[1:]]
    edit(rows)
    (root / "predictions.csv").write_text(
        "\n".join([lines[0]] + [",".join(r) for r in rows]) + "\n", encoding="utf-8")


def test_evaluation_passes(evaluation):
    root, cohort = evaluation
    assert checks.check_evaluation(root, cohort, "inst_d") == []


def test_flipped_probability_fails(evaluation):
    root, cohort = evaluation

    def flip(rows):  # a fast progressor's triple, none and fast swapped
        row = rows[4]
        row[2], row[4] = row[4], row[2]
    _rewrite_predictions(root, flip)
    errors = checks.check_evaluation(root, cohort, "inst_d")
    assert any("brute force" in e for e in errors)


def test_probability_out_of_range_fails(evaluation):
    root, cohort = evaluation

    def push(rows):
        rows[0][2] = repr(float(rows[0][2]) + 0.5)
    _rewrite_predictions(root, push)
    errors = checks.check_evaluation(root, cohort, "inst_d")
    assert any("sum to 1" in e or "outside" in e for e in errors)


@pytest.mark.parametrize("key, delta", [("ap", 1e-6), ("roc_auc", -1e-6), ("n_knees", 1)])
def test_tampered_report_fails(evaluation, key, delta):
    root, cohort = evaluation
    report = json.loads((root / "report.json").read_text())
    report[key] += delta
    (root / "report.json").write_text(json.dumps(report))
    assert checks.check_evaluation(root, cohort, "inst_d")


def test_knee_outside_holdout_fails(evaluation):
    root, cohort = evaluation
    text = cohort.read_text().replace("S00003,L,inst_d", "S00003,L,inst_a")
    cohort.write_text(text)
    errors = checks.check_evaluation(root, cohort, "inst_d")
    assert any("not in hold-out" in e for e in errors)


def test_unlearned_ranking_fails(tmp_path):
    labels = [1, 0, 0, 0, 1, 0]
    probs = [[0.9, 0.05, 0.05] if lab else [0.2, 0.4, 0.4] for lab in labels]
    cohort = _write_eval(tmp_path, probs, labels, ["inst_d"] * len(labels))
    errors = checks.check_evaluation(tmp_path, cohort, "inst_d")
    assert any("does not exceed prevalence" in e for e in errors)


def test_brute_force_metrics_by_hand():
    assert checks.brute_average_precision([0.9, 0.8, 0.7, 0.6], [1, 0, 1, 0]) == pytest.approx(5 / 6)
    assert checks.brute_roc_auc([0.9, 0.8, 0.7, 0.6], [1, 0, 1, 0]) == 0.75
    # one tie group holding both classes: precision 1/2 at recall 1
    assert checks.brute_average_precision([0.5, 0.5], [1, 0]) == 0.5
    assert checks.brute_roc_auc([0.5, 0.5], [1, 0]) == 0.5


def test_repeated_outputs(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for d in (a, b):
        d.mkdir()
        (d / "fold_0.vfwt").write_bytes(b"VFWT\x01\x02")
    assert checks.check_identical(a, b, ["fold_*.vfwt"]) == []
    (b / "fold_0.vfwt").write_bytes(b"VFWT\x01\x03")
    assert checks.check_identical(a, b, ["fold_*.vfwt"])
    (b / "fold_7.vfwt").write_bytes(b"VFWT\x01\x02")
    assert checks.check_identical(a, b, ["fold_*.vfwt"])


# ---------------------------------------------------------------------------
# volumes

CROP, FACTORS = (80, 80, 32), (2, 2, 2)


@pytest.fixture
def volumes(tmp_path):
    rng = np.random.default_rng(5)
    raw = Volume((rng.random((84, 82, 36)) * 300).astype(np.float32), (0.4, 0.4, 0.8))
    save_volume(raw, tmp_path / "raw.vvol")
    out = preprocess(raw, CROP, FACTORS)
    save_volume(out, tmp_path / "sag.vvol")
    save_volume(reproject(out, "cor"), tmp_path / "cor.vvol")
    _, spacing, voxels = checks.read_vvol(tmp_path / "raw.vvol")
    expected, expected_spacing = checks.expected_sag(voxels, spacing, CROP, FACTORS)
    return tmp_path, out, expected, expected_spacing


def test_volumes_pass(volumes):
    root, _, expected, spacing = volumes
    assert checks.check_sag_volume(root / "sag.vvol", expected, spacing) == []
    assert checks.check_view_volume(root / "cor.vvol", expected.size) == []


def test_wrong_volume_dimension_fails(volumes):
    root, out, expected, spacing = volumes
    save_volume(Volume(out.voxels[:, :, :-1], out.spacing), root / "sag.vvol")
    assert any("dims" in e for e in checks.check_sag_volume(root / "sag.vvol", expected, spacing))
    save_volume(Volume(out.voxels[:, :, :15], out.spacing), root / "cor.vvol")
    assert any("2%" in e for e in checks.check_view_volume(root / "cor.vvol", expected.size))


def test_wrong_voxel_or_spacing_fails(volumes):
    root, out, expected, spacing = volumes
    vox = out.voxels.copy()
    vox[3, 4, 5] ^= 1
    save_volume(Volume(vox, out.spacing), root / "sag.vvol")
    assert checks.check_sag_volume(root / "sag.vvol", expected, spacing)
    save_volume(Volume(out.voxels, (0.8, 0.9, 1.6)), root / "cor.vvol")
    assert any("isotropic" in e for e in checks.check_view_volume(root / "cor.vvol", expected.size))


# ---------------------------------------------------------------------------
# full-scale model


def test_stem_reference():
    rng = np.random.default_rng(7)
    x = rng.random((3, 3, 21, 19)).astype(np.float32)
    w = rng.standard_normal((5, 3, 7, 7)).astype(np.float32)
    out = ag.conv_nd(ag.tensor(x), ag.tensor(w), stride=(2, 2), padding=(3, 3)).data
    channels = (0, 4)
    ref = checks.stem_reference(x, w, (2, 2), (3, 3), (0, 2), channels)
    assert checks.check_stem(out[[0, 2]][:, list(channels)], ref) == []
    flipped = ag.conv_nd(ag.tensor(x), ag.tensor(w[:, :, ::-1].copy()), stride=2, padding=3).data
    assert checks.check_stem(flipped[[0, 2]][:, list(channels)], ref)


def test_probabilities():
    assert checks.check_probabilities([[0.2, 0.3, 0.5]]) == []
    assert checks.check_probabilities([[0.5, 0.3, 0.2 + 1e-5]])
    assert checks.check_probabilities([[np.nan, 0.5, 0.5]])
    assert checks.check_probabilities([[-0.1, 0.6, 0.5]])


def _profile_report():
    encoder = {"name": "encoder@sag.stem.conv", "kind": "conv", "macs": 0,
               "params": checks.ENCODER_PARAMS}
    return {"total_macs": 140_000_000_000, "total_params": 133_000_000, "rows": [encoder]}


def test_profile_report():
    report = _profile_report()
    assert checks.check_profile(report, report["total_macs"], checks.ENCODER_PARAMS) == []
    assert checks.check_profile(report, report["total_macs"] + 1, checks.ENCODER_PARAMS)
    assert checks.check_profile(report, report["total_macs"], checks.ENCODER_PARAMS - 1)
    report["total_params"] = 100_000_000
    assert checks.check_profile(report, report["total_macs"], checks.ENCODER_PARAMS)
