"""The output comparison of ``bench/same_bytes.py``."""

import importlib.util
from pathlib import Path

from volformer import cli
from volformer.manifest import file_sha256, write_manifest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_same_bytes", ROOT / "bench" / "same_bytes.py")
same_bytes = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_bytes)


def fake_run(work, config, paths=None, report=b"{}\n"):
    """A train-like run under ``work``: one output and its manifest."""
    (work / "run").mkdir(parents=True)
    (work / "run" / "report.json").write_bytes(report)
    (work / "data").mkdir()
    cohort = work / "data" / "cohort.csv"
    cohort.write_text("knee_id\n")
    write_manifest(work / "run", "train", config=config, paths=paths,
                   inputs={str(cohort): file_sha256(cohort)},
                   outputs=[work / "run" / "report.json"], seeds={"seed": 3})
    return same_bytes.snapshot(work)


def test_the_sequence_runs_every_command():
    assert {step[0] for step in same_bytes.STEPS} | {"profile"} == set(cli.COMMANDS)


def test_manifests_compare_without_wall_clock_hash_or_path_placement(tmp_path):
    parent = fake_run(tmp_path / "p", {"epochs": 2, "volumes": str(tmp_path / "p" / "data")})
    change = fake_run(tmp_path / "c", {"epochs": 2}, paths={"volumes": str(tmp_path / "c" / "data")})
    assert sorted(change) == ["data/cohort.csv", "run/manifest_train.json", "run/report.json"]
    assert change["run/manifest_train.json"]["inputs"] == {
        "data/cohort.csv": parent["run/manifest_train.json"]["inputs"]["data/cohort.csv"]}
    assert same_bytes.differences(parent, change, [tmp_path / "p", tmp_path / "c"]) == []


def test_reports_a_changed_output_a_changed_config_and_a_missing_file(tmp_path):
    parent = fake_run(tmp_path / "p", {"epochs": 2})
    fake_run(tmp_path / "c", {"epochs": 3}, report=b"{ }\n")
    (tmp_path / "c" / "run" / "extra.csv").write_text("x\n")
    assert same_bytes.differences(parent, same_bytes.snapshot(tmp_path / "c"),
                                  [tmp_path / "p", tmp_path / "c"]) == [
        "run/extra.csv: only in change", "run/manifest_train.json: differs",
        "run/report.json: differs"]


def test_a_differing_csv_of_one_shape_reports_its_largest_difference(tmp_path):
    csvs = {"eval/predictions.csv": ("knee_id,p\nK1,0.25\nK2,0.5\n",
                                     "knee_id,p\nK1,0.25\nK2,0.5625\n"),
            "run/history_fold_0.csv": ("epoch,loss\n0,1.0\n", "epoch,loss\n0,1.0\n1,0.5\n"),
            "eval/roc.csv": ("threshold,tpr\ninf,1e-3\n", "threshold,tpr\ninf,-1e-3\n"),
            "eval/pr.csv": ("threshold,precision\n0.5,0.25\n0.25,0.5\n",
                            "threshold,precision\n0.5,0.125\n0.25,nan\n"),
            "run/history_fold_1.csv": ("knee_id,p\nK1,0.25\n", "knee_id,p\nK2,0.25\n")}
    for side, i in (("p", 0), ("c", 1)):
        for rel, texts in csvs.items():
            (tmp_path / side / rel).parent.mkdir(parents=True, exist_ok=True)
            (tmp_path / side / rel).write_text(texts[i])
    snaps = [same_bytes.snapshot(tmp_path / side) for side in ("p", "c")]
    assert same_bytes.differences(*snaps, [tmp_path / "p", tmp_path / "c"]) == [
        "eval/pr.csv: differs, largest absolute difference inf",
        "eval/predictions.csv: differs, largest absolute difference 0.0625",
        "eval/roc.csv: differs, largest absolute difference 0.002",
        "run/history_fold_0.csv: differs", "run/history_fold_1.csv: differs"]
