import json
import os
import shutil
import subprocess
import sys
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import pytest

import volformer
from volformer import cli
from volformer.checkpoint import load_checkpoint, save_checkpoint
from volformer.cli import main
from volformer.manifest import read_manifest, write_manifest


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def cohort_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    assert run("synth", "--subjects", 40, "--seed", 7, "--out", out) == 0
    return out


class TestSynth:
    def test_outputs_exist(self, cohort_dir):
        assert (cohort_dir / "cohort.csv").exists()
        volumes = list((cohort_dir / "volumes").glob("*.vvol"))
        assert len(volumes) == 80  # two knees per subject
        assert (cohort_dir / "manifest_synth.json").exists()

    def test_deterministic_outputs(self, tmp_path, cohort_dir):
        again = tmp_path / "again"
        assert run("synth", "--subjects", 40, "--seed", 7, "--out", again) == 0
        assert (again / "cohort.csv").read_bytes() == (cohort_dir / "cohort.csv").read_bytes()
        for vol in sorted((again / "volumes").glob("*.vvol"))[:5]:
            ref = cohort_dir / "volumes" / vol.name
            assert vol.read_bytes() == ref.read_bytes()

    def test_manifest_lists_outputs_and_seed(self, cohort_dir):
        manifest = read_manifest(cohort_dir / "manifest_synth.json")
        assert manifest["seeds"] == {"seed": 7}
        assert any(o.endswith("cohort.csv") for o in manifest["outputs"])


class TestLabelAndSplit:
    def test_label_outputs(self, cohort_dir, tmp_path):
        out = tmp_path / "labels"
        assert run("label", "--cohort", cohort_dir / "cohort.csv", "--out", out) == 0
        header = (out / "labels.csv").read_text().splitlines()[0]
        assert header == "knee_id,class,class_name,event_month,rule_trace"
        assert (out / "exclusions.csv").exists()

    def test_split_disjoint(self, cohort_dir, tmp_path):
        out = tmp_path / "splits"
        assert run("split", "--cohort", cohort_dir / "cohort.csv", "--holdout", "inst_d",
                   "--folds", 5, "--seed", 0, "--out", out) == 0
        splits = json.loads((out / "splits.json").read_text())
        all_ids = [kid for fold in splits["folds"] for kid in fold] + splits["eval_ids"]
        assert len(all_ids) == len(set(all_ids))

    def test_missing_institution_is_config_error(self, cohort_dir, tmp_path):
        code = run("split", "--cohort", cohort_dir / "cohort.csv", "--holdout", "inst_zz",
                   "--out", tmp_path / "s")
        assert code == 2


class TestErrorPaths:
    def test_missing_cohort_exits_3_and_names_path(self, tmp_path, capsys):
        code = run("train", "--cohort", tmp_path / "nope.csv", "--volumes", tmp_path,
                   "--out", tmp_path / "run", "--model-preset", "toy-2d-trf")
        assert code == 3
        assert "nope.csv" in capsys.readouterr().err

    def test_unknown_model_config_key_exits_2(self, tmp_path, cohort_dir, capsys):
        cfg = tmp_path / "model.cfg"
        cfg.write_text("family = 2d_trf\nbogus_key = 1\n")
        code = run("train", "--cohort", cohort_dir / "cohort.csv",
                   "--volumes", cohort_dir / "volumes", "--out", tmp_path / "run",
                   "--model-config", cfg)
        assert code == 2
        assert "bogus_key" in capsys.readouterr().err

    def test_unknown_preset_exits_2(self, tmp_path, capsys):
        code = run("profile", "--preset", "resnet-9000", "--out", tmp_path / "r.json")
        assert code == 2
        assert "resnet-9000" in capsys.readouterr().err

    def test_bad_experiment_config_line_reported(self, tmp_path, cohort_dir, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("epochs = soon\n")
        code = run("train", "--config", cfg, "--cohort", cohort_dir / "cohort.csv",
                   "--volumes", cohort_dir / "volumes", "--out", tmp_path / "run",
                   "--model-preset", "toy-2d-trf")
        assert code == 2
        assert "line 1" in capsys.readouterr().err

    def test_duplicate_experiment_key_exits_2(self, tmp_path, cohort_dir, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("epochs = 3\n# later\nepochs = 7\n")
        code = run("train", "--config", cfg, "--cohort", cohort_dir / "cohort.csv",
                   "--volumes", cohort_dir / "volumes", "--out", tmp_path / "run",
                   "--model-preset", "toy-2d-trf")
        assert code == 2
        err = capsys.readouterr().err
        assert str(cfg) in err and "line 3" in err and "duplicate key 'epochs'" in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("line", [
        "slice_count = abc", "slice_count.sag = abc", "agg.heads = 0",
        "encoder.stem_stride = 0", "encoder.stem_kernel = 0", "agg.blocks = -1",
    ])
    def test_bad_model_config_value_exits_2(self, tmp_path, capsys, line):
        cfg = tmp_path / "model.cfg"
        cfg.write_text(f"family = 2d_trf\n{line}\n")
        assert run("profile", "--config", cfg, "--out", tmp_path / "r.json") == 2
        err = capsys.readouterr().err
        assert f"{cfg} line 2: {line.split(' ')[0]}" in err and "Traceback" not in err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("line", ["lr_main = nan", "parallel_folds = -3", "crop = 48x48",
                                      "seed = -1", "batch_size = 0"])
    def test_bad_experiment_value_exits_2(self, tmp_path, cohort_dir, capsys, line):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"# run\n{line}\n")
        code = run("train", "--config", cfg, "--cohort", cohort_dir / "cohort.csv",
                   "--volumes", cohort_dir / "volumes", "--out", tmp_path / "run",
                   "--model-preset", "toy-2d-trf")
        assert code == 2
        assert f"{cfg} line 2: {line.split(' ')[0]} expects" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("flag, value", [("--seed", -1), ("--parallel-folds", 0),
                                             ("--epochs", 0)])
    def test_out_of_range_train_flag_exits_2(self, tmp_path, cohort_dir, capsys, flag, value):
        code = run("train", "--cohort", cohort_dir / "cohort.csv",
                   "--volumes", cohort_dir / "volumes", "--out", tmp_path / "run",
                   "--model-preset", "toy-2d-trf", flag, value)
        assert code == 2
        assert f"{flag} expects" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_unreadable_experiment_config_exits_2(self, tmp_path, capsys):
        code = run("train", "--config", tmp_path / "absent.cfg", "--out", tmp_path / "run",
                   "--model-preset", "toy-2d-trf")
        assert code == 2
        assert "cannot read experiment config" in capsys.readouterr().err

    @pytest.mark.parametrize("file_line, flags", [
        ("model_config = {absent}", ["--model-preset", "resnet-9000"]),
        ("model_preset = toy-2d-fc", ["--model-config", "{absent}"]),
    ])
    def test_model_flag_replaces_both_file_keys(self, tmp_path, cohort_dir, capsys,
                                                file_line, flags):
        absent = tmp_path / "absent_model.cfg"
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(file_line.format(absent=absent) + "\n")
        code = run("train", "--config", cfg, "--cohort", cohort_dir / "cohort.csv",
                   "--volumes", cohort_dir / "volumes", "--out", tmp_path / "run",
                   *[f.format(absent=absent) for f in flags])
        assert code == 2  # the flag's model is loaded and fails, not the file's
        err = capsys.readouterr().err
        assert ("resnet-9000" in err) if "--model-preset" in flags else ("absent_model" in err)

    @pytest.mark.parametrize("value", ["two", "0", "-1"])
    def test_bad_thread_cap_exits_2(self, tmp_path, cohort_dir, monkeypatch, capsys, value):
        monkeypatch.setenv("VOLFORMER_THREADS", value)
        code = run("train", "--cohort", cohort_dir / "cohort.csv",
                   "--volumes", cohort_dir / "volumes", "--out", tmp_path / "run",
                   "--model-preset", "toy-2d-trf", "--parallel-folds", 2)
        assert code == 2
        assert "VOLFORMER_THREADS" in capsys.readouterr().err

    def test_dead_fold_worker_exits_3(self, tmp_path, cohort_dir, monkeypatch, capsys):
        class DeadPool:
            def __init__(self, *args, **kwargs):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                raise BrokenProcessPool("A process in the process pool was terminated abruptly")

        monkeypatch.delenv("VOLFORMER_THREADS", raising=False)
        monkeypatch.setattr(cli, "ProcessPoolExecutor", DeadPool)
        threads_before = os.environ.get("OMP_NUM_THREADS")
        code = run("train", "--cohort", cohort_dir / "cohort.csv",
                   "--volumes", cohort_dir / "volumes", "--out", tmp_path / "run",
                   "--model-preset", "toy-2d-trf", "--parallel-folds", 2)
        assert code == 3
        err = capsys.readouterr().err
        assert "fold worker died" in err
        assert "Traceback" not in err and err.count("\n") == 1
        assert os.environ.get("OMP_NUM_THREADS") == threads_before


def test_volume_contents_hashed_past_256_files(tmp_path):
    """A one-byte edit that keeps every file's size still changes the
    manifest's inputs, however many volumes the directory holds."""
    vols = tmp_path / "volumes"
    vols.mkdir()
    for i in range(257):
        (vols / f"v{i:03d}.vvol").write_bytes(bytes([i % 251]) * 16)

    def inputs():
        return read_manifest(write_manifest(tmp_path / "m", "preprocess", config={},
                                            inputs=cli._hash_inputs_dir(vols),
                                            outputs=[], seeds={}))["inputs"]

    before = inputs()
    assert len(before) == 257 and all(before.values())
    victim = vols / "v128.vvol"
    data = bytearray(victim.read_bytes())
    data[5] ^= 0xFF
    victim.write_bytes(bytes(data))
    after = inputs()
    assert after.keys() == before.keys()
    assert [k for k in before if before[k] != after[k]] == [str(victim)]


def test_cli_import_leaves_out_scipy_stats():
    # scipy.stats would add about half a second to every command's start-up
    src = str(Path(volformer.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    code = "import sys, volformer.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


@pytest.fixture(scope="module")
def trained_dir(tmp_path_factory, cohort_dir):
    out = tmp_path_factory.mktemp("run")
    code = run("train", "--cohort", cohort_dir / "cohort.csv",
               "--volumes", cohort_dir / "volumes", "--out", out,
               "--model-preset", "toy-2d-trf", "--epochs", 2, "--warmup-epochs", 1,
               "--folds", 4, "--seed", 3)
    assert code == 0
    return out


class TestTrainEvaluate:
    def test_train_outputs(self, trained_dir):
        assert sorted(p.name for p in trained_dir.glob("fold_*.vfwt")) == [
            f"fold_{i}.vfwt" for i in range(4)]
        hist = (trained_dir / "history_fold_0.csv").read_text().splitlines()
        assert hist[0] == "epoch,lr,train_loss,val_ap,val_auc"
        assert len(hist) == 3  # header + 2 epochs
        manifest = read_manifest(trained_dir / "manifest_train.json")
        assert "model_config_text" in manifest["config"]
        assert manifest["config"]["fold_summary"]["fold_0"]["val_ap"] >= 0.0

    def test_experiment_config_file_with_flag_precedence(self, tmp_path, cohort_dir):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            f"cohort = {cohort_dir / 'cohort.csv'}\n"
            f"volumes = {cohort_dir / 'volumes'}\n"
            f"out = {tmp_path / 'from_file'}\n"
            "model_preset = toy-2d-fc\n"
            "epochs = 1\nwarmup_epochs = 0\nfolds = 3\nseed = 2\n")
        out = tmp_path / "flag_out"
        # --out and --fold override the file; everything else comes from it
        assert run("train", "--config", cfg, "--out", out, "--fold", 1) == 0
        assert (out / "fold_1.vfwt").exists()
        assert not (tmp_path / "from_file").exists()

    def test_single_fold_flag(self, tmp_path, cohort_dir):
        out = tmp_path / "one_fold"
        code = run("train", "--cohort", cohort_dir / "cohort.csv",
                   "--volumes", cohort_dir / "volumes", "--out", out,
                   "--model-preset", "toy-2d-fc", "--epochs", 1, "--warmup-epochs", 0,
                   "--folds", 4, "--fold", 2, "--seed", 3)
        assert code == 0
        assert [p.name for p in out.glob("fold_*.vfwt")] == ["fold_2.vfwt"]
        assert (out / "manifest_train_fold2.json").exists()

    def test_evaluate_chains_manifests(self, tmp_path, cohort_dir, trained_dir):
        out = tmp_path / "eval"
        code = run("evaluate", "--snapshots", trained_dir,
                   "--cohort", cohort_dir / "cohort.csv", "--out", out,
                   "--n-boot", 120, "--seed", 1)
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert 0.0 <= report["ap"] <= 1.0
        assert report["metadata"]["spread_method"] == "bootstrap(assumption)"
        manifest = read_manifest(out / "manifest_evaluate.json")
        assert "manifest_train.json" in manifest["config"]["train_manifests"]
        recorded = manifest["config"]["train_manifests"]["manifest_train.json"]
        from volformer.manifest import file_sha256
        assert recorded == file_sha256(trained_dir / "manifest_train.json")
        for fname in ("predictions.csv", "roc.csv", "pr.csv", "confusion.csv"):
            assert (out / fname).exists()

    def test_evaluate_ignores_stray_checkpoints(self, tmp_path, cohort_dir, trained_dir):
        run_dir = tmp_path / "run"
        shutil.copytree(trained_dir, run_dir)
        shutil.copy(run_dir / "fold_0.vfwt", run_dir / "fold_7.vfwt")
        out = tmp_path / "eval"
        assert run("evaluate", "--snapshots", run_dir, "--cohort", cohort_dir / "cohort.csv",
                   "--out", out, "--n-boot", 100) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["metadata"]["snapshots"] == [f"fold_{i}.vfwt" for i in range(4)]

    def test_evaluate_rejects_partial_checkpoint(self, tmp_path, cohort_dir, trained_dir, capsys):
        run_dir = tmp_path / "run"
        shutil.copytree(trained_dir, run_dir)
        state = load_checkpoint(run_dir / "fold_1.vfwt")
        dropped = next(name for name in state if name.endswith("weight"))
        del state[dropped]
        save_checkpoint(run_dir / "fold_1.vfwt", state)
        assert run("evaluate", "--snapshots", run_dir, "--cohort", cohort_dir / "cohort.csv",
                   "--out", tmp_path / "eval", "--n-boot", 100) == 3
        assert dropped in capsys.readouterr().err

    def test_evaluate_requires_listed_checkpoints(self, tmp_path, cohort_dir, trained_dir, capsys):
        run_dir = tmp_path / "run"
        shutil.copytree(trained_dir, run_dir)
        (run_dir / "fold_2.vfwt").unlink()
        assert run("evaluate", "--snapshots", run_dir, "--cohort", cohort_dir / "cohort.csv",
                   "--out", tmp_path / "eval", "--n-boot", 100) == 3
        assert "fold_2.vfwt" in capsys.readouterr().err

    def test_curves_from_predictions(self, tmp_path, cohort_dir, trained_dir):
        eval_dir = tmp_path / "eval2"
        assert run("evaluate", "--snapshots", trained_dir,
                   "--cohort", cohort_dir / "cohort.csv", "--out", eval_dir,
                   "--n-boot", 120) == 0
        out = tmp_path / "curves"
        assert run("curves", "--predictions", eval_dir / "predictions.csv",
                   "--out", out) == 0
        assert (out / "roc.csv").read_text().splitlines()[0] == "threshold,fpr,tpr"
        assert (out / "pr.csv").exists() and (out / "confusion.csv").exists()

    def test_curves_bad_header_exits_3(self, tmp_path):
        bad = tmp_path / "preds.csv"
        bad.write_text("a,b\n1,2\n")
        assert run("curves", "--predictions", bad, "--out", tmp_path / "c") == 3


class TestProfileCommand:
    def test_full_scale_report(self, tmp_path):
        out = tmp_path / "report.json"
        assert run("profile", "--preset", "full-2d-trf", "--out", out) == 0
        report = json.loads(out.read_text())
        assert abs(report["total_macs"] / 141e9 - 1) < 0.10
        assert abs(report["total_params"] / 133e6 - 1) < 0.10
        assert report["notes"]["macs_convention"].startswith("norm/activation/pool")
        assert len(report["rows"]) > 50

    @pytest.mark.parametrize("preset", ["toy-2d-fc", "toy-2d-bilstm", "toy-2d-trf"])
    def test_input_with_unbuilt_slice_count_exits_2(self, tmp_path, preset):
        out = tmp_path / "report.json"
        assert run("profile", "--preset", preset, "--input", "16,24,24", "--out", out) == 2
        assert not out.exists()

    def test_input_override_counts_the_real_forward(self, tmp_path):
        out = tmp_path / "report.json"
        assert run("profile", "--preset", "toy-conv3d", "--input", "16,24,24", "--out", out) == 0
        assert json.loads(out.read_text())["total_macs"] == 12_091_488

    def test_profile_with_timing(self, tmp_path):
        out = tmp_path / "timed.json"
        assert run("profile", "--preset", "toy-2d-trf", "--time", "--out", out) == 0
        report = json.loads(out.read_text())
        assert report["timing"]["runnable"] is True
        assert report["timing"]["median_ms"] < 1000

    def test_profile_from_config_file(self, tmp_path):
        cfg = tmp_path / "model.cfg"
        from volformer.modelconfig import format_model_config
        from volformer.presets import toy_config
        cfg.write_text(format_model_config(toy_config("2d_fc")))
        out = tmp_path / "fc.json"
        assert run("profile", "--config", cfg, "--out", out) == 0
        assert json.loads(out.read_text())["family"] == "2d_fc"
