import hashlib
import json
import os
import shutil
import struct
import subprocess
import sys
import threading
import time
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest

import volformer
from volformer import cli, manifest
from volformer.architectures import build_model
from volformer.checkpoint import load_checkpoint, save_checkpoint
from volformer.cli import main
from volformer.errors import DivergenceError
from volformer.manifest import manifest_sha256, read_manifest, write_manifest
from volformer.presets import preset_config
from volformer.volume import Volume, load_volume, save_volume


def run(*argv):
    return main([str(a) for a in argv])


def hashed_inputs(*paths):
    """The runner's ``{path: sha256 or None}`` for the inputs ``paths``."""
    runner = cli.Run("test")
    try:
        runner.input(*paths)
        return runner.input_hashes()
    finally:
        runner.close()


def two_volumes(vols):
    vols.mkdir()
    for name in ("a.vvol", "b.vvol"):
        save_volume(Volume(np.zeros((16, 16, 8), np.uint8), (0.73, 0.73, 1.4)), vols / name)
    return vols


def nan_spacing(path):
    """Write NaN over the first spacing value of the volume file ``path``."""
    raw = bytearray(path.read_bytes())
    raw[19:23] = struct.pack("<f", float("nan"))
    path.write_bytes(bytes(raw))


def sha256_of(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


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

    @pytest.mark.parametrize("line", ["init = imagenet", "init = weights_file",
                                      "weights_file = w.vfwt"])
    def test_model_file_init_other_than_random_exits_2(self, tmp_path, capsys, line):
        cfg = tmp_path / "model.cfg"
        cfg.write_text(f"family = 2d_trf\n{line}\n")
        assert run("profile", "--config", cfg, "--out", tmp_path / "r.json") == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"{cfg} line 2: " in err
        assert line.split(" ")[0] in err and not (tmp_path / "r.json").exists()

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

    @pytest.mark.parametrize("command, flag, value", [
        ("synth", "--seed", -1), ("synth", "--subjects", 0), ("synth", "--subjects", "abc"),
        ("split", "--seed", -1), ("split", "--folds", "two"),
        ("evaluate", "--seed", -1), ("evaluate", "--n-boot", 0),
        ("train", "--folds", "two"), ("train", "--fold", "one"), ("train", "--fold", -1),
        ("train", "--seed", "x"), ("train", "--epochs", "2.5"),
        ("train", "--warmup-epochs", "none"), ("train", "--parallel-folds", "all"),
    ])
    def test_bad_integer_flag_exits_2_with_one_line(self, tmp_path, cohort_dir, capsys,
                                                     command, flag, value):
        out = tmp_path / "out"
        cohort = cohort_dir / "cohort.csv"
        base = {"synth": ["--subjects", 4],
                "split": ["--cohort", cohort, "--holdout", "inst_d"],
                "evaluate": ["--snapshots", tmp_path, "--cohort", cohort],
                "train": ["--cohort", cohort, "--volumes", cohort_dir / "volumes",
                          "--model-preset", "toy-2d-trf"]}[command]
        assert run(command, *base, "--out", out, flag, value) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"{flag} expects" in err
        assert not out.exists()

    def test_output_under_a_regular_file_exits_3_with_one_line(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory\n")
        assert run("synth", "--subjects", 2, "--dims", "16x16x8", "--out", blocker / "sub") == 3
        err = capsys.readouterr().err
        assert err.startswith("volformer: I/O error: ") and err.count("\n") == 1
        assert "Not a directory" in err and "Traceback" not in err
        assert blocker.read_text() == "not a directory\n"

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

    @pytest.mark.parametrize("column, value", [("age", "nan"), ("bmi", "inf")])
    def test_non_finite_cohort_value_exits_3(self, tmp_path, cohort_dir, capsys, column, value):
        lines = (cohort_dir / "cohort.csv").read_text().splitlines()
        header = lines[0].split(",")
        cells = lines[4].split(",")
        cells[header.index(column)] = value
        lines[4] = ",".join(cells)
        bad = tmp_path / "cohort.csv"
        bad.write_text("\n".join(lines) + "\n")
        assert run("label", "--cohort", bad, "--out", tmp_path / "labels") == 3
        err = capsys.readouterr().err
        assert err == (f"volformer: data error: {bad} line 5: bad {column} value '{value}' "
                       "(expects a finite number)\n")
        assert not (tmp_path / "labels").exists()

    def test_repeated_knee_exits_3(self, tmp_path, cohort_dir, capsys):
        lines = (cohort_dir / "cohort.csv").read_text().splitlines()
        bad = tmp_path / "cohort.csv"
        bad.write_text("\n".join(lines + [lines[1]]) + "\n")
        assert run("label", "--cohort", bad, "--out", tmp_path / "labels") == 3
        subject, side = lines[1].split(",")[:2]
        assert capsys.readouterr().err == (f"volformer: data error: {bad} line {len(lines) + 1}: "
                                           f"knee {subject}_{side} repeats line 2\n")
        assert not (tmp_path / "labels").exists()

    def test_non_utf8_experiment_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_bytes(b"epochs = 2\n# caf\xe9\n")
        code = run("train", "--config", cfg, "--out", tmp_path / "run",
                   "--model-preset", "toy-2d-trf")
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "cannot read experiment config" in err

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

    @pytest.mark.parametrize("axis, value", [(0, "nan"), (1, "nan"), (1, "inf"), (2, "0"),
                                             (0, "-0.7")])
    def test_bad_spacing_exits_3_with_one_line(self, tmp_path, capsys, axis, value):
        vols = tmp_path / "volumes"
        vols.mkdir()
        path = vols / "knee.vvol"
        save_volume(Volume(np.zeros((16, 16, 8), np.uint8), (0.73, 0.73, 1.4)), path)
        raw = bytearray(path.read_bytes())
        raw[19 + 4 * axis:23 + 4 * axis] = struct.pack("<f", float(value))
        path.write_bytes(bytes(raw))
        out = tmp_path / "cor"
        assert run("preprocess", "--volumes", vols, "--out", out, "--view", "cor",
                   "--crop", "16x16x8") == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"{path}: spacing" in err and "offset 19" in err
        assert not list(out.glob("*.vvol"))

    def test_failed_preprocess_rerun_leaves_no_manifest(self, tmp_path):
        vols = two_volumes(tmp_path / "volumes")
        out = tmp_path / "cor"
        args = ("preprocess", "--volumes", vols, "--out", out, "--view", "cor", "--crop", "16x16x8")
        assert run(*args) == 0 and (out / "manifest_preprocess.json").exists()
        nan_spacing(vols / "b.vvol")
        assert run(*args) == 3
        assert not (out / "manifest_preprocess.json").exists()

    def test_failed_fold_leaves_no_manifest(self, tmp_path, cohort_dir, monkeypatch):
        out = tmp_path / "run"
        write_manifest(out, "train", config={}, inputs={}, outputs=[], seeds={})  # an earlier run
        train_fold = cli.train_fold

        def fold_1_diverges(model_cfg, data, fold_index, train_cfg):
            if fold_index == 1:
                raise DivergenceError("non-finite loss at epoch 0")
            return train_fold(model_cfg, data, fold_index, train_cfg)

        monkeypatch.setattr(cli, "train_fold", fold_1_diverges)
        code = run("train", "--cohort", cohort_dir / "cohort.csv",
                   "--volumes", cohort_dir / "volumes", "--out", out,
                   "--model-preset", "toy-2d-fc", "--epochs", 1, "--warmup-epochs", 0,
                   "--folds", 2, "--parallel-folds", 1)
        assert code == 4
        assert (out / "fold_0.vfwt").exists()
        assert not (out / "manifest_train.json").exists()

    @pytest.mark.parametrize("family", ["conv3d", "conv2plus1d"])
    def test_volumetric_stem_pool_exits_2_with_one_line(self, tmp_path, capsys, family):
        cfg = tmp_path / "model.cfg"
        cfg.write_text(f"family = {family}\nslice_count = 8\nslice_shape = 16x16\n"
                       "encoder.stem_pool = true\n")
        assert run("profile", "--config", cfg, "--out", tmp_path / "r.json") == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "encoder.stem_pool = false" in err

    def test_out_of_memory_exits_3_with_one_line(self, tmp_path, cohort_dir, monkeypatch,
                                                 capsys):
        from volformer import autograd
        message = "Unable to allocate 15.0 MiB for an array with shape (64, 64, 30, 30)"

        def no_memory(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(autograd, "batch_norm", no_memory)  # a training-mode op
        code = run("train", "--cohort", cohort_dir / "cohort.csv",
                   "--volumes", cohort_dir / "volumes", "--out", tmp_path / "run",
                   "--model-preset", "toy-2d-trf", "--parallel-folds", 1)
        assert code == 3
        assert capsys.readouterr().err == f"volformer: out of memory: {message}\n"


class TestInputHashing:
    def test_file_and_directory_digests_match_hashlib(self, tmp_path, cohort_dir):
        cohort = cohort_dir / "cohort.csv"
        assert run("label", "--cohort", cohort, "--out", tmp_path / "labels") == 0
        assert read_manifest(tmp_path / "labels" / "manifest_label.json")["inputs"] == {
            str(cohort): sha256_of(cohort)}
        vols = two_volumes(tmp_path / "volumes")
        out = tmp_path / "sag"
        assert run("preprocess", "--volumes", vols, "--out", out, "--crop", "16x16x8") == 0
        assert read_manifest(out / "manifest_preprocess.json")["inputs"] == {
            str(vols / name): sha256_of(vols / name) for name in ("a.vvol", "b.vvol")}

    def test_missing_optional_input_records_none(self, tmp_path):
        absent = tmp_path / "absent.cfg"
        out = tmp_path / "r.json"
        assert run("profile", "--preset", "toy-2d-fc", "--config", absent, "--out", out) == 0
        assert read_manifest(tmp_path / "manifest_profile.json")["inputs"] == {str(absent): None}
        assert hashed_inputs(absent, tmp_path / "no_dir") == {
            str(absent): None, str(tmp_path / "no_dir"): None}

    def test_failed_command_joins_the_hashing_thread(self, tmp_path, monkeypatch):
        file_sha256 = manifest.file_sha256

        def slow_sha256(path):
            time.sleep(0.2)  # still hashing when the command fails
            return file_sha256(path)

        monkeypatch.setattr(manifest, "file_sha256", slow_sha256)
        vols = two_volumes(tmp_path / "volumes")
        nan_spacing(vols / "b.vvol")
        threads = threading.active_count()
        assert run("preprocess", "--volumes", vols, "--out", tmp_path / "sag",
                   "--crop", "16x16x8") == 3
        assert not (tmp_path / "sag" / "manifest_preprocess.json").exists()
        assert threading.active_count() == threads

    def test_hashing_error_exits_3_with_one_line(self, tmp_path, cohort_dir, monkeypatch,
                                                 capsys):
        def unreadable(path):
            raise OSError(f"cannot read {path}")

        monkeypatch.setattr(manifest, "file_sha256", unreadable)
        cohort = cohort_dir / "cohort.csv"
        assert run("label", "--cohort", cohort, "--out", tmp_path / "labels") == 3
        assert capsys.readouterr().err == f"volformer: I/O error: cannot read {cohort}\n"
        assert not (tmp_path / "labels" / "manifest_label.json").exists()

    def test_preprocess_names_inputs_before_loading(self, tmp_path, monkeypatch):
        calls = []
        name_inputs, load = cli.Run.input, cli.load_volume

        def spy_input(self, *paths):
            calls.append("input")
            return name_inputs(self, *paths)

        def spy_load(path):
            calls.append("load")
            return load(path)

        monkeypatch.setattr(cli.Run, "input", spy_input)
        monkeypatch.setattr(cli, "load_volume", spy_load)
        vols = two_volumes(tmp_path / "volumes")
        assert run("preprocess", "--volumes", vols, "--out", tmp_path / "sag",
                   "--crop", "16x16x8") == 0
        assert calls == ["input", "load", "load"]

    @pytest.mark.parametrize("same", [lambda v: v, lambda v: v / ".." / v.name],
                             ids=["same-path", "dot-dot"])
    def test_preprocess_into_its_volumes_dir_exits_2(self, tmp_path, capsys, same):
        vols = two_volumes(tmp_path / "volumes")
        before = {p.name: p.read_bytes() for p in vols.iterdir()}
        assert run("preprocess", "--volumes", vols, "--out", same(vols),
                   "--crop", "16x16x8") == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "is the --volumes directory" in err
        assert {p.name: p.read_bytes() for p in vols.iterdir()} == before


def test_output_dir_removes_dead_writers_temporaries(tmp_path):
    """A writer killed inside ``atomic_writer`` leaves its temporary; the next
    command writing to that directory removes it, but keeps a live one's."""
    out = tmp_path / "out"
    out.mkdir()
    writer = subprocess.Popen(
        [sys.executable, "-c",
         "import sys, time\n"
         "from volformer.manifest import atomic_writer\n"
         "with atomic_writer(sys.argv[1], 'wb') as fh:\n"
         "    fh.write(b'partial'); fh.flush(); print('open', flush=True); time.sleep(60)\n",
         str(out / "labels.csv")],
        stdout=subprocess.PIPE, text=True,
        env=dict(os.environ, PYTHONPATH=str(Path(volformer.__file__).resolve().parents[1])))
    assert writer.stdout.readline() == "open\n"
    writer.kill()
    writer.wait()
    writer.stdout.close()
    dead = out / f".labels.csv.{writer.pid}.tmp"
    live = out / f".splits.json.{os.getpid()}.tmp"
    live.write_bytes(b"partial")
    assert dead.exists()
    cli.Run("label").output_dir(out)
    assert sorted(p.name for p in out.iterdir()) == [live.name]


def test_volume_contents_hashed_past_256_files(tmp_path):
    """A one-byte edit that keeps every file's size still changes the
    manifest's inputs, however many volumes the directory holds."""
    vols = tmp_path / "volumes"
    vols.mkdir()
    for i in range(257):
        (vols / f"v{i:03d}.vvol").write_bytes(bytes([i % 251]) * 16)

    def inputs():
        hashes = hashed_inputs(vols)
        return read_manifest(write_manifest(tmp_path / "m", "preprocess", config={},
                                            inputs=hashes, outputs=[], seeds={}))["inputs"]

    before = inputs()
    assert len(before) == 257 and all(before.values())
    victim = vols / "v128.vvol"
    data = bytearray(victim.read_bytes())
    data[5] ^= 0xFF
    victim.write_bytes(bytes(data))
    after = inputs()
    assert after.keys() == before.keys()
    assert [k for k in before if before[k] != after[k]] == [str(victim)]


def scipy_modules_after(code):
    """The scipy modules a fresh interpreter has loaded after running ``code``."""
    src = str(Path(volformer.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    code += ("\nimport json, sys\n"
             "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    return json.loads(out.stdout.splitlines()[-1])


def test_cli_import_leaves_out_scipy_stats():
    # scipy is imported inside the functions that call it: loading any of it
    # at import would add 0.1-0.4 s to every command's start-up
    assert scipy_modules_after("import volformer.cli") == []


def test_sag_preprocess_and_profile_leave_out_scipy(cohort_dir, tmp_path):
    code = f"""
from volformer import cli, manifest
assert cli.main(["preprocess", "--volumes", {str(cohort_dir / "volumes")!r},
                 "--out", {str(tmp_path / "sag")!r}, "--crop", "32x32x16",
                 "--view", "sag"]) == 0
assert cli.main(["profile", "--preset", "toy-2d-trf",
                 "--out", {str(tmp_path / "profile" / "report.json")!r}]) == 0
"""
    assert scipy_modules_after(code) == []
    assert len(list((tmp_path / "sag").glob("*.vvol"))) == 80
    assert (tmp_path / "profile" / "report.json").is_file()


@pytest.mark.parametrize("view", ["cor", "ax"])
def test_cor_and_ax_preprocess_leave_out_scipy(tmp_path, view):
    vols = tmp_path / "volumes"
    vols.mkdir()
    rng = np.random.default_rng(5)
    for i in range(2):  # anisotropic, so both views resample in-slice
        save_volume(Volume(rng.integers(0, 256, (32, 32, 16), np.uint8), (0.73, 0.73, 1.4)),
                    vols / f"knee{i}.vvol")
    out = tmp_path / view
    code = f"""
from volformer import cli, manifest
assert cli.main(["preprocess", "--volumes", {str(vols)!r}, "--out", {str(out)!r},
                 "--crop", "32x32x16", "--view", {view!r}]) == 0
"""
    assert scipy_modules_after(code) == []
    outputs = [load_volume(path) for path in sorted(out.glob("*.vvol"))]
    assert len(outputs) == 2
    for vol in outputs:  # 16 x 16 x 8 after the crop and downsample
        assert vol.spacing[0] == vol.spacing[1] and vol.dims[:2] != (16, 8)


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
        assert hist[0] == "epoch,lr,train_loss,val_ap,val_auc,focal_clamps"
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

    def test_config_hash_leaves_out_where_the_run_lives(self, tmp_path, cohort_dir):
        manifests = []
        for place in ("a", "b/deeper"):
            data = tmp_path / place / "data"
            shutil.copytree(cohort_dir, data)
            out = tmp_path / place / "run"
            assert run("train", "--cohort", data / "cohort.csv", "--volumes", data / "volumes",
                       "--out", out, "--model-preset", "toy-2d-fc", "--epochs", 1,
                       "--warmup-epochs", 0, "--folds", 2, "--fold", 0) == 0
            manifests.append(read_manifest(out / "manifest_train_fold0.json"))
        a, b = manifests
        assert a["config"] == b["config"] and a["config_hash"] == b["config_hash"]
        assert not a["config"].keys() & {"cohort", "volumes", "out"}
        assert a["paths"]["out"] == str(tmp_path / "a" / "run")
        assert b["paths"]["volumes"] == str(tmp_path / "b" / "deeper" / "data" / "volumes")

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
        assert recorded == manifest_sha256(trained_dir / "manifest_train.json")
        for fname in ("predictions.csv", "roc.csv", "pr.csv", "confusion.csv"):
            assert (out / fname).exists()

    def test_evaluate_config_hash_survives_a_train_rerun(self, tmp_path, cohort_dir):
        # a rerun of train in the same directory differs only in wall_clock
        hashes = []
        for rerun in ("first", "second"):
            assert run("train", "--cohort", cohort_dir / "cohort.csv",
                       "--volumes", cohort_dir / "volumes", "--out", tmp_path / "run",
                       "--model-preset", "toy-2d-fc", "--epochs", 1, "--warmup-epochs", 0,
                       "--folds", 2, "--fold", 0) == 0
            assert run("evaluate", "--snapshots", tmp_path / "run", "--cohort",
                       cohort_dir / "cohort.csv", "--out", tmp_path / rerun, "--n-boot", 100) == 0
            hashes.append(read_manifest(tmp_path / rerun / "manifest_evaluate.json")["config_hash"])
        assert hashes[0] == hashes[1]

    def test_evaluate_reads_volumes_of_a_manifest_without_paths(self, tmp_path, cohort_dir,
                                                               trained_dir):
        run_dir = tmp_path / "run"
        shutil.copytree(trained_dir, run_dir)
        manifest = read_manifest(run_dir / "manifest_train.json")
        manifest["config"].update(manifest.pop("paths"))  # the layout of earlier versions
        (run_dir / "manifest_train.json").write_text(json.dumps(manifest))
        assert run("evaluate", "--snapshots", run_dir, "--cohort", cohort_dir / "cohort.csv",
                   "--out", tmp_path / "eval", "--n-boot", 100) == 0

    def test_evaluate_ignores_stray_checkpoints(self, tmp_path, cohort_dir, trained_dir):
        run_dir = tmp_path / "run"
        shutil.copytree(trained_dir, run_dir)
        shutil.copy(run_dir / "fold_0.vfwt", run_dir / "fold_7.vfwt")
        out = tmp_path / "eval"
        assert run("evaluate", "--snapshots", run_dir, "--cohort", cohort_dir / "cohort.csv",
                   "--out", out, "--n-boot", 100) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["metadata"]["snapshots"] == [f"fold_{i}.vfwt" for i in range(4)]

    @pytest.mark.parametrize("damage", ["dropped", "extra", "reshaped", "foreign"])
    def test_evaluate_rejects_partial_checkpoint(self, tmp_path, cohort_dir, trained_dir, capsys,
                                                 damage):
        run_dir = tmp_path / "run"
        shutil.copytree(trained_dir, run_dir)
        ckpt = run_dir / "fold_1.vfwt"
        state = load_checkpoint(ckpt)
        weight = next(name for name in state if name.endswith("weight"))
        if damage == "dropped":
            written, differ = {k: v for k, v in state.items() if k != weight}, {weight}
        elif damage == "extra":
            extra = "aggregator.head.scale"
            written, differ = {**state, extra: np.ones(3, np.float32)}, {extra}
        elif damage == "reshaped":
            written, differ = {**state, weight: state[weight].reshape(-1)}, {weight}
        else:  # another architecture's state under this run's name
            written = build_model(preset_config("toy-conv3d")).state_dict()
            differ = state.keys() ^ written.keys() | {
                k for k in state.keys() & written.keys() if state[k].shape != written[k].shape}
        save_checkpoint(ckpt, written)
        assert run("evaluate", "--snapshots", run_dir, "--cohort", cohort_dir / "cohort.csv",
                   "--out", tmp_path / "eval", "--n-boot", 100) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"volformer: data error: {ckpt}: ")
        assert any(repr(name) in err for name in differ)

    @pytest.mark.parametrize("damage", [
        lambda raw: raw[:12] + b"\xff" + raw[13:],  # a first name byte that is not UTF-8
        lambda raw: raw[:-5],  # the last payload cut short
        lambda raw: raw + b"\x00",  # a byte after the last tensor
    ], ids=["name", "truncated", "trailing-byte"])
    def test_evaluate_names_a_damaged_checkpoint(self, tmp_path, cohort_dir, trained_dir,
                                                 capsys, damage):
        run_dir = tmp_path / "run"
        shutil.copytree(trained_dir, run_dir)
        ckpt = run_dir / "fold_1.vfwt"
        ckpt.write_bytes(damage(ckpt.read_bytes()))
        assert run("evaluate", "--snapshots", run_dir, "--cohort", cohort_dir / "cohort.csv",
                   "--out", tmp_path / "eval", "--n-boot", 100) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"volformer: data error: {ckpt}: ")

    def test_evaluate_requires_listed_checkpoints(self, tmp_path, cohort_dir, trained_dir, capsys):
        run_dir = tmp_path / "run"
        shutil.copytree(trained_dir, run_dir)
        (run_dir / "fold_2.vfwt").unlink()
        assert run("evaluate", "--snapshots", run_dir, "--cohort", cohort_dir / "cohort.csv",
                   "--out", tmp_path / "eval", "--n-boot", 100) == 3
        assert "fold_2.vfwt" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["config", "outputs", "config.model_config_text",
                                       "config.crop", "config.factors",
                                       "config.holdout_institution"])
    def test_evaluate_manifest_without_a_field_exits_3(self, tmp_path, cohort_dir, trained_dir,
                                                       capsys, field):
        run_dir = tmp_path / "run"
        shutil.copytree(trained_dir, run_dir)
        manifest = read_manifest(run_dir / "manifest_train.json")
        owner, _, key = field.rpartition(".")
        del (manifest[owner] if owner else manifest)[key]
        (run_dir / "manifest_train.json").write_text(json.dumps(manifest))
        assert run("evaluate", "--snapshots", run_dir, "--cohort", cohort_dir / "cohort.csv",
                   "--out", tmp_path / "eval", "--n-boot", 100) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert f"{run_dir / 'manifest_train.json'}: field {field} is missing" in err

    @pytest.mark.parametrize("text", ["{\"config\": ", "", "\udcff"])
    def test_evaluate_manifest_not_json_exits_3(self, tmp_path, cohort_dir, trained_dir, capsys,
                                                text):
        run_dir = tmp_path / "run"
        shutil.copytree(trained_dir, run_dir)
        (run_dir / "manifest_train.json").write_bytes(text.encode("utf-8", "surrogateescape"))
        assert run("evaluate", "--snapshots", run_dir, "--cohort", cohort_dir / "cohort.csv",
                   "--out", tmp_path / "eval", "--n-boot", 100) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert f"{run_dir / 'manifest_train.json'}: not a JSON manifest" in err

    @pytest.mark.parametrize("key, value", [
        ("holdout_institution", "inst_c"), ("crop", [40, 40, 16]), ("factors", [1, 1, 1]),
        ("model_config_text", "family = 2d_fc\n"),
    ])
    def test_evaluate_refuses_manifests_of_two_runs(self, tmp_path, cohort_dir, trained_dir,
                                                    capsys, key, value):
        # an older single-fold run left its manifest and checkpoint behind
        run_dir = tmp_path / "run"
        shutil.copytree(trained_dir, run_dir)
        shutil.copy(run_dir / "fold_0.vfwt", run_dir / "fold_3.vfwt")
        manifest = read_manifest(run_dir / "manifest_train.json")
        manifest["config"][key] = value
        manifest["outputs"] = [str(run_dir / "fold_3.vfwt")]
        (run_dir / "manifest_train_fold3.json").write_text(json.dumps(manifest))
        assert run("evaluate", "--snapshots", run_dir, "--cohort", cohort_dir / "cohort.csv",
                   "--out", tmp_path / "eval", "--n-boot", 100) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert f"manifest_train_fold3.json and manifest_train.json disagree on config.{key}" in err
        assert not (tmp_path / "eval").exists()

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


    @pytest.mark.parametrize("row, message", [
        ("k1,7,0.2,0.3,0.5", "line 3: bad label value '7' (expects an integer in 0..2)"),
        ("k1,-1,0.2,0.3,0.5", "line 3: bad label value '-1' (expects an integer in 0..2)"),
        ("k1,1,nan,0.3,0.5", "line 3: bad p_none value 'nan' (expects a probability in 0..1)"),
        ("k1,1,0.1,0.3,0.5", "line 3: probabilities sum to 0.9"),
        ("k1,1,0.2,,0.5", "line 3: p_slow is required"),
        ("k1,1,0.2,0.3", "line 3: expected 5 columns, got 4"),
    ])
    def test_curves_bad_row_exits_3_with_one_line(self, tmp_path, capsys, row, message):
        preds = tmp_path / "predictions.csv"
        preds.write_text(f"knee_id,label,p_none,p_slow,p_fast\nk0,0,0.7,0.2,0.1\n{row}\n"
                         "k2,2,0.1,0.1,0.8\n")
        assert run("curves", "--predictions", preds, "--out", tmp_path / "c") == 3
        err = capsys.readouterr().err
        assert err.startswith(f"volformer: data error: {preds} {message}")
        assert err.count("\n") == 1
        assert not (tmp_path / "c").exists()

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

    def test_per_view_input_at_native_shapes(self, tmp_path):
        native, per_view = tmp_path / "native.json", tmp_path / "per_view.json"
        assert run("profile", "--preset", "full-multiview-shared", "--out", native) == 0
        assert run("profile", "--preset", "full-multiview-shared", "--input",
                   "sag=64x160x160,cor=160x116x88,ax=160x116x88", "--out", per_view) == 0
        a, b = (json.loads(p.read_text()) for p in (native, per_view))
        assert b["input_spec"] == {"sag": [64, 160, 160], "cor": [160, 116, 88],
                                   "ax": [160, 116, 88]}
        assert (a["total_macs"], a["total_params"]) == (b["total_macs"], b["total_params"])

    def test_per_view_input_keeps_unnamed_views(self, tmp_path):
        out = tmp_path / "report.json"
        assert run("profile", "--preset", "toy-multiview-shared", "--input", "cor=8x32x32",
                   "--out", out) == 0
        assert json.loads(out.read_text())["input_spec"] == {
            "sag": [8, 24, 24], "cor": [8, 32, 32], "ax": [8, 24, 24]}

    @pytest.mark.parametrize("preset, spec", [
        ("toy-2d-trf", "cor=8x24x24"),                    # a view the model lacks
        ("toy-multiview-shared", "top=8x24x24"),          # not a view at all
        ("toy-multiview-shared", "sag=8x24x24,sag=8x24x24"),
        ("toy-multiview-shared", "sag=8,24,24"),          # items split on commas
        ("toy-multiview-shared", "sag=8x24"),
    ])
    def test_bad_per_view_input_exits_2(self, tmp_path, capsys, preset, spec):
        out = tmp_path / "report.json"
        assert run("profile", "--preset", preset, "--input", spec, "--out", out) == 2
        assert "--input" in capsys.readouterr().err
        assert not out.exists()

    def test_profile_from_config_file(self, tmp_path):
        cfg = tmp_path / "model.cfg"
        from volformer.modelconfig import format_model_config
        from volformer.presets import toy_config
        cfg.write_text(format_model_config(toy_config("2d_fc")))
        out = tmp_path / "fc.json"
        assert run("profile", "--config", cfg, "--out", out) == 0
        assert json.loads(out.read_text())["family"] == "2d_fc"
