"""Command-line entry point: reproducible experiment commands over the
synth / preprocess / label / split / train / evaluate / profile / curves
workflow, declared in one table, ``COMMANDS``, and run by one runner, ``main``.

The runner reads every flag through its Kind (``kinds``) before the
command runs, so a bad flag is one stderr line and makes no directory. A
command names its inputs with ``run.input`` before it reads them, and the
runner hashes them on one background thread while the command works. It
calls ``run.output_dir`` just before its first write, which creates the
directory and removes the old ``manifest_<command>.json``; on a clean return
the runner waits for the hashes and writes the new manifest from the config,
inputs, outputs and seeds the command declared, with the config fields that
name a path flag under ``paths``, outside ``config_hash``. ``FAILURES`` maps
errors to exit codes: 2 configuration errors; 3 data and OS errors, dead fold
workers and running out of memory; 4 training divergence."""
from __future__ import annotations

import argparse
import os
import sys
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np

from . import __version__, manifest
from .architectures import build_model
from .cohort import (
    CLASS_NAMES,
    apply_exclusions,
    read_cohort_csv,
    split_dataset,
    write_cohort_csv,
)
from .errors import (
    CheckpointError,
    ConfigError,
    DataError,
    DivergenceError,
    VolformerError,
)
from .evaluation import (
    PredictionSet,
    ensemble_predict,
    evaluate_predictions,
    export_curves,
)
from .experiment import assemble_samples, check_sample_spec
from .manifest import (
    atomic_writer,
    clear_manifest,
    manifest_sha256,
    read_manifest,
    remove_dead_temporaries,
    write_json,
    write_manifest,
)
from .kinds import (
    DIMS,
    FLOAT,
    NONNEG_INT,
    PATH,
    POS_INT,
    PROB,
    STR,
    int_in,
    read_config,
    read_table,
    read_text,
)
from .modelconfig import format_model_config, load_model_config, parse_model_config
from .presets import preset_config
from .profiler import count_macs
from .synth import SynthSpec, synth_generate
from .training import FoldData, TrainConfig, history_to_csv, train_fold
from .volume import (
    AugmentPolicy,
    load_volume,
    preprocess,
    reproject,
    save_volume,
)

EXIT_OK, EXIT_CONFIG, EXIT_DATA, EXIT_DIVERGED = 0, 2, 3, 4

# predictions.csv, written by ``evaluate`` and read by ``curves``: the class
# label and the three class probabilities of each hold-out knee
PROBS = tuple(f"p_{name}" for name in CLASS_NAMES.values())
PREDICTION_COLUMNS = {"knee_id": STR, "label": int_in(0, len(CLASS_NAMES) - 1),
                      **dict.fromkeys(PROBS, PROB)}


# ---------------------------------------------------------------------------
# experiment config (train): flat key = value, flags win


# key -> (kind, default); a key without a default is unset until given
EXPERIMENT_KEYS = {
    "cohort": (PATH, None), "volumes": (PATH, None), "out": (PATH, None),
    "model_config": (PATH, None), "model_preset": (STR, None),
    "holdout_institution": (STR, "inst_d"), "folds": (POS_INT, 5), "seed": (NONNEG_INT, 0),
    "crop": (DIMS, (48, 48, 16)), "factors": (DIMS, (2, 2, 2)),
    "epochs": (POS_INT, 10), "warmup_epochs": (NONNEG_INT, 2), "batch_size": (POS_INT, 16),
    "lr_start": (FLOAT, 1e-5), "lr_main": (FLOAT, 1e-4),
    "weight_decay": (FLOAT, 1e-4), "focal_gamma": (FLOAT, 2.0),
    "augment.shift_frac": (FLOAT, 0.05), "augment.rotate_deg": (FLOAT, 8.0),
    "augment.gamma_lo": (FLOAT, 0.9), "augment.gamma_hi": (FLOAT, 1.1),
    "parallel_folds": (POS_INT, 1),
}


def load_experiment_config(path=None, flags=None):
    """Defaults < config file < command-line flags. The file is read through
    the key kinds; ``flags`` are already read, and None means not given. A
    model flag replaces both model keys of the file."""
    merged = {k: default for k, (_, default) in EXPERIMENT_KEYS.items() if default is not None}
    if path:
        entries = read_config(read_text(path, "experiment config"), EXPERIMENT_KEYS, path)
        merged.update((k, value) for k, (value, _) in entries.items())
    flags = {k: v for k, v in (flags or {}).items() if v is not None}
    if flags.keys() & {"model_config", "model_preset"}:
        merged.pop("model_config", None)
        merged.pop("model_preset", None)
    return merged | flags


def _experiment_pieces(cfg):
    for key in ("cohort", "volumes", "out"):
        if not cfg.get(key):
            raise ConfigError(f"experiment config field {key!r} is required")
    if cfg.get("model_config"):
        model_cfg = load_model_config(cfg["model_config"])
    elif cfg.get("model_preset"):
        model_cfg = preset_config(cfg["model_preset"])
    else:
        raise ConfigError("one of model_config / model_preset is required")
    train_cfg = TrainConfig(
        epochs=cfg["epochs"], warmup_epochs=cfg["warmup_epochs"],
        lr_start=cfg["lr_start"], lr_main=cfg["lr_main"],
        weight_decay=cfg["weight_decay"], focal_gamma=cfg["focal_gamma"],
        batch_size=cfg["batch_size"], seed=cfg["seed"],
        augment_policy=AugmentPolicy(cfg["augment.shift_frac"], cfg["augment.rotate_deg"],
                                     (cfg["augment.gamma_lo"], cfg["augment.gamma_hi"])),
    ).validate()
    return model_cfg, train_cfg


def _load_labelled(cohort_path, volumes_dir=None):
    records = read_cohort_csv(cohort_path)
    volume_ids = None
    if volumes_dir is not None:
        volume_ids = {p.stem for p in Path(volumes_dir).glob("*.vvol")}
        if not volume_ids:
            raise DataError(f"no .vvol volumes found in {volumes_dir}")
    return apply_exclusions(records, volume_ids=volume_ids)


# ---------------------------------------------------------------------------
# commands


def cmd_synth(args, run):
    spec = SynthSpec(dims=args.dims) if args.dims else SynthSpec()
    out = run.output_dir(args.out)
    vol_dir = out / "volumes"
    records, _ = synth_generate(args.subjects, args.seed, spec=spec, out_dir=vol_dir)
    cohort_path = out / "cohort.csv"
    write_cohort_csv(records, cohort_path)
    run.config = {"subjects": args.subjects, "dims": list(spec.dims)}
    run.outputs = [cohort_path] + sorted(vol_dir.glob("*.vvol"))
    run.seeds = {"seed": args.seed}
    print(f"synth: {len(records)} knees -> {out}")


def cmd_preprocess(args, run):
    if Path(args.out).resolve() == Path(args.volumes).resolve():
        raise ConfigError(f"--out {args.out} is the --volumes directory; preprocessed "
                          "volumes would replace their own inputs")
    files = sorted(Path(args.volumes).glob("*.vvol"))
    if not files:
        raise DataError(f"no .vvol volumes found in {args.volumes}")
    run.input(args.volumes)
    out = run.output_dir(args.out)
    for path in files:
        vol = preprocess(load_volume(path), args.crop, args.factors)
        if args.view != "sag":
            vol = reproject(vol, args.view)
        save_volume(vol, out / path.name)
        run.outputs.append(out / path.name)
    run.config = {"crop": list(args.crop), "factors": list(args.factors), "view": args.view}
    print(f"preprocess: {len(run.outputs)} volumes -> {out}")


def cmd_label(args, run):
    run.input(args.cohort)
    kept, excluded = _load_labelled(args.cohort)
    out = run.output_dir(args.out)
    labels_path = out / "labels.csv"
    with atomic_writer(labels_path, "w", encoding="utf-8") as fh:
        fh.write("knee_id,class,class_name,event_month,rule_trace\n")
        for record, label in kept:
            event = "" if label.event_month is None else label.event_month
            fh.write(f"{record.knee_id},{label.progression_class},"
                     f"{CLASS_NAMES[label.progression_class]},{event},\"{label.rule_trace}\"\n")
    excl_path = out / "exclusions.csv"
    with atomic_writer(excl_path, "w", encoding="utf-8") as fh:
        fh.write("knee_id,reason\n")
        for record, reason in excluded:
            fh.write(f"{record.knee_id},{reason}\n")
    run.outputs = [labels_path, excl_path]
    print(f"label: {len(kept)} labelled, {len(excluded)} excluded -> {out}")


def cmd_split(args, run):
    run.input(args.cohort)
    kept, _ = _load_labelled(args.cohort)
    splits = split_dataset(kept, args.holdout, n_folds=args.folds, seed=args.seed)
    out = run.output_dir(args.out)
    splits_path = out / "splits.json"
    write_json(splits_path, splits.to_dict())
    run.config = {"holdout_institution": args.holdout, "folds": args.folds}
    run.outputs, run.seeds = [splits_path], {"seed": args.seed}
    print(f"split: eval {len(splits.eval_ids)} knees, folds "
          f"{[len(f) for f in splits.folds]} -> {out}")


def _train_one_fold(packed):
    model_cfg, fold_data, fold_index, train_cfg, out_dir = packed
    snapshot, history, _ = train_fold(model_cfg, fold_data, fold_index, train_cfg)
    out_dir = Path(out_dir)
    from .checkpoint import save_checkpoint
    ckpt = out_dir / f"fold_{fold_index}.vfwt"
    save_checkpoint(ckpt, snapshot.state)
    hist_path = out_dir / f"history_fold_{fold_index}.csv"
    history_to_csv(history, hist_path)
    return fold_index, snapshot.epoch, snapshot.val_ap, str(ckpt), str(hist_path)


def cmd_train(args, run):
    cfg = load_experiment_config(args.config, {k: v for k, v in vars(args).items()
                                               if k in EXPERIMENT_KEYS})
    model_cfg, train_cfg = _experiment_pieces(cfg)
    run.input(cfg["cohort"], cfg["volumes"])

    kept, excluded = _load_labelled(cfg["cohort"], cfg["volumes"])
    splits = split_dataset(kept, cfg["holdout_institution"],
                           n_folds=cfg["folds"], seed=cfg["seed"])
    train_pairs = [(r, lab) for r, lab in kept
                   if r.institution_id != cfg["holdout_institution"]]
    samples = assemble_samples(train_pairs, cfg["volumes"], model_cfg.views,
                               cfg["crop"], cfg["factors"])
    check_sample_spec(samples, model_cfg)
    index_of = {kid: i for i, kid in enumerate(samples.knee_ids)}

    fold_indices = range(cfg["folds"]) if args.fold is None else [args.fold]
    if args.fold is not None and args.fold >= cfg["folds"]:
        raise ConfigError(f"--fold {args.fold} outside 0..{cfg['folds'] - 1}")

    out = run.output_dir(cfg["out"], "train" if args.fold is None else f"train_fold{args.fold}")
    jobs = []
    for fold_index in fold_indices:
        train_ids, val_ids = splits.fold_train_val(fold_index)
        fold_data = FoldData(
            train=samples.subset([index_of[k] for k in train_ids]),
            val=samples.subset([index_of[k] for k in val_ids]))
        jobs.append((model_cfg, fold_data, fold_index, train_cfg, str(out)))

    workers = min(cfg["parallel_folds"], len(jobs))
    if workers > 1:
        # spawn fresh interpreters with single-threaded BLAS: fold workers
        # oversubscribe the cores otherwise and parallelism buys nothing
        import multiprocessing as mp
        thread_keys = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                       "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
        saved = {k: os.environ.get(k) for k in thread_keys}
        os.environ.update({k: "1" for k in thread_keys})
        try:
            ctx = mp.get_context("spawn")
            with ProcessPoolExecutor(max_workers=workers, mp_context=ctx) as pool:
                results = list(pool.map(_train_one_fold, jobs))
        except BrokenProcessPool as exc:
            raise VolformerError(f"a fold worker died before finishing its fold ({exc})") from exc
        finally:
            for k, v in saved.items():
                if v is None:
                    os.environ.pop(k, None)
                else:
                    os.environ[k] = v
    else:
        results = [_train_one_fold(job) for job in jobs]

    summary = {}
    for fold_index, epoch, val_ap, ckpt, hist in sorted(results):
        run.outputs += [ckpt, hist]
        summary[f"fold_{fold_index}"] = {"snapshot_epoch": epoch, "val_ap": val_ap}
        print(f"fold {fold_index}: snapshot epoch {epoch}, val AP {val_ap:.3f}")
    run.config = {k: cfg[k] for k in sorted(cfg) if k != "seed"}
    run.config["model_config_text"] = format_model_config(model_cfg)
    run.config["excluded"] = len(excluded)
    run.config["fold_summary"] = summary
    run.seeds = {"seed": cfg["seed"]}


# the train manifest fields ``evaluate`` reads -> their JSON type; the
# manifests of one training run agree on every ``config.`` field here
TRAIN_FIELDS = {"config": dict, "outputs": list, "config.model_config_text": str,
                "config.crop": list, "config.factors": list, "config.holdout_institution": str}


def _read_train_manifests(paths):
    """The train manifests at ``paths``: each must hold TRAIN_FIELDS, and
    all must be of one training run. A DataError names the file otherwise."""
    manifests, first = [], {}
    for path in paths:
        try:
            manifests.append(read_manifest(path))
        except ValueError as exc:  # not UTF-8 or not JSON
            raise DataError(f"{path}: not a JSON manifest ({exc})") from None
        for field, kind in TRAIN_FIELDS.items():
            value = manifests[-1]
            for key in field.split("."):
                value = value.get(key) if isinstance(value, dict) else None
            if not isinstance(value, kind):
                raise DataError(f"{path}: field {field} is missing or not a {kind.__name__}")
            if "." in field and first.setdefault(field, value) != value:
                raise DataError(f"{path.name} and {paths[0].name} disagree on {field}: "
                                f"{path.parent} holds more than one training run")
    return manifests


def cmd_evaluate(args, run):
    run.input(args.cohort)
    snap_dir = Path(args.snapshots)
    manifests = sorted(snap_dir.glob("manifest_train*.json"))
    if not manifests:
        raise DataError(f"no train manifest found in {snap_dir}")
    trains = _read_train_manifests(manifests)
    tcfg = trains[0]["config"]
    model_cfg = parse_model_config(tcfg["model_config_text"],
                                   f"{manifests[0]} model_config_text")
    crop, factors = tuple(tcfg["crop"]), tuple(tcfg["factors"])
    # manifests written before ``paths`` existed keep the volumes in their config
    volumes_dir = args.volumes or trains[0].get("paths", tcfg).get("volumes")
    if not isinstance(volumes_dir, str):
        raise DataError(f"{manifests[0]}: field paths.volumes is missing; give --volumes")
    holdout = tcfg["holdout_institution"]

    kept, _ = _load_labelled(args.cohort, volumes_dir)
    eval_pairs = [(r, lab) for r, lab in kept if r.institution_id == holdout]
    if not eval_pairs:
        raise DataError(f"no knees of hold-out institution {holdout!r} in cohort")
    samples = assemble_samples(eval_pairs, volumes_dir, model_cfg.views, crop, factors)
    check_sample_spec(samples, model_cfg)

    from .checkpoint import load_checkpoint
    # only the checkpoints the train manifests list, found by basename, so
    # stray or leftover folds in the directory are never ensembled
    ckpts = [snap_dir / name for name in sorted(
        {Path(o).name for m in trains for o in m["outputs"]
         if isinstance(o, str) and o.endswith(".vfwt")})]
    if not ckpts:
        raise DataError(f"the train manifests in {snap_dir} list no checkpoints")
    absent = [c.name for c in ckpts if not c.is_file()]
    if absent:
        raise DataError(f"checkpoints listed by the train manifests are missing "
                        f"from {snap_dir}: {', '.join(absent)}")
    run.input(*ckpts)
    graphs = []
    for ckpt in ckpts:
        graph = build_model(model_cfg, seed=0)
        try:
            graph.module.load_state_dict(load_checkpoint(ckpt))
        except CheckpointError as exc:
            raise CheckpointError(f"{ckpt}: {exc}") from None
        graphs.append(graph)

    pred = ensemble_predict(graphs, samples)
    report = evaluate_predictions(pred, n_boot=args.n_boot, seed=args.seed)
    # basenames keep report bytes independent of where the run directory
    # lives; manifest hashes depend on it and belong in the manifest chain
    report.metadata["snapshots"] = [c.name for c in ckpts]
    run.config = {"snapshots": str(snap_dir), "n_boot": args.n_boot,
                  "train_manifests": {m.name: manifest_sha256(m) for m in manifests}}

    out = run.output_dir(args.out)
    report_path = out / "report.json"
    write_json(report_path, report.to_dict())
    pred_path = out / "predictions.csv"
    with atomic_writer(pred_path, "w", encoding="utf-8") as fh:
        fh.write(",".join(PREDICTION_COLUMNS) + "\n")
        for kid, label, p in zip(pred.knee_ids, pred.labels, pred.probs):
            fh.write(",".join([kid, str(label), *(repr(float(v)) for v in p)]) + "\n")
    run.outputs = [report_path, pred_path] + list(export_curves(pred, out).values())
    run.seeds = {"seed": args.seed}
    print(f"evaluate: AP {report.ap:.3f} +/- {report.ap_std:.3f}, "
          f"ROC AUC {report.roc_auc:.3f} +/- {report.roc_auc_std:.3f}, "
          f"bacc {report.balanced_accuracy:.3f} (n={report.n_knees}, "
          f"prevalence {report.prevalence:.3f})")


def _profile_input(raw, model_cfg):
    """``--input``: one ``KxHxW`` for every view, or ``view=KxHxW`` items
    separated by commas; a view left out keeps the model's own shape."""
    spec = model_cfg.input_spec()
    if "=" not in raw:
        shape = DIMS.parse(raw, "--input")
        return {v: shape for v in spec}
    named = set()
    for item in raw.split(","):
        view, eq, dims = (part.strip() for part in item.partition("="))
        if not eq:
            raise ConfigError(f"--input expects view=KxHxW items, got {item!r}")
        if view not in spec:
            raise ConfigError(f"--input names view {view!r}; the model's views are "
                              f"{', '.join(spec)}")
        if view in named:
            raise ConfigError(f"--input names view {view!r} twice")
        named.add(view)
        spec[view] = DIMS.parse(dims, f"--input {view}")
    return spec


def cmd_profile(args, run):
    if args.config:
        run.input(args.config)
    if args.preset:
        model_cfg = preset_config(args.preset)
    elif args.config:
        model_cfg = load_model_config(args.config)
    else:
        raise ConfigError("profile requires --config or --preset")
    graph = build_model(model_cfg, seed=0)
    input_spec = _profile_input(args.input, model_cfg) if args.input else None
    report = count_macs(graph, input_spec)
    payload = report.to_dict()
    payload["family"] = model_cfg.family
    payload["views"] = list(model_cfg.views)
    out = Path(args.out)
    run.output_dir(out.parent)
    write_json(out, payload)
    run.config = {"preset": args.preset, "config": args.config, "input": args.input}
    run.outputs = [out]
    print(f"profile: {payload['total_macs'] / 1e9:.2f} GMACs, "
          f"{payload['total_params'] / 1e6:.2f} M params -> {out}")


def cmd_curves(args, run):
    run.input(args.predictions)
    rows = read_table(args.predictions, PREDICTION_COLUMNS)
    if not rows:
        raise DataError(f"{args.predictions}: no prediction rows")
    for line_no, row in rows:
        where = f"{args.predictions} line {line_no}"
        if missing := [column for column, value in row.items() if value is None]:
            raise DataError(f"{where}: {missing[0]} is required")
        total = sum(row[p] for p in PROBS)
        if abs(total - 1) > 1e-6:
            raise DataError(f"{where}: probabilities sum to {total!r}, not 1")
    pred = PredictionSet(knee_ids=[row["knee_id"] for _, row in rows],
                         probs=np.array([[row[p] for p in PROBS] for _, row in rows]),
                         labels=np.array([row["label"] for _, row in rows]))
    paths = export_curves(pred, run.output_dir(args.out))
    run.outputs = list(paths.values())
    print(f"curves: {', '.join(str(p) for p in paths.values())}")


# ---------------------------------------------------------------------------
# the command table and its runner


def _input_digest(path):
    # through the module attribute, so a wrapped ``file_sha256`` (perfbench's
    # tracer) is the one that runs
    return manifest.file_sha256(path) if path.is_file() else None


class Run:
    """What a command declares for its manifest: its inputs through ``input``
    before it reads them, ``output_dir`` just before its first write, and
    ``config``, ``outputs`` and ``seeds`` by the time it returns."""

    def __init__(self, command):
        self.command, self.out = command, None
        self.config, self.outputs, self.seeds = {}, [], {}
        self._digests = {}  # input file -> future of its sha256 (None if absent)
        self._hasher = ThreadPoolExecutor(max_workers=1, thread_name_prefix="input-hash")

    def input(self, *paths):
        """Name input files; a directory stands for its sorted ``.vvol``
        files. Each is hashed on one background thread from now on, so the
        hashing overlaps the command's own reads and writes."""
        for item in map(Path, paths):
            for path in sorted(item.glob("*.vvol")) if item.is_dir() else [item]:
                if str(path) not in self._digests:
                    self._digests[str(path)] = self._hasher.submit(_input_digest, path)

    def input_hashes(self):
        """Wait for the hashes: ``{path: sha256 or None}``."""
        return {path: digest.result() for path, digest in self._digests.items()}

    def close(self):
        """Drop the hashes not yet started and join the hashing thread."""
        self._hasher.shutdown(cancel_futures=True)

    def output_dir(self, out, command=None):
        """Create ``out``, remove its old ``manifest_<command>.json`` and the
        temporaries of killed writers; ``command`` renames the manifest."""
        self.command = command or self.command
        self.out = Path(out)
        self.out.mkdir(parents=True, exist_ok=True)
        clear_manifest(self.out, self.command)
        remove_dead_temporaries(self.out)
        return self.out


class Flag:
    """A command-line flag: the runner reads its text through ``kind`` into
    ``args.<key>`` before the command runs; ``parser`` holds the rest of its
    argparse settings."""

    def __init__(self, name, kind=STR, key=None, **parser):
        self.name, self.kind, self.parser = name, kind, parser
        self.key = key or name[2:].replace("-", "_")


def _exp(name, key=None, **parser):
    """A ``train`` flag for an experiment key, read through that key's kind."""
    flag = Flag(name, key=key, **parser)
    flag.kind = EXPERIMENT_KEYS[flag.key][0]
    return flag


# name -> (help, function, flags)
COMMANDS = {
    "synth": ("generate a synthetic cohort with planted signal", cmd_synth, (
        Flag("--subjects", POS_INT, required=True),
        Flag("--seed", NONNEG_INT, default=0),
        Flag("--out", PATH, required=True),
        Flag("--dims", DIMS, help="volume dims D0xD1xD2 (default 64x64x32)"),
    )),
    "preprocess": ("crop, quantize and downsample volumes", cmd_preprocess, (
        Flag("--volumes", PATH, required=True),
        Flag("--out", PATH, required=True),
        Flag("--crop", DIMS, default="320x320x128"),
        Flag("--factors", DIMS, default="2,2,2"),
        Flag("--view", default="sag", choices=("sag", "cor", "ax")),
    )),
    "label": ("derive progression labels and exclusions", cmd_label, (
        Flag("--cohort", PATH, required=True),
        Flag("--out", PATH, required=True),
    )),
    "split": ("hold-out institution + stratified folds", cmd_split, (
        Flag("--cohort", PATH, required=True),
        Flag("--holdout", required=True),
        Flag("--folds", POS_INT, default=5),
        Flag("--seed", NONNEG_INT, default=0),
        Flag("--out", PATH, required=True),
    )),
    "train": ("train cross-validation folds", cmd_train, (
        Flag("--config", PATH, help="experiment config file (flags override)"),
        _exp("--cohort"), _exp("--volumes"), _exp("--out"),
        _exp("--model-config"), _exp("--model-preset"),
        _exp("--holdout", "holdout_institution", metavar="HOLDOUT"),
        _exp("--folds"),
        Flag("--fold", NONNEG_INT, help="train a single fold"),
        _exp("--seed"), _exp("--epochs"), _exp("--warmup-epochs"), _exp("--parallel-folds"),
    )),
    "evaluate": ("ensemble the fold snapshots on the hold-out", cmd_evaluate, (
        Flag("--snapshots", PATH, required=True),
        Flag("--cohort", PATH, required=True),
        Flag("--out", PATH, required=True),
        Flag("--volumes", PATH, help="override the volumes dir from the train manifest"),
        Flag("--n-boot", POS_INT, default=1000),
        Flag("--seed", NONNEG_INT, default=0),
    )),
    "profile": ("analytic MACs / parameter report", cmd_profile, (
        Flag("--config", PATH, help="model config file"),
        Flag("--preset", help="named preset (e.g. full-2d-trf)"),
        Flag("--input", help="override input spec: KxHxW for every view, "
                             "or view=KxHxW,... per view"),
        Flag("--out", PATH, default="report.json"),
    )),
    "curves": ("export ROC/PR/confusion CSVs from predictions", cmd_curves, (
        Flag("--predictions", PATH, required=True),
        Flag("--out", PATH, required=True),
    )),
}

# (exception type, exit code, stderr label): the first row that matches wins
FAILURES = (
    (ConfigError, EXIT_CONFIG, "configuration error"),
    (DivergenceError, EXIT_DIVERGED, "training diverged"),
    (DataError, EXIT_DATA, "data error"),
    (FileNotFoundError, EXIT_DATA, "data error"),
    (VolformerError, EXIT_DATA, "error"),
    (MemoryError, EXIT_DATA, "out of memory"),
    (OSError, EXIT_DATA, "I/O error"),
)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="volformer",
        description="Slice-wise CNN + transformer toolkit for knee-OA progression prediction")
    parser.add_argument("--version", action="version", version=f"volformer {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, flags) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag in flags:
            p.add_argument(flag.name, dest=flag.key, **flag.parser)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    _, func, flags = COMMANDS[args.command]
    run = Run(args.command)
    try:
        for flag in flags:
            value = getattr(args, flag.key)
            if value is not None:
                setattr(args, flag.key, flag.kind.parse(str(value), flag.name))
        func(args, run)
        path_keys = {flag.key for flag in flags if flag.kind is PATH}
        paths = {k: run.config.pop(k) for k in path_keys & run.config.keys()}
        write_manifest(run.out, run.command, run.config, run.input_hashes(), run.outputs,
                       run.seeds, paths)
    except tuple(row[0] for row in FAILURES) as exc:
        code, label = next((code, label) for kind, code, label in FAILURES
                           if isinstance(exc, kind))
        print(f"volformer: {label}: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return code
    finally:
        run.close()
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
