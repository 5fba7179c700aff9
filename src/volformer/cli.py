"""Command-line entry point: reproducible experiment commands over the
synth / preprocess / label / split / train / evaluate / profile / curves
workflow. Every command writes a manifest beside its outputs; exit codes are
2 for configuration errors, 3 for data errors and dead fold workers, 4 for
training divergence."""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np

from . import __version__
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
from .manifest import file_sha256, read_manifest, write_manifest
from .modelconfig import (
    DIMS,
    FLOAT,
    NONNEG_INT,
    POS_INT,
    STR,
    format_model_config,
    load_model_config,
    parse_model_config,
    read_config,
    read_text,
)
from .presets import preset_config
from .profiler import count_macs, time_inference
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


def _hash_inputs_dir(directory):
    """Input description for a volume directory: every ``.vvol`` file, so
    the manifest hashes each volume's contents."""
    return sorted(Path(directory).glob("*.vvol"))


# ---------------------------------------------------------------------------
# experiment config (train): flat key = value, flags win


# key -> (kind, default); a key without a default is unset until given
EXPERIMENT_KEYS = {
    "cohort": (STR, None), "volumes": (STR, None), "out": (STR, None),
    "model_config": (STR, None), "model_preset": (STR, None),
    "holdout_institution": (STR, "inst_d"), "folds": (POS_INT, 5), "seed": (NONNEG_INT, 0),
    "crop": (DIMS, (48, 48, 16)), "factors": (DIMS, (2, 2, 2)),
    "epochs": (POS_INT, 10), "warmup_epochs": (NONNEG_INT, 2), "batch_size": (POS_INT, 16),
    "lr_start": (FLOAT, 1e-5), "lr_main": (FLOAT, 1e-4),
    "weight_decay": (FLOAT, 1e-4), "focal_gamma": (FLOAT, 2.0),
    "augment.shift_frac": (FLOAT, 0.05), "augment.rotate_deg": (FLOAT, 8.0),
    "augment.gamma_lo": (FLOAT, 0.9), "augment.gamma_hi": (FLOAT, 1.1),
    "parallel_folds": (POS_INT, 1),
}


def load_experiment_config(path=None, overrides=None):
    """Defaults < config file < command-line flags, all read through the
    key types. A model flag replaces both model keys of the file."""
    merged = {k: default for k, (_, default) in EXPERIMENT_KEYS.items() if default is not None}
    if path:
        entries = read_config(read_text(path, "experiment config"), EXPERIMENT_KEYS, path)
        merged.update((k, value) for k, (value, _) in entries.items())
    flags = {k: EXPERIMENT_KEYS[k][0].parse(str(v), "--" + k.replace("_", "-"))
             for k, v in (overrides or {}).items() if v is not None}
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


def cmd_synth(args):
    out = Path(args.out)
    vol_dir = out / "volumes"
    vol_dir.mkdir(parents=True, exist_ok=True)
    spec = SynthSpec(dims=DIMS.parse(args.dims, "--dims")) if args.dims else SynthSpec()
    records, _ = synth_generate(args.subjects, args.seed, spec=spec, out_dir=vol_dir)
    cohort_path = out / "cohort.csv"
    write_cohort_csv(records, cohort_path)
    outputs = [cohort_path] + sorted(vol_dir.glob("*.vvol"))
    write_manifest(out, "synth",
                   config={"subjects": args.subjects, "dims": list(spec.dims)},
                   inputs=[], outputs=outputs, seeds={"seed": args.seed})
    print(f"synth: {len(records)} knees -> {out}")
    return EXIT_OK


def cmd_preprocess(args):
    crop = DIMS.parse(args.crop, "--crop")
    factors = DIMS.parse(args.factors, "--factors")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    files = sorted(Path(args.volumes).glob("*.vvol"))
    if not files:
        raise DataError(f"no .vvol volumes found in {args.volumes}")
    outputs = []
    for path in files:
        vol = preprocess(load_volume(path), crop, factors)
        if args.view != "sag":
            vol = reproject(vol, args.view)
        dest = out / path.name
        save_volume(vol, dest)
        outputs.append(dest)
    write_manifest(out, "preprocess",
                   config={"crop": list(crop), "factors": list(factors), "view": args.view},
                   inputs=_hash_inputs_dir(args.volumes), outputs=outputs, seeds={})
    print(f"preprocess: {len(outputs)} volumes -> {out}")
    return EXIT_OK


def cmd_label(args):
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    kept, excluded = _load_labelled(args.cohort)
    labels_path = out / "labels.csv"
    with open(labels_path, "w", encoding="utf-8") as fh:
        fh.write("knee_id,class,class_name,event_month,rule_trace\n")
        for record, label in kept:
            event = "" if label.event_month is None else label.event_month
            fh.write(f"{record.knee_id},{label.progression_class},"
                     f"{CLASS_NAMES[label.progression_class]},{event},\"{label.rule_trace}\"\n")
    excl_path = out / "exclusions.csv"
    with open(excl_path, "w", encoding="utf-8") as fh:
        fh.write("knee_id,reason\n")
        for record, reason in excluded:
            fh.write(f"{record.knee_id},{reason}\n")
    write_manifest(out, "label", config={},
                   inputs=[args.cohort], outputs=[labels_path, excl_path], seeds={})
    print(f"label: {len(kept)} labelled, {len(excluded)} excluded -> {out}")
    return EXIT_OK


def cmd_split(args):
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    kept, _ = _load_labelled(args.cohort)
    splits = split_dataset(kept, args.holdout, n_folds=args.folds, seed=args.seed)
    splits_path = out / "splits.json"
    with open(splits_path, "w", encoding="utf-8") as fh:
        json.dump(splits.to_dict(), fh, sort_keys=True, indent=2)
        fh.write("\n")
    write_manifest(out, "split",
                   config={"holdout_institution": args.holdout, "folds": args.folds},
                   inputs=[args.cohort], outputs=[splits_path], seeds={"seed": args.seed})
    print(f"split: eval {len(splits.eval_ids)} knees, folds "
          f"{[len(f) for f in splits.folds]} -> {out}")
    return EXIT_OK


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


def _thread_cap():
    """The VOLFORMER_THREADS cap on fold workers, or None when unset."""
    raw = os.environ.get("VOLFORMER_THREADS")
    if not raw:
        return None
    if not (raw.strip().isdecimal() and int(raw) > 0):
        raise ConfigError(f"VOLFORMER_THREADS must be a positive integer, got {raw!r}")
    return int(raw)


def cmd_train(args):
    overrides = {
        "cohort": args.cohort, "volumes": args.volumes, "out": args.out,
        "model_config": args.model_config, "model_preset": args.model_preset,
        "holdout_institution": args.holdout, "folds": args.folds, "seed": args.seed,
        "epochs": args.epochs, "warmup_epochs": args.warmup_epochs,
        "parallel_folds": args.parallel_folds,
    }
    cfg = load_experiment_config(args.config, overrides)
    model_cfg, train_cfg = _experiment_pieces(cfg)
    thread_cap = _thread_cap()
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)

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
    if args.fold is not None and not 0 <= args.fold < cfg["folds"]:
        raise ConfigError(f"--fold {args.fold} outside 0..{cfg['folds'] - 1}")

    jobs = []
    for fold_index in fold_indices:
        train_ids, val_ids = splits.fold_train_val(fold_index)
        fold_data = FoldData(
            train=samples.subset([index_of[k] for k in train_ids]),
            val=samples.subset([index_of[k] for k in val_ids]))
        jobs.append((model_cfg, fold_data, fold_index, train_cfg, str(out)))

    workers = min(cfg["parallel_folds"], len(jobs), thread_cap or cfg["parallel_folds"])
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

    outputs = []
    summary = {}
    for fold_index, epoch, val_ap, ckpt, hist in sorted(results):
        outputs += [ckpt, hist]
        summary[f"fold_{fold_index}"] = {"snapshot_epoch": epoch, "val_ap": val_ap}
        print(f"fold {fold_index}: snapshot epoch {epoch}, val AP {val_ap:.3f}")
    manifest_cfg = {k: cfg[k] for k in sorted(cfg) if k != "seed"}
    manifest_cfg["model_config_text"] = format_model_config(model_cfg)
    manifest_cfg["excluded"] = len(excluded)
    manifest_cfg["fold_summary"] = summary
    command = "train" if args.fold is None else f"train_fold{args.fold}"
    write_manifest(out, command, config=manifest_cfg,
                   inputs=[cfg["cohort"]] + _hash_inputs_dir(cfg["volumes"]),
                   outputs=outputs, seeds={"seed": cfg["seed"]})
    return EXIT_OK


def cmd_evaluate(args):
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    snap_dir = Path(args.snapshots)
    manifests = sorted(snap_dir.glob("manifest_train*.json"))
    if not manifests:
        raise DataError(f"no train manifest found in {snap_dir}")
    train_manifest = read_manifest(manifests[0])
    tcfg = train_manifest["config"]
    model_cfg = parse_model_config(tcfg["model_config_text"],
                                   f"{manifests[0]} model_config_text")
    crop, factors = tuple(tcfg["crop"]), tuple(tcfg["factors"])
    volumes_dir = args.volumes or tcfg["volumes"]
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
        {Path(o).name for m in manifests for o in read_manifest(m)["outputs"]
         if o.endswith(".vfwt")})]
    if not ckpts:
        raise DataError(f"the train manifests in {snap_dir} list no checkpoints")
    absent = [c.name for c in ckpts if not c.is_file()]
    if absent:
        raise DataError(f"checkpoints listed by the train manifests are missing "
                        f"from {snap_dir}: {', '.join(absent)}")
    graphs = []
    for ckpt in ckpts:
        graph = build_model(model_cfg, seed=0)
        _, missing, _ = graph.module.load_state_dict(load_checkpoint(ckpt))
        if missing:
            raise CheckpointError(f"{ckpt} lacks {len(missing)} model tensors, "
                                  f"first {missing[0]!r}")
        graphs.append(graph)

    pred = ensemble_predict(graphs, samples)
    report = evaluate_predictions(pred, n_boot=args.n_boot, seed=args.seed)
    # basenames keep report bytes independent of where the run directory
    # lives; manifest hashes are volatile and belong in the manifest chain
    report.metadata["snapshots"] = [c.name for c in ckpts]
    train_manifest_hashes = {m.name: file_sha256(m) for m in manifests}

    report_path = out / "report.json"
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report.to_dict(), fh, sort_keys=True, indent=2)
        fh.write("\n")
    pred_path = out / "predictions.csv"
    with open(pred_path, "w", encoding="utf-8") as fh:
        fh.write("knee_id,label,p_none,p_slow,p_fast\n")
        for kid, label, p in zip(pred.knee_ids, pred.labels, pred.probs):
            fh.write(f"{kid},{label},{float(p[0])!r},{float(p[1])!r},{float(p[2])!r}\n")
    curve_paths = export_curves(pred, out)

    write_manifest(out, "evaluate",
                   config={"snapshots": str(snap_dir), "n_boot": args.n_boot,
                           "train_manifests": train_manifest_hashes},
                   inputs=[args.cohort] + [(str(c), c) for c in ckpts],
                   outputs=[report_path, pred_path] + list(curve_paths.values()),
                   seeds={"seed": args.seed})
    print(f"evaluate: AP {report.ap:.3f} +/- {report.ap_std:.3f}, "
          f"ROC AUC {report.roc_auc:.3f} +/- {report.roc_auc_std:.3f}, "
          f"bacc {report.balanced_accuracy:.3f} (n={report.n_knees}, "
          f"prevalence {report.prevalence:.3f})")
    return EXIT_OK


def cmd_profile(args):
    if args.preset:
        model_cfg = preset_config(args.preset)
    elif args.config:
        model_cfg = load_model_config(args.config)
    else:
        raise ConfigError("profile requires --config or --preset")
    graph = build_model(model_cfg, seed=0)
    input_spec = None
    if args.input:
        k, h, w = DIMS.parse(args.input, "--input")
        input_spec = {v: (k, h, w) for v in model_cfg.views}
    report = count_macs(graph, input_spec)
    payload = report.to_dict()
    payload["family"] = model_cfg.family
    payload["views"] = list(model_cfg.views)
    if args.time:
        payload["timing"] = time_inference(graph, input_spec).to_dict()
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")
    write_manifest(out.parent, "profile",
                   config={"preset": args.preset, "config": args.config,
                           "input": args.input, "timed": bool(args.time)},
                   inputs=[args.config] if args.config else [],
                   outputs=[out], seeds={})
    print(f"profile: {payload['total_macs'] / 1e9:.2f} GMACs, "
          f"{payload['total_params'] / 1e6:.2f} M params -> {out}")
    return EXIT_OK


def cmd_curves(args):
    rows = []
    with open(args.predictions, encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != "knee_id,label,p_none,p_slow,p_fast":
            raise DataError(f"{args.predictions}: unexpected header {header!r}")
        for line_no, line in enumerate(fh, start=2):
            parts = line.strip().split(",")
            if len(parts) != 5:
                raise DataError(f"{args.predictions} line {line_no}: expected 5 columns")
            try:
                rows.append((parts[0], int(parts[1]),
                             [float(parts[2]), float(parts[3]), float(parts[4])]))
            except ValueError:
                raise DataError(f"{args.predictions} line {line_no}: bad numeric value") from None
    if not rows:
        raise DataError(f"{args.predictions}: no prediction rows")
    pred = PredictionSet(knee_ids=[r[0] for r in rows],
                         probs=np.array([r[2] for r in rows]),
                         labels=np.array([r[1] for r in rows]))
    paths = export_curves(pred, args.out)
    write_manifest(args.out, "curves", config={},
                   inputs=[args.predictions],
                   outputs=list(paths.values()), seeds={})
    print(f"curves: {', '.join(str(p) for p in paths.values())}")
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="volformer",
        description="Slice-wise CNN + transformer toolkit for knee-OA progression prediction")
    parser.add_argument("--version", action="version", version=f"volformer {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic cohort with planted signal")
    p.add_argument("--subjects", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--dims", help="volume dims D0xD1xD2 (default 64x64x32)")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("preprocess", help="crop, quantize and downsample volumes")
    p.add_argument("--volumes", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--crop", default="320x320x128")
    p.add_argument("--factors", default="2,2,2")
    p.add_argument("--view", default="sag", choices=("sag", "cor", "ax"))
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("label", help="derive progression labels and exclusions")
    p.add_argument("--cohort", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_label)

    p = sub.add_parser("split", help="hold-out institution + stratified folds")
    p.add_argument("--cohort", required=True)
    p.add_argument("--holdout", required=True)
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("train", help="train cross-validation folds")
    p.add_argument("--config", help="experiment config file (flags override)")
    p.add_argument("--cohort")
    p.add_argument("--volumes")
    p.add_argument("--out")
    p.add_argument("--model-config", dest="model_config")
    p.add_argument("--model-preset", dest="model_preset")
    p.add_argument("--holdout", dest="holdout")
    p.add_argument("--folds", type=int)
    p.add_argument("--fold", type=int, help="train a single fold")
    p.add_argument("--seed", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--warmup-epochs", dest="warmup_epochs", type=int)
    p.add_argument("--parallel-folds", dest="parallel_folds", type=int)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="ensemble the fold snapshots on the hold-out")
    p.add_argument("--snapshots", required=True)
    p.add_argument("--cohort", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--volumes", help="override the volumes dir from the train manifest")
    p.add_argument("--n-boot", dest="n_boot", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("profile", help="analytic MACs / parameter report")
    p.add_argument("--config", help="model config file")
    p.add_argument("--preset", help="named preset (e.g. full-2d-trf)")
    p.add_argument("--input", help="override input spec KxHxW")
    p.add_argument("--out", default="report.json")
    p.add_argument("--time", action="store_true", help="also time single-sample inference")
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("curves", help="export ROC/PR/confusion CSVs from predictions")
    p.add_argument("--predictions", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_curves)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"volformer: configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DivergenceError as exc:
        print(f"volformer: training diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except (DataError, FileNotFoundError) as exc:
        print(f"volformer: data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except VolformerError as exc:
        print(f"volformer: error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
