"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured margins. Run with ``pytest -v tests/test_acceptance.py``.

The end-to-end experiment (criterion 6) drives the real CLI and is the
long pole; everything else finishes in seconds to a few minutes. Every
criterion is marked ``slow``, so ``pytest -m "not slow"`` runs the unit tests
alone.
"""

import itertools
import json
import shutil
import time
import zlib
from pathlib import Path

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from volformer import autograd as ag
from volformer.architectures import build_model, resnet50
from volformer.cli import main as cli_main
from volformer.cohort import (
    CLASS_FAST,
    CLASS_NONE,
    CLASS_SLOW,
    KneeRecord,
    derive_label,
    split_dataset,
)
from volformer.errors import UsageError
from volformer.evaluation import average_precision, roc_auc
from volformer.nn import (
    AttentionConfig,
    BiLSTM,
    BottleneckBlock,
    Conv2Plus1dBlock,
    Ctx,
    MultiHeadAttention,
    ParamInit,
    TransformerBlock,
)
from volformer.presets import full_scale_config, toy_config
from volformer.profiler import count_macs, count_params
from volformer.synth import synth_generate
from volformer.training import (
    FoldData,
    SampleSet,
    TrainConfig,
    focal_loss,
    lr_schedule,
    train_fold,
)
from volformer.volume import IDENTITY_POLICY

from gradcheck import STEP, assert_grads_match

pytestmark = pytest.mark.slow

EVAL_CTX = Ctx(training=False)
TRAIN_CTX = Ctx(training=True)


def _passed(n, message):
    print(f"\nCRITERION {n} PASS: {message}")


# =====================================================================
# Criterion 1: gradient suite


def _t(rng, shape):
    return ag.tensor(rng.normal(size=shape), requires_grad=True)


def _case_matmul(rng):
    a, b = _t(rng, (3, 4)), _t(rng, (4, 2))
    r = rng.normal(size=(3, 2))
    return lambda: (ag.matmul(a, b) * r).sum(), [a, b]


def _case_conv2d(rng):
    x, w = _t(rng, (1, 2, 5, 5)), _t(rng, (3, 2, 3, 3))
    s, p = int(rng.integers(1, 3)), int(rng.integers(0, 2))
    return lambda: (ag.conv_nd(x, w, stride=s, padding=p) ** 2).sum(), [x, w]


def _case_conv1d(rng):
    x, w = _t(rng, (1, 2, 7)), _t(rng, (2, 2, 3))
    return lambda: (ag.conv_nd(x, w, stride=2, padding=1) ** 2).sum(), [x, w]


def _case_conv3d(rng):
    x, w = _t(rng, (1, 1, 3, 4, 4)), _t(rng, (2, 1, 3, 3, 3))
    return lambda: (ag.conv_nd(x, w, padding=1) ** 2).sum(), [x, w]


def _case_softmax(rng):
    x = _t(rng, (2, 5))
    r = rng.normal(size=(2, 5))
    return lambda: (ag.softmax(x, axis=-1) * r).sum(), [x]


def _case_layer_norm(rng):
    x, g, b = _t(rng, (2, 6)), _t(rng, 6), _t(rng, 6)
    r = rng.normal(size=(2, 6))
    return lambda: (ag.layer_norm(x, g, b) * r).sum(), [x, g, b]


def _case_batch_norm(rng):
    x, g, b = _t(rng, (3, 2, 4, 4)), _t(rng, 2), _t(rng, 2)
    r = rng.normal(size=(3, 2, 4, 4))
    return lambda: (ag.batch_norm(x, g, b, axes=(0, 2, 3))[0] * r).sum(), [x, g, b]


def _case_max_pool(rng):
    def build():
        x = _t(rng, (1, 2, 6, 6))
        windows = sliding_window_view(x.data, (3, 3), axis=(2, 3))[:, :, ::2, ::2]
        top2 = np.sort(windows.reshape(-1, 9), axis=-1)[:, -2:]
        return (lambda: (ag.max_pool_nd(x, 3, stride=2) ** 2).sum()), [x], top2[:, 1] - top2[:, 0]

    return _kink_safe(rng, build)


def _case_avg_pool(rng):
    x = _t(rng, (1, 2, 6, 6))
    return lambda: (ag.avg_pool_nd(x, 2, stride=2) ** 2).sum(), [x]


def _case_elementwise(rng):
    x = ag.tensor(rng.uniform(0.5, 2.0, (3, 4)), requires_grad=True)
    y = ag.tensor(rng.uniform(0.5, 2.0, (3, 4)), requires_grad=True)

    def loss():
        z = ag.exp(x * 0.3) + ag.log(y) - ag.sigmoid(x) * ag.tanh(y) + ag.gelu(x - y)
        return (z ** 2).mean()

    return loss, [x, y]


def _case_focal_softmax(rng):
    logits = _t(rng, (4, 3))
    targets = rng.integers(0, 3, 4)
    return lambda: focal_loss(ag.softmax(logits, axis=-1), targets, 2.0), [logits]


def _case_attention(rng):
    mha = MultiHeadAttention(AttentionConfig(8, 2), ParamInit(int(rng.integers(1 << 30)),
                                                              np.float64))
    tokens = _t(rng, (3, 8))
    params = [p.tensor for _, p in mha.named_parameters()]
    r = rng.normal(size=(3, 8))
    return lambda: (mha(tokens, EVAL_CTX) * r).sum(), [tokens] + params


def _case_transformer_block(rng):
    block = TransformerBlock(AttentionConfig(8, 2), ParamInit(int(rng.integers(1 << 30)),
                                                              np.float64))
    tokens = _t(rng, (4, 8))
    params = [p.tensor for _, p in block.named_parameters()]
    r = rng.normal(size=(4, 8))
    return lambda: (block(tokens, EVAL_CTX) * r).sum(), [tokens] + params


def _kink_safe(rng, build):
    """Redraw inputs until every kink distance (a relu preactivation, a
    max-pool window's top-2 gap) clears the fd step; central differences
    are invalid within a step of the kink."""
    for _ in range(200):
        loss_fn, tensors, pre = build()
        if np.abs(pre).min() > 8 * STEP:
            return loss_fn, tensors
    raise AssertionError("could not find kink-safe instance")


def _case_bottleneck(rng):
    init = ParamInit(int(rng.integers(1 << 30)), np.float64)
    block = BottleneckBlock(4, 2, init, stride=1)
    r = [None]

    def build():
        x = _t(rng, (1, 4, 5, 5))
        with ag.no_grad():
            h1 = block.bn1(block.conv1(x, TRAIN_CTX), TRAIN_CTX).data
            a1 = ag.tensor(np.maximum(h1, 0.0))
            h2 = block.bn2(block.conv2(a1, TRAIN_CTX), TRAIN_CTX).data
            a2 = ag.tensor(np.maximum(h2, 0.0))
            h3 = block.bn3(block.conv3(a2, TRAIN_CTX), TRAIN_CTX).data
            skip = block.proj_bn(block.proj(x, TRAIN_CTX), TRAIN_CTX).data
        pre = np.concatenate([h1.ravel(), h2.ravel(), (h3 + skip).ravel()])

        def loss():
            y = block(x, TRAIN_CTX)
            if r[0] is None:
                r[0] = rng.normal(size=y.shape)
            return (y * r[0]).sum()

        return loss, [x] + [p.tensor for _, p in block.named_parameters()], pre

    return _kink_safe(rng, build)


def _case_conv2plus1d(rng):
    init = ParamInit(int(rng.integers(1 << 30)), np.float64)
    block = Conv2Plus1dBlock(2, 3, init)
    r = [None]

    def build():
        x = _t(rng, (1, 2, 3, 4, 4))
        with ag.no_grad():
            pre = block.bn_mid(block.spatial(x, TRAIN_CTX), TRAIN_CTX).data

        def loss():
            y = block(x, TRAIN_CTX)
            if r[0] is None:
                r[0] = rng.normal(size=y.shape)
            return (y * r[0]).sum()

        return loss, [x] + [p.tensor for _, p in block.named_parameters()], pre

    return _kink_safe(rng, build)


def _case_bilstm(rng):
    lstm = BiLSTM(4, 5, ParamInit(int(rng.integers(1 << 30)), np.float64))
    seq = _t(rng, (1, 3, 4))
    params = [p.tensor for _, p in lstm.named_parameters()]
    r = rng.normal(size=(1, 10))
    return lambda: (lstm(seq, EVAL_CTX) * r).sum(), [seq] + params


GRADIENT_CASES = [
    ("matmul", _case_matmul),
    ("conv1d", _case_conv1d),
    ("conv2d", _case_conv2d),
    ("conv3d", _case_conv3d),
    ("softmax", _case_softmax),
    ("layer_norm", _case_layer_norm),
    ("batch_norm", _case_batch_norm),
    ("max_pool", _case_max_pool),
    ("avg_pool", _case_avg_pool),
    ("elementwise", _case_elementwise),
    ("focal_softmax", _case_focal_softmax),
    ("attention", _case_attention),
    ("transformer_block", _case_transformer_block),
    ("bottleneck_block", _case_bottleneck),
    ("conv2plus1d_block", _case_conv2plus1d),
    ("bilstm", _case_bilstm),
]


def test_criterion_1_gradient_suite():
    t0 = time.time()
    worst = {}
    for name, case in GRADIENT_CASES:
        errs = []
        for instance in range(20):
            rng = np.random.default_rng(zlib.crc32(name.encode()) + instance)
            loss_fn, tensors = case(rng)
            errs.append(assert_grads_match(loss_fn, tensors, tol=1e-4))
        worst[name] = max(errs)
    elapsed = time.time() - t0
    assert elapsed < 300, f"gradient suite took {elapsed:.0f}s"
    worst_name = max(worst, key=worst.get)
    _passed(1, f"{len(GRADIENT_CASES)} ops/blocks x 20 instances, worst rel err "
               f"{worst[worst_name]:.2e} ({worst_name}), {elapsed:.0f}s")


# =====================================================================
# Criterion 2: metric oracles


def _ap_oracle(scores, labels):
    scores, labels = np.asarray(scores, float), np.asarray(labels, int)
    ap, prev = 0.0, 0.0
    for t in sorted(set(scores), reverse=True):
        predicted = scores >= t
        tp = int((predicted & (labels == 1)).sum())
        recall, precision = tp / labels.sum(), tp / predicted.sum()
        ap += (recall - prev) * precision
        prev = recall
    return ap


def _auc_oracle(scores, labels):
    pos = [s for s, l in zip(scores, labels) if l == 1]
    neg = [s for s, l in zip(scores, labels) if l == 0]
    return sum((p > n) + 0.5 * (p == n) for p in pos for n in neg) / (len(pos) * len(neg))


def test_criterion_2_metric_oracles():
    assert average_precision([0.9, 0.8, 0.7, 0.6], [1, 0, 1, 0]) == pytest.approx(
        0.83333333333, abs=1e-9)
    assert roc_auc([0.9, 0.8, 0.7, 0.6], [1, 0, 1, 0]) == pytest.approx(0.75, abs=1e-12)

    rng = np.random.default_rng(0)
    checked = 0
    for n in range(2, 9):
        for labels in itertools.product([0, 1], repeat=n):
            if not 0 < sum(labels) < n:
                continue
            for _ in range(2):
                scores = rng.integers(0, 4, n) / 4.0  # tie-rich
                labels_arr = np.array(labels)
                assert average_precision(scores, labels_arr) == pytest.approx(
                    _ap_oracle(scores, labels), abs=1e-12)
                assert roc_auc(scores, labels_arr) == pytest.approx(
                    _auc_oracle(scores, labels), abs=1e-12)
                checked += 1

    prevalence, n_samples = 0.26, 5000
    aps = []
    for _ in range(100):
        labels = (rng.random(n_samples) < prevalence).astype(int)
        aps.append(average_precision(rng.random(n_samples), labels))
    mean_ap = float(np.mean(aps))
    assert abs(mean_ap - prevalence) < 0.02
    _passed(2, f"{checked} enumerated sets exact; random-score AP "
               f"{mean_ap:.4f} vs prevalence {prevalence}")


# =====================================================================
# Criterion 3: label rules


def test_criterion_3_label_rules():
    def rec(klg):
        return KneeRecord(subject_id="S", side="L", institution_id="i", age=60.0,
                          sex="F", bmi=27.0, klg_by_month=klg)

    assert derive_label(rec({0: 0, 48: 1, 96: 1})).progression_class == CLASS_NONE
    fast = derive_label(rec({0: 1, 24: 2}))
    assert (fast.progression_class, fast.event_month) == (CLASS_FAST, 24)
    slow = derive_label(rec({0: 2, 84: 3}))
    assert (slow.progression_class, slow.event_month) == (CLASS_SLOW, 84)

    months = (0, 12, 24, 36, 48, 72, 96)
    agree = total = 0
    for seq in itertools.combinations_with_replacement(range(5), 7):
        klg = dict(zip(months, seq))
        if seq[0] >= 4:
            with pytest.raises(UsageError):
                derive_label(rec(klg))
            continue
        base = seq[0]
        qualifying = [m for m, g in klg.items()
                      if m > 0 and g > base and not (base == 0 and g == 1)]
        expected = (CLASS_FAST if min(qualifying) <= 72 else CLASS_SLOW) \
            if qualifying else CLASS_NONE
        total += 1
        agree += derive_label(rec(klg)).progression_class == expected
    assert agree == total
    _passed(3, f"clause examples verbatim; {agree}/{total} monotone trajectories agree")


# =====================================================================
# Criterion 4: efficiency reproduction


def test_criterion_4_efficiency_reproduction():
    t0 = time.time()
    assert resnet50().param_count() == 25_557_032

    targets = {
        "2d_fc": (134e9, 91e6),
        "2d_trf": (141e9, 133e6),
        "2d_trf_multiview_shared": (443e9, 133e6),
        "2d_trf_multiview_individual": (443e9, 180e6),
    }
    measured = {}
    for family, (macs_target, params_target) in targets.items():
        graph = build_model(full_scale_config(family))
        report = count_macs(graph)
        count_params(graph)  # registry cross-check
        assert abs(report.total_macs / macs_target - 1) < 0.10, \
            f"{family}: {report.total_macs / 1e9:.1f} G vs {macs_target / 1e9:.0f} G"
        assert abs(report.total_params / params_target - 1) < 0.10, \
            f"{family}: {report.total_params / 1e6:.1f} M vs {params_target / 1e6:.0f} M"
        measured[family] = (report.total_macs, report.total_params)
    elapsed = time.time() - t0
    assert elapsed < 10, f"counting took {elapsed:.1f}s"
    pretty = ", ".join(f"{f}: {m / 1e9:.0f}G/{p / 1e6:.0f}M" for f, (m, p) in measured.items())
    _passed(4, f"encoder exact 25,557,032; {pretty}; {elapsed:.1f}s")


# =====================================================================
# Criterion 5: learning sanity


def _separable_samples(n=32, k=4, hw=(16, 16), seed=0):
    rng = np.random.default_rng(seed)
    labels = np.array([i % 3 for i in range(n)])
    slices = np.zeros((n, k, *hw), dtype=np.uint8)
    for i, cls in enumerate(labels):
        thickness = 6 - 2 * cls
        row = hw[0] // 2 + int(rng.integers(-2, 3))
        stack = rng.integers(0, 40, (k, *hw))
        stack[:, row - thickness // 2: row + (thickness + 1) // 2, :] += 180
        slices[i] = np.clip(stack, 0, 255)
    return SampleSet(knee_ids=[f"K{i:03d}_L" for i in range(n)], labels=labels,
                     slices={"sag": slices})


def test_criterion_5_learning_sanity():
    rng = np.random.default_rng(1)
    logits = rng.normal(size=(32, 3))
    probs = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
    targets = rng.integers(0, 3, 32)
    ce = -np.log(probs[np.arange(32), targets]).mean()
    assert abs(focal_loss(ag.tensor(probs), targets, gamma=0.0).item() - ce) < 1e-12

    cfg = TrainConfig()
    assert lr_schedule(0, cfg) == 1e-5
    assert all(lr_schedule(e, cfg) == 1e-4 for e in range(5, 100))

    t0 = time.time()
    samples = _separable_samples()
    data = FoldData(train=samples, val=samples)  # training AP: validate on train
    model_cfg = toy_config("2d_trf", slice_count=4, slice_shape=(16, 16))
    train_cfg = TrainConfig(epochs=40, warmup_epochs=5, batch_size=8, seed=2,
                            augment_policy=IDENTITY_POLICY)
    snapshot, history, _ = train_fold(model_cfg, data, 0, train_cfg)
    elapsed = time.time() - t0
    assert snapshot.val_ap >= 0.95, f"training AP {snapshot.val_ap:.3f} < 0.95"
    assert elapsed < 300, f"overfit harness took {elapsed:.0f}s"
    _passed(5, f"focal(0)=CE to 1e-12; lr endpoints exact; training AP "
               f"{snapshot.val_ap:.3f} at epoch {snapshot.epoch} in {elapsed:.0f}s")


# =====================================================================
# Criterion 6: end-to-end synthetic experiment


def test_criterion_6_end_to_end_experiment(tmp_path):
    t0 = time.time()
    results = {}
    for seed in (0, 1, 2):
        base = tmp_path / f"seed{seed}"
        data = base / "data"
        assert cli_main(["synth", "--subjects", "200", "--seed", str(100 + seed),
                         "--out", str(data)]) == 0
        for family, preset in (("2d_trf", "toy-2d-trf"), ("2d_fc", "toy-2d-fc")):
            run_dir = base / family
            assert cli_main(["train", "--cohort", str(data / "cohort.csv"),
                             "--volumes", str(data / "volumes"),
                             "--out", str(run_dir), "--model-preset", preset,
                             "--epochs", "10", "--seed", str(seed),
                             "--parallel-folds", "2"]) == 0
            eval_dir = base / f"eval_{family}"
            assert cli_main(["evaluate", "--snapshots", str(run_dir),
                             "--cohort", str(data / "cohort.csv"),
                             "--out", str(eval_dir), "--n-boot", "300"]) == 0
            report = json.loads((eval_dir / "report.json").read_text())
            results[(seed, family)] = report
        shutil.rmtree(data / "volumes")  # free tmp space between seeds

    lines = []
    trf_wins = 0
    for seed in (0, 1, 2):
        trf = results[(seed, "2d_trf")]
        fc = results[(seed, "2d_fc")]
        floor = trf["prevalence"] + 0.15
        assert trf["ap"] >= floor, \
            f"seed {seed}: ensemble AP {trf['ap']:.3f} < prevalence+0.15 = {floor:.3f}"
        trf_wins += trf["ap"] >= fc["ap"]
        lines.append(f"seed {seed}: trf {trf['ap']:.3f} vs fc {fc['ap']:.3f} "
                     f"(floor {floor:.3f})")
    assert trf_wins >= 2, f"transformer beat FC in only {trf_wins}/3 seeds"
    elapsed = time.time() - t0
    assert elapsed < 1800, f"end-to-end run took {elapsed:.0f}s"
    _passed(6, "; ".join(lines) + f"; trf>=fc in {trf_wins}/3 seeds; {elapsed / 60:.1f} min")


# =====================================================================
# Criterion 7: determinism


def _tree_bytes(root, skip_manifests=True):
    out = {}
    for path in sorted(Path(root).rglob("*")):
        if path.is_file():
            if skip_manifests and path.name.startswith("manifest_"):
                continue
            out[str(path.relative_to(root))] = path.read_bytes()
    return out


def test_criterion_7_determinism(tmp_path):
    runs = {}
    for tag in ("a", "b"):
        base = tmp_path / tag
        data = base / "data"
        assert cli_main(["synth", "--subjects", "40", "--seed", "9",
                         "--out", str(data)]) == 0
        run_dir = base / "run"
        assert cli_main(["train", "--cohort", str(data / "cohort.csv"),
                         "--volumes", str(data / "volumes"), "--out", str(run_dir),
                         "--model-preset", "toy-2d-trf", "--epochs", "2",
                         "--warmup-epochs", "1", "--folds", "3", "--seed", "4"]) == 0
        eval_dir = base / "eval"
        assert cli_main(["evaluate", "--snapshots", str(run_dir),
                         "--cohort", str(data / "cohort.csv"),
                         "--out", str(eval_dir), "--n-boot", "150"]) == 0
        prof = base / "profile.json"
        assert cli_main(["profile", "--preset", "full-2d-trf", "--out", str(prof)]) == 0
        runs[tag] = {
            "data": _tree_bytes(data),
            "run": _tree_bytes(run_dir),
            "eval": _tree_bytes(eval_dir),
            "profile": prof.read_bytes(),
        }

    compared = 0
    for section in ("data", "run", "eval"):
        assert runs["a"][section].keys() == runs["b"][section].keys()
        for name in runs["a"][section]:
            assert runs["a"][section][name] == runs["b"][section][name], \
                f"{section}/{name} differs between identical runs"
            compared += 1
    assert runs["a"]["profile"] == runs["b"]["profile"]
    # manifests agree on everything except wall-clock fields and paths
    ma = json.loads((tmp_path / "a/data/manifest_synth.json").read_text())
    mb = json.loads((tmp_path / "b/data/manifest_synth.json").read_text())
    ma.pop("wall_clock")
    mb.pop("wall_clock")
    ma["outputs"] = [o.replace("/a/", "/X/") for o in ma["outputs"]]
    mb["outputs"] = [o.replace("/b/", "/X/") for o in mb["outputs"]]
    assert ma["config_hash"] == mb["config_hash"]
    _passed(7, f"{compared + 1} output files byte-identical across repeated runs")


# =====================================================================
# Criterion 8: split hygiene


def test_criterion_8_split_hygiene():
    records, _ = synth_generate(200, seed=77, with_volumes=False)
    labelled = [(r, derive_label(r)) for r in records]
    class_of = {r.knee_id: lab.progression_class for r, lab in labelled}
    worst_share_dev = 0.0
    for seed in range(20):
        splits = split_dataset(labelled, "inst_c", n_folds=5, seed=seed)
        eval_subjects = {k.rsplit("_", 1)[0] for k in splits.eval_ids}
        fold_subjects = [{k.rsplit("_", 1)[0] for k in fold} for fold in splits.folds]
        for i, a in enumerate(fold_subjects):
            assert not (a & eval_subjects), f"seed {seed}: eval leakage"
            for b in fold_subjects[i + 1:]:
                assert not (a & b), f"seed {seed}: cross-fold leakage"
        train_ids = [k for fold in splits.folds for k in fold]
        global_shares = np.bincount([class_of[k] for k in train_ids], minlength=3) / len(train_ids)
        for fold in splits.folds:
            shares = np.bincount([class_of[k] for k in fold], minlength=3) / len(fold)
            dev = float(np.abs(shares - global_shares).max())
            worst_share_dev = max(worst_share_dev, dev)
            assert dev <= 0.03 + 1e-9, f"seed {seed}: fold share deviation {dev:.4f}"
    _passed(8, f"20 seeds leak-free; worst per-fold class-share deviation "
               f"{worst_share_dev * 100:.2f} pp")
