"""Ranking metrics, fast/slow pooling, fold ensembling, bootstrap spread and
curve export.

Average precision uses step-wise summation over descending-score thresholds
with ties grouped at a single threshold; ROC AUC is the Mann-Whitney
statistic with half credit for tied pairs. Both conventions are pinned by
brute-force oracles in the test suite.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, UsageError


def pool_progression(probs):
    """Collapse (none, slow, fast) probabilities to P(progression) = slow + fast."""
    probs = np.asarray(probs, dtype=np.float64)
    if probs.shape[-1] != 3:
        raise ConfigError(f"expected probability triples, got shape {probs.shape}")
    return probs[..., 1] + probs[..., 2]


def _validate_binary(scores, labels):
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise ConfigError(f"scores/labels must be matching 1-D, got {scores.shape} vs {labels.shape}")
    if not set(np.unique(labels)) <= {0, 1}:
        raise ConfigError("labels must be binary 0/1")
    if labels.min() == labels.max():
        raise UsageError("metric undefined: only one class present")
    return scores, labels.astype(int)


def average_precision(scores, labels):
    """AP = sum over descending thresholds of (R_n - R_{n-1}) * P_n."""
    scores, labels = _validate_binary(scores, labels)
    order = np.argsort(-scores, kind="stable")
    sorted_scores = scores[order]
    sorted_labels = labels[order]
    # threshold group boundaries: last index of each tie group
    boundary = np.nonzero(np.diff(sorted_scores))[0]
    ends = np.append(boundary, len(scores) - 1)
    tp = np.cumsum(sorted_labels)[ends]
    n_seen = ends + 1
    precision = tp / n_seen
    recall = tp / labels.sum()
    prev_recall = np.concatenate([[0.0], recall[:-1]])
    return float(np.sum((recall - prev_recall) * precision))


def roc_auc(scores, labels):
    """Mann-Whitney AUC: P(score+ > score-) + 0.5 * P(equal)."""
    scores, labels = _validate_binary(scores, labels)
    n_pos = int(labels.sum())
    n_neg = len(labels) - n_pos
    # average ranks give tied pairs half credit: a tie group's mean rank is
    # its last rank minus half its extent
    _, group, counts = np.unique(scores, return_inverse=True, return_counts=True)
    ranks = (np.cumsum(counts) - (counts - 1) / 2)[group]
    pos_rank_sum = ranks[labels == 1].sum()
    return float((pos_rank_sum - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg))


def roc_curve_points(scores, labels):
    """(threshold, fpr, tpr) rows, thresholds descending, anchored at (0,0)."""
    scores, labels = _validate_binary(scores, labels)
    order = np.argsort(-scores, kind="stable")
    sorted_scores = scores[order]
    sorted_labels = labels[order]
    boundary = np.nonzero(np.diff(sorted_scores))[0]
    ends = np.append(boundary, len(scores) - 1)
    tp = np.cumsum(sorted_labels)[ends]
    fp = (ends + 1) - tp
    n_pos, n_neg = labels.sum(), len(labels) - labels.sum()
    rows = [(float("inf"), 0.0, 0.0)]
    rows += [(float(sorted_scores[e]), float(f / n_neg), float(t / n_pos))
             for e, f, t in zip(ends, fp, tp)]
    return rows


def pr_curve_points(scores, labels):
    """(threshold, recall, precision) rows, thresholds descending.

    The recall-0 anchor carries the precision of the top-ranked threshold
    group, the standard convention for the left edge of the curve.
    """
    scores, labels = _validate_binary(scores, labels)
    order = np.argsort(-scores, kind="stable")
    sorted_scores = scores[order]
    sorted_labels = labels[order]
    boundary = np.nonzero(np.diff(sorted_scores))[0]
    ends = np.append(boundary, len(scores) - 1)
    tp = np.cumsum(sorted_labels)[ends]
    precision = tp / (ends + 1)
    recall = tp / labels.sum()
    rows = [(float("inf"), 0.0, float(precision[0]))]
    rows += [(float(sorted_scores[e]), float(r), float(p))
             for e, r, p in zip(ends, recall, precision)]
    return rows


def balanced_accuracy_and_confusion(pred_class, labels, n_classes=3):
    """Mean per-class recall and the matrix with true classes as rows."""
    pred_class = np.asarray(pred_class, dtype=int)
    labels = np.asarray(labels, dtype=int)
    if pred_class.shape != labels.shape:
        raise ConfigError("prediction/label shapes disagree")
    matrix = np.zeros((n_classes, n_classes), dtype=int)
    np.add.at(matrix, (labels, pred_class), 1)
    support = matrix.sum(axis=1)
    recalls = [matrix[c, c] / support[c] for c in range(n_classes) if support[c] > 0]
    return float(np.mean(recalls)), matrix


@dataclass
class PredictionSet:
    knee_ids: list
    probs: np.ndarray  # (N, 3), rows sum to 1
    labels: np.ndarray  # (N,) in {0, 1, 2}

    def __post_init__(self):
        self.probs = np.asarray(self.probs, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=int)
        if self.probs.shape != (len(self.knee_ids), 3):
            raise ConfigError(f"probs must be (N, 3), got {self.probs.shape}")
        if not np.allclose(self.probs.sum(axis=1), 1.0, atol=1e-6):
            raise ConfigError("probability triples must sum to 1")

    @property
    def pooled(self):
        return pool_progression(self.probs)

    @property
    def binary_labels(self):
        return (self.labels > 0).astype(int)


def ensemble_predict(fold_graphs, sample_set) -> PredictionSet:
    """Arithmetic mean of the fold models' probability triples."""
    if not fold_graphs:
        raise ConfigError("ensemble requires at least one model")
    from .training import predict_proba_batched
    probs = np.mean([predict_proba_batched(g, sample_set) for g in fold_graphs], axis=0)
    return PredictionSet(knee_ids=list(sample_set.knee_ids), probs=probs,
                         labels=sample_set.labels)


def bootstrap_spread(metric_fn, scores, labels, n_boot=1000, seed=0):
    """Knee-level bootstrap (mean, std) of a binary ranking metric.

    Degenerate single-class resamples are redrawn. Deterministic per seed.
    """
    if n_boot < 100:
        raise ConfigError(f"n_boot must be >= 100, got {n_boot}")
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=int)
    rng = np.random.default_rng(seed)
    n = len(scores)
    values = np.empty(n_boot)
    for b in range(n_boot):
        for _ in range(1000):
            idx = rng.integers(0, n, size=n)
            if labels[idx].min() != labels[idx].max():
                break
        else:
            raise UsageError("could not draw a two-class bootstrap resample")
        values[b] = metric_fn(scores[idx], labels[idx])
    return float(values.mean()), float(values.std())


@dataclass
class EvalReport:
    ap: float
    ap_std: float
    roc_auc: float
    roc_auc_std: float
    balanced_accuracy: float
    confusion: list
    n_knees: int
    prevalence: float
    metadata: dict = field(default_factory=dict)

    def to_dict(self):
        return {
            "ap": self.ap, "ap_std": self.ap_std,
            "roc_auc": self.roc_auc, "roc_auc_std": self.roc_auc_std,
            "balanced_accuracy": self.balanced_accuracy,
            "confusion": self.confusion,
            "n_knees": self.n_knees,
            "prevalence": self.prevalence,
            "metadata": self.metadata,
        }


def evaluate_predictions(pred: PredictionSet, n_boot=1000, seed=0) -> EvalReport:
    scores, binary = pred.pooled, pred.binary_labels
    ap_mean, ap_std = bootstrap_spread(average_precision, scores, binary, n_boot, seed)
    auc_mean, auc_std = bootstrap_spread(roc_auc, scores, binary, n_boot, seed + 1)
    bacc, confusion = balanced_accuracy_and_confusion(pred.probs.argmax(axis=1), pred.labels)
    return EvalReport(
        ap=average_precision(scores, binary), ap_std=ap_std,
        roc_auc=roc_auc(scores, binary), roc_auc_std=auc_std,
        balanced_accuracy=bacc, confusion=confusion.tolist(),
        n_knees=len(pred.knee_ids), prevalence=float(binary.mean()),
        metadata={"spread_method": "bootstrap(assumption)", "n_boot": n_boot, "seed": seed},
    )


def export_curves(pred: PredictionSet, out_dir):
    """Write roc.csv, pr.csv and confusion.csv; returns the paths."""
    from pathlib import Path
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    scores, binary = pred.pooled, pred.binary_labels
    paths = {}

    roc_path = out / "roc.csv"
    with open(roc_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["threshold", "fpr", "tpr"])
        for row in roc_curve_points(scores, binary):
            writer.writerow([repr(v) for v in row])
    paths["roc"] = roc_path

    pr_path = out / "pr.csv"
    with open(pr_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["threshold", "recall", "precision"])
        for row in pr_curve_points(scores, binary):
            writer.writerow([repr(v) for v in row])
    paths["pr"] = pr_path

    conf_path = out / "confusion.csv"
    _, matrix = balanced_accuracy_and_confusion(pred.probs.argmax(axis=1), pred.labels)
    with open(conf_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["true\\pred", "none", "slow", "fast"])
        for c, row in enumerate(matrix):
            writer.writerow([["none", "slow", "fast"][c]] + [int(v) for v in row])
    paths["confusion"] = conf_path
    return paths
