"""Optimization protocol: focal loss, Adam with linear warmup and decoupled
weight decay, balanced-resampling epochs, snapshot selection on validation
average precision."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import autograd as ag
from .architectures import ModelConfig, ModelGraph, build_model
from .cohort import resample_balance
from .errors import ConfigError, DivergenceError
from .evaluation import average_precision, pool_progression, roc_auc
from .manifest import atomic_writer
from .nn import Ctx
from .volume import AugmentPolicy, augment


@dataclass
class TrainConfig:
    epochs: int = 100
    warmup_epochs: int = 5
    lr_start: float = 1e-5
    lr_main: float = 1e-4
    weight_decay: float = 1e-4
    focal_gamma: float = 2.0
    batch_size: int = 4
    seed: int = 0
    augment_policy: AugmentPolicy = field(default_factory=AugmentPolicy)

    def validate(self):
        if not 0 <= self.warmup_epochs < self.epochs:
            raise ConfigError(f"warmup_epochs {self.warmup_epochs} must be < epochs {self.epochs}")
        for name in ("lr_start", "lr_main", "weight_decay", "focal_gamma"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if min(self.lr_start, self.lr_main) <= 0:
            raise ConfigError("learning rates must be positive")
        if self.weight_decay < 0 or self.focal_gamma < 0:
            raise ConfigError("weight_decay and focal_gamma must be non-negative")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        self.augment_policy.validate()
        return self


PROB_FLOOR = 1e-12  # focal_loss clamps a target probability below this


def focal_loss(probs, targets, gamma=2.0):
    """Mean over the batch of -(1 - p_t)^gamma * log(p_t), uniform alpha.

    ``probs`` are already-normalized class probabilities (rows sum to 1);
    gamma = 0 reduces exactly to cross-entropy. Target probabilities below
    ``PROB_FLOOR`` are clamped to it; ``train_fold`` counts them per epoch.
    """
    probs = probs if isinstance(probs, ag.Tensor) else ag.tensor(probs)
    targets = np.asarray(targets, dtype=np.intp)
    if probs.ndim != 2 or targets.shape != (probs.shape[0],):
        raise ConfigError(f"focal loss expects (B, C) probs with B targets, "
                          f"got {probs.shape} and {targets.shape}")
    p_t = probs[np.arange(len(targets)), targets]
    if np.any(p_t.data < PROB_FLOOR):
        p_t = ag.clamp_min(p_t, PROB_FLOOR)
    nll = -ag.log(p_t)
    if gamma == 0.0:
        return nll.mean()
    return (((1.0 - p_t) ** gamma) * nll).mean()


def lr_schedule(epoch, cfg: TrainConfig):
    """Linear warmup from lr_start over warmup_epochs, then constant lr_main."""
    if not 0 <= epoch < cfg.epochs:
        raise ConfigError(f"epoch {epoch} outside [0, {cfg.epochs})")
    if epoch < cfg.warmup_epochs:
        return cfg.lr_start + (cfg.lr_main - cfg.lr_start) * (epoch / cfg.warmup_epochs)
    return cfg.lr_main


ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class AdamState:
    def __init__(self):
        self.t = 0
        self.m = {}
        self.v = {}


def adam_step(named_tensors, state: AdamState, lr, weight_decay=0.0):
    """One Adam update with decoupled weight decay (applied before the
    moment update as p <- p - lr * wd * p). Mutates tensor data and the
    moments, of the tensor's dtype, in place."""
    state.t += 1
    b1, b2, eps, t = ADAM_BETA1, ADAM_BETA2, ADAM_EPS, state.t
    for name, tensor in named_tensors:
        g = tensor.grad
        if g is None:
            continue
        if not np.all(np.isfinite(g)):
            raise DivergenceError(f"non-finite gradient in tensor {name!r}")
        if weight_decay:
            tensor.data *= 1.0 - lr * weight_decay
        if name not in state.m:
            state.m[name], state.v[name] = np.zeros_like(tensor.data), np.zeros_like(tensor.data)
        m, v = state.m[name], state.v[name]
        m *= b1
        m += (1 - b1) * g
        v *= b2
        v += (1 - b2) * np.square(g)
        tensor.data -= (lr / (1 - b1 ** t)) * m / (np.sqrt(v / (1 - b2 ** t)) + eps)


@dataclass
class SampleSet:
    """Model-ready samples: uint8 slice stacks per view plus class labels."""

    knee_ids: list
    labels: np.ndarray
    slices: dict  # view -> (N, k, H, W) uint8

    def __len__(self):
        return len(self.knee_ids)

    def subset(self, indices):
        indices = np.asarray(indices)
        return SampleSet(
            knee_ids=[self.knee_ids[i] for i in indices],
            labels=self.labels[indices],
            slices={v: arr[indices] for v, arr in self.slices.items()},
        )


@dataclass
class FoldData:
    train: SampleSet
    val: SampleSet


@dataclass
class Snapshot:
    epoch: int
    state: dict
    val_ap: float


@dataclass
class EpochStats:
    epoch: int
    lr: float
    train_loss: float
    val_ap: float
    val_auc: float
    focal_clamps: int  # target probabilities focal_loss clamped to PROB_FLOOR


def _rng(seed, *key):
    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(entropy=seed, spawn_key=tuple(key))))


def _augment_batch(samples, views, rng, policy):
    """samples: dict view -> (B, k, H, W) uint8 -> float32 in [0, 1]."""
    out = {}
    for v in views:
        arr = samples[v]
        stacked = np.empty_like(arr)
        for i in range(arr.shape[0]):
            stacked[i] = augment(arr[i], rng, policy)
        out[v] = stacked.astype(np.float32) / 255.0
    return out


PREDICT_BATCH = 16


def predict_proba_batched(graph: ModelGraph, sample_set: SampleSet):
    """Eval-mode class probabilities over a whole sample set, ``PREDICT_BATCH``
    samples per forward."""
    views = graph.config.views
    n = len(sample_set)
    probs = np.zeros((n, graph.config.num_classes), dtype=np.float64)
    for start in range(0, n, PREDICT_BATCH):
        sl = slice(start, min(start + PREDICT_BATCH, n))
        probs[sl] = graph.predict_proba(
            {v: sample_set.slices[v][sl].astype(np.float32) / 255.0 for v in views})
    return probs


def _validation_metrics(graph, val_set):
    probs = predict_proba_batched(graph, val_set)
    scores = pool_progression(probs)
    binary = (val_set.labels > 0).astype(int)
    return average_precision(scores, binary), roc_auc(scores, binary)


def train_fold(model_cfg: ModelConfig, data: FoldData, fold_index, train_cfg: TrainConfig):
    """Train one fold to completion; returns (snapshot, history, graph).

    Pure function of (config, data, seed): every random stream (epoch
    resampling, augmentation, dropout, batch order) derives from the config
    seed and the fold index. The retained snapshot is the epoch with the
    highest validation average precision seen so far.
    """
    train_cfg.validate()
    graph = build_model(model_cfg, seed=train_cfg.seed * 1000 + fold_index)
    named = [(name, p.tensor) for name, p in graph.module.named_parameters()]
    adam = AdamState()
    views = model_cfg.views
    train, val = data.train, data.val

    history = []
    snapshot = None
    for epoch in range(train_cfg.epochs):
        lr = lr_schedule(epoch, train_cfg)
        resample_rng = _rng(train_cfg.seed, fold_index, epoch, 0)
        aug_rng = _rng(train_cfg.seed, fold_index, epoch, 1)
        drop_rng = _rng(train_cfg.seed, fold_index, epoch, 2)
        epoch_idx = resample_balance(np.arange(len(train)), train.labels, resample_rng)

        losses = []
        clamps = 0
        ctx = Ctx(training=True, rng=drop_rng)
        for start in range(0, len(epoch_idx), train_cfg.batch_size):
            idx = epoch_idx[start:start + train_cfg.batch_size]
            batch = train.subset(idx)
            inputs = _augment_batch(batch.slices, views, aug_rng, train_cfg.augment_policy)
            logits = graph.forward(inputs, ctx)
            probs = ag.softmax(logits, axis=-1)
            loss = focal_loss(probs, batch.labels, train_cfg.focal_gamma)
            clamps += int(np.sum(probs.data[np.arange(len(idx)), batch.labels] < PROB_FLOOR))
            if not np.isfinite(loss.item()):
                raise DivergenceError(f"non-finite loss at epoch {epoch}")
            for _, tensor in named:
                tensor.grad = None
            ag.backward(loss)
            adam_step(named, adam, lr, train_cfg.weight_decay)
            losses.append(loss.item())

        val_ap, val_auc = _validation_metrics(graph, val)
        history.append(EpochStats(epoch, lr, float(np.mean(losses)), val_ap, val_auc, clamps))
        if snapshot is None or val_ap > snapshot.val_ap:
            snapshot = Snapshot(epoch=epoch,
                                state={k: v.copy() for k, v in graph.state_dict().items()},
                                val_ap=val_ap)
    return snapshot, history, graph


def history_to_csv(history, path):
    with atomic_writer(path, "w", encoding="utf-8") as fh:
        fh.write("epoch,lr,train_loss,val_ap,val_auc,focal_clamps\n")
        for h in history:
            fh.write(f"{h.epoch},{h.lr!r},{h.train_loss!r},{h.val_ap!r},{h.val_auc!r},"
                     f"{h.focal_clamps}\n")
