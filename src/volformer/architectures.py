"""Declarative model zoo: slice-wise CNN encoders with transformer / FC /
BiLSTM aggregation, multi-view variants, and volumetric baselines.

Every family builds at arbitrary scale from the same config schema. Building
only wires shapes and seeds; parameter payloads materialize lazily, so
full-scale graphs are cheap to construct for analytic cost profiling while
remaining runnable.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import autograd as ag
from .errors import ConfigError, ShapeError
from .nn import (
    AttentionConfig,
    BatchNorm,
    BiLSTM,
    BottleneckBlock,
    Conv,
    Conv2Plus1dBlock,
    Linear,
    Module,
    ParamInit,
    Sequential,
    TransformerBlock,
    cost_scope,
    shape_pass,
)
from .nn.layers import EVAL_CTX, LayerNormModule

VIEWS = ("sag", "cor", "ax")
SINGLE_VIEW_FAMILIES = ("2d_trf", "2d_fc", "2d_bilstm")
MULTIVIEW_FAMILIES = ("2d_trf_multiview_shared", "2d_trf_multiview_individual")
VOLUMETRIC_FAMILIES = ("conv2plus1d", "conv3d")
FAMILIES = SINGLE_VIEW_FAMILIES + MULTIVIEW_FAMILIES + VOLUMETRIC_FAMILIES


@dataclass
class EncoderSpec:
    in_channels: int = 3
    stem_width: int = 64
    stage_widths: tuple = (64, 128, 256, 512)
    blocks_per_stage: tuple = (3, 4, 6, 3)
    stem_kernel: int = 7
    stem_stride: int = 2
    stem_pool: bool = True

    @property
    def feature_dim(self):
        return self.stage_widths[-1] * BottleneckBlock.expansion


@dataclass
class AggregatorSpec:
    model_dim: int = 2048
    blocks: int = 4
    heads: int = 8
    mlp_ratio: float = 1.0
    dropout: float = 0.1
    fc_hidden: int = 512
    lstm_hidden: int = 256


@dataclass
class ModelConfig:
    family: str = "2d_trf"
    views: tuple = ("sag",)
    encoder: EncoderSpec = field(default_factory=EncoderSpec)
    aggregator: AggregatorSpec = field(default_factory=AggregatorSpec)
    num_classes: int = 3
    slice_count: dict = field(default_factory=lambda: {"sag": 64})
    slice_shape: dict = field(default_factory=lambda: {"sag": (160, 160)})
    init_mode = "random"  # not a field: the one init, read back from every manifest

    def validate(self):
        if self.family not in FAMILIES:
            raise ConfigError(f"unknown model family {self.family!r}")
        if not self.views or any(v not in VIEWS for v in self.views):
            raise ConfigError(f"views must be a non-empty subset of {VIEWS}, got {self.views}")
        if len(set(self.views)) != len(self.views):
            raise ConfigError(f"duplicate views in {self.views}")
        if self.family in MULTIVIEW_FAMILIES and len(self.views) < 2:
            raise ConfigError(f"family {self.family} requires >=2 views, got {self.views}")
        if self.family not in MULTIVIEW_FAMILIES and len(self.views) != 1:
            raise ConfigError(f"family {self.family} takes exactly one view, got {self.views}")
        agg = self.aggregator
        if not 0.0 <= agg.dropout < 1.0:  # also false for nan
            raise ConfigError(f"aggregator dropout must be in [0, 1), got {agg.dropout}")
        if not 0.0 < agg.mlp_ratio < math.inf:
            raise ConfigError(f"aggregator mlp_ratio must be finite and > 0, got {agg.mlp_ratio}")
        if agg.heads < 1:
            raise ConfigError(f"aggregator heads must be >= 1, got {agg.heads}")
        if agg.model_dim % agg.heads != 0:
            raise ConfigError(f"model_dim {agg.model_dim} not divisible by heads {agg.heads}")
        if self.num_classes < 2:
            raise ConfigError(f"num_classes must be >=2, got {self.num_classes}")
        if len(self.encoder.stage_widths) != len(self.encoder.blocks_per_stage):
            raise ConfigError("stage_widths and blocks_per_stage lengths differ")
        if min(self.encoder.stage_widths) < 1 or min(self.encoder.blocks_per_stage) < 1:
            raise ConfigError("encoder stage widths and block counts must be positive")
        if self.family in VOLUMETRIC_FAMILIES and self.encoder.stem_pool:
            raise ConfigError(f"family {self.family} has no stem pool; set encoder.stem_pool = false")
        for v in self.views:
            if v not in self.slice_count or v not in self.slice_shape:
                raise ConfigError(f"missing slice_count/slice_shape for view {v!r}")
            if self.slice_count[v] < 1:
                raise ConfigError(f"slice_count for {v!r} must be >=1")
            if min(self.slice_shape[v]) < 1:
                raise ConfigError(f"slice_shape for {v!r} must be positive")
        return self

    def input_spec(self):
        return {v: (self.slice_count[v],) + tuple(self.slice_shape[v]) for v in self.views}


def model_inputs(inputs, views):
    """The model entry's input handling: ``{view: (B, ...)}`` tensors from a
    view dict or, for a one-view model, a bare array, either batched or one
    unbatched sample; also whether the input was unbatched."""
    if not isinstance(inputs, dict):
        inputs = {views[0]: inputs}
    missing = [v for v in views if v not in inputs]
    if missing:
        raise ShapeError(f"missing input view(s): {', '.join(missing)}")
    unbatched = np.ndim(inputs[views[0]]) == 3
    batch = {}
    for v in views:
        x = inputs[v][None] if unbatched else inputs[v]
        batch[v] = x if isinstance(x, ag.Tensor) else ag.tensor(x)
    return batch, unbatched


def replicate_channels(x, channels):
    """A grayscale ``(N, 1, ...)`` input copied across ``channels`` channels."""
    return ag.concat([x] * channels, axis=1) if channels > 1 else x


def build_stages(spec: EncoderSpec, block, init):
    """The residual stages after the stem, and their output width.

    ``block(in_channels, width, init, stride=...)`` makes one block; the first
    block of every stage but the first has stride 2."""
    channels = spec.stem_width
    stages = []
    for i, (width, n_blocks) in enumerate(zip(spec.stage_widths, spec.blocks_per_stage)):
        blocks = []
        for j in range(n_blocks):
            blocks.append(block(channels, width, init, stride=2 if (i > 0 and j == 0) else 1))
            channels = blocks[-1].out_channels
        stages.append(Sequential(*blocks))
    return Sequential(*stages), channels


# Eval-mode encoding runs everything after the stem convolution over chunks
# of at most this many elements of stem output (8 slices of full-2d-trf's
# 64x80x80 maps). Frozen BatchNorm statistics make every slice independent,
# so the pooled features are bit-identical to one full-batch pass; the
# smaller activation and im2col buffers stay under the allocator's mmap
# threshold and are reused instead of being faulted in fresh for every op.
CHUNK_ELEMENTS = 8 * 64 * 80 * 80


class SliceEncoder(Module):
    """Bottleneck-stage CNN over single slices; global-avg pooled features."""

    def __init__(self, spec: EncoderSpec, init):
        super().__init__()
        self.spec = spec
        k, s = spec.stem_kernel, spec.stem_stride
        self.stem = Conv(spec.in_channels, spec.stem_width, k, init,
                         stride=s, padding=k // 2)
        self.stem_bn = BatchNorm(spec.stem_width, init)
        self.stages, self.out_dim = build_stages(spec, BottleneckBlock, init)

    def forward(self, x, ctx=EVAL_CTX):
        x = self.stem(x, ctx)
        n = step = x.shape[0]
        # training BatchNorm takes statistics over the whole batch, and in the
        # shape-only pass extra pieces would only add ops
        if not ctx.training and ag.recorder is None:
            ctx = replace(ctx, folds={})  # each conv/norm pair folds once per call
            step = max(1, CHUNK_ELEMENTS // math.prod(x.shape[1:]))
        if step >= n:
            return self._after_stem(x, ctx)
        return ag.concat([self._after_stem(x[i:i + step], ctx) for i in range(0, n, step)],
                         axis=0)

    def _after_stem(self, x, ctx):
        x = ag.relu(self.stem_bn(x, ctx))
        if self.spec.stem_pool:
            x = ag.max_pool_nd(x, 3, stride=2, padding=1)
        return ag.global_avg_pool(self.stages(x, ctx))


def resnet50(init=None, num_classes=1000, in_channels=3):
    """Canonical 50-layer bottleneck classifier (stem 64; stages 3/4/6/3)."""
    init = init or ParamInit(seed=0)
    spec = EncoderSpec(in_channels=in_channels)
    return Sequential(SliceEncoder(spec, init), Linear(spec.feature_dim, num_classes, init))


# Every aggregator is built as ``Aggregator(feature_dim, cfg, init)`` and
# called on ``{view: (B, k, f)}`` slice features; ``sized_by`` names the
# AggregatorSpec fields that size it, which the profile report echoes.


class TransformerAggregator(Module):
    """Project per-slice features, add positional (and per-view) embeddings
    plus a learned class token, run transformer blocks, classify from the
    final class-token state. Its own cost row is the ``embedding`` one: the
    class token, positional table and view embeddings."""

    kind = "embedding"
    sized_by = ("model_dim", "mlp_ratio")

    def __init__(self, feature_dim, cfg: ModelConfig, init):
        super().__init__()
        self.views = tuple(cfg.views)
        spec = cfg.aggregator
        d = spec.model_dim
        self.proj = Linear(feature_dim, d, init)
        self.cls_token = init.param((1, 1, d), "normal002")
        self.pos = init.param((sum(cfg.slice_count[v] for v in self.views) + 1, d), "normal002")
        if len(self.views) > 1:
            for v in self.views:
                setattr(self, f"view_emb_{v}", init.param((d,), "normal002"))
        attention = AttentionConfig(d, spec.heads, spec.mlp_ratio, spec.dropout)
        self.blocks = Sequential(*[TransformerBlock(attention, init) for _ in range(spec.blocks)])
        self.final_norm = LayerNormModule(d, init)
        self.head = Linear(d, cfg.num_classes, init)

    def forward(self, feats, ctx=EVAL_CTX):
        parts = []
        for v in self.views:
            t = self.proj(feats[v], ctx)
            if len(self.views) > 1:
                t = t + getattr(self, f"view_emb_{v}").tensor
            parts.append(t)
        tokens = parts[0] if len(parts) == 1 else ag.concat(parts, axis=1)
        b = tokens.shape[0]
        cls = self.cls_token.tensor
        cls = ag.concat([cls] * b, axis=0) if b > 1 else cls
        x = ag.concat([cls, tokens], axis=1) + self.pos.tensor
        x = self.blocks(x, ctx)
        x = self.final_norm(x, ctx)
        return self.head(x[:, 0, :], ctx)


class FcAggregator(Module):
    """Flatten slice features slice-major, two FC layers with ReLU between."""

    sized_by = ("fc_hidden",)

    def __init__(self, feature_dim, cfg: ModelConfig, init):
        super().__init__()
        self.view = cfg.views[0]
        hidden = cfg.aggregator.fc_hidden
        self.fc1 = Linear(cfg.slice_count[self.view] * feature_dim, hidden, init)
        self.fc2 = Linear(hidden, cfg.num_classes, init)

    def forward(self, feats, ctx=EVAL_CTX):
        x = feats[self.view]
        b, k, f = x.shape
        flat = ag.reshape(x, (b, k * f))  # row-major: slice index varies slowest
        return self.fc2(ag.relu(self.fc1(flat, ctx)), ctx)


class BiLstmAggregator(Module):
    """Bidirectional LSTM over the slice sequence; classify the terminal states."""

    sized_by = ("lstm_hidden",)

    def __init__(self, feature_dim, cfg: ModelConfig, init):
        super().__init__()
        self.view = cfg.views[0]
        self.slice_count = cfg.slice_count[self.view]
        hidden = cfg.aggregator.lstm_hidden
        self.lstm = BiLSTM(feature_dim, hidden, init)
        self.head = Linear(2 * hidden, cfg.num_classes, init)

    def forward(self, feats, ctx=EVAL_CTX):
        seq = feats[self.view]
        if seq.shape[1] != self.slice_count:
            raise ShapeError(f"aggregator built for {self.slice_count} slices, "
                             f"got {seq.shape[1]}")
        return self.head(self.lstm(seq, ctx), ctx)


AGGREGATORS = {
    "2d_trf": TransformerAggregator,
    "2d_fc": FcAggregator,
    "2d_bilstm": BiLstmAggregator,
    "2d_trf_multiview_shared": TransformerAggregator,
    "2d_trf_multiview_individual": TransformerAggregator,
}


class SlicewiseModel(Module):
    """Shared-per-slice encoder(s) + feature aggregator."""

    def __init__(self, cfg: ModelConfig, init):
        super().__init__()
        self.cfg = cfg
        if cfg.family == "2d_trf_multiview_individual":
            for v in cfg.views:
                setattr(self, f"encoder_{v}", SliceEncoder(cfg.encoder, init))
        else:
            self.encoder = SliceEncoder(cfg.encoder, init)
        self.feature_dim = cfg.encoder.feature_dim
        self.aggregator = AGGREGATORS[cfg.family](self.feature_dim, cfg, init)

    def encoder_for(self, view):
        if self.cfg.family == "2d_trf_multiview_individual":
            return getattr(self, f"encoder_{view}")
        return self.encoder

    def encode_slices(self, slices, view=None, ctx=EVAL_CTX):
        """(B, k, H, W) single-channel slices -> (B, k, f)."""
        view = view or self.cfg.views[0]
        slices = slices if isinstance(slices, ag.Tensor) else ag.tensor(slices)
        b, k, h, w = slices.shape
        if k != self.cfg.slice_count[view]:
            raise ShapeError(f"view {view!r} expects {self.cfg.slice_count[view]} slices, got {k}")
        x = replicate_channels(ag.reshape(slices, (b * k, 1, h, w)), self.cfg.encoder.in_channels)
        with cost_scope(f"encoder@{view}"):
            feats = self.encoder_for(view)(x, ctx)
        return ag.reshape(feats, (b, k, self.feature_dim))

    def forward(self, inputs, ctx=EVAL_CTX):
        """See :func:`model_inputs`; slices are (k, H, W) per sample."""
        batch, unbatched = model_inputs(inputs, self.cfg.views)
        feats = {v: self.encode_slices(batch[v], v, ctx) for v in self.cfg.views}
        logits = self.aggregator(feats, ctx)
        return ag.reshape(logits, (self.cfg.num_classes,)) if unbatched else logits


class VolumetricModel(Module):
    """Residual volumetric CNN; ``conv2plus1d`` swaps full 3-D bottlenecks
    for factorized spatial/through-plane blocks."""

    def __init__(self, cfg: ModelConfig, init):
        super().__init__()
        self.cfg = cfg
        spec = cfg.encoder
        k, s = spec.stem_kernel, spec.stem_stride
        self.stem = Conv(spec.in_channels, spec.stem_width, k, init,
                         stride=s, padding=k // 2, dims=3)
        self.stem_bn = BatchNorm(spec.stem_width, init, dims=3)
        block = (functools.partial(BottleneckBlock, dims=3) if cfg.family == "conv3d"
                 else _Factorized)
        self.stages, self.out_dim = build_stages(spec, block, init)
        self.head = Linear(self.out_dim, cfg.num_classes, init)

    def forward(self, inputs, ctx=EVAL_CTX):
        """See :func:`model_inputs`; a sample is one (D, H, W) volume."""
        batch, unbatched = model_inputs(inputs, self.cfg.views)
        x = batch[self.cfg.views[0]]
        x = replicate_channels(ag.reshape(x, (-1, 1) + x.shape[-3:]), self.cfg.encoder.in_channels)
        x = ag.relu(self.stem_bn(self.stem(x, ctx), ctx))
        x = self.stages(x, ctx)
        logits = self.head(ag.global_avg_pool(x), ctx)
        return ag.reshape(logits, (self.cfg.num_classes,)) if unbatched else logits


class _Factorized(Module):
    """(2+1)D stage block: factorized conv, norm, relu."""

    def __init__(self, in_channels, out_channels, init, stride=1):
        super().__init__()
        self.out_channels = out_channels
        self.block = Conv2Plus1dBlock(in_channels, out_channels, init, stride=stride)
        self.bn = BatchNorm(out_channels, init, dims=3)

    def forward(self, x, ctx=EVAL_CTX):
        return ag.relu(self.bn(self.block(x, ctx), ctx))


@dataclass
class ModelGraph:
    """A built, shape-validated model."""

    config: ModelConfig
    module: Module

    @property
    def input_spec(self):
        return self.config.input_spec()

    def param_count(self):
        return self.module.param_count()

    def forward(self, inputs, ctx=None):
        return self.module(inputs, ctx or EVAL_CTX)

    def predict_proba(self, inputs):
        """Class probabilities with no graph recording (frozen model)."""
        with ag.no_grad():
            logits = self.module(inputs, EVAL_CTX)
            probs = ag.softmax(logits, axis=-1)
        return probs.data

    def state_dict(self):
        return self.module.state_dict()


def build_model(cfg: ModelConfig, seed=0, dtype=np.float32) -> ModelGraph:
    """Instantiate a config into a shape-validated, runnable graph.

    Deterministic: identical (cfg, seed) gives bit-identical parameters,
    each drawn from its own seed stream when first used. A checkpoint
    replaces them all through ``module.load_state_dict``.
    """
    cfg.validate()
    init = ParamInit(seed=seed, dtype=dtype)
    module = (SlicewiseModel if cfg.family in AGGREGATORS else VolumetricModel)(cfg, init)
    out, _ = shape_pass(module, cfg.input_spec())
    if out.shape != (cfg.num_classes,):
        raise ShapeError(f"model outputs {out.shape}, expected ({cfg.num_classes},)")
    return ModelGraph(config=cfg, module=module)
