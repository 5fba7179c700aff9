"""Declarative model zoo: slice-wise CNN encoders with transformer / FC /
BiLSTM aggregation, multi-view variants, and volumetric baselines.

Every family builds at arbitrary scale from the same config schema. Building
only wires shapes and seeds; parameter payloads materialize lazily, so
full-scale graphs are cheap to construct for analytic cost profiling while
remaining runnable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import autograd as ag
from .errors import ConfigError, ShapeError
from .checkpoint import load_checkpoint
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
    init_mode: str = "random"
    weights_file: str | None = None

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
        if self.aggregator.model_dim % self.aggregator.heads != 0:
            raise ConfigError(
                f"model_dim {self.aggregator.model_dim} not divisible by "
                f"heads {self.aggregator.heads}")
        if self.num_classes < 2:
            raise ConfigError(f"num_classes must be >=2, got {self.num_classes}")
        if len(self.encoder.stage_widths) != len(self.encoder.blocks_per_stage):
            raise ConfigError("stage_widths and blocks_per_stage lengths differ")
        if min(self.encoder.stage_widths) < 1 or min(self.encoder.blocks_per_stage) < 1:
            raise ConfigError("encoder stage widths and block counts must be positive")
        for v in self.views:
            if v not in self.slice_count or v not in self.slice_shape:
                raise ConfigError(f"missing slice_count/slice_shape for view {v!r}")
            if self.slice_count[v] < 1:
                raise ConfigError(f"slice_count for {v!r} must be >=1")
            if min(self.slice_shape[v]) < 1:
                raise ConfigError(f"slice_shape for {v!r} must be positive")
        if self.init_mode not in ("random", "weights_file"):
            raise ConfigError(f"init must be 'random' or 'weights_file', got {self.init_mode!r}")
        if self.init_mode == "weights_file" and not self.weights_file:
            raise ConfigError("init = weights_file requires a weights_file path")
        return self

    def input_spec(self):
        if self.family in VOLUMETRIC_FAMILIES:
            v = self.views[0]
            return {v: (self.slice_count[v],) + tuple(self.slice_shape[v])}
        return {v: (self.slice_count[v],) + tuple(self.slice_shape[v]) for v in self.views}


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
        channels = spec.stem_width
        stages = []
        for i, (width, n_blocks) in enumerate(zip(spec.stage_widths, spec.blocks_per_stage)):
            blocks = []
            for j in range(n_blocks):
                stride = 2 if (i > 0 and j == 0) else 1
                blocks.append(BottleneckBlock(channels, width, init, stride=stride))
                channels = width * BottleneckBlock.expansion
            stages.append(Sequential(*blocks))
        self.stages = Sequential(*stages)
        self.out_dim = channels

    def forward(self, x, ctx=EVAL_CTX):
        x = self.stem(x, ctx)
        n = step = x.shape[0]
        # training BatchNorm takes statistics over the whole batch, and in the
        # shape-only pass extra pieces would only add ops
        if not ctx.training and ag.recorder is None and x.ndim == 4:
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
    encoder = SliceEncoder(spec, init)
    head = Linear(spec.feature_dim, num_classes, init)

    class _Classifier(Module):
        def __init__(self):
            super().__init__()
            self.encoder = encoder
            self.head = head

        def forward(self, x, ctx=EVAL_CTX):
            return self.head(self.encoder(x, ctx), ctx)

    return _Classifier()


class TransformerAggregator(Module):
    """Project per-slice features, add positional (and per-view) embeddings
    plus a learned class token, run transformer blocks, classify from the
    final class-token state. Its own cost row is the ``embedding`` one: the
    class token, positional table and view embeddings."""

    kind = "embedding"

    def __init__(self, feature_dim, spec: AggregatorSpec, views, slice_counts,
                 num_classes, init):
        super().__init__()
        self.views = tuple(views)
        d = spec.model_dim
        self.proj = Linear(feature_dim, d, init)
        self.cls_token = init.param((1, 1, d), "normal002")
        self.pos = init.param((sum(slice_counts[v] for v in self.views) + 1, d), "normal002")
        if len(self.views) > 1:
            for v in self.views:
                setattr(self, f"view_emb_{v}", init.param((d,), "normal002"))
        cfg = AttentionConfig(d, spec.heads, spec.mlp_ratio, spec.dropout)
        self.blocks = Sequential(*[TransformerBlock(cfg, init) for _ in range(spec.blocks)])
        self.final_norm = LayerNormModule(d, init)
        self.head = Linear(d, num_classes, init)

    def forward(self, feats, ctx=EVAL_CTX):
        """feats: dict view -> (B, k_v, f) in self.views order."""
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

    def __init__(self, feature_dim, slice_count, hidden, num_classes, init):
        super().__init__()
        self.fc1 = Linear(slice_count * feature_dim, hidden, init)
        self.fc2 = Linear(hidden, num_classes, init)

    def forward(self, feats, ctx=EVAL_CTX):
        b, k, f = feats.shape
        flat = ag.reshape(feats, (b, k * f))  # row-major: slice index varies slowest
        return self.fc2(ag.relu(self.fc1(flat, ctx)), ctx)


class BiLstmAggregator(Module):
    """Bidirectional LSTM over the slice sequence; classify the terminal states."""

    def __init__(self, feature_dim, slice_count, hidden, num_classes, init):
        super().__init__()
        self.slice_count = slice_count
        self.lstm = BiLSTM(feature_dim, hidden, init)
        self.head = Linear(2 * hidden, num_classes, init)

    def forward(self, feats, ctx=EVAL_CTX):
        if feats.shape[1] != self.slice_count:
            raise ShapeError(f"aggregator built for {self.slice_count} slices, "
                             f"got {feats.shape[1]}")
        return self.head(self.lstm(feats, ctx), ctx)


class SlicewiseModel(Module):
    """Shared-per-slice encoder(s) + feature aggregator."""

    def __init__(self, cfg: ModelConfig, init):
        super().__init__()
        self.cfg = cfg
        if cfg.family == "2d_trf_multiview_individual":
            for v in cfg.views:
                setattr(self, f"encoder_{v}", SliceEncoder(cfg.encoder, init))
            f = getattr(self, f"encoder_{cfg.views[0]}").out_dim
        else:
            self.encoder = SliceEncoder(cfg.encoder, init)
            f = self.encoder.out_dim
        agg = cfg.aggregator
        if cfg.family in ("2d_trf",) + MULTIVIEW_FAMILIES:
            self.aggregator = TransformerAggregator(
                f, agg, cfg.views, cfg.slice_count, cfg.num_classes, init)
        elif cfg.family == "2d_fc":
            self.aggregator = FcAggregator(
                f, cfg.slice_count[cfg.views[0]], agg.fc_hidden, cfg.num_classes, init)
        elif cfg.family == "2d_bilstm":
            self.aggregator = BiLstmAggregator(
                f, cfg.slice_count[cfg.views[0]], agg.lstm_hidden, cfg.num_classes, init)
        else:
            raise ConfigError(f"family {cfg.family} is not slice-wise")
        self.feature_dim = f

    def encoder_for(self, view):
        if self.cfg.family == "2d_trf_multiview_individual":
            return getattr(self, f"encoder_{view}")
        return self.encoder

    def encode_slices(self, slices, view=None, ctx=EVAL_CTX):
        """(B, k, H, W) or (k, H, W) single-channel slices -> (B, k, f)."""
        view = view or self.cfg.views[0]
        slices = slices if isinstance(slices, ag.Tensor) else ag.tensor(slices)
        unbatched = slices.ndim == 3
        if unbatched:
            slices = ag.reshape(slices, (1,) + slices.shape)
        b, k, h, w = slices.shape
        if k != self.cfg.slice_count[view]:
            raise ShapeError(f"view {view!r} expects {self.cfg.slice_count[view]} slices, got {k}")
        x = ag.reshape(slices, (b * k, 1, h, w))
        c = self.cfg.encoder.in_channels
        if c > 1:
            x = ag.concat([x] * c, axis=1)  # grayscale replicated across channels
        with cost_scope(f"encoder@{view}"):
            feats = self.encoder_for(view)(x, ctx)
        feats = ag.reshape(feats, (b, k, self.feature_dim))
        return ag.reshape(feats, (k, self.feature_dim)) if unbatched else feats

    def forward(self, inputs, ctx=EVAL_CTX):
        """inputs: array/Tensor for single-view, or dict view -> array."""
        if not isinstance(inputs, dict):
            inputs = {self.cfg.views[0]: inputs}
        missing = [v for v in self.cfg.views if v not in inputs]
        if missing:
            raise ShapeError(f"missing input view(s): {', '.join(missing)}")
        feats = {v: self.encode_slices(inputs[v], v, ctx) for v in self.cfg.views}
        first = feats[self.cfg.views[0]]
        unbatched = first.ndim == 2
        if unbatched:
            feats = {v: ag.reshape(t, (1,) + t.shape) for v, t in feats.items()}
        if isinstance(self.aggregator, TransformerAggregator):
            logits = self.aggregator(feats, ctx)
        else:
            logits = self.aggregator(feats[self.cfg.views[0]], ctx)
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
        channels = spec.stem_width
        stages = []
        for i, (width, n_blocks) in enumerate(zip(spec.stage_widths, spec.blocks_per_stage)):
            blocks = []
            for j in range(n_blocks):
                stride = 2 if (i > 0 and j == 0) else 1
                if cfg.family == "conv3d":
                    blocks.append(BottleneckBlock(channels, width, init, stride=stride, dims=3))
                    channels = width * BottleneckBlock.expansion
                else:
                    blocks.append(_Factorized(channels, width, init, stride))
                    channels = width
            stages.append(Sequential(*blocks))
        self.stages = Sequential(*stages)
        self.out_dim = channels
        self.head = Linear(channels, cfg.num_classes, init)

    def forward(self, volume, ctx=EVAL_CTX):
        """(B, D, H, W) or (D, H, W) single-channel volumes -> logits."""
        if isinstance(volume, dict):
            volume = volume[self.cfg.views[0]]
        x = volume if isinstance(volume, ag.Tensor) else ag.tensor(volume)
        unbatched = x.ndim == 3
        if unbatched:
            x = ag.reshape(x, (1,) + x.shape)
        x = ag.reshape(x, (x.shape[0], 1) + x.shape[1:])
        if self.cfg.encoder.in_channels > 1:
            x = ag.concat([x] * self.cfg.encoder.in_channels, axis=1)
        x = ag.relu(self.stem_bn(self.stem(x, ctx), ctx))
        x = self.stages(x, ctx)
        logits = self.head(ag.global_avg_pool(x), ctx)
        return ag.reshape(logits, (self.cfg.num_classes,)) if unbatched else logits


class _Factorized(Module):
    """(2+1)D stage block: factorized conv, norm, relu."""

    def __init__(self, in_channels, out_channels, init, stride=1):
        super().__init__()
        self.block = Conv2Plus1dBlock(in_channels, out_channels, init, stride=stride)
        self.bn = BatchNorm(out_channels, init, dims=3)

    def forward(self, x, ctx=EVAL_CTX):
        return ag.relu(self.bn(self.block(x, ctx), ctx))


@dataclass
class ModelGraph:
    """A built, shape-validated model."""

    config: ModelConfig
    module: Module
    seed: int

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

    def save(self, path):
        from .checkpoint import save_checkpoint
        save_checkpoint(path, self.state_dict())


def build_model(cfg: ModelConfig, seed=0, dtype=np.float32) -> ModelGraph:
    """Instantiate a config into a shape-validated, runnable graph.

    Deterministic: identical (cfg, seed) gives bit-identical parameters.
    ``init_mode == 'weights_file'`` overlays matching checkpoint tensors,
    leaving unmatched parameters at their seeded initialization.
    """
    cfg.validate()
    init = ParamInit(seed=seed, dtype=dtype)
    if cfg.family in VOLUMETRIC_FAMILIES:
        module = VolumetricModel(cfg, init)
    else:
        module = SlicewiseModel(cfg, init)
    out, _ = shape_pass(module, cfg.input_spec())
    if out.shape != (cfg.num_classes,):
        raise ShapeError(f"model outputs {out.shape}, expected ({cfg.num_classes},)")
    if cfg.init_mode == "weights_file":
        module.load_state_dict(load_checkpoint(cfg.weights_file))
    return ModelGraph(config=cfg, module=module, seed=seed)
