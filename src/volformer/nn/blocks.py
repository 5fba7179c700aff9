"""Composite neural blocks: residual bottlenecks, multi-head attention,
pre-norm transformer blocks, bidirectional LSTM, and factorized
spatial/through-plane convolutions."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import autograd as ag
from ..errors import ConfigError, UsageError
from .layers import (
    EVAL_CTX,
    BatchNorm,
    Conv,
    Dropout,
    LayerNormModule,
    Linear,
    Module,
    cost_scope,
)


@dataclass
class AttentionConfig:
    model_dim: int
    heads: int
    mlp_ratio: float = 1.0
    dropout_rate: float = 0.0

    def __post_init__(self):
        if self.model_dim % self.heads != 0:
            raise ConfigError(
                f"model_dim {self.model_dim} not divisible by heads {self.heads}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")
        if self.mlp_ratio <= 0:
            raise ConfigError(f"mlp_ratio must be positive, got {self.mlp_ratio}")


class MultiHeadAttention(Module):
    """Scaled dot-product attention over a token sequence, shape-preserving.

    Accepts (B, L, d) or unbatched (L, d) token stacks. Its cost rows are
    ``attn_proj`` (the four projections) and ``attn_scores`` (the two L x L
    products).
    """

    kind = "attention"

    def __init__(self, cfg: AttentionConfig, init):
        super().__init__()
        self.cfg = cfg
        d = cfg.model_dim
        self.wq = Linear(d, d, init)
        self.wk = Linear(d, d, init)
        self.wv = Linear(d, d, init)
        self.wo = Linear(d, d, init)
        self.drop = Dropout(cfg.dropout_rate)

    def forward(self, tokens, ctx=EVAL_CTX):
        unbatched = tokens.ndim == 2
        if unbatched:
            tokens = ag.reshape(tokens, (1,) + tokens.shape)
        b, l, d = tokens.shape
        h = self.cfg.heads
        dh = d // h
        scale = 1.0 / np.sqrt(dh)

        def split_heads(t):
            return ag.transpose(ag.reshape(t, (b, l, h, dh)), (0, 2, 1, 3))

        with cost_scope("attn_proj", folded=True):
            q, k, v = (split_heads(p(tokens, ctx)) for p in (self.wq, self.wk, self.wv))
        with cost_scope("attn_scores", folded=True):
            scores = ag.matmul(q, ag.transpose(k, (0, 1, 3, 2))) * scale
            attn = self.drop(ag.softmax(scores, axis=-1), ctx)
            mixed = ag.matmul(attn, v)  # (B, h, L, dh)
        merged = ag.reshape(ag.transpose(mixed, (0, 2, 1, 3)), (b, l, d))
        with cost_scope("attn_proj", folded=True):
            out = self.wo(merged, ctx)
        return ag.reshape(out, (l, d)) if unbatched else out


class TransformerBlock(Module):
    """Pre-norm residual block: x + MHA(LN(x)), then + MLP(LN(.))."""

    def __init__(self, cfg: AttentionConfig, init):
        super().__init__()
        d = cfg.model_dim
        hidden = int(round(cfg.mlp_ratio * d))
        self.ln1 = LayerNormModule(d, init)
        self.attn = MultiHeadAttention(cfg, init)
        self.ln2 = LayerNormModule(d, init)
        self.fc1 = Linear(d, hidden, init)
        self.fc2 = Linear(hidden, d, init)
        self.drop = Dropout(cfg.dropout_rate)

    def forward(self, tokens, ctx=EVAL_CTX):
        x = tokens + self.drop(self.attn(self.ln1(tokens, ctx), ctx), ctx)
        h = self.fc2(ag.gelu(self.fc1(self.ln2(x, ctx), ctx)), ctx)
        return x + self.drop(h, ctx)


class BottleneckBlock(Module):
    """Residual bottleneck: 1x1 reduce, KxK spatial (strided), 1x1 expand.

    ``dims`` selects 2-D or 3-D convolutions; the skip is identity when
    shapes match and a strided 1x1 projection + norm otherwise.
    """

    expansion = 4

    def __init__(self, in_channels, width, init, stride=1, dims=2):
        super().__init__()
        if stride not in (1, 2):
            raise ConfigError(f"bottleneck stride must be 1 or 2, got {stride}")
        if width < 1 or in_channels < 1:
            raise ConfigError(f"bottleneck widths must be positive, got {in_channels}/{width}")
        out_channels = width * self.expansion
        self.dims = dims
        self.conv1 = Conv(in_channels, width, 1, init, dims=dims)
        self.bn1 = BatchNorm(width, init, dims=dims)
        self.conv2 = Conv(width, width, 3, init, stride=stride, padding=1, dims=dims)
        self.bn2 = BatchNorm(width, init, dims=dims)
        self.conv3 = Conv(width, out_channels, 1, init, dims=dims)
        self.bn3 = BatchNorm(out_channels, init, dims=dims)
        if stride != 1 or in_channels != out_channels:
            self.proj = Conv(in_channels, out_channels, 1, init, stride=stride, dims=dims)
            self.proj_bn = BatchNorm(out_channels, init, dims=dims)
        else:
            self.proj = None

    def forward(self, x, ctx=EVAL_CTX):
        unbatched = x.ndim == self.dims + 1
        if unbatched:
            x = ag.reshape(x, (1,) + x.shape)
        out = ag.relu(self.bn1(self.conv1(x, ctx), ctx))
        out = ag.relu(self.bn2(self.conv2(out, ctx), ctx))
        out = self.bn3(self.conv3(out, ctx), ctx)
        skip = x if self.proj is None else self.proj_bn(self.proj(x, ctx), ctx)
        out = ag.relu(out + skip)
        return ag.reshape(out, out.shape[1:]) if unbatched else out


class BiLSTM(Module):
    """Single-layer bidirectional LSTM returning concatenated terminal states.

    The forward direction contributes its last hidden state, the backward
    direction the state after consuming the sequence reversed, i.e. its view
    of the first element. Output dim is 2 * hidden_dim.
    """

    kind = "lstm"

    def __init__(self, input_dim, hidden_dim, init):
        super().__init__()
        self.hidden_dim = hidden_dim
        for tag in ("fw", "bw"):
            setattr(self, f"w_ih_{tag}", init.param((input_dim, 4 * hidden_dim), "xavier_uniform",
                                                    fan_in=input_dim, fan_out=4 * hidden_dim))
            setattr(self, f"w_hh_{tag}", init.param((hidden_dim, 4 * hidden_dim), "xavier_uniform",
                                                    fan_in=hidden_dim, fan_out=4 * hidden_dim))
            setattr(self, f"bias_{tag}", init.param((4 * hidden_dim,), "zeros"))

    def _run(self, steps, tag, ctx):
        h = self.hidden_dim
        w_ih = getattr(self, f"w_ih_{tag}").tensor
        w_hh = getattr(self, f"w_hh_{tag}").tensor
        bias = getattr(self, f"bias_{tag}").tensor
        hidden = cell = ag.tensor(np.zeros((steps[0].shape[0], h), dtype=steps[0].dtype))
        for x_t in steps:
            gates = ag.matmul(x_t, w_ih) + ag.matmul(hidden, w_hh) + bias
            i = ag.sigmoid(gates[:, 0 * h:1 * h])
            f = ag.sigmoid(gates[:, 1 * h:2 * h])
            g = ag.tanh(gates[:, 2 * h:3 * h])
            o = ag.sigmoid(gates[:, 3 * h:4 * h])
            cell = f * cell + i * g
            hidden = o * ag.tanh(cell)
        return hidden

    def forward(self, seq, ctx=EVAL_CTX):
        unbatched = seq.ndim == 2
        if unbatched:
            seq = ag.reshape(seq, (1,) + seq.shape)
        k = seq.shape[1]
        if k < 1:
            raise UsageError("BiLSTM requires a non-empty sequence")
        steps = [seq[:, t, :] for t in range(k)]
        fw = self._run(steps, "fw", ctx)
        bw = self._run(steps[::-1], "bw", ctx)
        out = ag.concat([fw, bw], axis=1)
        return ag.reshape(out, (2 * self.hidden_dim,)) if unbatched else out


def factorized_mid_width(in_channels, out_channels, spatial_kernel=3, depth_kernel=3):
    """Intermediate width matching the parameter count of the full 3-D kernel.

    M = floor(Kt*Ks^2*Cin*Cout / (Ks^2*Cin + Kt*Cout)).
    """
    num = depth_kernel * spatial_kernel * spatial_kernel * in_channels * out_channels
    den = spatial_kernel * spatial_kernel * in_channels + depth_kernel * out_channels
    return num // den


class Conv2Plus1dBlock(Module):
    """Factorized volumetric conv: in-slice (1,3,3) then through-plane (3,1,1).

    The intermediate width is chosen so the two factors together carry the
    same parameter budget as the full 3x3x3 convolution they replace.
    Input layout is (C, D, H, W) with D the through-plane axis (plus an
    optional leading batch dim). Stride applies to all three axes.
    """

    def __init__(self, in_channels, out_channels, init, stride=1):
        super().__init__()
        mid = factorized_mid_width(in_channels, out_channels)
        if mid < 1:
            raise ConfigError(f"factorized width collapsed to {mid} for "
                              f"{in_channels}->{out_channels}")
        self.mid = mid
        st = stride if isinstance(stride, tuple) else (stride,) * 3
        self.spatial = Conv(in_channels, mid, (1, 3, 3), init,
                            stride=(1, st[1], st[2]), padding=(0, 1, 1), dims=3)
        self.bn_mid = BatchNorm(mid, init, dims=3)
        self.depth = Conv(mid, out_channels, (3, 1, 1), init,
                          stride=(st[0], 1, 1), padding=(1, 0, 0), dims=3)

    def forward(self, x, ctx=EVAL_CTX):
        unbatched = x.ndim == 4
        if unbatched:
            x = ag.reshape(x, (1,) + x.shape)
        out = self.depth(ag.relu(self.bn_mid(self.spatial(x, ctx), ctx)), ctx)
        return ag.reshape(out, out.shape[1:]) if unbatched else out
