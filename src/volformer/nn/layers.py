"""Parameterized layers on top of the autograd engine.

Parameters are materialized lazily from per-parameter seed streams, so
building a graph is cheap no matter the scale. Materialization order does
not affect the values: each parameter owns its own child seed of the build
seed.

:func:`shape_pass` runs a module's real forward once, shape-only, and returns
its cost rows: one per module path, holding the MACs of the ``conv_nd`` and
``matmul`` calls made there and the sizes of the parameters first used
there. It never materializes a parameter.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass

import numpy as np

from .. import autograd as ag
from ..autograd import Tensor
from ..errors import CheckpointError, ConfigError, ShapeError


@dataclass
class Ctx:
    """Per-forward state: training toggles dropout/batch-stat paths;
    ``folds``, when a dict, memoises :func:`conv_norm`'s folded weights
    for the one call that made it."""

    training: bool = False
    rng: np.random.Generator | None = None
    folds: dict | None = None


EVAL_CTX = Ctx(training=False, rng=None)


@dataclass
class CostRow:
    name: str
    kind: str
    macs: int
    params: int


def _trainable(data):
    # set after construction: Tensor() drops requires_grad under no_grad, and a
    # parameter first made inside predict_proba must still train later
    t = Tensor(data)
    t.requires_grad = True
    return t


class Parameter:
    """Lazily materialized trainable tensor."""

    def __init__(self, shape, kind, seed_seq, dtype, fan_in=None, fan_out=None):
        self.shape = tuple(int(s) for s in shape)
        self.kind = kind
        self._seed_seq = seed_seq
        self.dtype = dtype
        self.fan_in = fan_in
        self.fan_out = fan_out
        self._tensor = None

    @property
    def size(self):
        return math.prod(self.shape)

    @property
    def tensor(self) -> Tensor:
        if ag.recorder is not None:
            return ag.recorder.parameter(self)
        if self._tensor is None:
            self._tensor = _trainable(self._init_data())
        return self._tensor

    def _init_data(self):
        rng = np.random.Generator(np.random.PCG64(self._seed_seq))
        if self.kind == "zeros":
            return np.zeros(self.shape, dtype=self.dtype)
        if self.kind == "ones":
            return np.ones(self.shape, dtype=self.dtype)
        if self.kind == "he_normal":
            std = math.sqrt(2.0 / self.fan_in)
            return (rng.standard_normal(self.shape) * std).astype(self.dtype)
        if self.kind == "xavier_uniform":
            limit = math.sqrt(6.0 / (self.fan_in + self.fan_out))
            return rng.uniform(-limit, limit, self.shape).astype(self.dtype)
        if self.kind == "normal002":
            return (rng.standard_normal(self.shape) * 0.02).astype(self.dtype)
        raise ConfigError(f"unknown parameter init kind {self.kind!r}")

    def load(self, arr):
        arr = np.asarray(arr)
        if tuple(arr.shape) != self.shape:
            raise ShapeError(f"parameter shape {self.shape} cannot load array {arr.shape}")
        self._tensor = _trainable(arr.astype(self.dtype))


class ParamInit:
    """Factory handing each created parameter its own deterministic seed."""

    def __init__(self, seed=0, dtype=np.float32):
        self.seed = int(seed)
        self.dtype = np.dtype(dtype)
        self._counter = 0

    def param(self, shape, kind, fan_in=None, fan_out=None):
        seq = np.random.SeedSequence(entropy=self.seed, spawn_key=(self._counter,))
        self._counter += 1
        return Parameter(shape, kind, seq, self.dtype, fan_in, fan_out)


class Module:
    """Composable layer with named parameters, buffers and children;
    ``kind`` labels the cost row of its own ops and parameters."""

    kind = "other"

    def __init__(self):
        object.__setattr__(self, "_params", {})
        object.__setattr__(self, "_buffers", {})
        object.__setattr__(self, "_modules", {})

    def __setattr__(self, name, value):
        if isinstance(value, Parameter):
            self._params[name] = value
        elif isinstance(value, Module):
            self._modules[name] = value
        object.__setattr__(self, name, value)

    def register_buffer(self, name, arr):
        self._buffers[name] = np.asarray(arr)
        object.__setattr__(self, name, self._buffers[name])

    def set_buffer(self, name, arr):
        self._buffers[name] = np.asarray(arr)
        object.__setattr__(self, name, self._buffers[name])

    def named_parameters(self, prefix=""):
        for name, p in self._params.items():
            yield (prefix + name, p)
        for cname, child in self._modules.items():
            yield from child.named_parameters(prefix + cname + ".")

    def parameters(self):
        for _, p in self.named_parameters():
            yield p

    def named_buffers(self, prefix=""):
        for name in self._buffers:
            yield (prefix + name, getattr(self, name))
        for cname, child in self._modules.items():
            yield from child.named_buffers(prefix + cname + ".")

    def param_count(self):
        return sum(p.size for p in self.parameters())

    def state_dict(self):
        state = {name: p.tensor.data for name, p in self.named_parameters()}
        state.update({name: buf for name, buf in self.named_buffers()})
        return state

    def load_state_dict(self, state):
        """Load matching names; unmatched model tensors keep their init.

        Shape mismatches are collected and reported together. Returns the
        lists (loaded, missing_from_file, ignored_file_keys).
        """
        params = dict(self.named_parameters())
        mismatched, loaded = [], []
        for name, arr in state.items():
            if name in params:
                if tuple(arr.shape) != params[name].shape:
                    mismatched.append(f"{name}: file {tuple(arr.shape)} vs model {params[name].shape}")
                else:
                    params[name].load(arr)
                    loaded.append(name)
            else:
                target = self._find_buffer(name)
                if target is not None:
                    mod, bname = target
                    if tuple(arr.shape) != getattr(mod, bname).shape:
                        mismatched.append(f"{name}: buffer shape mismatch {tuple(arr.shape)}")
                    else:
                        mod.set_buffer(bname, arr.astype(getattr(mod, bname).dtype))
                        loaded.append(name)
        if mismatched:
            raise CheckpointError("shape mismatch loading checkpoint: " + "; ".join(mismatched))
        missing = [n for n in params if n not in state]
        ignored = [n for n in state if n not in params and self._find_buffer(n) is None]
        return loaded, missing, ignored

    def _find_buffer(self, dotted):
        mod = self
        parts = dotted.split(".")
        for part in parts[:-1]:
            mod = mod._modules.get(part)
            if mod is None:
                return None
        return (mod, parts[-1]) if parts[-1] in mod._buffers else None

    def __call__(self, *args, **kwargs):
        if ag.recorder is None:
            return self.forward(*args, **kwargs)
        with ag.recorder.enter(self):
            return self.forward(*args, **kwargs)

    def forward(self, *args, **kwargs):
        raise NotImplementedError


class CostRecorder:
    """MACs and parameter counts of one shape-only pass, by module path.

    A frame is (path, kind, module, folded). Calling a module opens a frame
    named by the module's attribute in its caller; ``conv_nd``/``matmul``
    MACs, and each parameter's size at its first use, count into the row of
    the innermost frame. A row is made at its first nonzero count.
    """

    def __init__(self):
        self.rows = {}  # path -> CostRow
        self.frames = [("", Module.kind, None, False)]
        self._counted = set()

    def _row(self):
        path, kind = self.frames[-1][:2]
        if path not in self.rows:
            self.rows[path] = CostRow(path, kind, 0, 0)
        return self.rows[path]

    def add_macs(self, n):
        self._row().macs += n

    def parameter(self, p):
        """Count ``p`` where it is first used; hand out a meta tensor."""
        if p not in self._counted:
            self._counted.add(p)
            self._row().params += p.size
        return ag.meta(p.shape, p.dtype)

    @contextlib.contextmanager
    def frame(self, path, kind, module, folded):
        self.frames.append((path, kind, module, folded))
        try:
            yield
        finally:
            self.frames.pop()

    def enter(self, module):
        """The frame of a call to ``module``: a folded caller's own frame;
        else the caller's path, plus the module's attribute name when the
        caller is a module (not the root or a :func:`cost_scope`)."""
        path, kind, caller, folded = self.frames[-1]
        if not folded:
            kind = module.kind
            if caller is not None:
                name = next((n for n, m in caller._modules.items() if m is module),
                            type(module).__name__)
                path = f"{path}.{name}" if path else name
        return self.frame(path, kind, module, folded)


@contextlib.contextmanager
def cost_scope(name, folded=False):
    """During a shape-only pass, open row ``name`` under the current one: a
    folded scope counts everything run inside it, modules included, into
    that row; an unfolded one names the next module called inside it.
    Does nothing otherwise."""
    rec = ag.recorder
    if rec is None:
        yield
        return
    path, kind = rec.frames[-1][:2]
    with rec.frame(f"{path}.{name}" if path else name, kind, None, folded):
        yield


def shape_pass(module, inputs):
    """One shape-only, eval-mode, no-grad run of ``module`` on data-free
    inputs; ``inputs`` is a shape or a dict of shapes (one per view).
    Returns the output, a meta tensor, and the list of CostRows."""
    rec = CostRecorder()
    prev, ag.recorder = ag.recorder, rec
    try:
        with ag.no_grad():
            x = ({k: ag.meta(s) for k, s in inputs.items()} if isinstance(inputs, dict)
                 else ag.meta(inputs))
            out = module(x, EVAL_CTX)
    finally:
        ag.recorder = prev
    return out, list(rec.rows.values())


class Sequential(Module):
    def __init__(self, *modules):
        super().__init__()
        self.items = list(modules)
        for i, m in enumerate(modules):
            self._modules[str(i)] = m

    def forward(self, x, ctx=EVAL_CTX):
        for m in self.items:
            x = m(x, ctx)
        return x


class Linear(Module):
    kind = "linear"

    def __init__(self, in_features, out_features, init, bias=True):
        super().__init__()
        self.weight = init.param((in_features, out_features), "xavier_uniform",
                                 fan_in=in_features, fan_out=out_features)
        self.bias = init.param((out_features,), "zeros") if bias else None

    def forward(self, x, ctx=EVAL_CTX):
        y = ag.matmul(x, self.weight.tensor)
        if self.bias is not None:
            y = y + self.bias.tensor
        return y


class Conv(Module):
    """N-d convolution layer (cross-correlation), bias-free by default."""

    kind = "conv"

    def __init__(self, in_channels, out_channels, kernel, init, stride=1, padding=0,
                 dims=2, bias=False):
        super().__init__()
        self.dims = dims
        kernel = kernel if isinstance(kernel, tuple) else (kernel,) * dims
        self.stride = stride if isinstance(stride, tuple) else (stride,) * dims
        self.padding = padding if isinstance(padding, tuple) else (padding,) * dims
        self.out_channels = out_channels
        fan_in = in_channels * int(np.prod(kernel))
        self.weight = init.param((out_channels, in_channels) + kernel, "he_normal", fan_in=fan_in)
        self.bias = init.param((out_channels,), "zeros") if bias else None

    def forward(self, x, ctx=EVAL_CTX):
        y = ag.conv_nd(x, self.weight.tensor, self.stride, self.padding)
        if self.bias is not None:
            b = ag.reshape(self.bias.tensor, (self.out_channels,) + (1,) * self.dims)
            y = y + b
        return y


class BatchNorm(Module):
    """Batch normalization with running statistics (momentum 0.1).

    Training mode normalizes with batch statistics over (batch, spatial) and
    updates the running estimates; eval mode uses the frozen running values.
    """

    kind = "norm"

    def __init__(self, channels, init, dims=2, eps=1e-5, momentum=0.1):
        super().__init__()
        self.channels = channels
        self.dims = dims
        self.eps = eps
        self.momentum = momentum
        self.gamma = init.param((channels,), "ones")
        self.beta = init.param((channels,), "zeros")
        self.register_buffer("running_mean", np.zeros(channels, dtype=np.float64))
        self.register_buffer("running_var", np.ones(channels, dtype=np.float64))

    def forward(self, x, ctx=EVAL_CTX):
        if ctx.training:
            axes = (0,) + tuple(range(2, 2 + self.dims))
            y, mu, var = ag.batch_norm(x, self.gamma.tensor, self.beta.tensor,
                                       axes, self.eps)
            m = self.momentum
            self.set_buffer("running_mean", (1 - m) * self.running_mean + m * mu)
            self.set_buffer("running_var", (1 - m) * self.running_var + m * var)
            return y
        bshape = (1, self.channels) + (1,) * self.dims
        scale, shift = self.eval_affine(x.dtype)
        return x * ag.reshape(scale, bshape) + ag.reshape(shift, bshape)

    def eval_affine(self, dtype):
        """The frozen statistics as flat (C,) tensors: in eval mode the
        output is ``x * scale + shift`` per channel."""
        inv = (1.0 / np.sqrt(self.running_var + self.eps)).astype(dtype)
        scale = self.gamma.tensor * inv
        shift = self.beta.tensor - scale * self.running_mean.astype(dtype)
        return scale, shift


def conv_norm(conv, norm, x, ctx=EVAL_CTX):
    """``norm(conv(x))`` for a bias-free :class:`Conv` followed by its
    :class:`BatchNorm`. A real eval forward folds the frozen statistics
    into the convolution instead (Jacob et al., CVPR 2018, section 3.2):
    one ``conv_nd`` with weight ``w * scale``, plus ``shift``. The fold is
    built from autograd ops, so gradients still reach the weight, gamma
    and beta, and ``ctx.folds`` (when a dict) keeps it for that ctx's call.
    Training and the shape-only pass run the two modules as they are."""
    if ctx.training or ag.recorder is not None:
        return norm(conv(x, ctx), ctx)
    fold = ctx.folds.get(norm) if ctx.folds is not None else None
    if fold is None:
        w = conv.weight.tensor
        scale, shift = norm.eval_affine(w.dtype)
        fold = (w * ag.reshape(scale, (-1,) + (1,) * (w.ndim - 1)),
                ag.reshape(shift, (1, -1) + (1,) * conv.dims))
        if ctx.folds is not None:
            ctx.folds[norm] = fold
    return ag.conv_nd(x, fold[0], conv.stride, conv.padding) + fold[1]


class LayerNormModule(Module):
    kind = "norm"

    def __init__(self, dim, init, eps=1e-5):
        super().__init__()
        self.eps = eps
        self.gamma = init.param((dim,), "ones")
        self.beta = init.param((dim,), "zeros")

    def forward(self, x, ctx=EVAL_CTX):
        return ag.layer_norm(x, self.gamma.tensor, self.beta.tensor, self.eps, axis=-1)


class Dropout(Module):
    def __init__(self, rate):
        super().__init__()
        self.rate = rate

    def forward(self, x, ctx=EVAL_CTX):
        if not ctx.training or self.rate == 0.0:
            return x
        if ctx.rng is None:
            raise ConfigError("training-mode dropout requires a ctx rng")
        return ag.dropout(x, self.rate, ctx.rng)
