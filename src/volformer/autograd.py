"""Dense-tensor engine with reverse-mode automatic differentiation.

Tensors wrap row-major numpy arrays. Every differentiable op returns a new
Tensor holding a backward closure; calling :func:`backward` on a scalar loss
walks the recorded graph once in reverse topological order and accumulates
gradients into ``.grad`` of every reachable tensor that requires them.
An op states its forward value and, per operand, a map from the output's
gradient to that operand's; :func:`_op` writes the closure from them.
``batch_norm`` writes its own, as its three gradients share two reductions.

One dtype rule: every array the engine, the layers and the optimiser make
has the dtype of the model's parameters; a Tensor stores ``np.asarray`` of
its data, so a 0-d result keeps its dtype. Only a constant that meets no
Tensor (:func:`_as_tensor`) and :func:`tensor` of integer data are float64.

Convolutions follow the deep-learning convention (cross-correlation, no
kernel flip). Storage is dense row-major only; there are no strided views.

While a cost recorder is installed (``recorder``, set by
``nn.shape_pass``), the ops an eval forward uses run shape-only: they check
their operands as usual and return a data-free :func:`meta` tensor of the
output shape, and ``conv_nd``/``matmul`` add their MACs to the recorder.
``reshape``, ``transpose`` and ``getitem`` need no path of their own, as on
a meta tensor they already return views.
"""

from __future__ import annotations

import contextlib
import math

import numpy as np

from .errors import ConfigError, ShapeError, UsageError

_grad_enabled = True
recorder = None  # the cost recorder of a running shape-only pass, or None


@contextlib.contextmanager
def no_grad():
    """Disable graph recording inside the block (inference / timing paths)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    """A dense numpy-backed value in the autodiff graph."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_prev")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data)
        self.grad = None
        self.requires_grad = bool(requires_grad) and _grad_enabled
        self._backward = None
        self._prev = ()

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self):
        return float(self.data.reshape(-1)[0])

    def accumulate_grad(self, g):
        # grads are rebound, never mutated in place, so aliasing is safe
        self.grad = g if self.grad is None else self.grad + g

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.dtype}, requires_grad={self.requires_grad})"

    # operator sugar
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def __pow__(self, p):
        return power(self, p)

    def __getitem__(self, key):
        return getitem(self, key)

    def reshape(self, *shape):
        return reshape(self, shape if len(shape) > 1 or isinstance(shape[0], int) else shape[0])

    def transpose(self, *axes):
        return transpose(self, axes or None)

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis, keepdims)

    def mean(self, axis=None, keepdims=False):
        return tmean(self, axis, keepdims)

    def backward(self):
        backward(self)


def tensor(data, requires_grad=False):
    arr = np.asarray(data)
    return Tensor(arr if arr.dtype.kind in "fc" else arr.astype(np.float64), requires_grad)


_ZERO = bytes(16)  # the one read-only element behind every meta tensor


def meta(shape, dtype=np.float32):
    """A data-free tensor: a read-only, zero-strided view of one element."""
    return Tensor(np.ndarray(shape, dtype, _ZERO, 0, (0,) * len(shape)))


def _meta_like(*ts):
    """Meta tensor of the broadcast shape and promoted dtype of ``ts``."""
    arrays = [t.data for t in ts]
    return meta(np.broadcast(*arrays).shape, np.result_type(*arrays))


def _as_tensor(x, like=None):
    """Wrap a constant as a Tensor: float64, or the dtype of the Tensor
    ``like`` it is combined with, so a float32 graph stays float32."""
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=like.dtype if isinstance(like, Tensor) else np.float64))


def _make(data, parents, backward_fn):
    """Wire a result tensor into the graph unless recording is off."""
    req = _grad_enabled and any(p.requires_grad for p in parents)
    out = Tensor(data, requires_grad=req)
    if req:
        out._prev = tuple(parents)
        out._backward = backward_fn
    return out


def _unbroadcast(g, shape):
    """Reduce a broadcast gradient back to the original operand shape."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g.reshape(shape)


def _op(parents, out_data, *grads):
    """The result of an op on ``parents``: ``grads[i]`` maps the output's
    gradient to that of ``parents[i]``. Backward calls it only for a parent
    that requires a gradient, and unbroadcasts its value to the parent's
    shape before accumulating it."""

    def bw(out):
        g = out.grad
        for parent, grad in zip(parents, grads):
            if parent.requires_grad:
                parent.accumulate_grad(_unbroadcast(grad(g), parent.shape))

    return _make(out_data, parents, bw)


# ---------------------------------------------------------------------------
# elementwise / arithmetic


def add(a, b):
    a, b = _as_tensor(a, b), _as_tensor(b, a)
    if recorder is not None:
        return _meta_like(a, b)
    return _op((a, b), a.data + b.data, lambda g: g, lambda g: g)


def sub(a, b):
    a, b = _as_tensor(a, b), _as_tensor(b, a)
    if recorder is not None:
        return _meta_like(a, b)
    return _op((a, b), a.data - b.data, lambda g: g, lambda g: -g)


def mul(a, b):
    a, b = _as_tensor(a, b), _as_tensor(b, a)
    if recorder is not None:
        return _meta_like(a, b)
    return _op((a, b), a.data * b.data, lambda g: g * b.data, lambda g: g * a.data)


def div(a, b):
    a, b = _as_tensor(a, b), _as_tensor(b, a)
    if recorder is not None:
        return _meta_like(a, b)
    return _op((a, b), a.data / b.data,
               lambda g: g / b.data, lambda g: -g * a.data / (b.data * b.data))


def power(a, p):
    a = _as_tensor(a)
    p = float(p)
    return _op((a,), a.data**p, lambda g: g * p * a.data ** (p - 1.0))


def exp(a):
    a = _as_tensor(a)
    out_data = np.exp(a.data)
    return _op((a,), out_data, lambda g: g * out_data)


def log(a):
    a = _as_tensor(a)
    return _op((a,), np.log(a.data), lambda g: g / a.data)


def clamp_min(a, lo):
    """max(a, lo) elementwise; subgradient 0 where clamped."""
    a = _as_tensor(a)
    if recorder is not None:
        return _meta_like(a)
    return _op((a,), np.maximum(a.data, lo), lambda g: g * (a.data >= lo))


def relu(a):
    return clamp_min(a, 0.0)


def sigmoid(a):
    a = _as_tensor(a)
    if recorder is not None:
        return _meta_like(a)
    from scipy.special import expit
    out_data = expit(a.data)
    return _op((a,), out_data, lambda g: g * out_data * (1.0 - out_data))


def tanh(a):
    a = _as_tensor(a)
    if recorder is not None:
        return _meta_like(a)
    out_data = np.tanh(a.data)
    return _op((a,), out_data, lambda g: g * (1.0 - out_data * out_data))


_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)


def gelu(a):
    """Exact (erf-form) GELU."""
    a = _as_tensor(a)
    if recorder is not None:
        return _meta_like(a)
    from scipy.special import erf
    cdf = 0.5 * (1.0 + erf(a.data * _INV_SQRT2))

    def grad(g):
        pdf = np.exp(-0.5 * a.data * a.data) * _INV_SQRT2PI
        return g * (cdf + a.data * pdf)

    return _op((a,), a.data * cdf, grad)


def dropout(a, rate, rng):
    """Inverted dropout; identity when rate == 0."""
    if rate == 0.0:
        return a
    if not 0.0 <= rate < 1.0:
        raise ConfigError(f"dropout rate must be in [0, 1), got {rate}")
    a = _as_tensor(a)
    keep = (rng.random(a.shape) >= rate).astype(a.dtype) / (1.0 - rate)
    return _op((a,), a.data * keep, lambda g: g * keep)


# ---------------------------------------------------------------------------
# reductions / shape


def _spread(g, shape, axis, keepdims):
    """The gradient of a sum over ``axis``: ``g`` broadcast back to ``shape``."""
    if axis is not None and not keepdims:
        g = np.expand_dims(g, axis)
    return np.broadcast_to(g, shape)


def tsum(a, axis=None, keepdims=False):
    a = _as_tensor(a)
    return _op((a,), a.data.sum(axis=axis, keepdims=keepdims),
               lambda g: _spread(g, a.shape, axis, keepdims))


def tmean(a, axis=None, keepdims=False):
    a = _as_tensor(a)
    if recorder is not None:
        axes = range(a.ndim) if axis is None else np.atleast_1d(axis) % a.ndim
        return meta(tuple(1 if i in axes else n for i, n in enumerate(a.shape)
                          if keepdims or i not in axes), a.dtype)
    out_data = a.data.mean(axis=axis, keepdims=keepdims)
    count = a.data.size / out_data.size
    return _op((a,), out_data, lambda g: _spread(g, a.shape, axis, keepdims) / count)


def reshape(a, shape):
    a = _as_tensor(a)
    # reshaped back explicitly: unbroadcasting would sum a longer shape's lead axes
    return _op((a,), a.data.reshape(shape), lambda g: g.reshape(a.shape))


def transpose(a, axes=None):
    a = _as_tensor(a)
    return _op((a,), np.transpose(a.data, axes),
               lambda g: np.transpose(g, None if axes is None else np.argsort(axes)))


def getitem(a, key):
    a = _as_tensor(a)

    def grad(g):
        ga = np.zeros_like(a.data)
        ga[key] += g
        return ga

    return _op((a,), a.data[key], grad)


def concat(tensors, axis=0):
    tensors = [_as_tensor(t) for t in tensors]
    if recorder is not None:
        if len({t.shape[:axis] + t.shape[axis:][1:] for t in tensors}) > 1:
            raise ShapeError(f"concat: shapes {[t.shape for t in tensors]} differ off axis {axis}")
        shape = list(tensors[0].shape)
        shape[axis] = sum(t.shape[axis] for t in tensors)
        return meta(tuple(shape), np.result_type(*(t.dtype for t in tensors)))
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    offsets = np.cumsum([0] + [t.shape[axis] for t in tensors])

    def part(lo, hi):
        idx = [slice(None)] * out_data.ndim
        idx[axis] = slice(lo, hi)
        return lambda g: g[tuple(idx)]

    return _op(tuple(tensors), out_data, *map(part, offsets[:-1], offsets[1:]))


def pad_spatial(a, pad_width):
    """Zero-pad; pad_width in np.pad format."""
    a = _as_tensor(a)
    return _op((a,), np.pad(a.data, pad_width),
               lambda g: g[tuple(slice(lo, lo + n) for (lo, _), n in zip(pad_width, a.shape))])


# ---------------------------------------------------------------------------
# linear algebra


def matmul(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul expects >=2-D operands, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: inner extents disagree: {a.shape} vs {b.shape}")
    if recorder is not None:
        shape = np.broadcast_shapes(a.shape[:-2], b.shape[:-2]) + (a.shape[-2], b.shape[-1])
        recorder.add_macs(math.prod(shape) * a.shape[-1])
        return meta(shape, np.result_type(a.dtype, b.dtype))
    return _op((a, b), a.data @ b.data,
               lambda g: g @ b.data.swapaxes(-1, -2),
               lambda g: a.data.swapaxes(-1, -2) @ g)


# ---------------------------------------------------------------------------
# softmax / layer norm


def softmax(a, axis=-1):
    """Numerically safe softmax (max-subtraction before exponentiation)."""
    a = _as_tensor(a)
    if recorder is not None:
        return _meta_like(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=axis, keepdims=True)
    return _op((a,), out_data,
               lambda g: out_data * (g - (g * out_data).sum(axis=axis, keepdims=True)))


def batch_norm(x, gamma, beta, axes, eps=1e-5):
    """Training-mode BatchNorm (Ioffe & Szegedy, ICML 2015): normalize each
    channel over ``axes`` with per-channel affine; returns (y, mean_data,
    var_data) so callers can maintain running statistics.

    ``axes`` must be every axis but the channel axis 1. ``gamma``/``beta``
    are flat (C,) tensors. ``x`` is viewed as (B, C, L): the statistics are
    per-channel contiguous reductions, and the backward needs only the two
    sums ``sum(g)`` and ``sum(g * xhat)`` that give dbeta and dgamma."""
    x, gamma, beta = _as_tensor(x), _as_tensor(gamma), _as_tensor(beta)
    if tuple(axes) != (0,) + tuple(range(2, x.ndim)):
        raise ConfigError(f"batch_norm normalizes over every axis but 1 of a rank-{x.ndim} "
                          f"input, got axes {tuple(axes)}")
    b, c = x.shape[:2]
    xd = x.data.reshape(b, c, -1)
    l = xd.shape[2]
    n = b * l

    def per_channel(v):
        # a contiguous (C, L) operand, which numpy broadcasts over the
        # batch faster than a (C, 1) one
        return np.repeat(v, l).reshape(c, l)

    mu = np.einsum("bcl->c", xd) / n
    xc = xd - per_channel(mu)
    var = np.einsum("bcl,bcl->c", xc, xc) / n
    inv = 1.0 / np.sqrt(var + eps)
    scale = gamma.data.reshape(c) * inv
    out_data = xc * per_channel(scale)  # xhat = xc * inv is never formed
    out_data += per_channel(beta.data.reshape(c))

    def bw(out):
        g = out.grad.reshape(b, c, l)
        sg = np.einsum("bcl->c", g)
        sgx = np.einsum("bcl,bcl->c", g, xc) * inv
        if gamma.requires_grad:
            gamma.accumulate_grad(sgx.reshape(gamma.shape))
        if beta.requires_grad:
            beta.accumulate_grad(sg.reshape(beta.shape))
        if x.requires_grad:
            # gamma * inv * (g - mean(g) - xhat * mean(g * xhat)), in one buffer
            gx = xc * per_channel(sgx * inv / -n)
            gx -= per_channel(sg / n)
            gx += g
            gx *= per_channel(scale)
            x.accumulate_grad(gx.reshape(x.shape))

    out = _make(out_data.reshape(x.shape), (x, gamma, beta), bw)
    return out, mu, var


def layer_norm(x, gamma, beta):
    """Normalize the last axis to zero mean / unit variance (eps 1e-5), then affine."""
    x, gamma, beta = _as_tensor(x), _as_tensor(gamma), _as_tensor(beta)
    if recorder is not None:
        return _meta_like(x, gamma, beta)
    mu = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + 1e-5)
    xhat = (x.data - mu) * inv

    def grad_x(g):
        gx = g * gamma.data
        m1 = gx.mean(axis=-1, keepdims=True)
        m2 = (gx * xhat).mean(axis=-1, keepdims=True)
        return inv * (gx - m1 - xhat * m2)

    return _op((x, gamma, beta), xhat * gamma.data + beta.data,
               grad_x, lambda g: g * xhat, lambda g: g)


# ---------------------------------------------------------------------------
# convolution and pooling


def _tuplize(v, n, name):
    if isinstance(v, int):
        return (v,) * n
    v = tuple(int(t) for t in v)
    if len(v) != n:
        raise ConfigError(f"{name} must have {n} entries, got {v}")
    return v


def _conv_out_extents(spatial, kernel, stride, padding):
    out = []
    for d, k, s, p in zip(spatial, kernel, stride, padding):
        e = (d + 2 * p - k) // s + 1
        if d + 2 * p < k or e < 1:
            raise ConfigError(
                f"convolution produces non-positive output extent: "
                f"input {spatial}, kernel {kernel}, stride {stride}, padding {padding}"
            )
        out.append(e)
    return tuple(out)


def _pad(xd, padding, value=0.0):
    """Pad the spatial axes of (B, C, *S); no copy when the padding is 0."""
    if not any(padding):
        return xd
    return np.pad(xd, [(0, 0), (0, 0)] + [(p, p) for p in padding], constant_values=value)


def _crop(gp, padding, shape):
    """Undo :func:`_pad` on a gradient of the padded array."""
    return gp[(slice(None), slice(None)) + tuple(slice(p, p + d) for p, d in zip(padding, shape[2:]))]


def _window_slices(kernel, stride, lout):
    """For each kernel offset (row-major), the strided slice of a padded
    (B, C, *S) array that the offset meets at every output position."""
    return [
        (off, (slice(None), slice(None))
         + tuple(slice(o, o + s * (l - 1) + 1, s) for o, s, l in zip(off, stride, lout)))
        for off in np.ndindex(*kernel)
    ]


def _is_pointwise(kernel, stride, padding):
    return all(k == 1 for k in kernel) and all(s == 1 for s in stride) and not any(padding)


def _im2col(xd, kernel, stride, padding, lout):
    """(B, C, *S) -> (B, C*K, L) columns, one strided copy per kernel offset;
    a 1x1, stride-1, unpadded kernel reads the input in place."""
    b, c = xd.shape[:2]
    if _is_pointwise(kernel, stride, padding):
        return xd.reshape(b, c, -1)
    xp = _pad(xd, padding)
    cols = np.empty((b, c) + kernel + lout, dtype=xd.dtype)
    for off, sl in _window_slices(kernel, stride, lout):
        cols[(slice(None), slice(None)) + off] = xp[sl]
    return cols.reshape(b, c * math.prod(kernel), math.prod(lout))


def _col2im(gcols, shape, kernel, stride, padding, lout):
    """Adjoint of :func:`_im2col`: scatter-add (B, C*K, L) columns onto ``shape``."""
    if _is_pointwise(kernel, stride, padding):
        return gcols.reshape(shape)
    b, c = shape[:2]
    gcols = gcols.reshape((b, c) + kernel + lout)
    gp = np.zeros((b, c) + tuple(d + 2 * p for d, p in zip(shape[2:], padding)), dtype=gcols.dtype)
    for off, sl in _window_slices(kernel, stride, lout):
        gp[sl] += gcols[(slice(None), slice(None)) + off]
    return _crop(gp, padding, shape)


# A convolution that records no backward builds its im2col columns for
# blocks of samples of at most this many bytes, not for the whole batch;
# a recorded one forms its weight gradient's per-sample products in blocks
# of at most this many bytes.
COLUMN_BYTES = 8 << 20
# In that forward-only path, an output map of at most this many positions
# (stage 4's 5x5 maps) is multiplied as one W @ cols(C*K, b*L) per block:
# per-sample products that thin re-read the whole weight for each sample.
THIN_MAP = 36


def _conv_forward(xd, wmat, kernel, stride, padding, lout):
    """Forward-only ``W @ cols`` into one preallocated (B, C_out, L) array,
    with columns built per block of samples. Per-sample products give the
    recorded path's bits; so does a stacked thin map at the model's sizes,
    but OpenBLAS's small-matrix kernels may round a toy one differently."""
    b = xd.shape[0]
    cout, ck = wmat.shape
    l = math.prod(lout)
    out = np.empty((b, cout, l), dtype=np.result_type(xd.dtype, wmat.dtype))
    step = max(1, COLUMN_BYTES // (ck * l * xd.itemsize))
    for i in range(0, b, step):
        cols = _im2col(xd[i:i + step], kernel, stride, padding, lout)
        block = out[i:i + step]
        if l <= THIN_MAP:
            stacked = np.matmul(wmat, cols.transpose(1, 0, 2).reshape(ck, -1))
            block[...] = stacked.reshape(cout, -1, l).transpose(1, 0, 2)
        else:
            np.matmul(wmat, cols, out=block)
    return out


def _conv_weight_grad(g, cols):
    """sum_b g[b] @ cols[b].T for g (B, C_out, L) and cols (B, C*K, L): one
    batched GEMM per block of samples whose (b, C_out, C*K) products fit
    ``COLUMN_BYTES``, reading both operands in place."""
    b, cout = g.shape[:2]
    step = max(1, COLUMN_BYTES // (cout * cols.shape[1] * g.itemsize))
    return sum(np.matmul(g[i:i + step], cols[i:i + step].transpose(0, 2, 1)).sum(axis=0)
               for i in range(0, b, step))


def conv_nd(x, w, stride=1, padding=0):
    """N-dimensional cross-correlation, N in {1, 2, 3}.

    ``x`` is (B, C_in, *spatial); ``w`` is (C_out, C_in, *kernel).
    Differentiable w.r.t. both operands. One GEMM
    ``W(C_out, C_in*K) @ cols(B, C_in*K, L)`` gives the output in NCHW; a
    result that records no backward keeps no columns (:func:`_conv_forward`).
    """
    x, w = _as_tensor(x), _as_tensor(w)
    n = w.ndim - 2
    if n not in (1, 2, 3):
        raise ConfigError(f"conv kernel must have 1-3 spatial dims, got weight shape {w.shape}")
    if x.ndim != n + 2:
        raise ShapeError(f"conv input rank {x.ndim} incompatible with weight {w.shape}")
    if x.shape[1] != w.shape[1]:
        raise ShapeError(f"conv channel mismatch: input {x.shape} vs weight {w.shape}")
    stride = _tuplize(stride, n, "stride")
    padding = _tuplize(padding, n, "padding")
    kernel = w.shape[2:]
    lout = _conv_out_extents(x.shape[2:], kernel, stride, padding)
    if recorder is not None:
        recorder.add_macs(x.shape[0] * math.prod(lout) * w.size)
        return meta((x.shape[0], w.shape[0]) + lout, np.result_type(x.dtype, w.dtype))

    wmat = w.data.reshape(w.shape[0], -1)
    if not (_grad_enabled and (x.requires_grad or w.requires_grad)):
        return Tensor(_conv_forward(x.data, wmat, kernel, stride, padding, lout)
                      .reshape((x.shape[0], w.shape[0]) + lout))
    cols = _im2col(x.data, kernel, stride, padding, lout)
    out_data = np.matmul(wmat, cols).reshape((x.shape[0], w.shape[0]) + lout)

    def flat(g):
        return g.reshape(g.shape[0], g.shape[1], -1)

    return _op((x, w), out_data,
               lambda g: _col2im(np.matmul(wmat.T, flat(g)), x.shape, kernel, stride, padding, lout),
               lambda g: _conv_weight_grad(flat(g), cols).reshape(w.shape))


def _pool_geometry(shape, window, stride, padding):
    n = len(shape) - 2
    window = _tuplize(window, n, "window")
    stride = _tuplize(stride if stride is not None else window, n, "stride")
    padding = _tuplize(padding, n, "padding")
    for d, k, p in zip(shape[2:], window, padding):
        if d + 2 * p < k:
            raise ConfigError(f"pool window {window} larger than padded input {shape}")
    lout = _conv_out_extents(shape[2:], window, stride, padding)
    return padding, lout, _window_slices(window, stride, lout)


def max_pool_nd(x, window, stride=None, padding=0):
    """Window maximum; the gradient goes to the first maximal member in
    row-major window order (``argmax``'s tie rule)."""
    x = _as_tensor(x)
    padding, lout, slices = _pool_geometry(x.shape, window, stride, padding)
    if recorder is not None:
        return meta(x.shape[:2] + lout, x.dtype)
    xp = _pad(x.data, padding, -np.inf)
    out_data = xp[slices[0][1]].copy()
    for _, sl in slices[1:]:
        np.maximum(out_data, xp[sl], out=out_data)

    def grad(g):
        gp = np.zeros(xp.shape, dtype=g.dtype)
        free = np.ones(out_data.shape, dtype=bool)
        for _, sl in slices:
            hit = free & (xp[sl] == out_data)
            gp[sl] += g * hit
            free &= ~hit
        return _crop(gp, padding, x.shape)

    return _op((x,), out_data, grad)


def avg_pool_nd(x, window, stride=None, padding=0):
    """Window mean; zero padding counts toward the window size."""
    x = _as_tensor(x)
    padding, _, slices = _pool_geometry(x.shape, window, stride, padding)
    xp = _pad(x.data, padding)
    out_data = xp[slices[0][1]].copy()
    for _, sl in slices[1:]:
        out_data += xp[sl]
    out_data /= len(slices)

    def grad(g):
        gp = np.zeros(xp.shape, dtype=g.dtype)
        g = g / len(slices)
        for _, sl in slices:
            gp[sl] += g
        return _crop(gp, padding, x.shape)

    return _op((x,), out_data, grad)


def global_avg_pool(x):
    """Mean over all spatial axes: (B, C, *S) -> (B, C)."""
    x = _as_tensor(x)
    axes = tuple(range(2, x.ndim))
    return tmean(x, axis=axes)


# ---------------------------------------------------------------------------
# backward pass


def backward(root):
    """Populate gradients of every reachable requires_grad tensor.

    Repeated calls without zeroing accumulate, matching sum-over-paths
    semantics for shared subexpressions.
    """
    if not isinstance(root, Tensor):
        raise UsageError("backward root must be a Tensor")
    if root.size != 1:
        raise UsageError(f"backward root must be scalar, got shape {root.shape}")
    if not root.requires_grad:
        raise UsageError("backward root does not require grad (graph not recorded)")

    topo = []
    visited = set()
    stack = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._prev:
            if id(p) not in visited:
                stack.append((p, False))

    root.accumulate_grad(np.ones_like(root.data))
    for node in reversed(topo):
        if node._backward is not None:
            node._backward(node)
