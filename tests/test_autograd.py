import numpy as np
import pytest
from scipy.signal import correlate

from volformer import autograd as ag
from volformer.errors import ConfigError, ShapeError, UsageError
from volformer.nn.layers import CostRecorder

from gradcheck import assert_grads_match


def t64(arr, requires_grad=True):
    return ag.tensor(np.asarray(arr, dtype=np.float64), requires_grad=requires_grad)


class TestMatmul:
    def test_hand_case(self):
        c = ag.matmul(t64([[1, 2], [3, 4]]), t64([[5, 6], [7, 8]]))
        np.testing.assert_array_equal(c.data, [[19, 22], [43, 50]])

    def test_identity(self):
        rng = np.random.default_rng(0)
        a = t64(rng.normal(size=(3, 3)))
        c = ag.matmul(a, t64(np.eye(3)))
        np.testing.assert_allclose(c.data, a.data)

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
            ag.matmul(t64(np.zeros((2, 3))), t64(np.zeros((2, 2))))

    @pytest.mark.parametrize("seed", range(20))
    def test_grads_match_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        a = t64(rng.normal(size=(3, 4)))
        b = t64(rng.normal(size=(4, 2)))
        r = rng.normal(size=(3, 2))  # fixed projection to a scalar
        assert_grads_match(lambda: (ag.matmul(a, b) * r).sum(), [a, b])

    def test_batched_grads(self):
        rng = np.random.default_rng(7)
        a = t64(rng.normal(size=(2, 3, 4)))
        b = t64(rng.normal(size=(2, 4, 3)))
        r = rng.normal(size=(2, 3, 3))
        assert_grads_match(lambda: (ag.matmul(a, b) * r).sum(), [a, b])


class TestConv:
    def test_ones_3x3_sums_to_nine(self):
        x = t64(np.ones((1, 1, 3, 3)))
        w = t64(np.ones((1, 1, 3, 3)))
        y = ag.conv_nd(x, w)
        assert y.shape == (1, 1, 1, 1)
        assert y.item() == pytest.approx(9.0)

    def test_1x1_kernel_equals_matmul(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(1, 3, 4, 4))
        w = rng.normal(size=(5, 3, 1, 1))
        y = ag.conv_nd(t64(x), t64(w)).data
        # per-pixel linear map over channels
        ref = np.einsum("oc,bchw->bohw", w[:, :, 0, 0], x)
        np.testing.assert_allclose(y, ref, rtol=1e-12)

    def test_non_positive_output_extent_rejected(self):
        with pytest.raises(ConfigError, match="non-positive"):
            ag.conv_nd(t64(np.ones((1, 1, 2, 2))), t64(np.ones((1, 1, 3, 3))))

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            ag.conv_nd(t64(np.ones((1, 2, 5, 5))), t64(np.ones((1, 3, 3, 3))))

    def test_unbatched_input_rejected(self):
        with pytest.raises(ShapeError, match="input rank 3"):
            ag.conv_nd(t64(np.ones((2, 5, 5))), t64(np.ones((1, 2, 3, 3))))

    @pytest.mark.parametrize("seed", range(20))
    def test_grads_match_finite_differences(self, seed):
        rng = np.random.default_rng(100 + seed)
        x = t64(rng.normal(size=(1, 2, 5, 5)))
        w = t64(rng.normal(size=(3, 2, 3, 3)))
        stride = [1, 2][seed % 2]
        pad = [0, 1][(seed // 2) % 2]
        r = None

        def loss():
            nonlocal r
            y = ag.conv_nd(x, w, stride=stride, padding=pad)
            if r is None:
                r = np.random.default_rng(seed).normal(size=y.shape)
            return (y * r).sum()

        assert_grads_match(loss, [x, w])

    @pytest.mark.parametrize("seed", range(5))
    def test_conv1d_and_conv3d_grads(self, seed):
        rng = np.random.default_rng(200 + seed)
        x1 = t64(rng.normal(size=(1, 2, 7)))
        w1 = t64(rng.normal(size=(2, 2, 3)))
        assert_grads_match(lambda: (ag.conv_nd(x1, w1, stride=2, padding=1) ** 2).sum(), [x1, w1])
        x3 = t64(rng.normal(size=(1, 1, 3, 4, 4)))
        w3 = t64(rng.normal(size=(2, 1, 3, 3, 3)))
        assert_grads_match(lambda: (ag.conv_nd(x3, w3, padding=1) ** 2).sum(), [x3, w3])


def _correlate_reference(x, w, stride, padding):
    """Strided, zero-padded cross-correlation from float64 scipy.signal.correlate."""
    n = w.ndim - 2
    xp = np.pad(x, [(0, 0), (0, 0)] + [(padding, padding)] * n)
    out = np.stack([
        np.stack([sum(correlate(xb[c], wo[c], mode="valid") for c in range(x.shape[1]))
                  for wo in w])
        for xb in xp])
    return out[(slice(None), slice(None)) + (slice(None, None, stride),) * n]


# (input shape, weight shape, stride, padding): 1-D, 2-D and 3-D kernels at
# stride 1 and 2, padding 0, 1 and 3, and a 1x1 stride-2 projection
CONV_GRID = [
    ((2, 3, 9), (4, 3, 3), 1, 0),
    ((2, 3, 9), (4, 3, 3), 2, 1),
    ((2, 3, 9), (2, 3, 5), 2, 3),
    ((2, 2, 7, 6), (3, 2, 3, 3), 1, 1),
    ((2, 2, 7, 6), (3, 2, 3, 3), 2, 0),
    ((2, 2, 9, 8), (3, 2, 7, 7), 2, 3),
    ((2, 4, 6, 5), (3, 4, 1, 1), 2, 0),
    ((2, 4, 6, 5), (3, 4, 1, 1), 1, 0),
    ((1, 2, 4, 5, 5), (2, 2, 3, 3, 3), 1, 1),
    ((1, 2, 5, 5, 4), (2, 2, 3, 3, 3), 2, 0),
    ((1, 2, 4, 4, 5), (2, 2, 1, 1, 1), 2, 0),
]


class TestConvKernels:
    @pytest.mark.parametrize("x_shape,w_shape,stride,padding", CONV_GRID)
    def test_forward_matches_scipy_correlate(self, x_shape, w_shape, stride, padding):
        rng = np.random.default_rng(sum(x_shape) + 10 * stride + padding)
        x, w = rng.normal(size=x_shape), rng.normal(size=w_shape)
        ref = _correlate_reference(x, w, stride, padding)
        y = ag.conv_nd(t64(x), t64(w), stride=stride, padding=padding).data
        np.testing.assert_allclose(y, ref, rtol=1e-10, atol=1e-12)
        y32 = ag.conv_nd(ag.tensor(x.astype(np.float32)), ag.tensor(w.astype(np.float32)),
                         stride=stride, padding=padding).data
        assert y32.dtype == np.float32
        np.testing.assert_allclose(y32, ref, rtol=1e-4, atol=1e-4)

    @pytest.mark.parametrize("x_shape,w_shape,stride,padding", CONV_GRID)
    def test_col2im_input_gradient(self, x_shape, w_shape, stride, padding):
        rng = np.random.default_rng(sum(w_shape) + stride + 7 * padding)
        x, w = t64(rng.normal(size=x_shape)), t64(rng.normal(size=w_shape))
        r = [None]

        def loss():
            y = ag.conv_nd(x, w, stride=stride, padding=padding)
            if r[0] is None:
                r[0] = rng.normal(size=y.shape)
            return (y * r[0]).sum()

        assert_grads_match(loss, [x, w])

    def test_max_pool_tie_goes_to_first_maximal_member(self):
        x = t64(np.array([[[[1.0, 3.0, 3.0],
                             [3.0, 0.0, 2.0],
                             [3.0, 1.0, 0.0]]]]))
        y = ag.max_pool_nd(x, 2, stride=1)
        np.testing.assert_array_equal(y.data, [[[[3.0, 3.0], [3.0, 2.0]]]])
        ag.backward((y * np.array([[[[1.0, 10.0], [100.0, 1000.0]]]])).sum())
        # windows at (0,0) and (1,0) both tie at 3; row-major order picks
        # the first maximal member, as argmax over the flattened window does
        np.testing.assert_array_equal(x.grad, [[[[0.0, 11.0, 0.0],
                                                 [100.0, 0.0, 1000.0],
                                                 [0.0, 0.0, 0.0]]]])


class TestConvWeightGrad:
    """A recorded conv's weight gradient is summed over blocks of samples
    whose per-sample products fit ``COLUMN_BYTES``."""

    @pytest.mark.parametrize("samples_per_block", [None, 1, 2])
    @pytest.mark.parametrize("x_shape,w_shape,stride,padding", CONV_GRID)
    def test_blocks_match_tensordot(self, monkeypatch, samples_per_block, x_shape, w_shape,
                                    stride, padding):
        rng = np.random.default_rng(sum(x_shape) + sum(w_shape) + stride)
        x, w = rng.normal(size=(5,) + x_shape[1:]), rng.normal(size=w_shape)
        if samples_per_block is not None:  # 1: five blocks; 2: two and a remainder
            monkeypatch.setattr(ag, "COLUMN_BYTES", samples_per_block * w.size * 8)
        xt, wt = t64(x), t64(w)
        y = ag.conv_nd(xt, wt, stride=stride, padding=padding)
        r = rng.normal(size=y.shape)
        ag.backward((y * r).sum())
        n = w.ndim - 2
        cols = ag._im2col(x, w_shape[2:], (stride,) * n, (padding,) * n, y.shape[2:])
        ref = np.tensordot(r.reshape(5, w_shape[0], -1), cols, axes=([0, 2], [0, 2]))
        np.testing.assert_allclose(wt.grad, ref.reshape(w_shape), rtol=1e-12, atol=1e-12)


class TestForwardOnlyConv:
    """A conv that records no backward builds its columns per block of
    samples and stacks thin maps into one GEMM. Blocked per-sample products
    are bit-identical to the recorded conv. A stacked GEMM is too on large
    operands; on toy ones OpenBLAS's small-matrix kernels sum in another
    order, so those are compared at 1e-6 of the output's scale."""

    @staticmethod
    def _pair(x, w, stride, padding):
        """(forward-only, recorded) outputs of the same operands."""
        xt, wt = ag.tensor(x, requires_grad=True), ag.tensor(w, requires_grad=True)
        with ag.no_grad():
            fast = ag.conv_nd(xt, wt, stride=stride, padding=padding)
        assert not fast.requires_grad and fast._backward is None
        recorded = ag.conv_nd(xt, wt, stride=stride, padding=padding)
        assert recorded._backward is not None
        return fast.data, recorded.data

    @staticmethod
    def _assert_close(fast, recorded):
        np.testing.assert_allclose(fast, recorded, rtol=1e-6,
                                   atol=1e-6 * float(np.abs(recorded).max()))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("x_shape,w_shape,stride,padding", CONV_GRID + [
        ((5, 3, 14, 14), (4, 3, 3, 3), 1, 1),     # L = 196, per-sample products
        ((5, 3, 12, 12), (4, 3, 3, 3), 2, 1),     # L = 36, the largest stacked map
        ((5, 3, 13, 13), (4, 3, 3, 3), 2, 1),     # L = 49
        ((5, 6, 5, 5), (4, 6, 1, 1), 1, 0),       # pointwise, L = 25
        ((5, 2, 40), (3, 2, 5), 2, 2),            # 1-D, L = 20
        ((3, 2, 4, 9, 9), (3, 2, 3, 3, 3), 2, 1), # 3-D, L = 50
    ])
    def test_blocks_and_thin_maps(self, monkeypatch, dtype, x_shape, w_shape, stride, padding):
        rng = np.random.default_rng(sum(x_shape) + sum(w_shape))
        x, w = (rng.normal(size=s).astype(dtype) for s in (x_shape, w_shape))
        fast, recorded = self._pair(x, w, stride, padding)
        assert fast.dtype == dtype
        lout = np.prod(fast.shape[2:])
        if lout > ag.THIN_MAP:
            np.testing.assert_array_equal(fast, recorded)
        else:
            self._assert_close(fast, recorded)
        # two samples' columns per block: several blocks plus a remainder
        # when B is odd, and one block per sample at B = 2
        ck = np.prod(w_shape[1:])
        monkeypatch.setattr(ag, "COLUMN_BYTES", int(2 * ck * lout * np.dtype(dtype).itemsize))
        monkeypatch.setattr(ag, "THIN_MAP", 0)
        np.testing.assert_array_equal(self._pair(x, w, stride, padding)[0], recorded)
        monkeypatch.setattr(ag, "THIN_MAP", 10_000)
        self._assert_close(self._pair(x, w, stride, padding)[0], recorded)

    @pytest.mark.parametrize("x_shape,w_shape,stride,padding", [
        ((3, 256, 5, 5), (256, 256, 3, 3), 1, 1),  # stage-4 3x3 at half width
        ((3, 512, 10, 10), (256, 512, 3, 3), 2, 1),  # stride 2 into a 5x5 map
        ((3, 1024, 5, 5), (512, 1024, 1, 1), 1, 0),  # pointwise
    ])
    def test_stacked_gemm_bit_identical_at_scale(self, monkeypatch, x_shape, w_shape, stride,
                                                 padding):
        rng = np.random.default_rng(9)
        x, w = (rng.normal(size=s).astype(np.float32) for s in (x_shape, w_shape))
        monkeypatch.setattr(ag, "COLUMN_BYTES", 2 * np.prod(w_shape[1:]) * 25 * 4)
        fast, recorded = self._pair(x, w, stride, padding)
        np.testing.assert_array_equal(fast, recorded)

    def test_constant_operands_take_the_forward_only_path(self, monkeypatch):
        calls = []
        forward = ag._conv_forward
        monkeypatch.setattr(ag, "_conv_forward", lambda *a: calls.append(1) or forward(*a))
        rng = np.random.default_rng(6)
        x, w = rng.normal(size=(3, 2, 6, 6)), rng.normal(size=(4, 2, 3, 3))
        y = ag.conv_nd(ag.tensor(x), ag.tensor(w), padding=1)
        assert calls == [1] and not y.requires_grad
        ag.conv_nd(ag.tensor(x), ag.tensor(w, requires_grad=True), padding=1)
        assert calls == [1]  # a recorded conv builds its columns whole


class TestSoftmax:
    def test_symmetry(self):
        y = ag.softmax(t64([0.0, 0.0]))
        np.testing.assert_allclose(y.data, [0.5, 0.5])

    def test_large_logit_no_overflow(self):
        y = ag.softmax(t64([1000.0, 0.0]))
        np.testing.assert_allclose(y.data, [1.0, 0.0], atol=1e-12)
        assert np.isfinite(y.data).all()

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(3)
        for axis in (0, 1, -1):
            y = ag.softmax(t64(rng.normal(size=(4, 6)) * 10), axis=axis)
            np.testing.assert_allclose(y.data.sum(axis=axis), 1.0, atol=1e-9)

    @pytest.mark.parametrize("seed", range(20))
    def test_jacobian_matches_finite_differences(self, seed):
        rng = np.random.default_rng(300 + seed)
        x = t64(rng.normal(size=5))
        r = rng.normal(size=5)
        assert_grads_match(lambda: (ag.softmax(x) * r).sum(), [x])


class TestLayerNorm:
    def test_constant_vector_maps_to_zero(self):
        x = t64(np.full(8, 3.7))
        y = ag.layer_norm(x, t64(np.ones(8)), t64(np.zeros(8)))
        np.testing.assert_allclose(y.data, 0.0, atol=1e-6)

    def test_moments_match_affine(self):
        rng = np.random.default_rng(4)
        x = t64(rng.normal(size=(6, 32)) * 5 + 2)
        gamma, beta = 1.7, -0.3
        y = ag.layer_norm(x, t64(np.full(32, gamma)), t64(np.full(32, beta))).data
        np.testing.assert_allclose(y.mean(axis=-1), beta, atol=1e-6)
        np.testing.assert_allclose(y.std(axis=-1), abs(gamma), rtol=1e-3)

    @pytest.mark.parametrize("seed", range(20))
    def test_grads_match_finite_differences(self, seed):
        rng = np.random.default_rng(400 + seed)
        x = t64(rng.normal(size=(2, 6)))
        gamma = t64(rng.normal(size=6))
        beta = t64(rng.normal(size=6))
        r = rng.normal(size=(2, 6))
        assert_grads_match(
            lambda: (ag.layer_norm(x, gamma, beta) * r).sum(), [x, gamma, beta])


def _batch_norm_reference(x, gamma, beta, g, eps=1e-5):
    """Float64 training BatchNorm over every axis but 1 and its backward,
    taken step by step through the mean and the variance:
    (y, mean, var, dx, dgamma, dbeta)."""
    x, gamma, beta, g = (np.asarray(a, dtype=np.float64) for a in (x, gamma, beta, g))
    axes = (0,) + tuple(range(2, x.ndim))
    cshape = (1, -1) + (1,) * (x.ndim - 2)
    n = x.size // x.shape[1]
    mu = x.mean(axis=axes, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=axes, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x - mu) * inv
    y = xhat * gamma.reshape(cshape) + beta.reshape(cshape)
    dxhat = g * gamma.reshape(cshape)
    dvar = -0.5 * inv ** 3 * (dxhat * (x - mu)).sum(axis=axes, keepdims=True)
    dmu = -inv * dxhat.sum(axis=axes, keepdims=True) - 2.0 * dvar * (x - mu).mean(
        axis=axes, keepdims=True)
    dx = dxhat * inv + dvar * 2.0 * (x - mu) / n + dmu / n
    return (y, mu.reshape(-1), var.reshape(-1), dx,
            (g * xhat).sum(axis=axes), g.sum(axis=axes))


class TestBatchNorm:
    @pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-10), (np.float32, 1e-4)])
    @pytest.mark.parametrize("shape", [
        (4, 3, 5, 6),      # 2-D, as every slice encoder
        (3, 2, 3, 4, 5),   # 3-D, as toy-conv3d
        (1, 3, 5, 6),      # one sample
        (4, 1, 5, 6),      # one channel
        (1, 1, 2, 3, 3),
    ])
    def test_matches_float64_reference(self, dtype, tol, shape):
        rng = np.random.default_rng(sum(shape))
        c = shape[1]
        arrays = [rng.normal(size=shape) * 3 + 1, rng.normal(size=c), rng.normal(size=c),
                  rng.normal(size=shape)]
        x, gamma, beta, g = (a.astype(dtype) for a in arrays)
        ref = _batch_norm_reference(x, gamma, beta, g)
        xt, gt, bt = (ag.tensor(a, requires_grad=True) for a in (x, gamma, beta))
        y, mu, var = ag.batch_norm(xt, gt, bt, (0,) + tuple(range(2, len(shape))))
        ag.backward((y * g).sum())
        got = (y.data, mu, var, xt.grad, gt.grad, bt.grad)
        for name, a, r in zip(("y", "mean", "var", "dx", "dgamma", "dbeta"), got, ref):
            assert a.dtype == dtype and a.shape == r.shape, name
            np.testing.assert_allclose(a, r, rtol=tol, atol=tol * float(np.abs(r).max()),
                                       err_msg=name)

    @pytest.mark.parametrize("seed", range(3))
    def test_3d_grads_match_finite_differences(self, seed):
        rng = np.random.default_rng(700 + seed)
        x = t64(rng.normal(size=(2, 2, 3, 3, 4)) * 2 + 1)
        gamma, beta = t64(rng.normal(size=2)), t64(rng.normal(size=2))
        r = rng.normal(size=x.shape)
        assert_grads_match(
            lambda: (ag.batch_norm(x, gamma, beta, (0, 2, 3, 4))[0] * r).sum(), [x, gamma, beta])

    @pytest.mark.parametrize("axes", [(0, 2), (2, 3), (0, 1, 2, 3), (0, 2, 3, 4), (1,)])
    def test_other_axes_rejected(self, axes):
        x = t64(np.ones((2, 3, 4, 4)))
        with pytest.raises(ConfigError, match="every axis but 1"):
            ag.batch_norm(x, t64(np.ones(3)), t64(np.zeros(3)), axes)


class TestPool:
    def test_global_avg(self):
        x = t64([[[[1.0, 2.0], [3.0, 4.0]]]])
        assert ag.global_avg_pool(x).item() == pytest.approx(2.5)

    def test_max_pool(self):
        x = t64([[[[1.0, 2.0], [3.0, 4.0]]]])
        assert ag.max_pool_nd(x, window=2, stride=2).item() == pytest.approx(4.0)

    def test_avg_pool_grad_uniform(self):
        x = t64(np.arange(16.0).reshape(1, 1, 4, 4))
        y = ag.avg_pool_nd(x, window=2, stride=2)
        ag.backward(y.sum())
        np.testing.assert_allclose(x.grad, 0.25)

    def test_window_larger_than_input_rejected(self):
        with pytest.raises(ConfigError, match="window"):
            ag.max_pool_nd(t64(np.ones((1, 1, 2, 2))), window=3)

    @pytest.mark.parametrize("seed", range(20))
    def test_pool_grads_match_finite_differences(self, seed):
        rng = np.random.default_rng(500 + seed)
        x = t64(rng.normal(size=(1, 2, 6, 6)))
        pool = [ag.max_pool_nd, ag.avg_pool_nd][seed % 2]
        assert_grads_match(lambda: (pool(x, window=3, stride=2) ** 2).sum(), [x])

    def test_max_pool_with_padding_grads(self):
        rng = np.random.default_rng(42)
        x = t64(rng.normal(size=(2, 2, 5, 5)))
        assert_grads_match(lambda: (ag.max_pool_nd(x, 3, stride=2, padding=1) ** 2).sum(), [x])


class TestBackward:
    def test_sum_gives_ones(self):
        x = t64(np.arange(6.0).reshape(2, 3))
        ag.backward(x.sum())
        np.testing.assert_array_equal(x.grad, np.ones((2, 3)))

    def test_shared_subexpression_accumulates(self):
        x = t64([2.0])
        y = t64([5.0])
        p = x * y
        loss = (p + p).sum()  # x reused through p twice
        ag.backward(loss)
        assert x.grad[0] == pytest.approx(10.0)
        assert y.grad[0] == pytest.approx(4.0)

    def test_dag_equals_unrolled_tree(self):
        rng = np.random.default_rng(11)
        data = rng.normal(size=(3, 3))
        x1 = t64(data.copy())
        s = (x1 * x1).sum()  # shared node
        ag.backward((s + s) ** 1.0)
        x2 = t64(data.copy())
        ag.backward(((x2 * x2).sum() + (x2 * x2).sum()) ** 1.0)
        np.testing.assert_allclose(x1.grad, x2.grad, rtol=1e-12)

    def test_repeated_backward_accumulates(self):
        x = t64([1.0, 2.0])
        loss = (x * 3.0).sum()
        ag.backward(loss)
        first = x.grad.copy()
        loss2 = (x * 3.0).sum()
        ag.backward(loss2)
        np.testing.assert_allclose(x.grad, 2 * first)

    def test_second_walk_of_the_same_root_raises(self):
        x = t64([1.0, 2.0])
        loss = (ag.exp(x) * 3.0).sum()
        ag.backward(loss)
        first = x.grad.copy()
        with pytest.raises(UsageError, match="earlier backward released"):
            ag.backward(loss)
        np.testing.assert_array_equal(x.grad, first)  # no closure ran

    def test_second_loss_on_a_walked_forward_raises(self):
        x = t64([1.0, 2.0])
        h = ag.exp(x) * 3.0
        ag.backward(h.sum())
        first = x.grad.copy()
        with pytest.raises(UsageError, match="earlier backward released"):
            ag.backward((h * h).sum())
        np.testing.assert_array_equal(x.grad, first)

    def test_non_scalar_root_rejected(self):
        with pytest.raises(UsageError, match="scalar"):
            ag.backward(t64(np.ones(3)) * 2.0)

    @pytest.mark.parametrize("seed", range(20))
    def test_composite_graph_matches_finite_differences(self, seed):
        rng = np.random.default_rng(600 + seed)
        # resample until pre-activations sit clear of the relu kink,
        # otherwise the central difference itself is invalid
        while True:
            x = t64(rng.normal(size=(1, 1, 5, 5)))
            w = t64(rng.normal(size=(2, 1, 3, 3)) * 0.7)
            pre = ag.conv_nd(x, w).data
            if np.abs(pre).min() > 5e-3:
                break
        wl = t64(rng.normal(size=(18, 3)) * 0.5)
        target = int(rng.integers(0, 3))

        def loss():
            h = ag.relu(ag.conv_nd(x, w))
            h = ag.reshape(h, (1, 18))
            logits = ag.matmul(h, wl)
            p = ag.softmax(logits, axis=-1)
            return -ag.log(p[0, target] + 1e-12)

        assert_grads_match(loss, [x, w, wl])

    def test_determinism(self):
        def run():
            rng = np.random.default_rng(123)
            x = t64(rng.normal(size=(1, 2, 6, 6)))
            w = t64(rng.normal(size=(2, 2, 3, 3)))
            loss = (ag.relu(ag.conv_nd(x, w, padding=1)) ** 2).sum()
            ag.backward(loss)
            return loss.item(), x.grad.copy(), w.grad.copy()

        l1, gx1, gw1 = run()
        l2, gx2, gw2 = run()
        assert l1 == l2
        np.testing.assert_array_equal(gx1, gx2)
        np.testing.assert_array_equal(gw1, gw2)


class TestElementwiseOps:
    @pytest.mark.parametrize("seed", range(20))
    def test_scalar_op_chain_grads(self, seed):
        rng = np.random.default_rng(700 + seed)
        x = t64(rng.uniform(0.5, 2.0, size=(3, 4)))
        y = t64(rng.uniform(0.5, 2.0, size=(3, 4)))

        def loss():
            z = ag.exp(x * 0.3) + ag.log(y) - ag.sigmoid(x) * ag.tanh(y)
            z = z + ag.gelu(x - y) / (y + 3.0)
            return (z ** 2).mean()

        assert_grads_match(loss, [x, y])

    def test_broadcasting_grads(self):
        rng = np.random.default_rng(8)
        a = t64(rng.normal(size=(4, 3)))
        b = t64(rng.normal(size=(3,)))
        assert_grads_match(lambda: ((a + b) * b).sum(), [a, b])

    def test_concat_getitem_pad_grads(self):
        rng = np.random.default_rng(9)
        a = t64(rng.normal(size=(2, 3)))
        b = t64(rng.normal(size=(2, 2)))

        def loss():
            c = ag.concat([a, b], axis=1)
            p = ag.pad_spatial(c, ((0, 0), (1, 1)))
            return (p[:, 1:4] ** 2).sum()

        assert_grads_match(loss, [a, b])

    @pytest.mark.parametrize("op", [ag.sub, ag.div, ag.mul])
    @pytest.mark.parametrize("a_shape, b_shape", [((4, 3), (3,)), ((3,), (4, 3)),
                                                  ((4, 1), (1, 3)), ((2, 1, 3), (4, 1))])
    def test_broadcast_operand_grads(self, op, a_shape, b_shape):
        rng = np.random.default_rng(10)
        a = t64(rng.uniform(0.5, 2.0, size=a_shape))
        b = t64(rng.uniform(0.5, 2.0, size=b_shape))
        r = rng.normal(size=np.broadcast_shapes(a_shape, b_shape))
        assert_grads_match(lambda: (op(a, b) * r).sum(), [a, b])

    @pytest.mark.parametrize("a_shape, b_shape", [((2, 3, 4), (4, 5)), ((3, 4), (2, 4, 5)),
                                                  ((2, 1, 3, 4), (3, 4, 2))])
    def test_matmul_broadcast_batch_grads(self, a_shape, b_shape):
        rng = np.random.default_rng(11)
        a, b = t64(rng.normal(size=a_shape)), t64(rng.normal(size=b_shape))
        r = rng.normal(size=ag.matmul(a, b).shape)
        assert_grads_match(lambda: (ag.matmul(a, b) * r).sum(), [a, b])

    @pytest.mark.parametrize("fn", [ag.tsum, ag.tmean])
    @pytest.mark.parametrize("axis", [1, -1])
    @pytest.mark.parametrize("keepdims", [False, True])
    def test_one_axis_reduction_grads(self, fn, axis, keepdims):
        rng = np.random.default_rng(12)
        a = t64(rng.normal(size=(2, 3, 4)))
        r = rng.normal(size=fn(a, axis, keepdims).shape)
        assert_grads_match(lambda: (fn(a, axis, keepdims) * r).sum(), [a])

    def test_reshape_to_more_dims_grads(self):
        rng = np.random.default_rng(13)
        a = t64(rng.normal(size=(6, 4)))
        r = rng.normal(size=(2, 3, 2, 2))
        assert_grads_match(lambda: (ag.reshape(a, (2, 3, 2, 2)) * r).sum(), [a])

    def test_transpose_explicit_axes_grads(self):
        rng = np.random.default_rng(14)
        a = t64(rng.normal(size=(2, 3, 4)))
        r = rng.normal(size=(4, 2, 3))
        assert_grads_match(lambda: (ag.transpose(a, (2, 0, 1)) * r).sum(), [a])

    def test_concat_negative_axis_grads(self):
        rng = np.random.default_rng(15)
        a = t64(rng.normal(size=(2, 3, 2)))
        b = t64(rng.normal(size=(2, 3, 4)))
        r = rng.normal(size=(2, 3, 6))
        assert_grads_match(lambda: (ag.concat([a, b], axis=-1) * r).sum(), [a, b])

    def test_no_grad_suppresses_graph(self):
        x = t64(np.ones(3))
        with ag.no_grad():
            y = (x * 2.0).sum()
        assert not y.requires_grad


class TestShapeOnly:
    """Under a cost recorder, ops return data-free tensors whose shape and
    dtype are those of the real op's result, and fail as the real op does."""

    @staticmethod
    def _both(monkeypatch, fn, shapes):
        rng = np.random.default_rng(0)
        reals = [ag.tensor(rng.random(s, dtype=np.float32)) for s in shapes]
        monkeypatch.setattr(ag, "recorder", CostRecorder())
        return reals, [ag.meta(s) for s in shapes]

    @pytest.mark.parametrize("fn, shapes", [
        (ag.add, [(2, 1, 4), (3, 1)]),
        (ag.sub, [(2, 3), (3,)]),
        (ag.mul, [(1, 3), (2, 1)]),
        (ag.div, [(2, 3), ()]),
        (lambda a: ag.clamp_min(a, 0.0), [(2, 3)]),
        (ag.sigmoid, [(4,)]),
        (ag.tanh, [(4,)]),
        (ag.gelu, [(2, 4)]),
        (lambda a: ag.softmax(a, axis=0), [(2, 5)]),
        (lambda a: ag.tmean(a, (0, -1), True), [(2, 3, 4)]),
        (ag.global_avg_pool, [(2, 3, 4, 5)]),
        (lambda a, b: ag.concat([a, b], axis=-1), [(2, 3), (2, 4)]),
        (ag.matmul, [(5, 2, 3), (3, 4)]),
        (lambda x, g, b: ag.layer_norm(x, g, b), [(2, 4), (4,), (4,)]),
        (lambda x, w: ag.conv_nd(x, w, stride=2, padding=1), [(2, 3, 9, 8), (4, 3, 3, 3)]),
        (ag.conv_nd, [(1, 3, 6), (2, 3, 2)]),  # 1-D
        (lambda a: ag.max_pool_nd(a, 3, stride=2, padding=1), [(1, 2, 7, 6)]),
        (lambda a: ag.reshape(a, (3, -1)), [(2, 3, 2)]),
        (lambda a: ag.transpose(a, (1, 0, 2)), [(2, 3, 4)]),
        (lambda a: a[:, 1, 0:2], [(2, 3, 4)]),
    ])
    def test_matches_real_op(self, monkeypatch, fn, shapes):
        reals, metas = self._both(monkeypatch, fn, shapes)
        out = fn(*metas)
        monkeypatch.setattr(ag, "recorder", None)
        real = fn(*reals)
        assert (out.shape, out.dtype) == (real.shape, real.dtype)
        assert out.data.strides == (0,) * out.ndim

    @pytest.mark.parametrize("fn, shapes", [
        (ag.conv_nd, [(1, 1, 2, 2), (1, 1, 3, 3)]),
        (ag.conv_nd, [(1, 2, 5, 5), (1, 3, 3, 3)]),
        (ag.matmul, [(2, 3), (4, 2)]),
        (ag.add, [(2, 3), (4,)]),
        (lambda a: ag.max_pool_nd(a, 3), [(1, 1, 2, 2)]),
    ])
    def test_fails_as_real_op(self, monkeypatch, fn, shapes):
        reals, metas = self._both(monkeypatch, fn, shapes)
        with pytest.raises(Exception) as meta_err:
            fn(*metas)
        monkeypatch.setattr(ag, "recorder", None)
        with pytest.raises(meta_err.type):
            fn(*reals)


class TestDtype:
    """Every array the engine, the layers and the optimiser make has the
    dtype of the model's parameters: float32 models stay float32 and
    float64 gradcheck blocks stay float64."""

    @staticmethod
    def _spy(monkeypatch):
        """Record the dtype of every array a Tensor stores, after conversion."""
        dtypes = []
        init = ag.Tensor.__init__

        def spy(self, data, requires_grad=False):
            init(self, data, requires_grad)
            dtypes.append(self.data.dtype)

        monkeypatch.setattr(ag.Tensor, "__init__", spy)
        return dtypes

    def test_constants_take_the_tensor_dtype(self):
        x32 = ag.tensor(np.ones(3, dtype=np.float32))
        for y in (x32 * 0.5, 2.0 - x32, x32 / np.float64(3.0), x32 + np.ones(3)):
            assert y.dtype == np.float32
        assert (t64(np.ones(3)) * np.float32(2.0)).dtype == np.float64

    def test_scalar_float32_grad_reads_the_stored_output(self):
        # the numpy scalar a 0-d float32 input gives is stored as float32,
        # and the gradient is computed from that stored value
        for op, grad in ((ag.exp, lambda y: y), (ag.sigmoid, lambda y: y * (1.0 - y)),
                         (ag.tanh, lambda y: 1.0 - y * y)):
            x = ag.tensor(np.float32(-1.3), requires_grad=True)
            y = op(x)
            ag.backward(y)
            assert y.dtype == x.grad.dtype == np.float32
            assert x.grad == grad(y.data)

    @pytest.mark.parametrize("preset", ["toy-2d-trf", "toy-2d-fc", "toy-conv3d",
                                        "toy-multiview-shared"])
    @pytest.mark.parametrize("training", [False, True])
    def test_float32_model_stays_float32(self, monkeypatch, preset, training):
        from volformer.architectures import build_model
        from volformer.nn import Ctx
        from volformer.presets import preset_config
        from volformer.training import focal_loss

        graph = build_model(preset_config(preset), seed=0)
        rng = np.random.default_rng(0)
        inputs = {v: rng.random((2,) + shape, dtype=np.float32)
                  for v, shape in graph.input_spec.items()}
        dtypes = self._spy(monkeypatch)
        logits = graph.forward(inputs, Ctx(training=training, rng=rng))
        focal_loss(ag.softmax(logits, axis=-1), [0, 2])
        assert dtypes and set(dtypes) == {np.dtype(np.float32)}

    @pytest.mark.parametrize("preset", ["toy-2d-trf", "toy-2d-bilstm", "toy-conv3d"])
    def test_training_step_stays_float32(self, monkeypatch, preset):
        from volformer.architectures import build_model
        from volformer.nn import Ctx
        from volformer.presets import preset_config
        from volformer.training import AdamState, adam_step, focal_loss

        graph = build_model(preset_config(preset), seed=0)
        rng = np.random.default_rng(0)
        inputs = {v: rng.random((2,) + shape, dtype=np.float32)
                  for v, shape in graph.input_spec.items()}
        named = [(name, p.tensor) for name, p in graph.module.named_parameters()]
        adam = AdamState()
        dtypes = self._spy(monkeypatch)
        logits = graph.forward(inputs, Ctx(training=True, rng=rng))
        loss = focal_loss(ag.softmax(logits, axis=-1), [0, 2])
        ag.backward(loss)
        adam_step(named, adam, 1e-3, 1e-4)
        probs = graph.predict_proba(inputs)
        made = ([t.grad for _, t in named] + list(adam.m.values()) + list(adam.v.values())
                + [buf for _, buf in graph.module.named_buffers()] + [probs])
        assert loss.dtype == np.float32
        assert dtypes and set(dtypes) == {np.dtype(np.float32)}
        assert {a.dtype for a in made} == {np.dtype(np.float32)}

    @pytest.mark.parametrize("training", [False, True])
    def test_float64_block_stays_float64(self, monkeypatch, training):
        from volformer.nn import BottleneckBlock, Ctx, ParamInit

        block = BottleneckBlock(4, 2, ParamInit(0, np.float64), stride=2)
        x = t64(np.random.default_rng(1).normal(size=(2, 4, 5, 5)))
        dtypes = self._spy(monkeypatch)
        block(x, Ctx(training=training))
        assert dtypes and set(dtypes) == {np.dtype(np.float64)}
        assert {buf.dtype for _, buf in block.named_buffers()} == {np.dtype(np.float64)}
