import numpy as np
import pytest

from gradcheck import randomize_norms
from volformer import autograd as ag
from volformer.errors import ConfigError, UsageError
from volformer.nn import (
    AttentionConfig,
    BiLSTM,
    BottleneckBlock,
    Conv2Plus1dBlock,
    Ctx,
    MultiHeadAttention,
    ParamInit,
    TransformerBlock,
    factorized_mid_width,
)

CTX = Ctx(training=False)


def init64(seed=0):
    return ParamInit(seed=seed, dtype=np.float64)


def rand_tokens(rng, l, d):
    return ag.tensor(rng.normal(size=(1, l, d)), requires_grad=True)


class TestMultiHeadAttention:
    def test_dim_not_divisible_rejected(self):
        with pytest.raises(ConfigError, match="divisible"):
            AttentionConfig(model_dim=10, heads=3)

    def test_single_token_is_linear_map(self):
        # softmax over a singleton is 1, so output = Wo(V(token))
        rng = np.random.default_rng(0)
        mha = MultiHeadAttention(AttentionConfig(8, 2), init64(1))
        a = rng.normal(size=(1, 1, 8))
        b = rng.normal(size=(1, 1, 8))
        ya = mha(ag.tensor(a), CTX).data
        yb = mha(ag.tensor(b), CTX).data
        yab = mha(ag.tensor(a + b), CTX).data
        bias_out = mha(ag.tensor(np.zeros((1, 1, 8))), CTX).data
        np.testing.assert_allclose(yab + bias_out, ya + yb, atol=1e-10)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(2)
        mha = MultiHeadAttention(AttentionConfig(8, 2), init64(3))
        tokens = rng.normal(size=(1, 5, 8))
        perm = rng.permutation(5)
        out = mha(ag.tensor(tokens), CTX).data
        out_perm = mha(ag.tensor(tokens[:, perm]), CTX).data
        np.testing.assert_allclose(out_perm, out[:, perm], atol=1e-10)

    def test_attention_rows_sum_to_one(self):
        rng = np.random.default_rng(4)
        cfg = AttentionConfig(8, 2)
        mha = MultiHeadAttention(cfg, init64(5))
        tokens = ag.tensor(rng.normal(size=(1, 6, 8)))
        q = ag.matmul(tokens, mha.wq.weight.tensor) + mha.wq.bias.tensor
        k = ag.matmul(tokens, mha.wk.weight.tensor) + mha.wk.bias.tensor
        qh = ag.transpose(ag.reshape(q, (1, 6, 2, 4)), (0, 2, 1, 3))
        kh = ag.transpose(ag.reshape(k, (1, 6, 2, 4)), (0, 2, 1, 3))
        attn = ag.softmax(ag.matmul(qh, ag.transpose(kh, (0, 1, 3, 2))) * 0.5, axis=-1)
        np.testing.assert_allclose(attn.data.sum(axis=-1), 1.0, atol=1e-9)

    @pytest.mark.parametrize("seed", range(20))
    def test_grads_match_finite_differences(self, seed):
        from gradcheck import assert_grads_match
        rng = np.random.default_rng(800 + seed)
        mha = MultiHeadAttention(AttentionConfig(8, 2), init64(seed))
        tokens = rand_tokens(rng, 3, 8)
        params = [p.tensor for _, p in mha.named_parameters()]
        r = rng.normal(size=(1, 3, 8))
        assert_grads_match(lambda: (mha(tokens, CTX) * r).sum(), [tokens] + params)


class TestTransformerBlock:
    def _zero_residual_branches(self, block):
        block.attn.wo.weight.tensor.data[:] = 0.0
        block.attn.wo.bias.tensor.data[:] = 0.0
        block.fc2.weight.tensor.data[:] = 0.0
        block.fc2.bias.tensor.data[:] = 0.0

    def test_zeroed_output_projections_give_identity(self):
        rng = np.random.default_rng(6)
        block = TransformerBlock(AttentionConfig(8, 2, mlp_ratio=2.0), init64(7))
        self._zero_residual_branches(block)
        tokens = rng.normal(size=(1, 5, 8))
        out = block(ag.tensor(tokens), CTX).data
        np.testing.assert_array_equal(out, tokens)

    @pytest.mark.parametrize("k", [1, 4, 9])
    def test_shape_preserved(self, k):
        rng = np.random.default_rng(8)
        block = TransformerBlock(AttentionConfig(8, 4), init64(9))
        tokens = rng.normal(size=(1, k, 8))
        assert block(ag.tensor(tokens), CTX).shape == (1, k, 8)

    @pytest.mark.parametrize("seed", range(10))
    def test_grads_match_finite_differences(self, seed):
        from gradcheck import assert_grads_match
        rng = np.random.default_rng(900 + seed)
        block = TransformerBlock(AttentionConfig(8, 2), init64(10 + seed))
        tokens = rand_tokens(rng, 4, 8)
        params = [p.tensor for _, p in block.named_parameters()]
        r = rng.normal(size=(1, 4, 8))
        assert_grads_match(lambda: (block(tokens, CTX) * r).sum(), [tokens] + params)


class TestBottleneckBlock:
    def test_zero_convs_pure_skip(self):
        rng = np.random.default_rng(10)
        block = BottleneckBlock(16, 4, init64(11), stride=1)  # 16 == 4*expansion
        for name in ("conv1", "conv2", "conv3"):
            getattr(block, name).weight.tensor.data[:] = 0.0
        x = np.abs(rng.normal(size=(1, 16, 8, 8)))  # relu-safe positive input
        out = block(ag.tensor(x), CTX).data
        np.testing.assert_allclose(out, x, atol=1e-6)

    def test_stride_two_halves_spatial(self):
        rng = np.random.default_rng(12)
        block = BottleneckBlock(8, 4, init64(13), stride=2)
        out = block(ag.tensor(rng.normal(size=(1, 8, 9, 8))), CTX)
        assert out.shape == (1, 16, 5, 4)  # odd extents floor-divided: (9+1)//2, 8//2

    def test_invalid_widths_rejected(self):
        with pytest.raises(ConfigError):
            BottleneckBlock(0, 4, init64())
        with pytest.raises(ConfigError):
            BottleneckBlock(8, 4, init64(), stride=3)

    @pytest.mark.parametrize("seed", range(5))
    def test_grads_match_finite_differences(self, seed):
        from gradcheck import assert_grads_match
        rng = np.random.default_rng(1000 + seed)
        block = BottleneckBlock(4, 2, init64(20 + seed), stride=[1, 2][seed % 2])
        x = ag.tensor(rng.normal(size=(1, 4, 8, 8)), requires_grad=True)
        params = [p.tensor for _, p in block.named_parameters()]
        ctx = Ctx(training=True)
        r = None

        def loss():
            nonlocal r
            y = block(x, ctx)
            if r is None:
                r = np.random.default_rng(seed).normal(size=y.shape)
            return (y * r).sum()

        assert_grads_match(loss, [x] + params)


class TestFoldedEvalBottleneck:
    """In a real eval forward each conv/norm pair runs as one conv with the
    norm folded into its weight."""

    @staticmethod
    def _block(seed, stride):
        block = BottleneckBlock(4, 2, init64(30 + seed), stride=stride)  # with projection
        randomize_norms(block, np.random.default_rng(seed))
        return block

    # seeds whose relu inputs all stay clear of the kink by more than the
    # finite-difference step (central differences are invalid across it)
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_eval_grads_match_finite_differences(self, seed):
        from gradcheck import assert_grads_match
        rng = np.random.default_rng(2000 + seed)
        block = self._block(seed, stride=[1, 2][seed % 2])
        x = ag.tensor(rng.normal(size=(2, 4, 6, 6)), requires_grad=True)
        params = [p.tensor for _, p in block.named_parameters()]
        r = None

        def loss():
            nonlocal r
            y = block(x, CTX)
            if r is None:
                r = np.random.default_rng(seed).normal(size=y.shape)
            return (y * r).sum()

        assert_grads_match(loss, [x] + params)
        assert all(t.grad is not None and np.any(t.grad) for t in [x] + params)

    @pytest.mark.parametrize("stride", [1, 2])
    def test_fold_matches_norm_of_conv(self, monkeypatch, stride):
        from volformer.nn import blocks
        block = self._block(7, stride)
        x = ag.tensor(np.random.default_rng(8).normal(size=(3, 4, 7, 7)))
        folded = block(x, CTX).data
        monkeypatch.setattr(blocks, "conv_norm", lambda conv, norm, x, ctx: norm(conv(x, ctx), ctx))
        np.testing.assert_allclose(folded, block(x, CTX).data, rtol=1e-12, atol=1e-12)


class TestBiLSTM:
    def test_single_step_directions_agree(self):
        # k=1: both directions see the same single input
        rng = np.random.default_rng(14)
        lstm = BiLSTM(4, 5, init64(15))
        # give both directions identical weights
        lstm.w_ih_bw.load(lstm.w_ih_fw.tensor.data)
        lstm.w_hh_bw.load(lstm.w_hh_fw.tensor.data)
        x = ag.tensor(rng.normal(size=(1, 1, 4)))
        out = lstm(x, CTX).data
        np.testing.assert_allclose(out[:, :5], out[:, 5:], atol=1e-12)

    def test_reversal_swaps_halves(self):
        rng = np.random.default_rng(16)
        lstm = BiLSTM(4, 5, init64(17))
        lstm.w_ih_bw.load(lstm.w_ih_fw.tensor.data)
        lstm.w_hh_bw.load(lstm.w_hh_fw.tensor.data)
        seq = rng.normal(size=(1, 6, 4))
        out = lstm(ag.tensor(seq), CTX).data
        out_rev = lstm(ag.tensor(seq[:, ::-1].copy()), CTX).data
        np.testing.assert_array_equal(out_rev[:, :5], out[:, 5:])
        np.testing.assert_array_equal(out_rev[:, 5:], out[:, :5])

    def test_empty_sequence_rejected(self):
        lstm = BiLSTM(4, 5, init64(18))
        with pytest.raises(UsageError, match="non-empty"):
            lstm(ag.tensor(np.zeros((1, 0, 4))), CTX)

    @pytest.mark.parametrize("seed", range(5))
    def test_grads_match_finite_differences(self, seed):
        from gradcheck import assert_grads_match
        rng = np.random.default_rng(1100 + seed)
        lstm = BiLSTM(4, 5, init64(30 + seed))
        seq = ag.tensor(rng.normal(size=(1, 3, 4)), requires_grad=True)
        params = [p.tensor for _, p in lstm.named_parameters()]
        r = rng.normal(size=(1, 10))
        assert_grads_match(lambda: (lstm(seq, CTX) * r).sum(), [seq] + params)


class TestConv2Plus1d:
    def test_mid_width_matches_full_kernel_budget(self):
        # brute-force oracle: largest M with factored params <= full 3x3x3 params
        for cin, cout in [(4, 4), (2, 6), (8, 3), (16, 16), (1, 1)]:
            full = 27 * cin * cout
            m = 0
            while 9 * cin * (m + 1) + 3 * (m + 1) * cout <= full:
                m += 1
            assert factorized_mid_width(cin, cout) == m

    def test_mid_width_value_4_4(self):
        # 27*16 / (9*4 + 3*4) = 432 / 48
        assert factorized_mid_width(4, 4) == 9

    def test_output_shape_matches_padded_3d_conv(self):
        rng = np.random.default_rng(20)
        block = Conv2Plus1dBlock(2, 5, init64(21))
        x = ag.tensor(rng.normal(size=(1, 2, 3, 6, 6)))
        out = block(x, CTX)
        ref = ag.conv_nd(x, ag.tensor(rng.normal(size=(5, 2, 3, 3, 3))), padding=1)
        assert out.shape == ref.shape == (1, 5, 3, 6, 6)

    def test_strided_output_shape(self):
        rng = np.random.default_rng(22)
        block = Conv2Plus1dBlock(2, 4, init64(23), stride=2)
        out = block(ag.tensor(rng.normal(size=(1, 2, 4, 6, 6))), CTX)
        assert out.shape == (1, 4, 2, 3, 3)

    @pytest.mark.parametrize("seed", range(5))
    def test_grads_match_finite_differences(self, seed):
        from gradcheck import assert_grads_match
        rng = np.random.default_rng(1200 + seed)
        block = Conv2Plus1dBlock(2, 3, init64(40 + seed))
        ctx = Ctx(training=True)
        # batch norm centers the relu input at zero; resample until every
        # preactivation sits clear of the kink or the fd oracle is invalid
        while True:
            x = ag.tensor(rng.normal(size=(1, 2, 3, 6, 6)), requires_grad=True)
            pre = block.bn_mid(block.spatial(x, ctx), ctx).data
            if np.abs(pre).min() > 8e-3:
                break
        params = [p.tensor for _, p in block.named_parameters()]
        r = None

        def loss():
            nonlocal r
            y = block(x, ctx)
            if r is None:
                r = np.random.default_rng(seed).normal(size=y.shape)
            return (y * r).sum()

        assert_grads_match(loss, [x] + params)
