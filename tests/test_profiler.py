import math

import numpy as np
import pytest

from volformer import autograd as ag
from volformer.architectures import build_model, resnet50
from volformer.checkpoint import load_checkpoint, save_checkpoint
from volformer.nn import Conv, Linear, ParamInit, shape_pass
from volformer.presets import PRESETS, full_scale_config, preset_config, toy_config
from volformer.profiler import count_macs, count_params

# (MACs, parameters) of every preset at its own input shape
PROFILE_TOTALS = {
    "full-2d-trf": (140_338_288_640, 128_595_011),
    "full-2d-trf-cor": (165_894_723_584, 128_791_619),
    "full-2d-trf-ax": (165_894_723_584, 128_791_619),
    "full-2d-fc": (133_524_620_800, 90_618_947),
    "full-2d-bilstm": (133_759_501_824, 28_230_211),
    "full-multiview-shared": (473_436_313_600, 129_256_515),
    "full-multiview-individual": (473_436_313_600, 176_272_579),
    "toy-2d-trf": (1_419_488, 16_635),
    "toy-2d-fc": (1_298_528, 10_491),
    "toy-2d-bilstm": (1_339_488, 8_539),
    "toy-multiview-shared": (4_282_592, 17_243),
    "toy-multiview-individual": (4_282_592, 21_579),
    "toy-conv3d": (10_748_000, 3_851),
    "toy-conv2plus1d": (10_027_032, 2_011),
}

# the aggregator sizes in each preset's report notes, beside the two conventions
PROFILE_SIZES = {
    "full-2d-trf": {"model_dim": 2048, "mlp_ratio": 1.0},
    "full-2d-trf-cor": {"model_dim": 2048, "mlp_ratio": 1.0},
    "full-2d-trf-ax": {"model_dim": 2048, "mlp_ratio": 1.0},
    "full-2d-fc": {"fc_hidden": 512},
    "full-2d-bilstm": {"lstm_hidden": 256},
    "full-multiview-shared": {"model_dim": 2048, "mlp_ratio": 1.0},
    "full-multiview-individual": {"model_dim": 2048, "mlp_ratio": 1.0},
    "toy-2d-trf": {"model_dim": 32, "mlp_ratio": 1.0},
    "toy-2d-fc": {"fc_hidden": 32},
    "toy-2d-bilstm": {"lstm_hidden": 16},
    "toy-multiview-shared": {"model_dim": 32, "mlp_ratio": 1.0},
    "toy-multiview-individual": {"model_dim": 32, "mlp_ratio": 1.0},
    "toy-conv3d": {},
    "toy-conv2plus1d": {},
}


def forward_macs(graph, monkeypatch):
    """MACs of one real predict_proba, counted at every conv_nd and matmul
    call: output elements times the reduced extent of the operands."""
    macs = []
    conv_nd, matmul = ag.conv_nd, ag.matmul

    def counted_conv(x, w, stride=1, padding=0):
        out = conv_nd(x, w, stride, padding)
        macs.append(out.size * math.prod(w.shape[1:]))
        return out

    def counted_matmul(a, b):
        out = matmul(a, b)
        macs.append(out.size * a.shape[-1])
        return out

    monkeypatch.setattr(ag, "conv_nd", counted_conv)
    monkeypatch.setattr(ag, "matmul", counted_matmul)
    rng = np.random.default_rng(0)
    graph.predict_proba({v: rng.random(s, np.float32) for v, s in graph.input_spec.items()})
    return sum(macs)


class TestProfileContract:
    def test_every_preset_listed(self):
        assert set(PROFILE_TOTALS) == set(PROFILE_SIZES) == set(PRESETS)

    @pytest.mark.parametrize("preset", sorted(PROFILE_SIZES))
    def test_notes(self, preset):
        assert count_macs(build_model(preset_config(preset))).notes == {
            "macs_convention": "norm/activation/pool layers counted as 0 MACs",
            "attention_rows": "projection and score/value MACs emitted separately",
            **PROFILE_SIZES[preset],
        }

    @pytest.mark.parametrize("preset", sorted(PROFILE_TOTALS))
    def test_totals_rows_and_real_forward(self, preset, monkeypatch):
        graph = build_model(preset_config(preset))
        report = count_params(graph)  # cross-checks the parameter registry
        assert (report.total_macs, report.total_params) == PROFILE_TOTALS[preset]
        assert report.total_macs == sum(r.macs for r in report.rows)
        assert report.total_params == sum(r.params for r in report.rows)
        if preset.startswith("toy-"):
            assert forward_macs(graph, monkeypatch) == report.total_macs

    def test_counting_materializes_no_parameter(self):
        graph = build_model(full_scale_config("2d_trf_multiview_individual"))
        count_macs(graph)
        assert all(p._tensor is None for p in graph.module.parameters())

    def test_slice_encoder_rows(self):
        report = count_macs(build_model(preset_config("full-2d-trf")))
        encoder = [r for r in report.rows if r.name.startswith("encoder@sag.")]
        assert sum(r.params for r in encoder) == 25_557_032 - (2048 * 1000 + 1000)
        attn = {r.name.rsplit(".", 1)[1]: r for r in report.rows
                if r.name.startswith("aggregator.blocks.0.attn.")}
        assert attn["attn_proj"].params == 4 * (2048 * 2048 + 2048)
        assert attn["attn_scores"].params == 0
        assert attn["attn_scores"].macs == 2 * 65 * 65 * 2048


class TestMacCounting:
    def test_conv_hand_count(self):
        conv = Conv(1, 4, 3, ParamInit(0), padding=1)
        out, rows = shape_pass(conv, (1, 1, 8, 8))
        assert out.shape == (1, 4, 8, 8)
        assert rows[0].macs == 2304  # 8*8*4*9

    def test_linear_macs(self):
        out, rows = shape_pass(Linear(16, 3, ParamInit(0)), (1, 16))
        assert out.shape == (1, 3)
        assert rows[0].macs == 48
        assert rows[0].params == 16 * 3 + 3

    def test_totals_equal_row_sums(self):
        graph = build_model(toy_config("2d_trf"))
        report = count_macs(graph)
        assert report.total_macs == sum(r.macs for r in report.rows)
        assert report.total_params == sum(r.params for r in report.rows)

    def test_norm_activation_pool_rows_are_zero_macs(self):
        graph = build_model(toy_config("2d_trf"))
        report = count_macs(graph)
        for row in report.rows:
            if row.kind in ("norm", "pool"):
                assert row.macs == 0

    def test_counts_independent_of_parameter_values(self):
        graph = build_model(toy_config("2d_trf"), seed=1)
        before = count_macs(graph)
        for _, p in graph.module.named_parameters():
            p.tensor.data[:] = np.random.default_rng(0).normal(size=p.shape)
        after = count_macs(graph)
        assert before.total_macs == after.total_macs
        assert before.total_params == after.total_params

    def test_doubling_k_doubles_encoder_and_quadruples_scores(self):
        cfg8 = toy_config("2d_trf", slice_count=8)
        cfg16 = toy_config("2d_trf", slice_count=16)
        r8 = count_macs(build_model(cfg8))
        r16 = count_macs(build_model(cfg16))

        def bucket(report, match):
            return sum(r.macs for r in report.rows if match in r.name)

        assert bucket(r16, "encoder") == 2 * bucket(r8, "encoder")
        score_ratio = bucket(r16, "attn_scores") / bucket(r8, "attn_scores")
        assert score_ratio == pytest.approx((2 * 8 + 1) ** 2 / (8 + 1) ** 2, rel=1e-12)
        # with the full-scale slice count the quadratic term is ~4x
        r64 = count_macs(build_model(toy_config("2d_trf", slice_count=64)))
        r128 = count_macs(build_model(toy_config("2d_trf", slice_count=128)))
        big_ratio = bucket(r128, "attn_scores") / bucket(r64, "attn_scores")
        assert abs(big_ratio - 4.0) < 0.4

    def test_attention_subtotals_emitted_separately(self):
        report = count_macs(build_model(toy_config("2d_trf")))
        names = [r.name for r in report.rows]
        assert any("attn_proj" in n for n in names)
        assert any("attn_scores" in n for n in names)

    def test_reconciliation_notes_present(self):
        report = count_macs(build_model(full_scale_config("2d_fc")))
        assert report.notes["fc_hidden"] == 512
        report = count_macs(build_model(full_scale_config("2d_bilstm")))
        assert report.notes["lstm_hidden"] == 256


class TestParamCounting:
    def test_resnet50_exact(self):
        assert resnet50().param_count() == 25_557_032

    def test_count_params_cross_checks_registry(self):
        report = count_params(build_model(toy_config("2d_bilstm")))
        assert report.total_params > 0

    def test_toy_count_equals_checkpoint_sum(self, tmp_path):
        graph = build_model(toy_config("2d_trf"), seed=3)
        path = tmp_path / "toy.vfwt"
        save_checkpoint(path, graph.state_dict())
        back = load_checkpoint(path)
        param_names = {n for n, _ in graph.module.named_parameters()}
        assert param_names <= set(back)
        brute = sum(arr.size for name, arr in back.items() if name in param_names)
        assert count_params(graph).total_params == brute

    def test_tokens_and_positional_included(self):
        cfg = toy_config("2d_trf", slice_count=8)
        report = count_macs(build_model(cfg))
        token_rows = [r for r in report.rows if r.kind == "embedding"]
        d = cfg.aggregator.model_dim
        assert sum(r.params for r in token_rows) == d + (8 + 1) * d  # cls + positional
