import dataclasses
import string

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradcheck import randomize_norms
from volformer import architectures
from volformer import autograd as ag
from volformer.architectures import (
    AGGREGATORS,
    FAMILIES,
    VOLUMETRIC_FAMILIES,
    BiLstmAggregator,
    FcAggregator,
    ModelConfig,
    SlicewiseModel,
    TransformerAggregator,
    build_model,
    resnet50,
)
from volformer.checkpoint import save_checkpoint
from volformer.errors import CheckpointError, ConfigError, ShapeError
from volformer import kinds as kd
from volformer import modelconfig as mc
from volformer.cli import EXPERIMENT_KEYS
from volformer.modelconfig import format_model_config, load_model_config, parse_model_config
from volformer.nn import Ctx
from volformer.presets import (
    PRESETS,
    full_scale_config,
    preset_config,
    toy_config,
    toy_volumetric_config,
)
from volformer.profiler import count_macs
from volformer.training import focal_loss


def materialize(graph):
    return {n: p.tensor.data for n, p in graph.module.named_parameters()}


class TestBuildModel:
    def test_deterministic_bit_identical(self):
        cfg = toy_config("2d_trf")
        a = materialize(build_model(cfg, seed=42))
        b = materialize(build_model(cfg, seed=42))
        assert a.keys() == b.keys()
        for name in a:
            np.testing.assert_array_equal(a[name], b[name], err_msg=name)

    def test_different_seed_differs(self):
        cfg = toy_config("2d_trf")
        a = materialize(build_model(cfg, seed=1))
        b = materialize(build_model(cfg, seed=2))
        assert any(not np.array_equal(a[n], b[n]) for n in a)

    def test_toy_builds_and_runs_fast(self):
        import time
        best = float("inf")
        for _ in range(3):  # best-of-3 shields against scheduler noise
            t0 = time.perf_counter()
            graph = build_model(toy_config("2d_trf", slice_count=8, slice_shape=(32, 32)))
            x = np.random.default_rng(0).random((8, 32, 32), dtype=np.float32)
            probs = graph.predict_proba(x)
            best = min(best, time.perf_counter() - t0)
        assert best < 1.0
        assert probs.shape == (3,)
        assert probs.sum() == pytest.approx(1.0, abs=1e-6)

    def test_parameters_first_made_under_no_grad_still_train(self):
        graph = build_model(toy_config("2d_trf"), seed=0)
        x = np.random.default_rng(0).random((2, 8, 24, 24), dtype=np.float32)
        graph.predict_proba(x)  # materialises every parameter inside no_grad
        logits = graph.forward(x, Ctx(training=True, rng=np.random.default_rng(1)))
        ag.backward(focal_loss(ag.softmax(logits, axis=-1), [0, 2]))
        missing = [n for n, p in graph.module.named_parameters() if p.tensor.grad is None]
        assert not missing

    @pytest.mark.parametrize("mutate", [
        lambda c: setattr(c, "family", "alexnet"),
        lambda c: setattr(c, "views", ()),
        lambda c: setattr(c, "views", ("sag", "sag")),
        lambda c: setattr(c, "views", ("diagonal",)),
        lambda c: setattr(c.aggregator, "heads", 5),  # 32 % 5 != 0
        lambda c: setattr(c, "num_classes", 1),
        lambda c: c.slice_count.update(sag=0),
        lambda c: c.slice_shape.update(sag=(0, 24)),
        lambda c: setattr(c.encoder, "stage_widths", (4,)),  # length mismatch
        lambda c: setattr(c, "init_mode", "imagenet"),
    ])
    def test_invalid_configs_rejected_at_build(self, mutate):
        cfg = toy_config("2d_trf")
        mutate(cfg)
        with pytest.raises(ConfigError):
            build_model(cfg)

    def test_multiview_needs_two_views(self):
        cfg = toy_config("2d_trf_multiview_shared")
        cfg.views = ("sag",)
        with pytest.raises(ConfigError, match=">=2 views"):
            build_model(cfg)

    def test_single_view_family_rejects_many_views(self):
        cfg = toy_config("2d_fc")
        cfg.views = ("sag", "cor")
        cfg.slice_count["cor"] = 8
        cfg.slice_shape["cor"] = (24, 24)
        with pytest.raises(ConfigError, match="exactly one view"):
            build_model(cfg)

    def test_random_invalid_configs_never_reach_forward(self):
        rng = np.random.default_rng(0)
        rejected = 0
        for _ in range(50):
            cfg = toy_config("2d_trf")
            field = rng.integers(0, 4)
            if field == 0:
                cfg.aggregator.heads = int(rng.choice([5, 7, 9, 33]))
            elif field == 1:
                cfg.slice_count["sag"] = int(rng.choice([0, -3]))
            elif field == 2:
                cfg.views = tuple(rng.choice(["sag", "bogus"], size=2))
            else:
                cfg.num_classes = int(rng.choice([0, 1, -2]))
            try:
                graph = build_model(cfg)
            except ConfigError:
                rejected += 1
                continue
            # survivors must be genuinely valid configurations
            graph.predict_proba(np.zeros((cfg.slice_count["sag"], 24, 24), np.float32))
        assert rejected >= 40


class TestModelConfigValidate:
    @pytest.mark.parametrize("field,value,match", [
        ("dropout", float("nan"), "dropout"),
        ("dropout", -0.1, "dropout"),
        ("dropout", 1.0, "dropout"),
        ("dropout", float("inf"), "dropout"),
        ("mlp_ratio", float("nan"), "mlp_ratio"),
        ("mlp_ratio", float("inf"), "mlp_ratio"),
        ("mlp_ratio", 0.0, "mlp_ratio"),
        ("mlp_ratio", -1.0, "mlp_ratio"),
        ("heads", 0, "heads must be >= 1"),
        ("heads", -2, "heads must be >= 1"),
    ])
    def test_bad_aggregator_numbers_rejected(self, field, value, match):
        cfg = toy_config()
        cfg = dataclasses.replace(cfg, aggregator=dataclasses.replace(cfg.aggregator,
                                                                      **{field: value}))
        with pytest.raises(ConfigError, match=match):
            cfg.validate()

    @pytest.mark.parametrize("field,value", [("dropout", 0.0), ("dropout", 0.999),
                                             ("mlp_ratio", 0.25), ("heads", 1)])
    def test_edge_values_accepted(self, field, value):
        cfg = toy_config()
        dataclasses.replace(cfg, aggregator=dataclasses.replace(cfg.aggregator,
                                                                **{field: value})).validate()


class TestForwardSlicewise:
    def test_duplicated_slice_duplicates_feature_row(self):
        graph = build_model(toy_config("2d_trf", slice_count=4), seed=3)
        rng = np.random.default_rng(1)
        slices = rng.random((1, 4, 24, 24)).astype(np.float32)
        slices[0, 2] = slices[0, 0]
        feats = graph.module.encode_slices(slices).data[0]
        np.testing.assert_array_equal(feats[2], feats[0])
        assert not np.array_equal(feats[1], feats[0])

    def test_output_shape_is_k_by_final_width(self):
        cfg = toy_config("2d_trf", slice_count=6)
        graph = build_model(cfg, seed=4)
        feats = graph.module.encode_slices(np.zeros((1, 6, 24, 24), np.float32))
        assert feats.shape == (1, 6, cfg.encoder.feature_dim)

    def test_slice_count_mismatch_rejected(self):
        graph = build_model(toy_config("2d_trf", slice_count=4), seed=5)
        with pytest.raises(ShapeError, match="expects 4 slices"):
            graph.module.encode_slices(np.zeros((1, 5, 24, 24), np.float32))

    def test_batch_equals_per_slice_loop(self):
        graph = build_model(toy_config("2d_trf", slice_count=5), seed=6)
        rng = np.random.default_rng(2)
        batch = rng.random((3, 5, 24, 24)).astype(np.float32)
        with ag.no_grad():
            batched = graph.module.encode_slices(ag.tensor(batch)).data
        singles = np.concatenate([graph.module.encode_slices(batch[i:i + 1]).data
                                  for i in range(3)])
        np.testing.assert_allclose(batched, singles, atol=1e-5)


TOY_PRESETS = sorted(name for name in PRESETS if name.startswith("toy-"))


class TestInputForms:
    """The model entry is the one place that takes a single unbatched sample
    and, for a one-view model, a bare array instead of a view dict."""

    @pytest.mark.parametrize("name", TOY_PRESETS)
    def test_single_sample_equals_batch_of_one(self, name):
        graph = build_model(preset_config(name), seed=2)
        rng = np.random.default_rng(3)
        x = {v: rng.random(s).astype(np.float32) for v, s in graph.input_spec.items()}
        single = graph.predict_proba(x)
        assert single.shape == (graph.config.num_classes,)
        assert np.array_equal(single, graph.predict_proba({v: a[None] for v, a in x.items()})[0])

    @pytest.mark.parametrize("name", [n for n in TOY_PRESETS if len(preset_config(n).views) == 1])
    def test_bare_array_equals_one_view_dict(self, name):
        graph = build_model(preset_config(name), seed=4)
        rng = np.random.default_rng(5)
        (view, shape), = graph.input_spec.items()
        for x in (rng.random(shape), rng.random((3,) + shape)):
            x = x.astype(np.float32)
            assert np.array_equal(graph.predict_proba(x), graph.predict_proba({view: x}))

    @pytest.mark.parametrize("name", ["toy-2d-trf", "toy-conv3d"])
    def test_dict_without_the_view_is_a_shape_error(self, name):
        graph = build_model(preset_config(name), seed=6)
        (shape,) = graph.input_spec.values()
        with pytest.raises(ShapeError, match=r"^missing input view\(s\): sag$"):
            graph.predict_proba({"cor": np.zeros(shape, np.float32)})


def count_stage_calls(graph, monkeypatch):
    """Count calls of the slice encoder's bottleneck stages."""
    stages = graph.module.encoder.stages
    calls = []
    forward = stages.forward

    def counted(x, ctx):
        calls.append(x.shape[0])
        return forward(x, ctx)

    monkeypatch.setattr(stages, "forward", counted, raising=False)
    return calls


class TestChunkedEncoding:
    # toy stem output is 8 channels of 24x24 per slice
    SLICE_ELEMENTS = 8 * 24 * 24

    def test_chunks_equal_one_pass_bit_for_bit(self, monkeypatch):
        graph = build_model(toy_config("2d_trf"), seed=11)
        rng = np.random.default_rng(4)
        batch = rng.random((2, 8, 24, 24)).astype(np.float32)
        whole_feats = graph.module.encode_slices(batch).data
        whole_probs = graph.predict_proba(batch[0])
        monkeypatch.setattr(architectures, "CHUNK_ELEMENTS", 3 * self.SLICE_ELEMENTS)
        calls = count_stage_calls(graph, monkeypatch)
        chunked_feats = graph.module.encode_slices(batch).data
        assert calls == [3, 3, 3, 3, 3, 1]
        chunked_probs = graph.predict_proba(batch[0])
        assert calls[6:] == [3, 3, 2]
        assert np.array_equal(chunked_feats, whole_feats)
        assert np.array_equal(chunked_probs, whole_probs)

    def test_batch_within_budget_is_one_call(self, monkeypatch):
        graph = build_model(toy_config("2d_trf"), seed=12)
        calls = count_stage_calls(graph, monkeypatch)
        graph.predict_proba(np.zeros((16, 8, 24, 24), np.float32))
        assert calls == [16 * 8]

    def test_training_and_shape_pass_never_chunk(self, monkeypatch):
        cfg = toy_config("2d_trf")
        rng = np.random.default_rng(5)
        batch = rng.random((2, 8, 24, 24)).astype(np.float32)
        results = []
        for budget in (architectures.CHUNK_ELEMENTS, self.SLICE_ELEMENTS):
            monkeypatch.setattr(architectures, "CHUNK_ELEMENTS", budget)
            graph = build_model(cfg, seed=13)
            calls = count_stage_calls(graph, monkeypatch)
            out = graph.forward(batch, Ctx(training=True, rng=np.random.default_rng(0)))
            stats = {n: b.copy() for n, b in graph.module.named_buffers()}
            assert calls == [16]
            results.append((out.data, stats))
        (out_a, stats_a), (out_b, stats_b) = results
        assert np.array_equal(out_a, out_b)
        assert stats_a.keys() == stats_b.keys() and len(stats_a) > 0
        for name in stats_a:
            assert np.array_equal(stats_a[name], stats_b[name]), name
        graph = build_model(cfg, seed=13)
        calls = count_stage_calls(graph, monkeypatch)
        count_macs(graph)
        assert calls == [8]


class TestFoldedEvalEncoding:
    """Eval-mode encoding folds each bottleneck conv/norm pair once per
    encoder call, and gradients still reach every parameter."""

    @staticmethod
    def _graph(seed):
        graph = build_model(toy_config("2d_trf"), seed=seed)
        randomize_norms(graph.module, np.random.default_rng(seed))
        return graph

    def test_encoder_eval_grads_match_finite_differences(self, monkeypatch):
        from gradcheck import assert_grads_match
        from volformer.architectures import EncoderSpec, SliceEncoder
        from volformer.nn import ParamInit
        # one slice per chunk, so the folds are shared across chunks
        monkeypatch.setattr(architectures, "CHUNK_ELEMENTS", 4 * 8 * 8)
        spec = EncoderSpec(in_channels=1, stem_width=4, stage_widths=(2, 2),
                           blocks_per_stage=(1, 1), stem_kernel=3, stem_stride=1)
        # seeds at which no relu or max-pool kink lies within the
        # finite-difference step (at seed 3 one does, folded or not)
        encoder = SliceEncoder(spec, ParamInit(seed=4, dtype=np.float64))
        randomize_norms(encoder, np.random.default_rng(4))
        x = ag.tensor(np.random.default_rng(5).normal(size=(3, 1, 8, 8)), requires_grad=True)
        params = [p.tensor for _, p in encoder.named_parameters()]
        r = np.random.default_rng(6).normal(size=(3, encoder.out_dim))
        assert_grads_match(lambda: (encoder(x, Ctx(training=False)) * r).sum(), [x] + params)
        assert all(np.any(t.grad) for t in [x] + params)

    def test_fold_matches_unfolded_probabilities(self, monkeypatch):
        from volformer.nn import blocks
        graph = self._graph(21)
        x = np.random.default_rng(22).random((8, 24, 24)).astype(np.float32)
        folded = graph.predict_proba(x)
        monkeypatch.setattr(blocks, "conv_norm", lambda conv, norm, x, ctx: norm(conv(x, ctx), ctx))
        np.testing.assert_allclose(folded, graph.predict_proba(x), rtol=0, atol=1e-6)

    def test_each_pair_folds_once_per_encoder_call(self, monkeypatch):
        graph = self._graph(23)
        monkeypatch.setattr(architectures, "CHUNK_ELEMENTS", 3 * 8 * 24 * 24)
        weights = {id(p.tensor): n for n, p in graph.module.encoder.named_parameters()
                   if n.endswith("weight") and n != "stem.weight"}
        folds = []
        mul = ag.mul

        def spy(a, b):
            if id(a) in weights:
                folds.append(weights[id(a)])
            return mul(a, b)

        monkeypatch.setattr(ag, "mul", spy)
        calls = count_stage_calls(graph, monkeypatch)
        x = np.random.default_rng(24).random((8, 24, 24)).astype(np.float32)
        graph.predict_proba(x)
        assert calls == [3, 3, 2]
        assert sorted(folds) == sorted(weights.values()) and len(folds) == 8
        graph.predict_proba(x)  # the next call folds afresh
        assert len(folds) == 16
        graph.forward(x[None], Ctx(training=True, rng=np.random.default_rng(0)))
        count_macs(graph)
        assert len(folds) == 16  # training and the shape-only pass never fold


class TestAggregators:
    def test_zeroed_transformer_gives_constant_logits(self):
        graph = build_model(toy_config("2d_trf", slice_count=4), seed=7)
        agg = graph.module.aggregator
        for block in agg.blocks.items:
            block.attn.wo.weight.tensor.data[:] = 0.0
            block.attn.wo.bias.tensor.data[:] = 0.0
            block.fc2.weight.tensor.data[:] = 0.0
            block.fc2.bias.tensor.data[:] = 0.0
        rng = np.random.default_rng(3)
        l1 = agg({"sag": ag.tensor(rng.random((1, 4, 32), np.float32))}).data
        l2 = agg({"sag": ag.tensor(rng.random((1, 4, 32), np.float32))}).data
        np.testing.assert_allclose(l1, l2, atol=1e-6)
        assert l1.shape == (1, 3)

    def test_logits_always_length_three(self):
        feats = ag.tensor(np.zeros((1, 4, 32), np.float32))
        for fam in ("2d_trf", "2d_fc", "2d_bilstm"):
            agg = build_model(toy_config(fam, slice_count=4), seed=8).module.aggregator
            out = agg({"sag": feats})
            assert out.shape == (1, 3)

    def test_fc_flatten_is_slice_major(self):
        graph = build_model(toy_config("2d_fc", slice_count=3), seed=9)
        agg = graph.module.aggregator
        rng = np.random.default_rng(4)
        feats = rng.random((1, 3, 32)).astype(np.float32)
        w = agg.fc1.weight.tensor.data
        manual = feats.reshape(1, 3 * 32) @ w  # slice index varies slowest
        hidden = ag.matmul(ag.tensor(feats.reshape(1, 96)), agg.fc1.weight.tensor).data
        np.testing.assert_allclose(hidden, manual, rtol=1e-6)

    def test_bilstm_rejects_wrong_slice_count(self):
        graph = build_model(toy_config("2d_bilstm", slice_count=4), seed=10)
        with pytest.raises(ShapeError, match="built for 4 slices"):
            graph.module.aggregator({"sag": ag.tensor(np.zeros((1, 6, 32), np.float32))})

    def test_every_family_is_slicewise_or_volumetric(self):
        assert set(AGGREGATORS) | set(VOLUMETRIC_FAMILIES) == set(FAMILIES)
        assert not set(AGGREGATORS) & set(VOLUMETRIC_FAMILIES)

    @pytest.mark.parametrize("name", [n for n in TOY_PRESETS
                                      if preset_config(n).family in AGGREGATORS])
    def test_preset_aggregator_from_the_table_takes_view_dict(self, name):
        cfg = preset_config(name)
        agg = build_model(cfg, seed=12).module.aggregator
        assert type(agg) is AGGREGATORS[cfg.family]
        rng = np.random.default_rng(13)
        feats = {v: ag.tensor(rng.random((2, cfg.slice_count[v], cfg.encoder.feature_dim),
                                         np.float32)) for v in cfg.views}
        assert agg(feats).shape == (2, cfg.num_classes)

    def test_aggregate_requires_matching_kind(self):
        kinds = {"2d_trf": TransformerAggregator, "2d_fc": FcAggregator,
                 "2d_bilstm": BiLstmAggregator}
        for fam, kind in kinds.items():
            graph = build_model(toy_config(fam, slice_count=4), seed=11)
            assert type(graph.module.aggregator) is kind


class TestMultiview:
    def test_missing_view_named_in_error(self):
        graph = build_model(toy_config("2d_trf_multiview_shared", slice_count=4), seed=12)
        x = np.zeros((4, 24, 24), np.float32)
        with pytest.raises(ShapeError, match="ax"):
            graph.forward({"sag": x, "cor": x})

    def test_shared_encoder_identical_tokens_before_view_embedding(self):
        graph = build_model(toy_config("2d_trf_multiview_shared", slice_count=4), seed=13)
        rng = np.random.default_rng(5)
        x = rng.random((4, 24, 24)).astype(np.float32)
        model = graph.module
        agg = model.aggregator
        with ag.no_grad():
            tokens = {v: agg.proj(model.encode_slices(np.reshape(x, (1, 4, 24, 24)), v)).data
                      for v in graph.config.views}
        np.testing.assert_array_equal(tokens["sag"], tokens["cor"])
        np.testing.assert_array_equal(tokens["sag"], tokens["ax"])

    def test_individual_adds_exactly_two_encoders(self):
        shared = build_model(toy_config("2d_trf_multiview_shared", slice_count=4), seed=14)
        individual = build_model(toy_config("2d_trf_multiview_individual", slice_count=4), seed=14)
        enc_params = sum(p.size for _, p in
                         individual.module.encoder_sag.named_parameters())
        assert individual.param_count() - shared.param_count() == 2 * enc_params

    def test_forward_shape(self):
        graph = build_model(toy_config("2d_trf_multiview_individual", slice_count=4), seed=15)
        x = np.random.default_rng(6).random((2, 4, 24, 24)).astype(np.float32)
        logits = graph.forward({v: x for v in ("sag", "cor", "ax")})
        assert logits.shape == (2, 3)


class TestPermutationProperty:
    def _logits(self, graph, slices):
        with ag.no_grad():
            return graph.forward(ag.tensor(slices)).data

    def test_simultaneous_permutation_invariance_and_slice_only_variance(self):
        cfg = toy_config("2d_trf", slice_count=6)
        cfg.aggregator.dropout = 0.0
        graph = build_model(cfg, seed=16, dtype=np.float64)
        rng = np.random.default_rng(7)
        slices = rng.random((6, 24, 24))
        perm = rng.permutation(6)
        base = self._logits(graph, slices)

        # slice permutation alone changes the logits (positional embeddings pin order)
        permuted_only = self._logits(graph, slices[perm])
        assert not np.allclose(permuted_only, base, atol=1e-10)

        # permuting slices together with their positional rows is invariant
        pos = graph.module.aggregator.pos.tensor
        saved = pos.data.copy()
        pos.data[1:] = saved[1:][perm]
        permuted_both = self._logits(graph, slices[perm])
        pos.data[:] = saved
        np.testing.assert_allclose(permuted_both, base, atol=1e-10)


class TestWeightsFileInit:
    def test_partial_load_keeps_remaining_random(self, tmp_path):
        cfg = toy_config("2d_trf", slice_count=4)
        donor = build_model(cfg, seed=20)
        state = donor.state_dict()
        head_keys = [k for k in state if k.startswith("aggregator.head.")]
        partial = {k: state[k] for k in head_keys}
        ckpt = tmp_path / "donor.vfwt"
        save_checkpoint(ckpt, partial)

        cfg2 = toy_config("2d_trf", slice_count=4)
        cfg2.init_mode = "weights_file"
        cfg2.weights_file = str(ckpt)
        loaded = build_model(cfg2, seed=21)
        fresh = build_model(toy_config("2d_trf", slice_count=4), seed=21)
        for k in head_keys:
            np.testing.assert_allclose(loaded.state_dict()[k], partial[k], atol=1e-7)
        stem = "encoder.stem.weight"
        np.testing.assert_array_equal(loaded.state_dict()[stem], fresh.state_dict()[stem])

    def test_shape_mismatch_lists_offending_tensors(self, tmp_path):
        cfg = toy_config("2d_trf", slice_count=4)
        ckpt = tmp_path / "bad.vfwt"
        save_checkpoint(ckpt, {"encoder.stem.weight": np.zeros((2, 2), np.float32),
                               "aggregator.head.bias": np.zeros(7, np.float32)})
        cfg.init_mode = "weights_file"
        cfg.weights_file = str(ckpt)
        with pytest.raises(CheckpointError) as err:
            build_model(cfg)
        assert "encoder.stem.weight" in str(err.value)
        assert "aggregator.head.bias" in str(err.value)


class TestVolumetricFamilies:
    @pytest.mark.parametrize("family", ["conv3d", "conv2plus1d"])
    def test_builds_and_runs(self, family):
        graph = build_model(toy_volumetric_config(family, dims=(8, 16, 16)), seed=22)
        probs = graph.predict_proba(np.random.default_rng(8).random((8, 16, 16), np.float32))
        assert probs.shape == (3,)
        assert probs.sum() == pytest.approx(1.0, abs=1e-6)

    def test_no_slicewise_encoder(self):
        graph = build_model(toy_volumetric_config("conv3d", dims=(8, 16, 16)), seed=23)
        assert not isinstance(graph.module, SlicewiseModel)
        assert not hasattr(graph.module, "encode_slices")


class TestResnet50:
    def test_canonical_parameter_count(self):
        assert resnet50().param_count() == 25_557_032


class TestModelConfigFile:
    def test_round_trip(self):
        cfg = full_scale_config("2d_trf_multiview_individual")
        text = format_model_config(cfg)
        back = parse_model_config(text)
        assert back == cfg

    def test_unknown_key_is_hard_error(self):
        with pytest.raises(ConfigError, match="unknown config key 'learning_rate'"):
            parse_model_config("family = 2d_trf\nlearning_rate = 3\n")

    def test_bad_value_reports_line(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_model_config("family = 2d_trf\nagg.heads = eight\n")

    def test_comments_and_blanks_ignored(self):
        cfg = parse_model_config(
            "# toy\nfamily = 2d_fc\nviews = sag\n\nslice_count = 4 # four\n"
            "slice_shape = 24x24\nencoder.in_channels = 1\n")
        assert cfg.family == "2d_fc"
        assert cfg.slice_count == {"sag": 4}

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_model_config(tmp_path / "nope.cfg")

    def test_per_view_overrides(self):
        cfg = parse_model_config(
            "family = 2d_trf_multiview_shared\nviews = sag,cor,ax\n"
            "slice_count = 8\nslice_shape = 24x24\n"
            "slice_count.cor = 16\nslice_shape.cor = 24x12\n"
            "encoder.in_channels = 1\nagg.model_dim = 32\nagg.heads = 4\n")
        assert cfg.slice_count == {"sag": 8, "cor": 16, "ax": 8}
        assert cfg.slice_shape["cor"] == (24, 12)

    def test_per_view_line_before_bare_line_still_wins(self):
        cfg = parse_model_config(
            "family = 2d_trf_multiview_shared\nviews = sag,cor\nslice_count.cor = 16\n"
            "slice_count = 8\nslice_shape = 24x24\nencoder.in_channels = 1\n")
        assert cfg.slice_count == {"sag": 8, "cor": 16}

    def test_per_view_key_for_absent_view_names_line(self):
        with pytest.raises(ConfigError, match="line 4: slice_count.cor .*views = sag"):
            parse_model_config("family = 2d_trf\nviews = sag\nslice_count = 4\n"
                               "slice_count.cor = 3\nslice_shape = 24x24\n")

    @pytest.mark.parametrize("line", [
        "slice_count = abc", "slice_count.sag = abc", "agg.heads = 0",
        "encoder.stem_stride = 0", "encoder.stem_kernel = 0", "agg.blocks = -1",
        "agg.dropout = nan", "encoder.stage_widths = 4,0", "encoder.stem_pool = maybe",
        "slice_shape = 24x24x24", "views",
    ])
    def test_bad_line_is_config_error_naming_it(self, line):
        with pytest.raises(ConfigError, match=f"cfg line 2: .*{line.split(' ')[0]}"):
            parse_model_config(f"family = 2d_trf\n{line}\nencoder.in_channels = 1\n", "cfg")

    def test_invalid_combination_names_source(self):
        with pytest.raises(ConfigError, match="run.cfg: model_dim 32 not divisible by heads 3"):
            parse_model_config("agg.model_dim = 32\nagg.heads = 3\n", "run.cfg")

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_every_preset_round_trips(self, name):
        cfg = preset_config(name)
        assert parse_model_config(format_model_config(cfg)) == cfg


_NAME = string.ascii_letters + string.digits + "_-./:"
_VALUES = {
    kd.POS_INT: st.integers(1, 2**63),
    kd.NONNEG_INT: st.integers(0, 2**63),
    kd.FLOAT: st.floats(allow_nan=False, allow_infinity=False),
    kd.BOOL: st.booleans(),
    kd.INT_LIST: st.lists(st.integers(1, 10**6), min_size=1, max_size=5).map(tuple),
    kd.DIMS: st.tuples(*[st.integers(1, 10**4)] * 3),
    kd.SHAPE: st.tuples(*[st.integers(1, 10**4)] * 2),
    kd.STR: st.text(_NAME + " =,", max_size=20).map(str.strip),
    kd.PATH: st.text(_NAME, max_size=20),
    kd.NAMES: st.lists(st.text(_NAME, min_size=1, max_size=8), min_size=1, max_size=3).map(tuple),
}


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_table_values_round_trip_through_the_reader(data):
    table = data.draw(st.sampled_from([mc.MODEL_KEYS, EXPERIMENT_KEYS]))
    key = data.draw(st.sampled_from(sorted(table)))
    kind = table[key][0]
    value = data.draw(_VALUES[kind])
    text = f"# header\n\n  {key} =  {kind.format(value)}  # trailing\n"
    assert kd.read_config(text, table, "t") == {key: (value, 3)}
