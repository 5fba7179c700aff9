import numpy as np
import pytest

from volformer import autograd as ag
from volformer.architectures import build_model
from volformer.checkpoint import load_checkpoint, save_checkpoint
from volformer.errors import ConfigError, DivergenceError
from volformer.presets import toy_config
from volformer.training import (
    AdamState,
    FoldData,
    SampleSet,
    TrainConfig,
    PROB_FLOOR,
    adam_step,
    focal_loss,
    history_to_csv,
    lr_schedule,
    predict_proba_batched,
    train_fold,
)
from volformer.volume import IDENTITY_POLICY, AugmentPolicy

from gradcheck import assert_grads_match


class TestFocalLoss:
    def test_gamma_zero_equals_cross_entropy(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(16, 3))
        probs = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        targets = rng.integers(0, 3, 16)
        ce = -np.log(probs[np.arange(16), targets]).mean()
        loss = focal_loss(ag.tensor(probs), targets, gamma=0.0)
        assert abs(loss.item() - ce) < 1e-12

    def test_hand_value(self):
        probs = ag.tensor([[0.05, 0.05, 0.90]])
        loss = focal_loss(probs, [2], gamma=2.0)
        assert loss.item() == pytest.approx(0.01 * -np.log(0.9), rel=1e-9)
        assert loss.item() == pytest.approx(1.0536e-3, rel=1e-3)

    def test_perfect_prediction_zero_loss(self):
        loss = focal_loss(ag.tensor([[0.0, 1.0, 0.0]]), [1], gamma=2.0)
        assert loss.item() == 0.0

    def test_zero_probability_clamped_and_counted(self):
        # the count is per epoch, in train_fold's history (TestTrainFold)
        probs = ag.tensor([[1.0, 0.0, 0.0]], requires_grad=True)
        loss = focal_loss(probs, [2], gamma=2.0)
        assert loss.item() == pytest.approx((1.0 - PROB_FLOOR) ** 2 * -np.log(PROB_FLOOR))
        ag.backward(loss)
        np.testing.assert_array_equal(probs.grad, 0.0)

    @pytest.mark.parametrize("seed", range(20))
    def test_gradient_through_softmax_matches_fd(self, seed):
        rng = np.random.default_rng(1000 + seed)
        logits = ag.tensor(rng.normal(size=(4, 3)), requires_grad=True)
        targets = rng.integers(0, 3, 4)

        def loss():
            return focal_loss(ag.softmax(logits, axis=-1), targets, gamma=2.0)

        assert_grads_match(loss, [logits])

    def test_shape_validation(self):
        with pytest.raises(ConfigError):
            focal_loss(ag.tensor([0.5, 0.5]), [0])


class TestLrSchedule:
    CFG = TrainConfig()

    def test_epoch_zero_is_lr_start(self):
        assert lr_schedule(0, self.CFG) == 1e-5

    def test_epoch_two_interpolates(self):
        assert lr_schedule(2, self.CFG) == pytest.approx(4.6e-5, rel=1e-12)

    def test_plateau_after_warmup(self):
        assert all(lr_schedule(e, self.CFG) == 1e-4 for e in range(5, 100))

    def test_non_decreasing(self):
        rates = [lr_schedule(e, self.CFG) for e in range(100)]
        assert all(b >= a for a, b in zip(rates, rates[1:]))

    def test_out_of_range_rejected(self):
        with pytest.raises(ConfigError):
            lr_schedule(100, self.CFG)

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigError):
            TrainConfig(warmup_epochs=100, epochs=100).validate()
        with pytest.raises(ConfigError):
            TrainConfig(lr_main=0.0).validate()

    def test_invalid_augment_policy_rejected_up_front(self):
        # checked with the rest of the config, not at the first augment call
        with pytest.raises(ConfigError, match="gamma_range"):
            TrainConfig(augment_policy=AugmentPolicy(gamma_range=(0.0, 1.0))).validate()

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("name", ["lr_start", "lr_main", "weight_decay", "focal_gamma"])
    def test_non_finite_config_rejected(self, name, value):
        with pytest.raises(ConfigError, match=f"{name} must be finite"):
            TrainConfig(**{name: value}).validate()


class TestAdamStep:
    def test_first_step_is_minus_lr(self):
        p = ag.tensor(np.zeros(1), requires_grad=True)
        p.grad = np.ones(1)
        state = AdamState()
        adam_step([("p", p)], state, lr=1e-3)
        assert p.data[0] == pytest.approx(-1e-3, rel=1e-6)

    def test_zero_grads_leave_params_unchanged(self):
        p = ag.tensor([1.5, -2.0], requires_grad=True)
        p.grad = np.zeros(2)
        adam_step([("p", p)], AdamState(), lr=1e-3, weight_decay=0.0)
        np.testing.assert_array_equal(p.data, [1.5, -2.0])

    def test_weight_decay_only_scales(self):
        p = ag.tensor([2.0], requires_grad=True)
        state = AdamState()
        lr, wd = 1e-2, 1e-1
        expected = 2.0
        for _ in range(3):
            p.grad = np.zeros(1)
            adam_step([("p", p)], state, lr=lr, weight_decay=wd)
            expected *= 1 - lr * wd
        assert p.data[0] == pytest.approx(expected, rel=1e-12)

    def test_nan_gradient_names_tensor(self):
        p = ag.tensor([1.0], requires_grad=True)
        p.grad = np.array([np.nan])
        with pytest.raises(DivergenceError, match="encoder.stem.weight"):
            adam_step([("encoder.stem.weight", p)], AdamState(), lr=1e-3)

    def test_none_grad_skipped(self):
        p = ag.tensor([1.0], requires_grad=True)
        adam_step([("p", p)], AdamState(), lr=1e-3)
        assert p.data[0] == 1.0


def tiny_fold_data(seed=0, n=24, k=4, hw=(16, 16)):
    """Separable two-blob data: class decided by a bright band's thickness."""
    rng = np.random.default_rng(seed)
    labels = np.array([i % 3 for i in range(n)])
    slices = np.zeros((n, k, *hw), dtype=np.uint8)
    for i, cls in enumerate(labels):
        thickness = (6 - 2 * cls)
        row = hw[0] // 2 + int(rng.integers(-2, 3))
        stack = rng.integers(0, 40, (k, *hw))
        stack[:, row - thickness // 2: row + (thickness + 1) // 2, :] += 180
        slices[i] = np.clip(stack, 0, 255)
    ids = [f"K{i:03d}_L" for i in range(n)]
    samples = SampleSet(knee_ids=ids, labels=labels, slices={"sag": slices})
    return FoldData(train=samples, val=samples)


class TestTrainFold:
    def _cfg(self, epochs=6):
        return TrainConfig(epochs=epochs, warmup_epochs=2, batch_size=8, seed=5,
                           augment_policy=IDENTITY_POLICY)

    def test_deterministic_replay(self):
        model_cfg = toy_config("2d_trf", slice_count=4, slice_shape=(16, 16))
        data = tiny_fold_data()
        _, hist_a, _ = train_fold(model_cfg, data, 0, self._cfg(epochs=3))
        _, hist_b, _ = train_fold(model_cfg, data, 0, self._cfg(epochs=3))
        for a, b in zip(hist_a, hist_b):
            assert abs(a.train_loss - b.train_loss) < 1e-6
            assert abs(a.val_ap - b.val_ap) < 1e-6
            assert a.lr == b.lr

    def test_snapshot_is_argmax_of_validation_ap(self):
        model_cfg = toy_config("2d_trf", slice_count=4, slice_shape=(16, 16))
        snapshot, history, _ = train_fold(model_cfg, tiny_fold_data(), 0, self._cfg())
        aps = [h.val_ap for h in history]
        assert snapshot.val_ap == max(aps)
        assert aps[snapshot.epoch] == snapshot.val_ap
        assert snapshot.epoch == int(np.argmax(aps))

    def test_saved_snapshot_predicts_the_same_bits(self, tmp_path):
        # the checkpoint written is the model whose validation AP chose it:
        # every parameter and BatchNorm buffer survives the float32 file
        model_cfg = toy_config("2d_trf", slice_count=4, slice_shape=(16, 16))
        data = tiny_fold_data()
        snapshot, _, _ = train_fold(model_cfg, data, 0, self._cfg(epochs=3))
        save_checkpoint(tmp_path / "fold.vfwt", snapshot.state)
        probs = []
        for state in (snapshot.state, load_checkpoint(tmp_path / "fold.vfwt")):
            graph = build_model(model_cfg, seed=1)
            graph.module.load_state_dict(state)
            probs.append(predict_proba_batched(graph, data.val))
        assert probs[0].tobytes() == probs[1].tobytes()

    def test_history_schema(self):
        model_cfg = toy_config("2d_fc", slice_count=4, slice_shape=(16, 16))
        _, history, _ = train_fold(model_cfg, tiny_fold_data(), 0, self._cfg(epochs=3))
        assert [h.epoch for h in history] == [0, 1, 2]
        assert history[0].lr == 1e-5
        assert all(np.isfinite(h.train_loss) for h in history)

    def test_forced_zero_probability_is_counted_in_history(self, monkeypatch, tmp_path):
        softmax = ag.softmax

        def no_class_two(logits, axis=-1):
            # training batches only: predict_proba runs without a graph
            probs = softmax(logits, axis)
            return probs * np.array([1.0, 1.0, 0.0], probs.dtype) if logits.requires_grad else probs

        monkeypatch.setattr(ag, "softmax", no_class_two)
        model_cfg = toy_config("2d_fc", slice_count=4, slice_shape=(16, 16))
        _, history, _ = train_fold(model_cfg, tiny_fold_data(), 0, self._cfg(epochs=3))
        # an epoch resamples each class to the majority count, 8 samples of class 2
        assert [h.focal_clamps for h in history] == [8, 8, 8]
        assert all(np.isfinite(h.train_loss) for h in history)
        history_to_csv(history, tmp_path / "history.csv")
        lines = (tmp_path / "history.csv").read_text().splitlines()
        assert lines[0].endswith(",focal_clamps")
        assert [line.rsplit(",", 1)[1] for line in lines[1:]] == ["8", "8", "8"]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_raises(self):
        model_cfg = toy_config("2d_trf", slice_count=4, slice_shape=(16, 16))
        bad = TrainConfig(epochs=4, warmup_epochs=1, lr_start=1e20, lr_main=1e30,
                          batch_size=8, seed=1, augment_policy=IDENTITY_POLICY)
        with pytest.raises(DivergenceError):
            train_fold(model_cfg, tiny_fold_data(), 0, bad)
