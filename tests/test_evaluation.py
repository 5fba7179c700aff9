import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from volformer.errors import ConfigError, UsageError
from volformer.evaluation import (
    PredictionSet,
    average_precision,
    balanced_accuracy_and_confusion,
    bootstrap_spread,
    ensemble_predict,
    evaluate_predictions,
    export_curves,
    pool_progression,
    pr_curve_points,
    roc_auc,
    roc_curve_points,
)


def ap_oracle(scores, labels):
    """Brute force: evaluate precision/recall at every distinct threshold."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=int)
    ap, prev_recall = 0.0, 0.0
    for t in sorted(set(scores), reverse=True):
        predicted = scores >= t
        tp = int((predicted & (labels == 1)).sum())
        recall = tp / labels.sum()
        precision = tp / predicted.sum()
        ap += (recall - prev_recall) * precision
        prev_recall = recall
    return ap


def auc_oracle(scores, labels):
    """All-pairs count with half credit for ties."""
    pos = [s for s, l in zip(scores, labels) if l == 1]
    neg = [s for s, l in zip(scores, labels) if l == 0]
    wins = sum((p > n) + 0.5 * (p == n) for p in pos for n in neg)
    return wins / (len(pos) * len(neg))


class TestPoolProgression:
    def test_pure_none(self):
        assert pool_progression([1.0, 0.0, 0.0]) == 0.0

    def test_sum_of_progressor_classes(self):
        assert pool_progression([0.2, 0.3, 0.5]) == pytest.approx(0.8)

    def test_complement_of_none(self):
        rng = np.random.default_rng(0)
        raw = rng.random((50, 3))
        probs = raw / raw.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(pool_progression(probs) + probs[:, 0], 1.0, atol=1e-9)


class TestAveragePrecision:
    def test_hand_case(self):
        ap = average_precision([0.9, 0.8, 0.7, 0.6], [1, 0, 1, 0])
        assert ap == pytest.approx(0.5 + 1.0 / 3.0, abs=1e-12)

    def test_perfect_ranking(self):
        assert average_precision([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0

    def test_single_class_rejected(self):
        with pytest.raises(UsageError, match="one class"):
            average_precision([0.5, 0.6], [1, 1])

    def test_exhaustive_oracle_small_n(self):
        rng = np.random.default_rng(1)
        for n in range(2, 9):
            for labels in itertools.product([0, 1], repeat=n):
                if 0 < sum(labels) < n:
                    for draw in range(2):
                        # small alphabet forces score ties
                        scores = rng.integers(0, 4, n) / 4.0
                        expected = ap_oracle(scores, labels)
                        got = average_precision(scores, np.array(labels))
                        assert got == pytest.approx(expected, abs=1e-12)

    def test_random_scores_converge_to_prevalence(self):
        rng = np.random.default_rng(2)
        prevalence = 0.26
        n = 5000
        aps = []
        for _ in range(30):
            labels = (rng.random(n) < prevalence).astype(int)
            aps.append(average_precision(rng.random(n), labels))
        assert abs(np.mean(aps) - prevalence) < 0.02


class TestRocAuc:
    def test_hand_case(self):
        assert roc_auc([0.9, 0.8, 0.7, 0.6], [1, 0, 1, 0]) == pytest.approx(0.75)

    def test_perfect_separation(self):
        assert roc_auc([3.0, 2.0, 0.5, 0.1], [1, 1, 0, 0]) == 1.0

    def test_pair_count_oracle_with_ties(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(3, 12))
            labels = rng.integers(0, 2, n)
            if labels.min() == labels.max():
                continue
            scores = rng.integers(0, 5, n) / 5.0
            assert roc_auc(scores, labels) == pytest.approx(
                auc_oracle(scores, labels), abs=1e-12)

    def test_tie_heavy_scores_match_pair_count(self):
        assert roc_auc(np.full(9, 0.3), [1, 0] * 4 + [1]) == 0.5
        rng = np.random.default_rng(5)
        for levels in (1, 2, 3, 7):
            labels = rng.integers(0, 2, 200)
            scores = rng.integers(0, levels, 200) / 7.0
            assert roc_auc(scores, labels) == pytest.approx(
                auc_oracle(scores, labels), abs=1e-12)

    def test_trapezoid_equals_pair_count(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            scores = rng.random(40)
            labels = rng.integers(0, 2, 40)
            if labels.min() == labels.max():
                continue
            pts = roc_curve_points(scores, labels)
            fpr = np.array([p[1] for p in pts])
            tpr = np.array([p[2] for p in pts])
            area = np.trapezoid(tpr, fpr)
            assert area == pytest.approx(roc_auc(scores, labels), abs=1e-12)


class TestMonotoneInvariance:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 20 - 1), st.sampled_from(["affine", "exp", "cube"]))
    def test_ap_auc_invariant_under_monotone_transforms(self, seed, kind):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 30))
        scores = rng.normal(size=n)
        labels = rng.integers(0, 2, n)
        if labels.min() == labels.max():
            return
        if kind == "affine":
            transformed = 3.0 * scores + 11.0
        elif kind == "exp":
            transformed = np.exp(scores)
        else:
            transformed = scores ** 3
        assert average_precision(scores, labels) == pytest.approx(
            average_precision(transformed, labels), abs=1e-12)
        assert roc_auc(scores, labels) == pytest.approx(
            roc_auc(transformed, labels), abs=1e-12)


class TestBalancedAccuracy:
    def test_identity_predictions(self):
        labels = np.array([0, 0, 1, 1, 2, 2])
        bacc, matrix = balanced_accuracy_and_confusion(labels, labels)
        assert bacc == 1.0
        np.testing.assert_array_equal(matrix, np.diag([2, 2, 2]))

    def test_constant_prediction(self):
        labels = np.array([0, 0, 1, 1, 2, 2])
        bacc, _ = balanced_accuracy_and_confusion(np.zeros(6, int), labels)
        assert bacc == pytest.approx(1.0 / 3.0)

    def test_hand_counted_case(self):
        labels = np.array([0, 0, 0, 1, 1, 2, 2, 2, 2])
        preds = np.array([0, 1, 0, 1, 2, 2, 2, 0, 2])
        bacc, matrix = balanced_accuracy_and_confusion(preds, labels)
        np.testing.assert_array_equal(matrix, [[2, 1, 0], [0, 1, 1], [1, 0, 3]])
        assert matrix.sum(axis=1).tolist() == [3, 2, 4]  # rows = true classes
        assert bacc == pytest.approx((2 / 3 + 1 / 2 + 3 / 4) / 3)


class _StubGraph:
    """Duck-typed model: fixed probability rows, enough surface for ensembling."""

    def __init__(self, probs, views=("sag",)):
        self._probs = np.asarray(probs, dtype=np.float64)

        class _Cfg:
            pass

        self.config = _Cfg()
        self.config.views = views
        self.config.num_classes = 3
        self.config.family = "2d_trf"

    def predict_proba(self, inputs):
        n = inputs.shape[0] if hasattr(inputs, "shape") else len(inputs)
        return np.tile(self._probs, (n, 1))[:n]


def stub_samples(n=(2)):
    from volformer.training import SampleSet
    return SampleSet(knee_ids=[f"K{i}_L" for i in range(n)],
                     labels=np.array([0, 1] * (n // 2) + [0] * (n % 2)),
                     slices={"sag": np.zeros((n, 1, 2, 2), np.uint8)})


class TestEnsemble:
    def test_single_model_identity(self):
        pred = ensemble_predict([_StubGraph([0.5, 0.25, 0.25])], stub_samples(2))
        np.testing.assert_allclose(pred.probs, [[0.5, 0.25, 0.25]] * 2)

    def test_identical_models_equal_one(self):
        one = ensemble_predict([_StubGraph([0.6, 0.3, 0.1])], stub_samples(2))
        five = ensemble_predict([_StubGraph([0.6, 0.3, 0.1])] * 5, stub_samples(2))
        np.testing.assert_allclose(five.probs, one.probs)

    def test_mean_of_two_models(self):
        pred = ensemble_predict(
            [_StubGraph([1.0, 0.0, 0.0]), _StubGraph([0.0, 1.0, 0.0])], stub_samples(2))
        np.testing.assert_allclose(pred.probs, [[0.5, 0.5, 0.0]] * 2)

    def test_empty_ensemble_rejected(self):
        with pytest.raises(ConfigError):
            ensemble_predict([], stub_samples(2))


class TestBootstrapSpread:
    def test_perfectly_separated_metric_has_zero_std(self):
        scores = np.array([1.0] * 10 + [0.0] * 10)
        labels = np.array([1] * 10 + [0] * 10)
        mean, std = bootstrap_spread(average_precision, scores, labels, n_boot=200, seed=0)
        assert mean == 1.0
        assert std == 0.0

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(5)
        scores, labels = rng.random(60), rng.integers(0, 2, 60)
        a = bootstrap_spread(average_precision, scores, labels, n_boot=150, seed=9)
        b = bootstrap_spread(average_precision, scores, labels, n_boot=150, seed=9)
        assert a == b

    def test_spread_shrinks_with_sample_size(self):
        rng = np.random.default_rng(6)
        stds = {}
        for n in (250, 1000, 4000):
            labels = (rng.random(n) < 0.3).astype(int)
            scores = labels * 0.4 + rng.random(n)  # weak signal
            _, stds[n] = bootstrap_spread(roc_auc, scores, labels, n_boot=300, seed=1)
        assert stds[250] > stds[1000] > stds[4000]
        ratio = stds[250] / stds[4000]
        assert 2.0 < ratio < 8.0  # ~sqrt(16) = 4 expected

    def test_n_boot_floor(self):
        with pytest.raises(ConfigError):
            bootstrap_spread(average_precision, np.ones(4), np.array([0, 1, 0, 1]),
                             n_boot=10, seed=0)


class TestCurveExport:
    def test_perfect_classifier_roc_points(self, tmp_path):
        pred = PredictionSet(
            knee_ids=["a", "b", "c", "d"],
            probs=np.array([[0.9, 0.05, 0.05], [0.8, 0.1, 0.1],
                            [0.1, 0.5, 0.4], [0.2, 0.3, 0.5]]),
            labels=np.array([0, 0, 1, 2]))
        pts = roc_curve_points(pred.pooled, pred.binary_labels)
        xy = [(p[1], p[2]) for p in pts]
        assert xy[0] == (0.0, 0.0)
        assert (0.0, 1.0) in xy
        assert xy[-1] == (1.0, 1.0)
        paths = export_curves(pred, tmp_path)
        assert paths["roc"].exists() and paths["pr"].exists() and paths["confusion"].exists()
        header = paths["roc"].read_text().splitlines()[0]
        assert header == "threshold,fpr,tpr"

    def test_pr_first_point_uses_top_group_precision(self):
        scores = np.array([0.9, 0.8, 0.7])
        labels = np.array([0, 1, 1])
        pts = pr_curve_points(scores, labels)
        assert pts[0][1] == 0.0  # recall anchor
        assert pts[0][2] == 0.0  # top-ranked item is a negative
        assert pts[1][2] == pytest.approx(0.0)

    def test_points_sorted_by_threshold_descending(self):
        rng = np.random.default_rng(7)
        scores, labels = rng.random(30), rng.integers(0, 2, 30)
        for pts in (roc_curve_points(scores, labels), pr_curve_points(scores, labels)):
            ths = [p[0] for p in pts]
            assert all(a >= b for a, b in zip(ths, ths[1:]))

    def test_exported_roc_area_matches_auc_without_ties(self, tmp_path):
        rng = np.random.default_rng(8)
        probs = rng.random((40, 3)) + 1e-3
        probs /= probs.sum(axis=1, keepdims=True)
        pred = PredictionSet(knee_ids=[str(i) for i in range(40)], probs=probs,
                             labels=rng.integers(0, 3, 40))
        pts = roc_curve_points(pred.pooled, pred.binary_labels)
        area = np.trapezoid([p[2] for p in pts], [p[1] for p in pts])
        assert area == pytest.approx(roc_auc(pred.pooled, pred.binary_labels), abs=1e-9)


class TestEvaluatePredictions:
    def test_report_fields_and_pooled_ordering_equivalence(self):
        rng = np.random.default_rng(9)
        raw = rng.random((80, 3))
        probs = raw / raw.sum(axis=1, keepdims=True)
        labels = rng.integers(0, 3, 80)
        pred = PredictionSet(knee_ids=[str(i) for i in range(80)], probs=probs, labels=labels)
        report = evaluate_predictions(pred, n_boot=150, seed=0)
        assert 0 <= report.ap <= 1 and 0 <= report.roc_auc <= 1
        assert report.metadata["spread_method"] == "bootstrap(assumption)"
        assert np.array(report.confusion).sum() == 80
        # pooled ordering is the complement of p_none: identical metrics
        binary = pred.binary_labels
        assert average_precision(1 - probs[:, 0], binary) == pytest.approx(
            average_precision(pred.pooled, binary), abs=1e-12)
        assert roc_auc(1 - probs[:, 0], binary) == pytest.approx(
            roc_auc(pred.pooled, binary), abs=1e-12)

    def test_probability_rows_must_sum_to_one(self):
        with pytest.raises(ConfigError):
            PredictionSet(knee_ids=["a"], probs=np.array([[0.5, 0.2, 0.2]]),
                          labels=np.array([0]))
