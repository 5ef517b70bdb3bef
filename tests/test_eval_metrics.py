"""Metric registry unit tests: values, edge cases, shims."""

import numpy as np
import pytest

from repro.eval.metrics import (
    METRICS,
    batched_accuracy,
    compute_per_sample,
    aggregate,
    hotspot_iou,
    hotspot_precision,
    hotspot_recall,
    metric_suite,
    nrms,
    pixel_mae,
    pixel_rmse,
    roc_auc,
    roc_curve,
    ssim,
    utilization_map,
)
from repro.gan.metrics import per_pixel_accuracy
from repro.viz.colors import utilization_to_rgb


def heatmap(utilization: np.ndarray) -> np.ndarray:
    """(3, H, W) image painting a (H, W) utilization map on the gradient."""
    return np.moveaxis(utilization_to_rgb(utilization), -1, 0)


def rand_pair(seed=0, n=4, size=8):
    rng = np.random.default_rng(seed)
    return rng.random((n, 3, size, size)), rng.random((n, 3, size, size))


class TestPixelErrors:
    def test_mae_rmse_known_values(self):
        target = np.zeros((3, 4, 4))
        pred = np.full((3, 4, 4), 0.25)
        assert pixel_mae(pred, target) == pytest.approx(0.25)
        assert pixel_rmse(pred, target) == pytest.approx(0.25)

    def test_zero_for_identical(self):
        pred, _ = rand_pair()
        assert np.all(pixel_mae(pred, pred) == 0.0)
        assert np.all(pixel_rmse(pred, pred) == 0.0)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            pixel_mae(np.zeros((3, 4, 4)), np.zeros((3, 5, 5)))

    def test_bad_rank_raises(self):
        with pytest.raises(ValueError, match="expected"):
            pixel_mae(np.zeros((4, 4)), np.zeros((4, 4)))


class TestNrms:
    def test_normalized_by_target_range(self):
        target = np.zeros((1, 3, 4, 4))
        target[0, :, 0, 0] = 0.5          # range = 0.5
        pred = target + 0.1
        expected = 0.1 / 0.5
        assert nrms(pred, target)[0] == pytest.approx(expected)

    def test_zero_variance_target_is_defined(self):
        """Regression: a flat target used to make the normalizer 0/0."""
        target = np.full((3, 4, 4), 0.5)
        value = nrms(target + 0.25, target)
        assert np.isfinite(value)
        assert value == pytest.approx(0.25)   # falls back to raw RMS

    def test_perfect_flat_prediction_is_zero(self):
        target = np.full((3, 4, 4), 0.5)
        assert nrms(target, target) == 0.0


class TestAccuracy:
    def test_matches_paper_metric_per_sample(self):
        pred, target = rand_pair(seed=3)
        batched = batched_accuracy(pred, target)
        for i in range(pred.shape[0]):
            expected = per_pixel_accuracy(
                pred[i].astype(np.float32), target[i].astype(np.float32))
            assert batched[i] == pytest.approx(expected, abs=1e-7)

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValueError):
            batched_accuracy(np.zeros((3, 2, 2)), np.zeros((3, 2, 2)),
                             tolerance=-0.1)


class TestSsim:
    def test_identical_images_score_one(self):
        pred, _ = rand_pair(seed=1)
        np.testing.assert_allclose(ssim(pred, pred), 1.0, atol=1e-9)

    def test_bounded_and_discriminative(self):
        pred, target = rand_pair(seed=2)
        values = ssim(pred, target)
        assert np.all(values <= 1.0)
        assert np.all(values < 0.9)   # random pairs are dissimilar

    def test_window_shrinks_to_image(self):
        tiny = np.random.default_rng(0).random((1, 3, 3, 3))
        assert np.isfinite(ssim(tiny, tiny * 0.5)).all()

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError):
            ssim(np.zeros((3, 4, 4)), np.zeros((3, 4, 4)), window=0)


class TestHotspots:
    def test_decode_roundtrip(self):
        u = np.random.default_rng(0).random((6, 6))
        np.testing.assert_allclose(utilization_map(heatmap(u)), u,
                                   atol=1e-6)

    def test_known_counts(self):
        true_u = np.zeros((4, 4))
        true_u[:2, :] = 0.9               # 8 hot pixels
        pred_u = np.zeros((4, 4))
        pred_u[0, :] = 0.9                # predicts 4, all truly hot
        pred, target = heatmap(pred_u), heatmap(true_u)
        assert hotspot_precision(pred, target, 0.5) == pytest.approx(1.0)
        assert hotspot_recall(pred, target, 0.5) == pytest.approx(0.5)
        assert hotspot_iou(pred, target, 0.5) == pytest.approx(0.5)

    def test_empty_hotspots_are_defined(self):
        """Regression: empty sets used to divide by zero."""
        cold = heatmap(np.zeros((4, 4)))
        assert hotspot_precision(cold, cold, 0.5) == 1.0
        assert hotspot_recall(cold, cold, 0.5) == 1.0
        assert hotspot_iou(cold, cold, 0.5) == 1.0

    def test_false_alarm_on_cold_truth_scores_zero_precision(self):
        cold = heatmap(np.zeros((4, 4)))
        hot = heatmap(np.ones((4, 4)))
        assert hotspot_precision(hot, cold, 0.5) == 0.0
        assert hotspot_recall(hot, cold, 0.5) == 1.0   # nothing to find
        assert hotspot_iou(hot, cold, 0.5) == 0.0

    def test_threshold_out_of_range_rejected(self):
        cold = heatmap(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            hotspot_precision(cold, cold, 1.5)


class TestRoc:
    def test_perfect_predictor_scores_one(self):
        u = np.zeros((4, 4))
        u[0, :] = 1.0
        image = heatmap(u)
        assert roc_auc(image, image) == pytest.approx(1.0)

    def test_inverted_predictor_scores_zero(self):
        u = np.zeros((4, 4))
        u[:2, :] = 1.0
        assert roc_auc(heatmap(1.0 - u), heatmap(u)) == pytest.approx(0.0)

    def test_single_class_target_is_defined(self):
        """Regression: all-cold targets used to produce 0/0 rates."""
        cold = heatmap(np.zeros((4, 4)))
        assert roc_auc(np.random.default_rng(0).random((3, 4, 4)),
                       cold) == 1.0

    def test_curve_shapes_and_endpoint(self):
        pred, target = rand_pair(seed=5, n=2)
        fpr, tpr = roc_curve(pred, target, num_thresholds=9)
        assert fpr.shape == tpr.shape == (2, 10)
        assert np.all(fpr[:, -1] == 0.0) and np.all(tpr[:, -1] == 0.0)

    def test_too_few_thresholds_rejected(self):
        with pytest.raises(ValueError):
            roc_curve(np.zeros((3, 2, 2)), np.zeros((3, 2, 2)),
                      num_thresholds=1)


class TestRegistry:
    def test_default_suite_names(self):
        names = set(METRICS)
        assert {"accuracy", "mae", "rmse", "nrms", "ssim",
                "hotspot_precision@0.5", "hotspot_recall@0.7",
                "hotspot_iou@0.5", "roc_auc@0.5"} <= names

    def test_custom_thresholds_are_tagged(self):
        suite = metric_suite(thresholds=(0.25,), roc_threshold=0.4)
        assert "hotspot_iou@0.25" in suite
        assert "roc_auc@0.4" in suite
        assert "hotspot_iou@0.5" not in suite

    def test_compute_and_aggregate(self):
        pred, target = rand_pair(seed=7, n=3)
        per_sample = compute_per_sample(pred, target)
        assert set(per_sample) == set(METRICS)
        assert all(values.shape == (3,) for values in per_sample.values())
        summary = aggregate(per_sample)
        for name, values in per_sample.items():
            assert summary[name] == pytest.approx(float(values.mean()))

    def test_metric_descriptions(self):
        for metric in METRICS.values():
            assert metric.description

