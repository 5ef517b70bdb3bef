"""Evaluation metrics (Section 5.1).

* :func:`per_pixel_accuracy` — fraction of pixels whose worst-channel error
  is within a tolerance, "the per-pixel accuracy between the generated image
  and ground truth image".
* :func:`top_k_overlap` — the Top10 metric: how many of the predicted-best
  k placements are truly among the best k.
* :func:`image_congestion_score` — decode a heat-map image back into mean
  channel utilization, which is how a *generated* image ranks placements.
* :func:`speedup` — routing runtime over inference runtime.

The batched metric registry (NRMS, SSIM, hotspot and ROC metrics) lives
in :mod:`repro.eval.metrics`.
"""

from __future__ import annotations

import numpy as np

from repro.viz.colors import COLOR_SCHEME, ColorScheme, decode_utilization

#: Default tolerance: 16/255, i.e. a pixel counts as correct when every
#: channel is within 16 8-bit steps of the ground truth.
DEFAULT_TOLERANCE = 16.0 / 255.0


def per_pixel_accuracy(generated: np.ndarray, truth: np.ndarray,
                       tolerance: float = DEFAULT_TOLERANCE) -> float:
    """Fraction of pixels with max-channel |error| <= tolerance.

    Both images are (H, W, C) or (C, H, W) in [0, 1]; shapes must match.
    """
    generated = np.asarray(generated, dtype=np.float32)
    truth = np.asarray(truth, dtype=np.float32)
    if generated.shape != truth.shape:
        raise ValueError(
            f"shape mismatch: {generated.shape} vs {truth.shape}")
    if tolerance < 0:
        raise ValueError("tolerance must be non-negative")
    # Channel-last (H, W, C) by default; treat as channel-first only when
    # the leading axis looks like channels and the trailing one does not.
    channel_axis = -1
    if (generated.ndim == 3 and generated.shape[0] in (1, 3, 4)
            and generated.shape[-1] not in (1, 3, 4)):
        channel_axis = 0
    error = np.abs(generated - truth).max(axis=channel_axis)
    return float((error <= tolerance).mean())


def image_congestion_score(heatmap01: np.ndarray,
                           channel_mask: np.ndarray,
                           scheme: ColorScheme = COLOR_SCHEME) -> float:
    """Mean utilization decoded from a heat-map image over channel pixels.

    ``heatmap01`` is (H, W, 3) in [0, 1]; ``channel_mask`` flags the pixels
    that paint routing channels (from ``FloorplanLayout.channel_pixel_mask``).
    """
    if channel_mask.dtype != bool:
        raise ValueError("channel_mask must be boolean")
    if not channel_mask.any():
        raise ValueError("channel mask selects no pixels")
    utilization = decode_utilization(heatmap01[channel_mask], scheme)
    return float(utilization.mean())


def regional_congestion_score(heatmap01: np.ndarray,
                              channel_mask: np.ndarray,
                              region_mask: np.ndarray,
                              scheme: ColorScheme = COLOR_SCHEME) -> float:
    """Mean decoded utilization restricted to a floorplan region."""
    mask = channel_mask & region_mask
    if not mask.any():
        raise ValueError("region contains no channel pixels")
    return float(decode_utilization(heatmap01[mask], scheme).mean())


def top_k_overlap(predicted_scores: np.ndarray, true_scores: np.ndarray,
                  k: int = 10) -> float:
    """Overlap fraction between predicted and true k *lowest*-score items.

    ``Top10 = 80%`` in the paper means 8 of the 10 selected placements are
    truly among the 10 least congested.
    """
    predicted_scores = np.asarray(predicted_scores)
    true_scores = np.asarray(true_scores)
    if predicted_scores.shape != true_scores.shape:
        raise ValueError("score arrays must have identical shapes")
    if k < 1 or k > len(predicted_scores):
        raise ValueError(
            f"k={k} out of range for {len(predicted_scores)} placements")
    predicted_best = set(np.argsort(predicted_scores, kind="stable")[:k])
    true_best = set(np.argsort(true_scores, kind="stable")[:k])
    return len(predicted_best & true_best) / k


def speedup(route_seconds: float, inference_seconds: float) -> float:
    """Routing runtime divided by forecast runtime (Section 5.1)."""
    if inference_seconds <= 0:
        raise ValueError("inference time must be positive")
    return route_seconds / inference_seconds
