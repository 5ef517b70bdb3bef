"""Model workloads on synthetic data, shared by the benches and the gate.

Every input derives from the experiment scale alone (no dataset or
trained checkpoint), so ``perf_gate.py`` can time the same workload
against any revision's ``src/``.

All timings are best-of-N means (robust against scheduler noise on
shared machines).
"""

from __future__ import annotations

import os
import time

import numpy as np


def usable_cores() -> int:
    """Cores this process may actually run on (affinity-aware).

    Container CPU quotas and taskset masks make ``os.cpu_count()`` lie;
    the scheduler affinity set is the honest parallelism budget, so the
    benches gate their scaling assertions on it.
    """
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:     # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _best_mean(fn, reps: int, trials: int = 4) -> float:
    best = float("inf")
    for _ in range(trials):
        start = time.perf_counter()
        for _ in range(reps):
            fn()
        best = min(best, (time.perf_counter() - start) / reps)
    return best


def _make_model(scale):
    from repro.gan import Pix2Pix, Pix2PixConfig

    return Pix2Pix(Pix2PixConfig.from_scale(scale, seed=0))


def _inputs(scale, count: int) -> list[np.ndarray]:
    rng = np.random.default_rng(7)
    side = scale.image_size
    return [rng.normal(size=(4, side, side)).astype(np.float32)
            for _ in range(count)]


def measure_train_step(scale, reps: int = 20) -> dict:
    """Mean seconds per batch-1 adversarial training step."""
    model = _make_model(scale)
    rng = np.random.default_rng(0)
    side = scale.image_size
    x = rng.normal(size=(1, 4, side, side)).astype(np.float32)
    y = rng.normal(size=(1, 3, side, side)).astype(np.float32)
    for _ in range(3):
        model.train_step(x, y)
    wall = _best_mean(lambda: model.train_step(x, y), reps)
    return {"op": "train_step", "shape": [1, 4, side, side],
            "wall_time_s": wall, "throughput": 1.0 / wall}


def measure_eval_batch(scale, batch: int = 16, reps: int = 12) -> dict:
    """Mean seconds per deterministic batch forecast (the eval unit)."""
    model = _make_model(scale)
    rng = np.random.default_rng(1)
    side = scale.image_size
    xb = rng.normal(size=(batch, 4, side, side)).astype(np.float32)
    for _ in range(2):
        model.forecast(xb)
    wall = _best_mean(lambda: model.forecast(xb), reps)
    return {"op": f"eval_batch{batch}", "shape": [batch, 4, side, side],
            "wall_time_s": wall, "throughput": batch / wall}
