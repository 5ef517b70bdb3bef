"""Fleet serving: multi-worker scaling, byte identity, shared cache.

Drives the :mod:`repro.fleet` router with a sustained request load at 1
and 4 process workers and records sustained RPS and p99 latency.  Two
invariants are asserted unconditionally:

* **byte identity** — the 4-worker fleet's forecasts are bitwise equal
  to a single in-process engine's (the repo's exactness discipline);
* **shared cache** — a repeated request is served from the router's
  cache without touching any worker.

The >= 2x sustained-RPS scaling assertion is gated on the host actually
having >= 4 usable cores: worker processes cannot beat physics on a
1-core container, and a rigged baseline would be worse than an honest
skip.  The measured ``scaling_x`` and ``cores`` are always recorded in
``BENCH_fleet.json`` either way, so CI on multi-core runners enforces
the scaling bar.
"""

import time

import numpy as np
from conftest import write_result
from reporting import entry, write_bench_json
from workloads import _inputs, _make_model, usable_cores

from repro.fleet import FleetRouter
from repro.serve import BatchingEngine, ForecastCache, ModelRegistry

#: Requests per sustained-load measurement.
NUM_REQUESTS = 64


def _fleet_load(checkpoints, workers: int, inputs,
                trials: int = 2) -> dict:
    """Best-of sustained throughput + latency through a process fleet."""
    best = None
    for _ in range(trials):
        router = FleetRouter.local(checkpoints, workers=workers,
                                   max_batch=8, max_wait_ms=2.0,
                                   max_inflight=len(inputs) + 8,
                                   worker_queue_limit=len(inputs) + 8)
        with router:
            for x in inputs[:4]:                       # warm the pipes
                router.forecast_result("bench", x, timeout=120.0)
            start = time.perf_counter()
            futures = [router.submit("bench", x, timeout=120.0)
                       for x in inputs]
            images = [future.result(120.0).image for future in futures]
            elapsed = time.perf_counter() - start
            stats = router.stats()
        measured = {
            "rps": len(inputs) / elapsed,
            "p99_ms": stats["latency_p99_ms"],
            "mean_ms": stats["mean_latency_ms"],
            "images": images,
        }
        if best is None or measured["rps"] > best["rps"]:
            best = measured
    return best


def test_fleet_scaling(benchmark, scale, tmp_path_factory):
    checkpoints = tmp_path_factory.mktemp("fleet-ckpt")
    model = _make_model(scale)
    model.save(checkpoints / "bench.npz")
    inputs = _inputs(scale, NUM_REQUESTS)

    # Single-engine reference: the byte-identity yardstick.
    registry = ModelRegistry.from_directory(checkpoints)
    with BatchingEngine(registry, max_batch=8, max_wait_ms=2.0) as engine:
        reference = [engine.forecast_result("bench", x, timeout=120.0).image
                     for x in inputs]

    holder = {}

    def run_four_workers():
        holder["w4"] = _fleet_load(checkpoints, 4, inputs)
        return holder["w4"]

    w1 = _fleet_load(checkpoints, 1, inputs)
    benchmark.pedantic(run_four_workers, rounds=1, iterations=1)
    w4 = holder["w4"]

    # Byte identity is unconditional: every fleet forecast must equal
    # the single-engine forecast bit for bit.
    for expected, image in zip(reference, w4["images"]):
        assert np.array_equal(image, expected)

    scaling = w4["rps"] / w1["rps"]
    cores = usable_cores()

    # Shared-cache fast path at the router.
    cache = ForecastCache(64)
    router = FleetRouter.local(checkpoints, workers=2, cache=cache)
    with router:
        router.forecast_result("bench", inputs[0], timeout=120.0)  # miss
        start = time.perf_counter()
        for _ in range(50):
            hit = router.forecast_result("bench", inputs[0], timeout=120.0)
        hit_seconds = (time.perf_counter() - start) / 50
    assert cache.hits == 50
    assert hit.cached is True

    side = scale.image_size
    lines = [
        f"Fleet serving (scale={scale.name}, {NUM_REQUESTS} requests, "
        f"{side}px, {cores} usable core(s))",
        f"  1 process worker : {w1['rps']:7.1f} rps  "
        f"(p99 {w1['p99_ms']:.1f} ms)",
        f"  4 process workers: {w4['rps']:7.1f} rps  "
        f"(p99 {w4['p99_ms']:.1f} ms)",
        f"  scaling 1->4: {scaling:.2f}x"
        + ("" if cores >= 4 else "  [not asserted: <4 cores]"),
        f"  shared cache hit: {hit_seconds * 1e6:7.0f} us/forecast",
        "  byte identity 4-worker fleet vs single engine: exact",
    ]
    write_result("fleet", lines)

    entries = [
        entry("fleet_w1", shape=[1, 4, side, side],
              wall_time_s=1.0 / w1["rps"], throughput=w1["rps"],
              p99_ms=w1["p99_ms"], workers=1, cores=cores),
        entry("fleet_w4", shape=[4, 4, side, side],
              wall_time_s=1.0 / w4["rps"], throughput=w4["rps"],
              p99_ms=w4["p99_ms"], workers=4, cores=cores,
              scaling_x=round(scaling, 4),
              byte_identical=True),
        entry("fleet_cache_hit", wall_time_s=hit_seconds,
              throughput=1.0 / hit_seconds),
    ]
    write_bench_json("fleet", entries, scale.name)

    # Latency must stay bounded under the fleet: p99 is a real number
    # and the cache path beats the forward path outright.
    assert w4["p99_ms"] > 0
    assert hit_seconds < 1.0 / w1["rps"]
    if cores >= 4:
        # The acceptance bar, enforced where the hardware can express
        # it: 4 workers must at least double sustained throughput.
        assert scaling >= 2.0, (
            f"fleet scaling {scaling:.2f}x < 2x on {cores} cores")
