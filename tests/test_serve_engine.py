"""Micro-batching engine: equivalence, batching, lanes, caching, lifecycle."""

import io
import json
import os
import sys
import threading
import time
from concurrent.futures import Future

import numpy as np
import pytest

from repro.obs.profile import Profiler
from repro.obs.trace import Tracer
from repro.serve import BatchingEngine, ForecastCache, ModelRegistry
from repro.serve.engine import usable_cpus


@pytest.fixture()
def registry(tiny_model):
    registry = ModelRegistry()
    registry.register("tiny", tiny_model)
    return registry


class TestEquivalence:
    def test_batched_engine_matches_per_sample_forecast(
            self, registry, tiny_model, tiny_inputs):
        """The acceptance bar: batched results are bitwise per-sample."""
        with BatchingEngine(registry, max_batch=8,
                            max_wait_ms=20.0) as engine:
            futures = [engine.submit("tiny", x) for x in tiny_inputs]
            results = [future.result(timeout=30.0) for future in futures]
        stats = engine.stats()
        assert stats["batches"] < len(tiny_inputs)   # batching actually happened
        assert stats["mean_batch_occupancy"] > 1.0
        for x, result in zip(tiny_inputs, results):
            expected = tiny_model.forecast(x)
            assert np.array_equal(result.image, expected)
            assert result.cached is False
            assert result.image.shape == (16, 16, 3)

    def test_pix2pix_forecast_batch_invariance(self, tiny_model, tiny_inputs):
        singles = np.stack([tiny_model.forecast(x) for x in tiny_inputs])
        batched = tiny_model.forecast(tiny_inputs)
        assert np.array_equal(batched, singles)

    def test_forecast_accepts_single_and_batch_shapes(self, tiny_model):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(4, 16, 16)).astype(np.float32)
        assert tiny_model.forecast(x).shape == (16, 16, 3)
        assert tiny_model.forecast(x[None]).shape == (1, 16, 16, 3)
        with pytest.raises(ValueError, match="expected"):
            tiny_model.forecast(x[0])


class TestBatching:
    def test_max_batch_respected(self, registry, tiny_inputs):
        with BatchingEngine(registry, max_batch=4,
                            max_wait_ms=50.0) as engine:
            futures = [engine.submit("tiny", x) for x in tiny_inputs]
            for future in futures:
                future.result(timeout=30.0)
        assert engine.stats()["max_batch_occupancy"] <= 4

    def test_zero_wait_serves_immediately(self, registry, tiny_inputs):
        with BatchingEngine(registry, max_batch=8,
                            max_wait_ms=0.0) as engine:
            result = engine.forecast_result("tiny", tiny_inputs[0],
                                            timeout=30.0)
        assert result.cached is False

    def test_lone_request_after_lone_request_is_not_held(
            self, registry, tiny_inputs):
        with BatchingEngine(registry, max_batch=8,
                            max_wait_ms=500.0) as engine:
            engine.forecast("tiny", tiny_inputs[0], timeout=30.0)
            start = time.perf_counter()
            engine.forecast("tiny", tiny_inputs[1], timeout=30.0)
            elapsed = time.perf_counter() - start
            stats = engine.stats()
        assert stats["batch_occupancy_histogram"] == {"1": 2}
        assert elapsed < 0.25

    def test_lane_holds_again_after_a_shared_batch(self, registry,
                                                   tiny_inputs):
        with BatchingEngine(registry, max_batch=8,
                            max_wait_ms=500.0) as engine:
            # A fresh lane holds, so the first two ride one batch.
            for future in [engine.submit("tiny", x)
                           for x in tiny_inputs[:2]]:
                future.result(timeout=30.0)
            assert engine.stats()["batches"] == 1
            # After a batch of two the lane holds again: eight requests
            # arriving 20 ms apart, each slower than a tiny forward, still
            # share one batch.
            futures = []
            for x in tiny_inputs[2:10]:
                futures.append(engine.submit("tiny", x))
                time.sleep(0.02)
            for future in futures:
                future.result(timeout=30.0)
            stats = engine.stats()
        assert stats["batch_occupancy_histogram"] == {"2": 1, "8": 1}

    def test_concurrent_submitters(self, registry, tiny_model, tiny_inputs):
        results: list = [None] * len(tiny_inputs)

        def submit(index: int) -> None:
            results[index] = engine.forecast("tiny", tiny_inputs[index],
                                             timeout=30.0)

        with BatchingEngine(registry, max_batch=6,
                            max_wait_ms=10.0) as engine:
            threads = [threading.Thread(target=submit, args=(i,))
                       for i in range(len(tiny_inputs))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        for index, image in enumerate(results):
            assert np.array_equal(image,
                                  tiny_model.forecast(tiny_inputs[index]))


class TestCachePath:
    def test_results_read_only_on_both_paths(self, registry, tiny_inputs):
        cache = ForecastCache(16)
        with BatchingEngine(registry, max_batch=4, max_wait_ms=0.0,
                            cache=cache) as engine:
            miss = engine.forecast_result("tiny", tiny_inputs[0])
            hit = engine.forecast_result("tiny", tiny_inputs[0])
        for result in (miss, hit):
            with pytest.raises(ValueError):
                result.image[0, 0, 0] = 1.0
        # The cached copy must not alias the miss-path array.
        assert miss.image is not hit.image

    def test_repeat_requests_hit_cache(self, registry, tiny_inputs):
        cache = ForecastCache(16)
        with BatchingEngine(registry, max_batch=4, max_wait_ms=0.0,
                            cache=cache) as engine:
            first = engine.forecast_result("tiny", tiny_inputs[0])
            again = engine.forecast_result("tiny", tiny_inputs[0])
        assert first.cached is False
        assert again.cached is True
        assert cache.hits == 1
        assert np.array_equal(first.image, again.image)

    def test_cache_hit_skips_the_queue(self, registry, tiny_inputs):
        cache = ForecastCache(16)
        with BatchingEngine(registry, max_batch=4, max_wait_ms=0.0,
                            cache=cache) as engine:
            engine.forecast("tiny", tiny_inputs[0])
            batches_before = engine.stats()["batches"]
            hit = engine.submit("tiny", tiny_inputs[0])
            assert hit.done()            # resolved synchronously
            assert engine.stats()["batches"] == batches_before


class TestValidationAndLifecycle:
    def test_unknown_model_rejected_at_submit(self, registry, tiny_inputs):
        with BatchingEngine(registry) as engine:
            with pytest.raises(KeyError, match="tiny"):
                engine.submit("nope", tiny_inputs[0])

    def test_wrong_shape_rejected_at_submit(self, registry):
        with BatchingEngine(registry) as engine:
            with pytest.raises(ValueError, match="expects input shape"):
                engine.submit("tiny", np.zeros((4, 8, 8), dtype=np.float32))

    def test_submit_requires_running_engine(self, registry, tiny_inputs):
        engine = BatchingEngine(registry)
        with pytest.raises(RuntimeError, match="not running"):
            engine.submit("tiny", tiny_inputs[0])

    def test_stop_drains_and_stops(self, registry, tiny_inputs):
        engine = BatchingEngine(registry, max_batch=2, max_wait_ms=0.0)
        engine.start()
        futures = [engine.submit("tiny", x) for x in tiny_inputs]
        engine.stop()
        assert not engine.running
        settled = [f for f in futures if f.done()]
        assert settled  # at least the first batch ran
        for future in settled:
            if future.exception() is None:
                assert future.result().image.shape == (16, 16, 3)

    def test_stats_counters_consistent(self, registry, tiny_inputs):
        with BatchingEngine(registry, max_batch=4,
                            max_wait_ms=5.0) as engine:
            for x in tiny_inputs[:6]:
                engine.forecast("tiny", x, timeout=30.0)
            stats = engine.stats()
        assert stats["requests"] == 6
        assert stats["completed"] == 6
        assert stats["batched_requests"] == 6
        assert stats["mean_latency_ms"] > 0
        assert stats["forward_seconds_total"] > 0

    def test_bad_parameters_rejected(self, registry):
        with pytest.raises(ValueError, match="max_batch"):
            BatchingEngine(registry, max_batch=0)
        with pytest.raises(ValueError, match="max_wait_ms"):
            BatchingEngine(registry, max_wait_ms=-1.0)

    def test_future_type(self, registry, tiny_inputs):
        with BatchingEngine(registry) as engine:
            future = engine.submit("tiny", tiny_inputs[0])
            assert isinstance(future, Future)
            future.result(timeout=30.0)


class TestMultiModel:
    def test_mixed_batch_routes_to_both_models(self, tiny_model,
                                               tiny_inputs, make_model):
        other = make_model(seed=9)
        registry = ModelRegistry()
        registry.register("a", tiny_model)
        registry.register("b", other)
        with BatchingEngine(registry, max_batch=8,
                            max_wait_ms=20.0) as engine:
            futures = [engine.submit("a" if i % 2 else "b", x)
                       for i, x in enumerate(tiny_inputs[:8])]
            results = [f.result(timeout=30.0) for f in futures]
        for i, (x, result) in enumerate(zip(tiny_inputs[:8], results)):
            expected = (tiny_model if i % 2 else other).forecast(x)
            assert np.array_equal(result.image, expected)


class TestObservability:
    def test_batch_occupancy_histogram(self, registry, tiny_inputs):
        with BatchingEngine(registry, max_batch=1,
                            max_wait_ms=0.0) as engine:
            for x in tiny_inputs[:3]:
                engine.forecast("tiny", x, timeout=30.0)
            stats = engine.stats()
        histogram = stats["batch_occupancy_histogram"]
        assert histogram == {"1": 3}
        assert sum(int(size) * count
                   for size, count in histogram.items()) \
            == stats["batched_requests"]

    def test_histogram_counts_larger_batches(self, registry, tiny_inputs):
        with BatchingEngine(registry, max_batch=8,
                            max_wait_ms=50.0) as engine:
            futures = [engine.submit("tiny", x) for x in tiny_inputs[:6]]
            for future in futures:
                future.result(timeout=30.0)
            stats = engine.stats()
        histogram = stats["batch_occupancy_histogram"]
        assert sum(int(size) * count
                   for size, count in histogram.items()) == 6
        assert any(int(size) > 1 for size in histogram)

    def test_cache_hit_miss_counters(self, registry, tiny_inputs):
        cache = ForecastCache(capacity=8)
        with BatchingEngine(registry, max_batch=2, max_wait_ms=0.0,
                            cache=cache) as engine:
            engine.forecast("tiny", tiny_inputs[0], timeout=30.0)  # miss
            engine.forecast("tiny", tiny_inputs[0], timeout=30.0)  # hit
            engine.forecast("tiny", tiny_inputs[1], timeout=30.0)  # miss
            stats = engine.stats()
        assert stats["cache_hits"] == 1
        assert stats["cache_misses"] == 2
        assert stats["cache"]["hits"] == 1
        assert stats["cache"]["misses"] == 2

    def test_counters_zero_without_cache(self, registry, tiny_inputs):
        with BatchingEngine(registry, max_wait_ms=0.0) as engine:
            engine.forecast("tiny", tiny_inputs[0], timeout=30.0)
            stats = engine.stats()
        assert stats["cache_hits"] == 0
        assert stats["cache_misses"] == 0
        assert "cache" not in stats


class _SlowForecast:
    """Delegates to a real model but sleeps per forward — lets tests
    park requests in the queue long enough to expire or race stop."""

    def __init__(self, inner, delay: float = 0.2):
        self._inner = inner
        self._delay = delay

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def forecast(self, x):
        time.sleep(self._delay)
        return self._inner.forecast(x)


def _forward_lanes(sink: io.StringIO) -> list[int]:
    """The lane of every ``serve.forward`` span in an in-memory trace."""
    return [record["args"]["lane"]
            for record in map(json.loads, sink.getvalue().splitlines())
            if record["name"] == "serve.forward"]


class _Gate:
    """Delegates to a real model, but its ``forecast`` waits for
    ``release`` — parks lane 0 (the only lane that calls it)."""

    def __init__(self, inner):
        self._inner = inner
        self.entered = threading.Event()
        self.release = threading.Event()

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def forecast(self, x):
        self.entered.set()
        self.release.wait(30.0)
        return self._inner.forecast(x)


def _park_lane_zero(engine, gate, x) -> Future:
    """Submit a lone request and wait until it is parked on lane 0, the
    lowest free lane; return it."""
    future = engine.submit("tiny", x)
    assert gate.entered.wait(30.0), "no request reached lane 0"
    return future


class TestLanes:
    def test_two_lanes_match_per_sample_forecast(self, tiny_model,
                                                 tiny_inputs):
        """16 concurrent submits, two batches of 8 side by side: bitwise
        the per-sample forecasts, and both lanes ran a batch (lane 0 is
        slowed so that the second batch cannot wait for it)."""
        inputs = np.concatenate([tiny_inputs, -tiny_inputs[:4]])
        registry = ModelRegistry()
        registry.register("tiny", _SlowForecast(tiny_model, delay=0.05))
        sink = io.StringIO()
        with BatchingEngine(registry, max_batch=8, max_wait_ms=20.0,
                            lanes=2, tracer=Tracer(sink)) as engine:
            futures = [engine.submit("tiny", x) for x in inputs]
            results = [future.result(timeout=30.0) for future in futures]
            stats = engine.stats()
        for x, result in zip(inputs, results):
            assert np.array_equal(result.image, tiny_model.forecast(x))
        assert stats["lanes"] == 2
        assert stats["batched_requests"] == 16
        assert sorted(set(_forward_lanes(sink))) == [0, 1]

    def test_replica_has_its_own_arena(self, make_model, tiny_inputs):
        model = make_model(seed=5)
        expected = [model.forecast(x) for x in tiny_inputs[:4]]
        gate = _Gate(model)
        registry = ModelRegistry()
        registry.register("tiny", gate)
        with BatchingEngine(registry, max_batch=8, max_wait_ms=0.0,
                            lanes=2) as engine:
            parked = _park_lane_zero(engine, gate, tiny_inputs[0])
            before = (model.workspace.nbytes, model.workspace.peak_nbytes,
                      model.workspace.num_slots)
            batch = [engine.submit("tiny", x) for x in tiny_inputs[:4]]
            images = [future.result(timeout=30.0).image for future in batch]
            after = (model.workspace.nbytes, model.workspace.peak_nbytes,
                     model.workspace.num_slots)
            replica_bytes = engine.stats()["workspace_bytes"] - after[0]
            gate.release.set()
            parked.result(timeout=30.0)
        for image, want in zip(images, expected):
            assert np.array_equal(image, want)
        assert after == before
        assert replica_bytes > 0

    def test_shims_on_the_registered_model_stay_on_lane_zero(
            self, make_model, tiny_inputs):
        """A shim on the model instance (perfbench's forward probe) and
        profiler shims on its layers are never called by another lane:
        the replica is built from the generator's module tree."""
        model = make_model(seed=6)
        callers: list[str] = []
        original = model.forecast

        def forecast(x):
            callers.append(threading.current_thread().name)
            return original(x)

        model.forecast = forecast
        profiler = Profiler().attach(model.generator, "G.")
        registry = ModelRegistry()
        registry.register("tiny", model)
        sink = io.StringIO()
        try:
            with BatchingEngine(registry, max_batch=4, max_wait_ms=0.0,
                                lanes=2, tracer=Tracer(sink)) as engine:
                for _ in range(4):
                    for future in [engine.submit("tiny", x)
                                   for x in tiny_inputs[:8]]:
                        future.result(timeout=30.0)
        finally:
            profiler.detach()
        lanes = _forward_lanes(sink)
        assert 1 in lanes
        assert callers.count("forecast-lane-0") == lanes.count(0)
        assert set(callers) == {"forecast-lane-0"}
        busy = {name.split(":", 1)[1]
                for name, entry in profiler.snapshot()["threads"].items()
                if entry["calls"]}
        assert busy == {"forecast-lane-0"}

    def test_lone_requests_stay_on_lane_zero(self, tiny_model,
                                             tiny_inputs):
        """A lone caller never finds lane 0 busy, so no other lane forms
        a batch or builds a replica."""
        registry = ModelRegistry()
        registry.register("tiny", tiny_model)
        sink = io.StringIO()
        with BatchingEngine(registry, max_batch=8, max_wait_ms=0.0,
                            lanes=3, tracer=Tracer(sink)) as engine:
            for x in tiny_inputs:
                engine.forecast("tiny", x, timeout=30.0)
            time.sleep(0.25)    # a pause between callers changes nothing
            engine.forecast("tiny", tiny_inputs[0], timeout=30.0)
            stats = engine.stats()
        assert _forward_lanes(sink) == [0] * (len(tiny_inputs) + 1)
        assert stats["workspace_bytes"] == tiny_model.workspace.nbytes

    def test_lone_request_after_lone_request_is_not_held(
            self, make_model, tiny_inputs):
        """The hold flag is the engine's: a lone request that lane 1
        takes while lane 0 is busy is not held, although lane 1 has not
        served before."""
        gate = _Gate(make_model(seed=7))
        gate.release.set()
        registry = ModelRegistry()
        registry.register("tiny", gate)
        sink = io.StringIO()
        with BatchingEngine(registry, max_batch=8, max_wait_ms=500.0,
                            lanes=2, tracer=Tracer(sink)) as engine:
            engine.forecast("tiny", tiny_inputs[0], timeout=30.0)
            gate.release.clear()
            gate.entered.clear()
            parked = _park_lane_zero(engine, gate, tiny_inputs[1])
            start = time.perf_counter()
            engine.forecast("tiny", tiny_inputs[2], timeout=30.0)
            elapsed = time.perf_counter() - start
            gate.release.set()
            parked.result(timeout=30.0)
            stats = engine.stats()
        assert stats["batch_occupancy_histogram"] == {"1": 3}
        assert elapsed < 0.25
        assert sorted(_forward_lanes(sink)) == [0, 0, 1]

    def test_holding_lane_keeps_its_stragglers(self, registry, tiny_inputs):
        """A lane holding a batch open does not lose stragglers to an
        idle lane: eight requests 20 ms apart still share one batch."""
        with BatchingEngine(registry, max_batch=8, max_wait_ms=500.0,
                            lanes=3) as engine:
            for future in [engine.submit("tiny", x)
                           for x in tiny_inputs[:2]]:
                future.result(timeout=30.0)
            futures = []
            for x in tiny_inputs[2:10]:
                futures.append(engine.submit("tiny", x))
                time.sleep(0.02)
            for future in futures:
                future.result(timeout=30.0)
            stats = engine.stats()
        assert stats["batch_occupancy_histogram"] == {"2": 1, "8": 1}

    def test_lane_count(self, registry):
        with pytest.raises(ValueError, match="lanes"):
            BatchingEngine(registry, lanes=0)
        engine = BatchingEngine(registry)
        assert engine.lanes == usable_cpus() == len(os.sched_getaffinity(0))
        assert engine.stats()["lanes"] == engine.lanes

    def test_more_lanes_than_cores_under_thread_churn(self, registry,
                                                      tiny_model,
                                                      tiny_inputs):
        """Eight submitters, four lanes and a tiny switch interval: every
        request is served once, bitwise, and the counters add up."""
        expected = [tiny_model.forecast(x) for x in tiny_inputs]
        results: list = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with BatchingEngine(registry, max_batch=4, max_wait_ms=1.0,
                                lanes=4) as engine:
                def submit(offset: int) -> None:
                    for index in range(25):
                        item = (offset + index) % len(tiny_inputs)
                        future = engine.submit("tiny", tiny_inputs[item])
                        results.append((item, future))

                threads = [threading.Thread(target=submit, args=(offset,))
                           for offset in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(60.0)
                assert not any(thread.is_alive() for thread in threads)
                images = [(item, future.result(timeout=60.0).image)
                          for item, future in results]
                stats = engine.stats()
        finally:
            sys.setswitchinterval(interval)
        assert len(images) == 200
        for item, image in images:
            assert np.array_equal(image, expected[item])
        assert stats["requests"] == stats["completed"] == 200
        assert stats["batched_requests"] == 200
        assert sum(int(size) * count for size, count in
                   stats["batch_occupancy_histogram"].items()) == 200

    def test_stop_drains_every_lane(self, registry, tiny_model, tiny_inputs):
        engine = BatchingEngine(registry, max_batch=2, max_wait_ms=0.0,
                                lanes=3)
        engine.start()
        futures = [engine.submit("tiny", x) for x in tiny_inputs]
        engine.stop()
        assert not engine.running
        for x, future in zip(tiny_inputs, futures):
            assert np.array_equal(future.result(timeout=0).image,
                                  tiny_model.forecast(x))


class TestShutdownRaces:
    def test_submit_vs_stop_no_hung_futures(self, registry, tiny_inputs):
        """Regression: submit racing stop used to enqueue after the
        worker exited, leaving futures that never resolved.  Every
        accepted future must be settled once stop() returns; late
        arrivals must be rejected loudly, never parked."""
        x = tiny_inputs[0]
        for _ in range(200):
            engine = BatchingEngine(registry, max_batch=4,
                                    max_wait_ms=0.0)
            engine.start()
            accepted: list = []
            rejected = threading.Event()

            def submit_until_rejected():
                while True:
                    try:
                        accepted.append(engine.submit("tiny", x))
                    except RuntimeError:
                        rejected.set()
                        return

            submitter = threading.Thread(target=submit_until_rejected)
            submitter.start()
            engine.stop()
            submitter.join(timeout=30.0)
            assert not submitter.is_alive()
            assert rejected.is_set()     # the race ended in a clean reject
            for future in accepted:
                assert future.done()     # settled: result or exception
                if future.exception() is not None:
                    assert isinstance(future.exception(), TimeoutError)

    def test_submit_after_stop_rejected(self, registry, tiny_inputs):
        engine = BatchingEngine(registry)
        engine.start()
        engine.stop()
        with pytest.raises(RuntimeError, match="not running"):
            engine.submit("tiny", tiny_inputs[0])


class TestDeadlines:
    def test_expired_requests_dropped_not_served(self, tiny_model,
                                                 tiny_inputs):
        """Regression: requests whose caller had already timed out still
        burned batch slots.  Expired entries must fail fast with
        TimeoutError and count in the expired metric."""
        registry = ModelRegistry()
        registry.register("tiny", _SlowForecast(tiny_model, delay=0.3))
        # One lane: the premise is a lane held busy by the blocker (a
        # second lane would serve the doomed requests before they expire).
        with BatchingEngine(registry, max_batch=1, max_wait_ms=0.0,
                            lanes=1) as engine:
            blocker = engine.submit("tiny", tiny_inputs[0])
            time.sleep(0.05)             # let the worker take the blocker
            doomed = [engine.submit("tiny", x, timeout=0.05)
                      for x in tiny_inputs[1:4]]
            blocker.result(timeout=30.0)
            # The doomed requests expired while the blocker held the
            # worker; the next batch pass drops them unserved.
            for future in doomed:
                with pytest.raises(TimeoutError, match="expired"):
                    future.result(timeout=30.0)
            stats = engine.stats()
        assert stats["expired"] == 3
        # Dropped requests never reached a forward pass.
        assert stats["batched_requests"] == 1

    def test_requests_within_deadline_served_normally(self, registry,
                                                      tiny_inputs):
        with BatchingEngine(registry, max_wait_ms=0.0) as engine:
            result = engine.forecast_result("tiny", tiny_inputs[0],
                                            timeout=30.0)
        assert result.image.shape == (16, 16, 3)
        assert engine.stats()["expired"] == 0


class TestModelCacheLocking:
    def test_concurrent_first_lookups_are_consistent(self, tiny_model,
                                                     make_model,
                                                     tiny_inputs):
        """Regression: _model_cache was a plain dict mutated by every
        submitter thread; concurrent first-time lookups could tear.
        Hammer cold lookups from many threads and check every result."""
        other = make_model(seed=9)
        registry = ModelRegistry()
        registry.register("a", tiny_model)
        registry.register("b", other)
        with BatchingEngine(registry, max_batch=8,
                            max_wait_ms=5.0) as engine:
            futures: list = [None] * 16

            def submit(index):
                model_id = "a" if index % 2 else "b"
                futures[index] = engine.submit(model_id,
                                               tiny_inputs[index % 12])

            threads = [threading.Thread(target=submit, args=(i,))
                       for i in range(16)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            results = [future.result(timeout=30.0) for future in futures]
        for index, result in enumerate(results):
            expected = (tiny_model if index % 2 else other).forecast(
                tiny_inputs[index % 12])
            assert np.array_equal(result.image, expected)
