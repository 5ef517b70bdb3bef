"""Fleet router: byte identity, shared cache, admission, backpressure."""

import json
import os
import signal
import time
import urllib.request

import numpy as np
import pytest

from tests.conftest import make_tiny_model
from repro.fleet import (
    FleetBusyError,
    FleetRouter,
    ProcessWorker,
    WorkerError,
)
from repro.obs.aggregate import aggregate_dir
from repro.obs.timeseries import flatten_export
from repro.serve import (
    BatchingEngine,
    ForecastCache,
    ForecastClient,
    ForecastServer,
    ModelRegistry,
)


@pytest.fixture(scope="module")
def ckpt(tmp_path_factory):
    directory = tmp_path_factory.mktemp("fleet-ckpt")
    make_tiny_model().save(directory / "tiny.npz")
    return directory


def _registry(ckpt):
    return ModelRegistry.from_directory(ckpt)


def _wait_routed(router, count: int, timeout: float = 20.0) -> None:
    """Block until ``count`` requests have been shipped to workers."""
    deadline = time.monotonic() + timeout
    while sum(router.stats()["routed_by_worker"].values()) < count:
        assert time.monotonic() < deadline, "requests never dispatched"
        time.sleep(0.01)


def _signal_workers(router, sig) -> None:
    for worker in router.workers:
        os.kill(worker.pid, sig)


@pytest.fixture()
def inputs():
    rng = np.random.default_rng(11)
    return [rng.normal(size=(4, 16, 16)).astype(np.float32)
            for _ in range(12)]


class TestByteIdentity:
    def test_four_workers_match_single_engine_shuffled(self, ckpt, inputs):
        """The acceptance bar: a 4-worker fleet returns bit-identical
        forecasts to one engine, regardless of arrival order."""
        with BatchingEngine(_registry(ckpt)) as engine:
            reference = [engine.forecast_result("tiny", x).image
                         for x in inputs]
        order = list(np.random.default_rng(5).permutation(len(inputs)))
        with FleetRouter.local(ckpt, workers=4) as router:
            futures = {index: router.submit("tiny", inputs[index],
                                            timeout=60.0)
                       for index in order}
            images = {index: future.result(60.0).image
                      for index, future in futures.items()}
        for index, expected in enumerate(reference):
            assert np.array_equal(images[index], expected)

    def test_process_workers_match_single_engine(self, ckpt, inputs):
        model = _registry(ckpt).get("tiny")
        reference = [model.forecast(x) for x in inputs[:4]]
        with FleetRouter.local(ckpt, workers=2) as router:
            futures = [router.submit("tiny", x, timeout=120.0)
                       for x in inputs[:4]]
            images = [future.result(120.0).image for future in futures]
        for expected, image in zip(reference, images):
            assert np.array_equal(image, expected)


class TestSharedCache:
    def test_cache_hit_crosses_workers(self, ckpt, inputs):
        cache = ForecastCache(32)
        with FleetRouter.local(ckpt, workers=2, cache=cache) as router:
            miss = router.forecast_result("tiny", inputs[0], timeout=30.0)
            # With every worker frozen, only the shared cache can answer.
            _signal_workers(router, signal.SIGSTOP)
            try:
                hit = router.forecast_result("tiny", inputs[0], timeout=5.0)
            finally:
                _signal_workers(router, signal.SIGCONT)
            stats = router.stats()
        assert miss.cached is False and hit.cached is True
        assert sum(stats["routed_by_worker"].values()) == 1
        assert cache.hits == 1
        assert np.array_equal(miss.image, hit.image)

    def test_cache_hit_counts_in_latency_not_routing(self, ckpt, inputs):
        with FleetRouter.local(ckpt, workers=1,
                               cache=ForecastCache(8)) as router:
            router.forecast_result("tiny", inputs[0])
            router.forecast_result("tiny", inputs[0])
            stats = router.stats()
        assert stats["requests"] == 2
        assert stats["completed"] == 2
        assert sum(stats["routed_by_worker"].values()) == 1


class TestSaturation:
    """The lone worker is frozen (SIGSTOP) so requests stay in flight."""

    def test_admission_control_rejects_beyond_max_inflight(self, ckpt,
                                                           inputs):
        with FleetRouter.local(ckpt, workers=1, max_inflight=2,
                               worker_queue_limit=64) as router:
            _signal_workers(router, signal.SIGSTOP)
            try:
                first = router.submit("tiny", inputs[0], timeout=30.0)
                second = router.submit("tiny", inputs[1], timeout=30.0)
                with pytest.raises(FleetBusyError, match="max_inflight") \
                        as rejected:
                    router.submit("tiny", inputs[2], timeout=30.0)
            finally:
                _signal_workers(router, signal.SIGCONT)
            assert rejected.value.reason == "admission"
            assert rejected.value.retry_after == router.retry_after
            first.result(30.0)
            second.result(30.0)
            # Capacity returns once the fleet drains.
            router.forecast_result("tiny", inputs[2], timeout=30.0)
            stats = router.stats()
        assert stats["rejected"] == {"admission": 1}

    def test_backpressure_rejects_on_deep_worker_queues(self, ckpt, inputs):
        with FleetRouter.local(ckpt, workers=1, max_inflight=64,
                               worker_queue_limit=1) as router:
            _signal_workers(router, signal.SIGSTOP)
            try:
                shipped = router.submit("tiny", inputs[0], timeout=30.0)
                _wait_routed(router, 1)      # the lane holds it now
                queued = router.submit("tiny", inputs[1], timeout=30.0)
                with pytest.raises(FleetBusyError, match="queue") \
                        as rejected:
                    router.submit("tiny", inputs[2], timeout=30.0)
            finally:
                _signal_workers(router, signal.SIGCONT)
            assert rejected.value.reason == "backpressure"
            assert rejected.value.retry_after == router.retry_after
            shipped.result(30.0)
            queued.result(30.0)
            stats = router.stats()
        assert stats["rejected"] == {"backpressure": 1}

    def test_rejection_is_a_runtime_error(self):
        # The HTTP layer maps RuntimeError -> 503; saturation must
        # stay on that path.
        assert issubclass(FleetBusyError, RuntimeError)

    @pytest.mark.parametrize("reason,limits", [
        ("admission", {"max_inflight": 1}),
        ("backpressure", {"worker_queue_limit": 1}),
    ])
    def test_http_503_carries_retry_after(self, ckpt, inputs, reason,
                                          limits):
        router = FleetRouter.local(ckpt, workers=1, retry_after=0.25,
                                   **limits)
        with ForecastServer(router, port=0) as server:
            _signal_workers(router, signal.SIGSTOP)
            try:
                pending = [router.submit("tiny", inputs[0], timeout=30.0)]
                _wait_routed(router, 1)
                if reason == "backpressure":
                    pending.append(router.submit("tiny", inputs[1],
                                                 timeout=30.0))
                body = json.dumps({"model": "tiny",
                                   "input": inputs[2].tolist()}).encode()
                request = urllib.request.Request(
                    f"{server.url}/v1/forecast", data=body,
                    headers={"Content-Type": "application/json"})
                with pytest.raises(urllib.error.HTTPError) as failure:
                    urllib.request.urlopen(request)
            finally:
                _signal_workers(router, signal.SIGCONT)
            for future in pending:
                future.result(30.0)
            rejected = router.stats()["rejected"]
        failure.value.close()
        assert failure.value.code == 503
        assert failure.value.headers["Retry-After"] == "0.250"
        assert rejected == {reason: 1}


class TestRouting:
    def test_concurrent_load_spreads_across_workers(self, ckpt, inputs):
        with FleetRouter.local(ckpt, workers=3, max_batch=2) as router:
            _signal_workers(router, signal.SIGSTOP)
            try:
                futures = [router.submit("tiny", x, timeout=60.0)
                           for x in inputs]
                # Frozen workers hold their lanes' batches, so the
                # queue can only drain through every lane.
                _wait_routed(router, 3)
            finally:
                _signal_workers(router, signal.SIGCONT)
            for future in futures:
                future.result(60.0)
            routed = router.stats()["routed_by_worker"]
        assert sum(routed.values()) == len(inputs)
        assert len(routed) > 1           # more than one worker served

    def test_unknown_model_raises_keyerror(self, ckpt, inputs):
        with FleetRouter.local(ckpt, workers=1) as router:
            with pytest.raises(KeyError):
                router.submit("nope", inputs[0])

    def test_wrong_shape_rejected(self, ckpt):
        with FleetRouter.local(ckpt, workers=1) as router:
            with pytest.raises(ValueError, match="expects input shape"):
                router.submit("tiny", np.zeros((4, 8, 8), dtype=np.float32))

    def test_submit_requires_running_router(self, ckpt, inputs):
        router = FleetRouter.local(ckpt, workers=1)
        with pytest.raises(RuntimeError, match="not running"):
            router.submit("tiny", inputs[0])

    def test_duplicate_worker_ids_rejected(self, ckpt):
        workers = [ProcessWorker("w0", ckpt), ProcessWorker("w0", ckpt)]
        with pytest.raises(ValueError, match="duplicate"):
            FleetRouter(workers, _registry(ckpt))


class TestHttpFront:
    def test_forecast_server_serves_a_fleet(self, ckpt, inputs):
        router = FleetRouter.local(ckpt, workers=2, cache=ForecastCache(16))
        with ForecastServer(router, port=0) as server:
            body = json.dumps({"model": "tiny",
                               "input": inputs[0].tolist()}).encode()
            request = urllib.request.Request(
                f"{server.url}/v1/forecast", data=body,
                headers={"Content-Type": "application/json"})
            with urllib.request.urlopen(request) as response:
                first = json.loads(response.read())
            with urllib.request.urlopen(request) as response:
                second = json.loads(response.read())
            with urllib.request.urlopen(
                    f"{server.url}/fleet/status") as response:
                status = json.loads(response.read())
        assert first["cached"] is False and second["cached"] is True
        assert first["forecast"] == second["forecast"]
        assert status["stats"]["requests"] == 2
        assert [worker["id"] for worker in status["workers"]] \
            == ["w0", "w1"]
        assert all(worker["alive"] for worker in status["workers"])
        assert status["models"] == ["tiny"]
        assert not router.running

    def test_fleet_status_404_on_single_engine(self, tiny_model):
        registry = ModelRegistry()
        registry.register("tiny", tiny_model)
        engine = BatchingEngine(registry)
        with ForecastServer(engine, port=0) as server:
            with pytest.raises(urllib.error.HTTPError) as failure:
                urllib.request.urlopen(f"{server.url}/fleet/status")
            assert failure.value.code == 404

    def test_prometheus_exposition_has_fleet_metrics(self, ckpt, inputs):
        router = FleetRouter.local(ckpt, workers=1)
        with ForecastServer(router, port=0) as server:
            router.forecast_result("tiny", inputs[0])
            with urllib.request.urlopen(
                    f"{server.url}/metrics") as response:
                text = response.read().decode()
        assert "serve_requests_total 1" in text
        assert "fleet_routed_total" in text

    def test_shared_obs_dir_counts_each_request_once(self, ckpt, inputs,
                                                     tmp_path):
        """The HTTP server is the fleet's one publisher: N forecasts
        read back as N, not once per publisher."""
        router = FleetRouter.local(ckpt, workers=2)
        server = ForecastServer(router, port=0, obs_dir=tmp_path,
                                publish_interval=60.0)
        with server:
            client = ForecastClient(port=server.port)
            for x in inputs[:3]:
                client.forecast("tiny", x)
        fleet = aggregate_dir(tmp_path)
        totals = flatten_export(fleet.merged)
        assert len(fleet.workers) == 1
        assert totals["serve_requests_total"] == 3
        assert totals["http_requests_total{route=/v1/forecast}"] == 3


class TestLifecycle:
    def test_stop_is_idempotent_surface(self, ckpt, inputs):
        router = FleetRouter.local(ckpt, workers=2)
        router.start()
        router.forecast_result("tiny", inputs[0])
        router.stop()
        router.stop()
        assert not router.running
        assert all(not worker.alive for worker in router.workers)

    def test_start_twice_rejected(self, ckpt):
        router = FleetRouter.local(ckpt, workers=1)
        with router:
            with pytest.raises(RuntimeError, match="already running"):
                router.start()

    def test_worker_that_cannot_load_fails_start(self, ckpt, tmp_path):
        """A worker whose checkpoints do not load fails start() with a
        typed error, and the workers already up are stopped again."""
        (tmp_path / "tiny.npz").write_bytes(b"not a checkpoint")
        good, bad = ProcessWorker("w0", ckpt), ProcessWorker("w1", tmp_path)
        router = FleetRouter([good, bad], _registry(ckpt))
        with pytest.raises(WorkerError, match="w1 failed to load"):
            router.start()
        assert not good.alive and not bad.alive
        assert not router.running

    def test_router_validates_limits(self, ckpt):
        with pytest.raises(ValueError, match="max_inflight"):
            FleetRouter.local(ckpt, workers=1, max_inflight=0)
        with pytest.raises(ValueError, match="worker_queue_limit"):
            FleetRouter.local(ckpt, workers=1, worker_queue_limit=0)
        with pytest.raises(ValueError, match="at least one"):
            FleetRouter([], _registry(ckpt))
