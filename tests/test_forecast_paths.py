"""Differential test: every way to obtain a forecast agrees bitwise.

One reference — per-sample :meth:`repro.gan.Pix2Pix.forecast` — and every
serving path pinned to it: a stacked forward, the batching engine under
concurrent submits, a two-lane engine (its second lane forwards on a
generator replica), the engine's cache, HTTP over the engine (array objects and
nested lists), a process-worker fleet and its shared cache, HTTP over the
fleet, a pool ``forecast`` job read back from the artifact store, and the
eval runner's ``CheckpointForecaster``.  Deterministic inference is
batch-invariant, so each comparison is ``np.array_equal``, never a
tolerance.

The per-sample forecast itself is pinned to the slow float64 reference
in ``tests/reference_forward.py`` within its documented ``ATOL`` (1e-6),
which pins every path above to it too.

Two more paths are pinned to per-sample forecasts elsewhere:
``live_forecast`` by
``test_flows_experiments.py::TestSpeedupAndRealtime::test_live_forecast_through_engine_matches_direct``
(its direct path calls ``Pix2Pix.forecast``), and ``evaluate_store`` with
four workers by
``test_eval_runner_report.py::TestDeterminism::test_worker_count_does_not_change_bytes``.

``hypothesis`` draws the input seed, the request count, the arrival
order and the share of repeated inputs.  The servers and the fleet are
started once for the module.
"""

import io
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tests.conftest import make_tiny_model
from tests.reference_forward import ATOL, reference_forward
from repro.eval.runner import CheckpointForecaster
from repro.fleet import ArtifactStore, FleetRouter, JobStore, WorkerPool
from repro.serve import (
    BatchingEngine,
    ForecastCache,
    ForecastClient,
    ForecastServer,
    ModelRegistry,
)

MODEL = "tiny"


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("forecast-paths")
    ckpt = root / "ckpt"
    ckpt.mkdir()
    make_tiny_model().save(ckpt / f"{MODEL}.npz")
    reference = ModelRegistry.from_directory(ckpt).get(MODEL)
    engine = BatchingEngine(ModelRegistry.from_directory(ckpt), max_batch=4,
                            max_wait_ms=2.0, cache=ForecastCache(256))
    fleet = FleetRouter.local(ckpt, workers=2, cache=ForecastCache(256))
    with ForecastServer(engine, port=0) as engine_http, \
            ForecastServer(fleet, port=0) as fleet_http, \
            BatchingEngine(ModelRegistry.from_directory(ckpt), max_batch=4,
                           max_wait_ms=2.0, lanes=2) as two_lanes:
        yield {
            "root": root,
            "ckpt": ckpt,
            "reference": reference,
            "engine": engine,
            "two_lanes": two_lanes,
            "fleet": fleet,
            "engine_http": ForecastClient(port=engine_http.port),
            "fleet_http": ForecastClient(port=fleet_http.port),
            "eval": CheckpointForecaster.from_checkpoint(
                ckpt / f"{MODEL}.npz"),
            "jobs": iter(range(1 << 30)),
        }


def _requests(seed: int, count: int, repeat_share: float) -> list:
    """``count`` inputs; roughly ``repeat_share`` of them repeat an
    earlier input (the cache-hit share)."""
    rng = np.random.default_rng(seed)
    inputs: list = []
    for _ in range(count):
        if inputs and rng.random() < repeat_share:
            inputs.append(inputs[int(rng.integers(len(inputs)))])
        else:
            inputs.append(rng.uniform(-1, 1, size=(4, 16, 16))
                          .astype(np.float32))
    return inputs


def _concurrent(server, inputs, order) -> list:
    """One caller thread per input.  The submits land in ``order``, then
    the callers wait concurrently; returns images indexed like ``inputs``."""
    turns = [threading.Event() for _ in order]
    images: list = [None] * len(inputs)

    def call(position: int, index: int) -> None:
        turns[position].wait(30.0)
        future = server.submit(MODEL, inputs[index], timeout=60.0)
        if position + 1 < len(turns):
            turns[position + 1].set()
        images[index] = future.result(60.0).image

    threads = [threading.Thread(target=call, args=(position, index))
               for position, index in enumerate(order)]
    for thread in threads:
        thread.start()
    turns[0].set()
    for thread in threads:
        thread.join(60.0)
    assert not any(thread.is_alive() for thread in threads)
    return images


def _pool_job(paths, x: np.ndarray) -> np.ndarray:
    """One ``forecast`` job on a serial pool, read back from the store."""
    tag = next(paths["jobs"])
    artifacts = ArtifactStore(paths["root"] / "artifacts")
    buffer = io.BytesIO()
    np.save(buffer, x)
    source = artifacts.put_bytes(buffer.getvalue(), name=f"in-{tag}.npy",
                                 kind="input")
    spool = paths["root"] / f"spool-{tag}"
    store = JobStore(spool)
    store.submit("forecast", {
        "checkpoints": str(paths["ckpt"]), "model": MODEL,
        "input": {"artifact_store": str(artifacts.root),
                  "artifact": source.digest},
        "artifacts": str(artifacts.root)})
    counts = WorkerPool(spool, workers=1,
                        publish=False).run_until_drained(timeout=60)
    assert counts["done"] == 1
    digest = store.jobs("done")[0].result["artifact"]
    return np.load(io.BytesIO(artifacts.read_bytes(digest)))


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=st.integers(0, 2**31 - 1), count=st.integers(1, 12),
       repeat_share=st.sampled_from([0.0, 0.25, 0.5]), data=st.data())
def test_every_path_matches_per_sample_forecast(paths, seed, count,
                                                 repeat_share, data):
    inputs = _requests(seed, count, repeat_share)
    order = data.draw(st.permutations(range(count)), label="arrival")
    model = paths["reference"]
    expected = [model.forecast(x) for x in inputs]
    np.testing.assert_allclose(
        np.stack(expected), reference_forward(model.generator,
                                              np.stack(inputs)),
        rtol=0, atol=ATOL, err_msg="float64 reference")

    def check(name, images):
        for index, (image, want) in enumerate(zip(images, expected)):
            assert image.dtype == want.dtype, name
            assert np.array_equal(image, want), f"{name}[{index}]"

    check("stacked", model.forecast(np.stack(inputs)))

    engine, fleet = paths["engine"], paths["fleet"]
    check("engine", _concurrent(engine, inputs, order))
    hits = [engine.forecast_result(MODEL, x, timeout=60.0) for x in inputs]
    assert all(result.cached for result in hits)
    check("engine cache hit", [result.image for result in hits])
    check("two-lane engine", _concurrent(paths["two_lanes"], inputs, order))

    check("fleet", _concurrent(fleet, inputs, order))
    hits = [fleet.forecast_result(MODEL, x, timeout=60.0) for x in inputs]
    assert all(result.cached for result in hits)
    check("fleet cache hit", [result.image for result in hits])

    for name in ("engine_http", "fleet_http"):
        client = paths[name]
        check(name, [client.forecast(MODEL, x).forecast for x in inputs])
    check("engine_http nested lists", [
        np.asarray(paths["engine_http"]._request(
            "/v1/forecast", {"model": MODEL, "input": x.tolist()})
            ["forecast"], dtype=np.float32)
        for x in inputs])

    check("eval runner", paths["eval"].forecast_images(np.stack(inputs)))

    # A pool drain costs a spool and a lease keeper per job, so one job
    # per example: the first arrival.
    first = order[0]
    image = _pool_job(paths, inputs[first])
    assert np.array_equal(image, expected[first]), "pool job"
