"""HTTP API + client round-trips on an ephemeral port."""

import base64
import http.client
import json
import math
import socket
import threading
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
import repro.serve.http as http_module
from repro.gan.dataset import make_input_stack
from repro.serve import (
    BatchingEngine,
    ClientError,
    ForecastCache,
    ForecastClient,
    ForecastServer,
    ModelRegistry,
)
from repro.serve.client import MAX_NDIM, decode_array, encode_array


def _running_server(model):
    registry = ModelRegistry()
    registry.register("tiny", model)
    engine = BatchingEngine(registry, max_batch=4, max_wait_ms=2.0,
                            cache=ForecastCache(16))
    with ForecastServer(engine, port=0) as running:
        yield running
    assert not engine.running


@pytest.fixture()
def server(tiny_model):
    yield from _running_server(tiny_model)


@pytest.fixture()
def client(server):
    return ForecastClient(port=server.port)


@pytest.fixture(scope="class")
def shared_server(tiny_model):
    """One server for a class whose tests read no state another test
    leaves behind."""
    yield from _running_server(tiny_model)


def _raw_post(port: int, length: bytes, body: bytes) -> tuple[int, dict]:
    """One hand-framed POST on a fresh connection: (status, JSON body)."""
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall(b"POST /v1/forecast HTTP/1.1\r\nHost: localhost\r\n"
                     b"Content-Type: application/json\r\n"
                     b"Content-Length: " + length + b"\r\n\r\n" + body)
        response = http.client.HTTPResponse(sock)
        response.begin()
        return response.status, json.loads(response.read())


def _non_finite_payload(case: str) -> dict:
    """A forecast body carrying one NaN/Infinity at the named field
    (``object-*`` cases: in array-object form)."""
    x = np.zeros((4, 16, 16), np.float32)
    place = np.zeros((16, 16, 3), np.float32)
    connect = np.zeros((16, 16), np.float32)
    if case == "object-input-nan":
        x[1, 2, 3] = np.nan
        return {"model": "tiny", "input": encode_array(x)}
    if case.startswith("object-"):
        if case == "object-place-inf":
            place[0, 0, 0] = np.inf
        else:
            connect[5, 5] = -np.inf
        return {"model": "tiny", "place_image": encode_array(place),
                "connect_image": encode_array(connect)}
    if case.startswith("input"):
        x[1, 2, 3] = {"input-nan": np.nan, "input-inf": np.inf,
                      "input-neg-inf": -np.inf}[case]
        return {"model": "tiny", "input": x.tolist()}
    body = {"model": "tiny", "place_image": place.tolist(),
            "connect_image": connect.tolist()}
    if case == "place-nan":
        body["place_image"][0][0][0] = float("nan")
    elif case == "connect-inf":
        body["connect_image"][5][5] = float("inf")
    else:
        body["connect_weight"] = float("nan")
    return body


class TestEndpoints:
    def test_healthz_reports_version_and_models(self, client):
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["version"] == repro.__version__
        assert health["models"] == ["tiny"]
        assert health["uptime_seconds"] >= 0

    def test_models_metadata(self, client):
        models = client.models()
        assert len(models) == 1
        assert models[0]["model_id"] == "tiny"
        assert models[0]["image_size"] == 16
        assert models[0]["num_parameters"] > 0

    def test_forecast_roundtrip_matches_direct(self, client, tiny_model):
        x = np.random.default_rng(3).normal(
            size=(4, 16, 16)).astype(np.float32)
        reply = client.forecast("tiny", x=x)
        assert reply.model == "tiny"
        assert reply.forecast.shape == (16, 16, 3)
        assert reply.forecast.dtype == np.float32
        assert reply.forecast.flags.writeable
        assert reply.cached is False
        assert reply.latency_ms > 0
        # The client's array objects carry the float32 bytes themselves.
        np.testing.assert_array_equal(reply.forecast,
                                      tiny_model.forecast(x))
        # Nested lists round-trip float32 exactly too (a float32's
        # shortest repr parses back to the same double and float32).
        nested = client._request("/v1/forecast",
                                 {"model": "tiny", "input": x.tolist()})
        np.testing.assert_array_equal(
            np.asarray(nested["forecast"], dtype=np.float32),
            tiny_model.forecast(x))

    def test_repeat_request_is_cached(self, client):
        x = np.random.default_rng(4).normal(
            size=(4, 16, 16)).astype(np.float32)
        assert client.forecast("tiny", x=x).cached is False
        assert client.forecast("tiny", x=x).cached is True

    def test_forecast_from_rendered_images(self, client, tiny_model):
        rng = np.random.default_rng(5)
        place = rng.random((16, 16, 3)).astype(np.float32)
        connect = rng.random((16, 16)).astype(np.float32)
        reply = client.forecast("tiny", place_image=place,
                                connect_image=connect, connect_weight=0.1)
        expected = tiny_model.forecast(make_input_stack(place, connect, 0.1))
        np.testing.assert_array_equal(reply.forecast, expected)

    def test_metrics_exposes_engine_cache_and_http(self, client):
        x = np.random.default_rng(6).normal(
            size=(4, 16, 16)).astype(np.float32)
        client.forecast("tiny", x=x)
        metrics = client.metrics()
        assert metrics["engine"]["requests"] >= 1
        assert metrics["engine"]["cache"]["capacity"] == 16
        assert metrics["http"]["requests_by_route"]["/v1/forecast"] >= 1
        # Observability satellites: batch-size histogram + cache counters
        # are served over /metrics like every other counter.
        histogram = metrics["engine"]["batch_occupancy_histogram"]
        assert sum(histogram.values()) == metrics["engine"]["batches"]
        assert (metrics["engine"]["cache_hits"]
                + metrics["engine"]["cache_misses"]) >= 1

    def test_concurrent_http_clients_share_batches(self, server,
                                                   tiny_model):
        rng = np.random.default_rng(7)
        xs = rng.normal(size=(8, 4, 16, 16)).astype(np.float32)
        replies: list = [None] * len(xs)

        def query(index: int) -> None:
            replies[index] = ForecastClient(port=server.port).forecast(
                "tiny", x=xs[index])

        threads = [threading.Thread(target=query, args=(i,))
                   for i in range(len(xs))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for index, reply in enumerate(replies):
            np.testing.assert_array_equal(
                reply.forecast, tiny_model.forecast(xs[index]))


def _post(client, body: dict) -> dict:
    return client._request("/v1/forecast", body)


class TestWireForms:
    """Each array field is a nested list or an array object, and the
    forecast comes back in the request's form.  Every test sends inputs
    no other test sends."""

    @pytest.fixture()
    def client(self, shared_server):
        return ForecastClient(port=shared_server.port)

    def test_object_input_gets_object_forecast(self, client, tiny_model):
        x = np.random.default_rng(8).normal(
            size=(4, 16, 16)).astype(np.float32)
        first = _post(client, {"model": "tiny", "input": encode_array(x)})
        assert set(first) == {"model", "shape", "forecast", "cached",
                              "latency_ms"}
        assert set(first["forecast"]) == {"b64", "shape"}
        assert first["shape"] == first["forecast"]["shape"] == [16, 16, 3]
        assert first["cached"] is False
        np.testing.assert_array_equal(decode_array(first["forecast"]),
                                      tiny_model.forecast(x))
        again = _post(client, {"model": "tiny", "input": encode_array(x)})
        assert again["cached"] is True
        assert again["forecast"] == first["forecast"]

    def test_object_images_get_object_forecast(self, client, tiny_model):
        rng = np.random.default_rng(9)
        place = rng.random((16, 16, 3)).astype(np.float32)
        connect = rng.random((16, 16)).astype(np.float32)
        body = {"model": "tiny", "place_image": encode_array(place),
                "connect_image": encode_array(connect),
                "connect_weight": 0.2}
        first = _post(client, body)
        assert set(first["forecast"]) == {"b64", "shape"}
        assert first["cached"] is False
        np.testing.assert_array_equal(
            decode_array(first["forecast"]),
            tiny_model.forecast(make_input_stack(place, connect, 0.2)))
        again = _post(client, body)
        assert again["cached"] is True
        assert again["forecast"] == first["forecast"]

    def test_nested_list_request_gets_nested_lists(self, client, tiny_model):
        x = np.random.default_rng(10).normal(
            size=(4, 16, 16)).astype(np.float32)
        first = _post(client, {"model": "tiny", "input": x.tolist()})
        assert set(first) == {"model", "shape", "forecast", "cached",
                              "latency_ms"}
        assert first["forecast"] == tiny_model.forecast(x).tolist()
        assert first["cached"] is False
        # The cache is shared across forms: same input, same key.
        again = _post(client, {"model": "tiny", "input": encode_array(x)})
        assert again["cached"] is True
        assert decode_array(again["forecast"]).tolist() == first["forecast"]

    def test_array_object_codec_roundtrip(self):
        for array in (np.arange(24, dtype=np.float32).reshape(2, 3, 4),
                      np.zeros((0, 5), np.float32),
                      np.float32(2.5),
                      np.linspace(0, 1, 12).reshape(3, 4).T):
            wire = encode_array(array)
            assert json.loads(json.dumps(wire)) == wire
            decoded = decode_array(wire)
            assert decoded.dtype == np.float32
            assert decoded.flags.writeable
            assert decoded.shape == np.shape(array)
            assert decoded.tobytes() == np.asarray(
                array, np.float32).tobytes()

    @pytest.mark.parametrize("field", ["input", "place_image",
                                       "connect_image"])
    @pytest.mark.parametrize("damage", [
        {"b64": None},                               # missing 'b64'
        {"extra": 1},                                # a third key
        {"b64": 12},                                 # non-string b64
        {"b64": "not base64!"},                      # invalid base64
        {"b64": "AAAA" * 3},                         # 12 bytes, not 4·prod
        {"shape": [-1]},                             # negative dimension
        {"shape": [True, 4]},                        # bool dimension
        {"shape": [4.0]},                            # float dimension
        {"shape": [2 ** 70]},                        # overflowing dimension
        {"b64": "", "shape": [0, 2 ** 70]},          # ... with zero bytes
        {"shape": [10 ** 4000] * MAX_NDIM},          # many huge dimensions
        {"shape": [1] * (MAX_NDIM + 1)},             # too many dimensions
        {"shape": "16x16"},                          # shape not a list
        {"shape": None},                             # missing 'shape'
    ], ids=["missing-key", "extra-key", "b64-not-string", "invalid-base64",
            "byte-count", "negative-dim", "bool-dim", "float-dim",
            "huge-dim", "huge-dim-no-bytes", "many-huge-dims",
            "too-many-dims", "shape-not-list", "missing-shape"])
    def test_bad_array_object_400_names_the_field(self, client, field,
                                                  damage):
        arrays = {"input": np.zeros((4, 16, 16), np.float32),
                  "place_image": np.zeros((16, 16, 3), np.float32),
                  "connect_image": np.zeros((16, 16), np.float32)}
        wire = {key: value for key, value in
                {**encode_array(arrays[field]), **damage}.items()
                if value is not None}
        if field == "input":
            body = {"model": "tiny", "input": wire}
        else:
            body = {"model": "tiny",
                    "place_image": encode_array(arrays["place_image"]),
                    "connect_image": encode_array(arrays["connect_image"]),
                    field: wire}
        with pytest.raises(ClientError) as excinfo:
            _post(client, body)
        assert excinfo.value.status == 400
        assert f"'{field}'" in excinfo.value.message

    def test_long_shape_400_without_stalling(self, shared_server):
        # At a million dims, multiplying them out holds the GIL (and so
        # every handler and the engine) for seconds; the length check
        # answers at once.
        client = ForecastClient(port=shared_server.port, timeout=5.0)
        with pytest.raises(ClientError) as excinfo:
            _post(client, {"model": "tiny",
                           "input": {"b64": "", "shape": [2] * 1_000_000}})
        assert excinfo.value.status == 400
        assert "'input'" in excinfo.value.message
        assert f"at most {MAX_NDIM}" in excinfo.value.message

    def test_byte_count_error_is_bounded(self, shared_server):
        # 64 dims of 4,000 digits: echoing the whole shape would answer
        # with 256 KB of digits and format them on every request.
        body = json.dumps({"model": "tiny", "input": {
            "b64": "", "shape": [10 ** 3999] * MAX_NDIM}}).encode()
        connection = http.client.HTTPConnection("127.0.0.1",
                                                shared_server.port,
                                                timeout=10)
        try:
            connection.request("POST", "/v1/forecast", body,
                               {"Content-Type": "application/json"})
            response = connection.getresponse()
            reply = response.read()
        finally:
            connection.close()
        assert response.status == 400
        assert len(reply) < 1024
        assert "bytes do not hold" in json.loads(reply)["error"]

    @settings(max_examples=300, deadline=None)
    @given(shape=st.lists(st.integers(0, 6) | st.integers(0, 2 ** 16),
                          max_size=3),
           nbytes=st.integers(0, 600))
    def test_decode_checks_the_exact_byte_count(self, shape, nbytes):
        wire = {"b64": base64.b64encode(bytes(nbytes)).decode(),
                "shape": shape}
        if nbytes == 4 * math.prod(shape):
            assert decode_array(wire).shape == tuple(shape)
        else:
            with pytest.raises(ValueError, match="bytes do not hold"):
                decode_array(wire)

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(field=st.sampled_from(["input", "place_image", "connect_image"]),
           shape=st.lists(st.integers(), max_size=6) | st.sampled_from(
               [[4, 16, 16], [16, 16, 3], [16, 16], [4, 0, 0], [0, 16, 16],
                [4, 16, 16, 1], [8, 8]]),
           text=st.none() | st.text(max_size=24))
    def test_array_object_bodies_never_5xx(self, shared_server, field,
                                           shape, text):
        if text is None:    # the bytes a sane, small shape asks for
            count = math.prod(shape) if min(shape, default=0) >= 0 else 0
            text = encode_array(np.full(min(count, 4096), 0.5,
                                        np.float32))["b64"]
        wire = {"b64": text, "shape": shape}
        if field == "input":
            body = {"model": "tiny", "input": wire}
        else:
            body = {"model": "tiny",
                    "place_image": encode_array(
                        np.zeros((16, 16, 3), np.float32)),
                    "connect_image": encode_array(
                        np.zeros((16, 16), np.float32)),
                    field: wire}
        data = json.dumps(body).encode()
        status, _ = _raw_post(shared_server.port, str(len(data)).encode(),
                              data)
        assert status < 500


class TestErrors:
    def test_unknown_model_404(self, client):
        with pytest.raises(ClientError) as excinfo:
            client.forecast("nope", x=np.zeros((4, 16, 16), np.float32))
        assert excinfo.value.status == 404

    def test_wrong_shape_400(self, client):
        with pytest.raises(ClientError) as excinfo:
            client.forecast("tiny", x=np.zeros((4, 8, 8), np.float32))
        assert excinfo.value.status == 400

    def test_unknown_route_404(self, client):
        with pytest.raises(ClientError) as excinfo:
            client._request("/v2/nothing")
        assert excinfo.value.status == 404

    def test_bad_json_400(self, server):
        import urllib.error
        import urllib.request

        request = urllib.request.Request(
            server.url + "/v1/forecast", data=b"not json{",
            headers={"Content-Type": "application/json"})
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400

    @pytest.mark.parametrize("case", [
        "input-nan", "input-inf", "input-neg-inf", "place-nan",
        "connect-inf", "weight-nan", "object-input-nan", "object-place-inf",
        "object-connect-neg-inf"])
    def test_non_finite_input_400(self, client, case):
        with pytest.raises(ClientError) as excinfo:
            client._request("/v1/forecast", _non_finite_payload(case))
        assert excinfo.value.status == 400
        assert "finite" in str(excinfo.value)
        # Nothing was cached or served: the next forecast is a fresh miss.
        result = client.forecast("tiny", x=np.zeros((4, 16, 16), np.float32))
        assert result.cached is False
        assert client.metrics()["engine"]["completed"] == 1

    @pytest.mark.parametrize("length, body", [
        (b"twelve", b'{"model": 1}'),
        (b"14", b'{"model": "\xff"}'),
    ], ids=["non-integer-length", "non-utf8-body"])
    def test_malformed_framing_400_then_keeps_serving(self, server, client,
                                                      length, body):
        status, document = _raw_post(server.port, length, body)
        assert status == 400
        assert "error" in document
        x = np.zeros((4, 16, 16), np.float32)
        assert client.forecast("tiny", x=x).cached is False

    @pytest.mark.parametrize("body", [
        b"[" * 100_000,
        b'{"model": "tiny", "input": ' + b"[" * 50_000 + b"0"
        + b"]" * 50_000 + b"}",
    ], ids=["bare-brackets", "nested-input"])
    def test_deeply_nested_json_400_then_keeps_serving(self, server, client,
                                                       body):
        """Nesting past the parser's recursion limit is invalid JSON,
        not a dropped connection."""
        status, document = _raw_post(server.port, str(len(body)).encode(),
                                     body)
        assert status == 400
        assert "invalid JSON" in document["error"]
        x = np.zeros((4, 16, 16), np.float32)
        assert client.forecast("tiny", x=x).cached is False

    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(payload=st.recursive(
               st.none() | st.booleans() | st.floats() | st.integers()
               | st.text(max_size=4),
               lambda children: st.lists(children, max_size=4)
               | st.dictionaries(st.text(max_size=4), children, max_size=4),
               max_leaves=16),
           depth=st.integers(0, 3000))
    def test_nested_json_bodies_never_5xx(self, server, payload, depth):
        body = json.dumps({"model": "tiny", "input": payload}).encode()
        body = b"[" * depth + body + b"]" * depth
        status, _ = _raw_post(server.port, str(len(body)).encode(), body)
        assert status < 500

    def test_stalled_body_408_then_keeps_serving(self, server, client,
                                                 monkeypatch):
        """A client that sends less body than its Content-Length and
        keeps the socket open must not hold a handler thread forever."""
        monkeypatch.setattr(http_module._Handler, "timeout", 0.5)
        started = time.monotonic()
        with socket.create_connection(("127.0.0.1", server.port),
                                      timeout=3.0) as sock:
            sock.sendall(b"POST /v1/forecast HTTP/1.1\r\nHost: localhost\r\n"
                         b"Content-Type: application/json\r\n"
                         b"Content-Length: 100\r\n\r\n" + b'{"model": ')
            response = http.client.HTTPResponse(sock)
            response.begin()
            document = json.loads(response.read())
        assert response.status == 408
        assert response.getheader("Connection") == "close"
        assert "error" in document
        assert time.monotonic() - started < 3.0
        x = np.zeros((4, 16, 16), np.float32)
        assert client.forecast("tiny", x=x).cached is False

    def test_missing_input_400(self, client):
        with pytest.raises(ClientError) as excinfo:
            client._request("/v1/forecast", {"model": "tiny"})
        assert excinfo.value.status == 400

    def test_client_side_argument_check(self, client):
        with pytest.raises(ValueError, match="exactly one"):
            client.forecast("tiny")

    def test_forecast_timeout_returns_504(self, tiny_model):
        registry = ModelRegistry()
        registry.register("tiny", tiny_model)
        # A zero timeout and a long batching window keep the future
        # pending when the handler gives up: this relies on a fresh
        # lane holding its first batch open for max_wait_ms.
        engine = BatchingEngine(registry, max_batch=8, max_wait_ms=500.0)
        with ForecastServer(engine, port=0, forecast_timeout=0.0) as running:
            with pytest.raises(ClientError) as excinfo:
                ForecastClient(port=running.port).forecast(
                    "tiny", x=np.zeros((4, 16, 16), np.float32))
        assert excinfo.value.status == 504


class TestShutdown:
    def test_wedged_serving_thread_raises_on_stop(self, tiny_model):
        """Regression: stop() used to join the serving thread and move
        on even when the join timed out, silently leaking a zombie
        thread that still held the port."""
        registry = ModelRegistry()
        registry.register("tiny", tiny_model)
        engine = BatchingEngine(registry)
        server = ForecastServer(engine, port=0)
        server.start()
        try:
            # Swap in a stand-in thread that outlives the join window —
            # exactly what a handler wedged in a slow write looks like.
            wedged = threading.Thread(target=lambda: threading.Event()
                                      .wait(5.0), daemon=True)
            wedged.start()
            real_thread, server._thread = server._thread, wedged
            with pytest.raises(RuntimeError, match="did not stop"):
                server.stop(timeout=0.1)
        finally:
            real_thread.join(10.0)
            if engine.running:
                engine.stop()

    def test_idle_stop_is_prompt(self, tiny_model):
        """stop() waits out one short accept-loop poll, not socketserver's
        default half second."""
        registry = ModelRegistry()
        registry.register("tiny", tiny_model)
        server = ForecastServer(BatchingEngine(registry), port=0).start()
        time.sleep(0.05)
        start = time.perf_counter()
        server.stop()
        assert time.perf_counter() - start < 0.25

    def test_clean_stop_does_not_raise(self, tiny_model):
        registry = ModelRegistry()
        registry.register("tiny", tiny_model)
        engine = BatchingEngine(registry)
        server = ForecastServer(engine, port=0)
        server.start()
        server.stop()               # well-behaved thread: no error
        assert not engine.running
