"""Stdlib JSON HTTP API over a batching engine or a fleet router.

Endpoints:

* ``GET /healthz``      — liveness: status, version, registered model count.
* ``GET /v1/models``    — model metadata from the registry.
* ``GET /metrics``      — engine, cache, and HTTP counters.  Served as
  Prometheus text exposition by default; clients sending
  ``Accept: application/json`` get the legacy JSON shape
  (``{"engine": ..., "http": ...}``) unchanged.
* ``GET /telemetry``    — the registry's merge-ready ``export()`` plus
  worker identity; what ``repro obs top <url>`` polls.
* ``GET /alerts``       — firing alerts, full rule status, and drift
  monitor signals.  Rules are (re)evaluated against the live registry
  on every poll, so the endpoint works with or without a background
  publisher.
* ``GET /fleet/status`` — per-worker liveness, breaker state, restarts
  and routing counters when the server fronts a
  :class:`~repro.fleet.router.FleetRouter` (404 on a single-engine
  server).
* ``POST /v1/forecast`` — run one forecast.  Body is JSON with ``model``
  plus either ``input`` (``(C, H, W)`` in [-1, 1]) or ``place_image``
  (``(H, W, 3)`` in [0, 1]) with ``connect_image`` (``(H, W)`` in
  [0, 1]) and optional ``connect_weight``; the response carries the
  forecast image, ``(H, W, 3)`` in [0, 1].  Each array is either a
  nested list or an array object ``{"b64": ..., "shape": [...]}`` (base64
  of the little-endian float32 bytes, C order; see
  :func:`~repro.serve.client.decode_array`).  The forecast comes back in
  the form of the request's ``input`` (or ``place_image``): objects carry
  the model's float32 bytes exactly and skip the decimal text that
  dominates a nested-list request's cost.

With ``obs_dir`` set, the server also runs a
:class:`~repro.obs.publish.TelemetryPublisher` — its registry snapshot
lands in ``<obs_dir>/telemetry/`` every ``publish_interval`` seconds
(alert rules are evaluated on the same cadence, appending transitions
to ``<obs_dir>/alerts.jsonl``), so a fleet of serve processes sharing
one ``obs_dir`` aggregates under ``repro obs agg``/``top``.

A ``ThreadingHTTPServer`` handles each connection on its own thread; all
inference funnels through the engine's one queue, so concurrent HTTP
clients are exactly what fills its micro-batches (on the engine's lanes,
up to one per usable CPU, or on a fleet's worker lanes).  A connection
that stops sending for :data:`READ_TIMEOUT_SECONDS` is dropped —
mid-body with a 408 — so a stalled client cannot hold a handler thread
forever.
"""

from __future__ import annotations

import concurrent.futures
import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import numpy as np

from repro import __version__
from repro.gan.dataset import make_input_stack
from repro.obs.alerts import ALERTS_NAME, AlertManager, load_rules
from repro.obs.publish import TELEMETRY_DIR, TelemetryPublisher
from repro.obs.timeseries import flatten_export
from repro.serve.client import decode_array, encode_array
from repro.serve.engine import BatchingEngine

#: Reject request bodies larger than this (64 MB covers a 1024px input).
MAX_BODY_BYTES = 64 << 20

#: Seconds a connection may go without sending a byte before it is
#: dropped (a stalled request body is answered 408 first).
READ_TIMEOUT_SECONDS = 30.0

#: Seconds between the accept loop's checks for a stop request, and so
#: the most :meth:`ForecastServer.stop` waits for it (socketserver's
#: default is 0.5 s).
SHUTDOWN_POLL_SECONDS = 0.05

#: Prometheus text exposition content type (the format /metrics defaults to).
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


class ApiError(Exception):
    """An error with an HTTP status, rendered as a JSON body."""

    def __init__(self, status: int, message: str,
                 headers: dict | None = None):
        super().__init__(message)
        self.status = status
        self.headers = dict(headers) if headers else {}


def _array_field(body: dict, name: str) -> np.ndarray:
    """One array field of a forecast body: a nested list or an object."""
    value = body[name]
    if isinstance(value, dict):
        try:
            return decode_array(value)
        except ValueError as error:
            raise ApiError(400, f"bad array object in '{name}': "
                                f"{error}") from None
    return np.asarray(value, dtype=np.float32)


def _parse_forecast_body(body: dict) -> tuple[str, np.ndarray, bool]:
    """Extract (model_id, input array, reply with an array object) from
    a ``/v1/forecast`` payload."""
    if not isinstance(body, dict):
        raise ApiError(400, "request body must be a JSON object")
    model_id = body.get("model")
    if not isinstance(model_id, str):
        raise ApiError(400, "missing or non-string 'model'")
    has_input = "input" in body
    has_images = "place_image" in body
    if has_input == has_images:
        raise ApiError(
            400, "provide exactly one of 'input' or "
                 "'place_image' + 'connect_image'")
    binary = isinstance(body["input" if has_input else "place_image"], dict)
    try:
        if has_input:
            x = _array_field(body, "input")
            if x.ndim != 3:
                raise ApiError(
                    400, f"'input' must be (C, H, W), got shape {x.shape}")
        else:
            if "connect_image" not in body:
                raise ApiError(400, "'place_image' requires 'connect_image'")
            place = _array_field(body, "place_image")
            connect = _array_field(body, "connect_image")
            weight = float(body.get("connect_weight", 0.1))
            x = make_input_stack(place, connect, weight)
    except ApiError:
        raise
    except (TypeError, ValueError) as error:
        raise ApiError(400, f"bad forecast payload: {error}") from None
    # Python's json accepts NaN and Infinity literals; a non-finite
    # input would come back as an invalid-JSON forecast and be cached.
    if not np.isfinite(x).all():
        raise ApiError(400, "forecast input must be finite "
                            "(no NaN or Infinity)")
    return model_id, x, binary


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    timeout = READ_TIMEOUT_SECONDS     # socket timeout, set per connection

    # The wrapper stashes itself on the stdlib server object.
    @property
    def api(self) -> "ForecastServer":
        return self.server.api  # type: ignore[attr-defined]

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        if self.api.verbose:
            super().log_message(format, *args)

    def _send_json(self, status: int, payload: dict,
                   headers: dict | None = None) -> None:
        data = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        for name, value in (headers or {}).items():
            self.send_header(name, str(value))
        if status >= 400:
            # Error paths may not have drained the request body; dropping
            # the keep-alive connection keeps leftover bytes from being
            # parsed as the next request.
            self.send_header("Connection", "close")
            self.close_connection = True
        self.end_headers()
        self.wfile.write(data)

    def _send_text(self, status: int, text: str, content_type: str) -> None:
        data = text.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def _count(self, route: str) -> None:
        self.api.route_counter.labels(route=route).inc()

    def do_GET(self) -> None:  # noqa: N802 - stdlib casing
        try:
            if self.path == "/healthz":
                self._count("/healthz")
                self._send_json(200, {
                    "status": "ok",
                    "version": __version__,
                    "models": self.api.engine.registry.model_ids,
                    "uptime_seconds": time.time() - self.api.started_at,
                })
            elif self.path == "/v1/models":
                self._count("/v1/models")
                self._send_json(200, {
                    "models": [info.as_dict()
                               for info in self.api.engine.registry.list()],
                })
            elif self.path == "/telemetry":
                self._count("/telemetry")
                self._send_json(200, {
                    "role": "serve",
                    "worker": self.api.worker_id,
                    "families": self.api.engine.metrics.export(),
                })
            elif self.path == "/alerts":
                self._count("/alerts")
                self._send_json(200, self.api.alerts_payload())
            elif self.path == "/fleet/status":
                # Only meaningful when the "engine" is a FleetRouter
                # (anything exposing fleet_status()); single engines 404.
                if not hasattr(self.api.engine, "fleet_status"):
                    raise ApiError(404, "not a fleet front "
                                        "(single-engine server)")
                self._count("/fleet/status")
                self._send_json(200, self.api.engine.fleet_status())
            elif self.path == "/metrics":
                self._count("/metrics")
                # Content negotiation: Prometheus text by default, the
                # legacy JSON shape for clients that ask for JSON.
                if "application/json" in self.headers.get("Accept", ""):
                    self._send_json(200, {
                        "engine": self.api.engine.stats(),
                        "http": self.api.http_stats(),
                    })
                else:
                    self._send_text(
                        200, self.api.engine.metrics.render_prometheus(),
                        PROMETHEUS_CONTENT_TYPE)
            else:
                raise ApiError(404, f"no such route: {self.path}")
        except ApiError as error:
            self._send_json(error.status, {"error": str(error)},
                            headers=error.headers)

    def do_POST(self) -> None:  # noqa: N802 - stdlib casing
        try:
            if self.path != "/v1/forecast":
                raise ApiError(404, f"no such route: {self.path}")
            self._count("/v1/forecast")
            try:
                length = int(self.headers.get("Content-Length", 0))
            except ValueError:
                raise ApiError(400, "Content-Length must be an "
                                    "integer") from None
            if length <= 0:
                raise ApiError(400, "missing request body")
            if length > MAX_BODY_BYTES:
                raise ApiError(413, "request body too large")
            try:
                raw = self.rfile.read(length)
            except TimeoutError:
                raise ApiError(408, f"request body not received within "
                                    f"{self.timeout}s") from None
            try:
                body = json.loads(raw)
            except (ValueError, RecursionError) as error:
                # Bad JSON, not UTF-8, or nested past the parser's depth.
                raise ApiError(400, f"invalid JSON: {error}") from None
            model_id, x, binary = _parse_forecast_body(body)
            engine = self.api.engine
            try:
                with engine.tracer.span("http.request",
                                        route="/v1/forecast",
                                        model=model_id):
                    result = engine.forecast_result(
                        model_id, x, timeout=self.api.forecast_timeout)
            except KeyError as error:
                raise ApiError(404, str(error.args[0])) from None
            except ValueError as error:
                raise ApiError(400, str(error)) from None
            except concurrent.futures.TimeoutError:
                raise ApiError(
                    504, f"forecast did not complete within "
                         f"{self.api.forecast_timeout}s") from None
            except RuntimeError as error:
                # Engine stopped mid-request, or the fleet rejected the
                # request (FleetBusyError carries a Retry-After hint so
                # well-behaved clients back off instead of hammering).
                retry_after = getattr(error, "retry_after", None)
                headers = ({"Retry-After": f"{retry_after:.3f}"}
                           if retry_after is not None else None)
                raise ApiError(503, str(error), headers=headers) from None
            self._send_json(200, {
                "model": result.model_id,
                "shape": list(result.image.shape),
                "forecast": (encode_array(result.image) if binary
                             else result.image.tolist()),
                "cached": result.cached,
                "latency_ms": result.latency_seconds * 1e3,
            })
        except ApiError as error:
            self._send_json(error.status, {"error": str(error)},
                            headers=error.headers)


class ForecastServer:
    """Owns a ``ThreadingHTTPServer`` bound to the engine.

    ``port=0`` binds an ephemeral port; read the bound one from ``.port``
    after :meth:`start`.  Use as a context manager in tests and examples.
    """

    def __init__(self, engine: BatchingEngine, host: str = "127.0.0.1",
                 port: int = 8000, forecast_timeout: float = 60.0,
                 verbose: bool = False,
                 obs_dir: str | Path | None = None,
                 alert_rules=None,
                 publish_interval: float = 2.0):
        self.engine = engine
        self.host = host
        self.port = port
        self.forecast_timeout = forecast_timeout
        self.verbose = verbose
        self.started_at = time.time()
        self._httpd: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None
        #: Per-route request counts, as a labeled family in the engine's
        #: registry — rendered in Prometheus text as
        #: ``http_requests_total{route="..."}``.
        self.route_counter = engine.metrics.counter(
            "http_requests_total", "HTTP requests by route.",
            labelnames=("route",))
        # -- fleet observability ------------------------------------------
        self.obs_dir = Path(obs_dir) if obs_dir is not None else None
        self.publish_interval = publish_interval
        self.worker_id = "0"     # refined to host:port at start()
        self.publisher: TelemetryPublisher | None = None
        if alert_rules is None:
            rules = []
        elif isinstance(alert_rules, (str, Path)):
            rules = load_rules(alert_rules)
        else:
            rules = list(alert_rules)
        log_path = (self.obs_dir / ALERTS_NAME
                    if self.obs_dir is not None and rules else None)
        self.alerts = AlertManager(rules, log_path=log_path,
                                   metrics=engine.metrics) if rules \
            else None

    def evaluate_alerts(self) -> list:
        """Run the alert rules against the live registry once."""
        if self.alerts is None:
            return []
        return self.alerts.evaluate(
            flatten_export(self.engine.metrics.export()))

    def alerts_payload(self) -> dict:
        """The ``GET /alerts`` body (evaluates rules on the way)."""
        self.evaluate_alerts()
        payload = {
            "active": self.alerts.active() if self.alerts else [],
            "rules": self.alerts.status() if self.alerts else {},
        }
        drift = self.engine.drift
        if drift is not None:
            payload["drift"] = drift.status()
        return payload

    def http_stats(self) -> dict:
        """Legacy ``{"requests_by_route": ...}`` shape off the registry."""
        return {"requests_by_route": {
            labels[0]: int(counter.value)
            for labels, counter in self.route_counter.items()}}

    def start(self) -> "ForecastServer":
        if self._httpd is not None:
            raise RuntimeError("server is already running")
        if not self.engine.running:
            self.engine.start()
        self._httpd = ThreadingHTTPServer((self.host, self.port), _Handler)
        self._httpd.api = self  # type: ignore[attr-defined]
        self.port = self._httpd.server_address[1]
        self.started_at = time.time()
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, name="forecast-http",
            kwargs={"poll_interval": SHUTDOWN_POLL_SECONDS}, daemon=True)
        self._thread.start()
        self.worker_id = f"{self.host}-{self.port}"
        if self.obs_dir is not None:
            self.publisher = TelemetryPublisher(
                self.engine.metrics, self.obs_dir / TELEMETRY_DIR,
                role="serve", worker=self.worker_id,
                interval=self.publish_interval,
                on_publish=lambda _doc: self.evaluate_alerts())
            self.publisher.start()
        return self

    def stop(self, timeout: float = 10.0) -> None:
        """Stop accepting connections, then stop the engine.

        Raises ``RuntimeError`` (like :meth:`BatchingEngine.stop`) if the
        serving thread is still alive after ``timeout`` — a wedged
        handler would otherwise silently leak a thread bound to the
        port, and the next bind on it would fail mysteriously.
        """
        if self.publisher is not None:
            self.publisher.stop()   # leaves the final exact snapshot
            self.publisher = None
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd = None
        if self._thread is not None:
            self._thread.join(timeout)
            if self._thread.is_alive():
                raise RuntimeError(
                    f"HTTP serving thread did not stop within {timeout}s "
                    f"(a handler is wedged; port {self.port} is still "
                    f"held)")
            self._thread = None
        self.engine.stop()

    def __enter__(self) -> "ForecastServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"
