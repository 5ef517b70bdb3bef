"""Small stdlib client for the forecast HTTP API.

Used by the tests, the serving example, and the benchmark; also a reference
for what a placement tool would embed to query the service.

The client cooperates with fleet backpressure: a 503 from a saturated
:class:`~repro.fleet.router.FleetRouter` (admission or backpressure)
carries a ``Retry-After`` header, and with ``retries > 0`` the client
sleeps that long (or a jittered exponential fallback) and resends —
forecasts are idempotent, so retrying a rejected request is always safe.
A batch lost to a crashed worker is requeued inside the router, so the
client never sees that crash unless the router's retry budget runs out.
"""

from __future__ import annotations

import json
import random
import time
import urllib.error
import urllib.request
from dataclasses import dataclass

import numpy as np

#: Error statuses worth retrying: backpressure and gateway hiccups, not
#: client mistakes (4xx) and not server-side timeouts already spent.
RETRYABLE_STATUSES = (503,)


class ClientError(Exception):
    """Server returned an error status; carries the decoded JSON message."""

    def __init__(self, status: int, message: str,
                 retry_after: float | None = None):
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.message = message
        self.retry_after = retry_after


@dataclass
class ForecastResponse:
    """Decoded ``POST /v1/forecast`` reply."""

    model: str
    forecast: np.ndarray     # (H, W, 3) float32 in [0, 1]
    cached: bool
    latency_ms: float


class ForecastClient:
    """JSON-over-HTTP client bound to one server."""

    def __init__(self, host: str = "127.0.0.1", port: int = 8000,
                 timeout: float = 60.0, retries: int = 0,
                 retry_base: float = 0.05, retry_cap: float = 2.0,
                 retry_seed: int | None = None):
        self.base_url = f"http://{host}:{port}"
        self.timeout = timeout
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        self.retries = retries
        self.retry_base = retry_base
        self.retry_cap = retry_cap
        self._rng = random.Random(retry_seed)

    # -- transport ---------------------------------------------------------

    def _request_once(self, path: str, payload: dict | None = None,
                      accept: str | None = None) -> dict:
        url = self.base_url + path
        data = None
        headers = {}
        if payload is not None:
            data = json.dumps(payload).encode()
            headers["Content-Type"] = "application/json"
        if accept is not None:
            headers["Accept"] = accept
        request = urllib.request.Request(url, data=data, headers=headers)
        try:
            with urllib.request.urlopen(request,
                                        timeout=self.timeout) as response:
                return json.loads(response.read())
        except urllib.error.HTTPError as error:
            try:
                message = json.loads(error.read()).get("error", str(error))
            except (json.JSONDecodeError, ValueError):
                message = str(error)
            retry_after = None
            header = error.headers.get("Retry-After") \
                if error.headers is not None else None
            if header is not None:
                try:
                    retry_after = float(header)
                except ValueError:
                    pass
            raise ClientError(error.code, message,
                              retry_after=retry_after) from None

    def _backoff(self, attempt: int, hint: float | None) -> float:
        if hint is not None:
            return hint
        return min(self.retry_cap,
                   self.retry_base * (2.0 ** attempt)) \
            * (0.5 + 0.5 * self._rng.random())

    def _request(self, path: str, payload: dict | None = None,
                 accept: str | None = None) -> dict:
        attempt = 0
        while True:
            try:
                return self._request_once(path, payload, accept=accept)
            except ClientError as error:
                if (error.status not in RETRYABLE_STATUSES
                        or attempt >= self.retries):
                    raise
                time.sleep(self._backoff(attempt, error.retry_after))
                attempt += 1

    # -- endpoints ---------------------------------------------------------

    def healthz(self) -> dict:
        return self._request("/healthz")

    def models(self) -> list[dict]:
        return self._request("/v1/models")["models"]

    def metrics(self) -> dict:
        """The legacy JSON metrics document (explicitly negotiated —
        ``GET /metrics`` defaults to Prometheus text)."""
        return self._request("/metrics", accept="application/json")

    def metrics_text(self) -> str:
        """The Prometheus text exposition of ``GET /metrics``."""
        url = self.base_url + "/metrics"
        request = urllib.request.Request(
            url, headers={"Accept": "text/plain"})
        try:
            with urllib.request.urlopen(request,
                                        timeout=self.timeout) as response:
                return response.read().decode("utf-8")
        except urllib.error.HTTPError as error:
            raise ClientError(error.code, str(error)) from None

    def forecast(self, model: str, x: np.ndarray | None = None,
                 place_image: np.ndarray | None = None,
                 connect_image: np.ndarray | None = None,
                 connect_weight: float = 0.1) -> ForecastResponse:
        """Request one forecast.

        Pass either ``x`` (a ``(C, H, W)`` normalized input) or
        ``place_image`` + ``connect_image`` (rendered [0, 1] images, built
        into the input stack server-side).
        """
        if (x is None) == (place_image is None):
            raise ValueError("pass exactly one of x or place_image")
        payload: dict = {"model": model}
        if x is not None:
            payload["input"] = np.asarray(x, dtype=np.float32).tolist()
        else:
            if connect_image is None:
                raise ValueError("place_image requires connect_image")
            payload["place_image"] = np.asarray(
                place_image, dtype=np.float32).tolist()
            payload["connect_image"] = np.asarray(
                connect_image, dtype=np.float32).tolist()
            payload["connect_weight"] = connect_weight
        reply = self._request("/v1/forecast", payload)
        return ForecastResponse(
            model=reply["model"],
            forecast=np.asarray(reply["forecast"], dtype=np.float32),
            cached=bool(reply["cached"]),
            latency_ms=float(reply["latency_ms"]),
        )
