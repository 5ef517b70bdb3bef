"""Small stdlib client for the forecast HTTP API, and its array codec.

Used by the tests, the serving example, and the benchmark; also a reference
for what a placement tool would embed to query the service.

Arrays travel as JSON objects ``{"b64": ..., "shape": [...]}``: the
standard base64 of the array's little-endian float32 bytes in C order.
:func:`encode_array` and :func:`decode_array` are the one codec for that
form, on both sides of the wire (:mod:`repro.serve.http` imports them).
The server also takes nested lists and answers in the form it was asked
in; :class:`ForecastClient` always sends and reads objects, so its
forecasts are the model's float32 bytes, with no decimal text between.

The client cooperates with fleet backpressure: a 503 from a saturated
:class:`~repro.fleet.router.FleetRouter` (admission or backpressure)
carries a ``Retry-After`` header, and with ``retries > 0`` the client
sleeps that long (or a jittered exponential fallback) and resends —
forecasts are idempotent, so retrying a rejected request is always safe.
A batch lost to a crashed worker is requeued inside the router, so the
client never sees that crash unless the router's retry budget runs out.
"""

from __future__ import annotations

import base64
import json
import math
import random
import time
import urllib.error
import urllib.request
from dataclasses import dataclass

import numpy as np

#: Error statuses worth retrying: backpressure and gateway hiccups, not
#: client mistakes (4xx) and not server-side timeouts already spent.
RETRYABLE_STATUSES = (503,)

#: The most dimensions an array object may name: numpy's own limit.
MAX_NDIM = 64

#: A refused shape's error message echoes at most this many of its dims,
#: and the digits of a dim only below ``_ECHO_LIMIT``.
_ECHO_DIMS = 4
_ECHO_LIMIT = 10 ** 12


def encode_array(array: np.ndarray) -> dict:
    """The wire object of ``array``: base64 float32 bytes and a shape."""
    data = np.ascontiguousarray(array, "<f4")
    return {"b64": base64.b64encode(data).decode("ascii"),
            "shape": list(np.shape(array))}


def decode_array(value) -> np.ndarray:
    """A writable float32 array from its wire object.

    Accepts only an object with exactly the keys ``b64`` (a base64
    string) and ``shape`` (a list of at most :data:`MAX_NDIM`
    non-negative ints) whose bytes hold exactly ``prod(shape)`` float32
    values; raises ``ValueError`` for anything else.  The byte count is
    checked before any reshape, so a forged shape never sizes an
    allocation, and the check costs a few small multiplications however
    long or large the shape's numbers are.
    """
    if not isinstance(value, dict) or set(value) != {"b64", "shape"}:
        raise ValueError("an array object has exactly the keys "
                         "'b64' and 'shape'")
    text, shape = value["b64"], value["shape"]
    if not isinstance(text, str):
        raise ValueError("'b64' must be a string")
    if (not isinstance(shape, list) or len(shape) > MAX_NDIM
            or not all(type(dim) is int and dim >= 0 for dim in shape)):
        raise ValueError(f"'shape' must be a list of at most {MAX_NDIM} "
                         "non-negative integers")
    raw = base64.b64decode(text, validate=True)   # binascii.Error: ValueError
    # A dim past the byte count cannot match unless another dim is 0, so
    # clamping each dim there keeps the product's ints small.
    bound = len(raw) + 1
    if len(raw) != 4 * math.prod(min(dim, bound) for dim in shape):
        raise ValueError(f"{len(raw)} bytes do not hold a float32 array "
                         f"of shape {_shape_text(shape)}")
    return np.frombuffer(raw, "<f4").astype(np.float32).reshape(shape)


def _shape_text(shape: list[int]) -> str:
    """A shape for an error message, of bounded length however hostile:
    its first dims and its ndim.  A dim of thousands of digits shows as
    its bit length, so it costs no int-to-str work."""
    dims = [str(dim) if dim < _ECHO_LIMIT else f"<{dim.bit_length()}-bit int>"
            for dim in shape[:_ECHO_DIMS]]
    if len(shape) > _ECHO_DIMS:
        dims.append("...")
    return f"[{', '.join(dims)}] (ndim {len(shape)})"


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
        into the input stack server-side).  Arrays go both ways as wire
        objects (:func:`encode_array`), so this needs a server that
        accepts them.
        """
        if (x is None) == (place_image is None):
            raise ValueError("pass exactly one of x or place_image")
        payload: dict = {"model": model}
        if x is not None:
            payload["input"] = encode_array(x)
        else:
            if connect_image is None:
                raise ValueError("place_image requires connect_image")
            payload["place_image"] = encode_array(place_image)
            payload["connect_image"] = encode_array(connect_image)
            payload["connect_weight"] = connect_weight
        reply = self._request("/v1/forecast", payload)
        return ForecastResponse(
            model=reply["model"],
            forecast=decode_array(reply["forecast"]),
            cached=bool(reply["cached"]),
            latency_ms=float(reply["latency_ms"]),
        )
