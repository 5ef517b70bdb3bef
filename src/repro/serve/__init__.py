"""Forecast serving subsystem: the paper's speedup, made queryable.

The cGAN's pitch is forecasting congestion in milliseconds instead of the
hours routing takes — which only pays off when forecasts are servable on
demand, e.g. from inside a placement loop or a design-space sweep.  This
package turns trained checkpoints into a long-lived concurrent service:

* :mod:`repro.serve.registry` — discover and warm-load ``.npz`` checkpoints
  into ready :class:`~repro.gan.Pix2Pix` models, with metadata.
* :mod:`repro.serve.engine`   — micro-batching inference engine: lane
  threads, up to one per usable CPU and the lowest free first, stack
  queued requests into batched forwards (bitwise equal to per-request
  inference), with a content-addressed LRU cache.
* :mod:`repro.serve.cache`    — the forecast cache.
* :mod:`repro.serve.http`     — stdlib ``ThreadingHTTPServer`` JSON API
  (``/v1/forecast``, ``/v1/models``, ``/healthz``, ``/metrics``).
* :mod:`repro.serve.client`   — matching stdlib HTTP client, and the
  base64 float32 array codec both sides use.

Quickstart::

    from repro.serve import BatchingEngine, ForecastCache, ModelRegistry

    registry = ModelRegistry.from_directory("checkpoints/")
    with BatchingEngine(registry, max_batch=8,
                        cache=ForecastCache(256)) as engine:
        image = engine.forecast("diffeq1", x)   # (H, W, 3) in [0, 1]

or over HTTP: ``python -m repro serve --checkpoints checkpoints/``.
"""

from repro.serve.cache import ForecastCache, input_digest
from repro.serve.client import ClientError, ForecastClient, ForecastResponse
from repro.serve.engine import BatchingEngine, ForecastResult
from repro.serve.http import ForecastServer
from repro.serve.registry import ModelInfo, ModelRegistry, load_checkpoint

__all__ = [
    "BatchingEngine",
    "ClientError",
    "ForecastCache",
    "ForecastClient",
    "ForecastResponse",
    "ForecastResult",
    "ForecastServer",
    "ModelInfo",
    "ModelRegistry",
    "input_digest",
    "load_checkpoint",
]
