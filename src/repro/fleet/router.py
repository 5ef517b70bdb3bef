"""Multi-worker serve front: route forecasts across N serving workers.

The single-process :class:`~repro.serve.engine.BatchingEngine` runs every
forward on one thread — its throughput ceiling is one core.  The router
scales past that by fanning requests across N *workers*, each running its
own engine over its own model instances (a model must never run two
forwards concurrently, so workers never share models):

* :class:`ThreadWorker` — an engine on a thread in this process, over an
  exclusively-owned :class:`~repro.serve.registry.ModelRegistry`.  Zero
  IPC; parallelism bounded by the GIL (numpy releases it in BLAS).
* :class:`ProcessWorker` — an engine in a child process fed over a
  ``multiprocessing`` pipe (binary array transfer, no JSON).  True
  multi-core parallelism; each child warm-loads the same checkpoint
  directory.

:class:`FleetRouter` in front of them adds the fleet-tier behaviors:

* **shared forecast cache** — one content-addressed
  :class:`~repro.serve.cache.ForecastCache` at the router, so a result
  computed by worker 2 serves a repeat request that would have routed to
  worker 0.  Forecasts are deterministic, which is what makes the shared
  cache (and everything else here) byte-exact: an N-worker fleet returns
  bit-identical images to a single engine.
* **admission control** — at most ``max_inflight`` requests in flight;
  excess is rejected immediately with :class:`FleetBusyError` (HTTP 503)
  instead of queueing without bound.
* **queue-depth backpressure** — requests route to the least-loaded
  live worker; when even that worker's depth reaches
  ``worker_queue_limit``, the request is rejected rather than parked on
  a queue whose latency is already blown.
* **fleet telemetry** — ``fleet_*`` metrics (routed-per-worker,
  rejections, in-flight, latency) published through
  :class:`repro.obs.publish.TelemetryPublisher`, while every worker
  publishes its own ``serve_*`` engine metrics — ``repro obs top`` over
  the shared directory shows the whole fleet.

The router deliberately duck-types :class:`BatchingEngine`'s serving
surface (``forecast_result``, ``stats``, ``metrics``, ``registry``,
``running``/``start``/``stop``), so
:class:`repro.serve.http.ForecastServer` serves a fleet unchanged.

**Fault tolerance** (the availability tier on top of the scaling tier):

* **crash detection** — a SIGKILLed or wedged worker's pipe closes; the
  receiver thread fails every pending future *immediately* with a typed
  :class:`WorkerCrashError` instead of letting callers hang to their
  timeout.
* **supervision** — a background supervisor probes worker liveness
  (process state plus an explicit ping/pong heartbeat over the pipe,
  which also catches a process that is alive but wedged), and restarts
  dead workers — the child re-warms its models on the way up — behind a
  per-worker circuit breaker so a crash-looping checkpoint cannot melt
  the fleet with restart churn.
* **retry/failover** — forecasts are idempotent (content-digest keyed),
  so a request failed by a worker crash is resubmitted to a surviving
  worker under a bounded retry budget with jittered exponential backoff;
  only when the budget is spent does the caller see the error.
  Saturation (:class:`FleetBusyError`) carries a ``retry_after`` hint
  that the HTTP layer surfaces as ``Retry-After`` on the 503.
* **timeout accounting** — requests that die of timeout are counted in
  ``fleet_requests_expired_total`` (and ``stats()["expired"]``) instead
  of vanishing silently.
"""

from __future__ import annotations

import itertools
import random
import signal
import threading
import time
from collections import deque
from concurrent.futures import Future
from pathlib import Path

import numpy as np

from repro.obs.metrics import MetricsRegistry
from repro.obs.publish import TELEMETRY_DIR, TelemetryPublisher
from repro.obs.trace import Tracer, get_tracer
from repro.serve.cache import ForecastCache, input_digest
from repro.serve.engine import BatchingEngine, ForecastResult
from repro.serve.registry import ModelRegistry


class FleetBusyError(RuntimeError):
    """The fleet is saturated; the request was rejected, not queued.

    ``reason`` is ``"admission"`` (global in-flight cap) or
    ``"backpressure"`` (every worker's queue is at its depth limit).
    Subclasses ``RuntimeError`` so the HTTP layer maps it to 503.
    """

    def __init__(self, reason: str, message: str,
                 retry_after: float | None = None):
        super().__init__(message)
        self.reason = reason
        #: Suggested client wait before retrying; the HTTP layer renders
        #: it as a ``Retry-After`` header on the 503.
        self.retry_after = retry_after


class WorkerError(RuntimeError):
    """A worker process died or failed to come up."""


class WorkerCrashError(WorkerError):
    """The worker process died with this request in flight.

    Typed so the router (and callers) can distinguish a crashed worker —
    safe to retry elsewhere, the request never completed — from a
    request the worker itself rejected.
    """


def backoff_seconds(attempt: int, base: float, cap: float,
                    rng: random.Random) -> float:
    """Jittered exponential backoff: ``base * 2^attempt``, capped,
    scaled by a uniform [0.5, 1.0) jitter drawn from ``rng``."""
    return min(cap, base * (2.0 ** attempt)) * (0.5 + 0.5 * rng.random())


class CircuitBreaker:
    """Per-worker restart gate: closed -> open after ``threshold``
    failures inside ``window`` seconds -> half-open after ``cooldown``.

    Half-open admits restart probes; a probe failure reopens the breaker
    (restarting the cooldown), a success closes it and clears history.
    All timestamps are ``time.monotonic``.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"

    def __init__(self, threshold: int = 3, window: float = 30.0,
                 cooldown: float = 5.0):
        if threshold < 1:
            raise ValueError(f"threshold must be >= 1, got {threshold}")
        self.threshold = threshold
        self.window = window
        self.cooldown = cooldown
        self.state = self.CLOSED
        self._failures: deque[float] = deque()
        self._opened_at: float | None = None

    def _trim(self, now: float) -> None:
        while self._failures and now - self._failures[0] > self.window:
            self._failures.popleft()

    def record_failure(self, now: float | None = None) -> None:
        now = time.monotonic() if now is None else now
        self._failures.append(now)
        self._trim(now)
        if self.state == self.HALF_OPEN \
                or len(self._failures) >= self.threshold:
            self.state = self.OPEN
            self._opened_at = now

    def record_success(self) -> None:
        self.state = self.CLOSED
        self._failures.clear()
        self._opened_at = None

    def allow(self, now: float | None = None) -> bool:
        """May a restart be attempted right now?"""
        now = time.monotonic() if now is None else now
        if self.state == self.CLOSED:
            return True
        if self.state == self.OPEN:
            if self._opened_at is not None \
                    and now - self._opened_at >= self.cooldown:
                self.state = self.HALF_OPEN
                return True
            return False
        return True     # half-open: probe away

    @property
    def value(self) -> float:
        """Gauge encoding: 0 closed, 1 half-open, 2 open."""
        return {self.CLOSED: 0.0, self.HALF_OPEN: 1.0,
                self.OPEN: 2.0}[self.state]


# -- workers ---------------------------------------------------------------

class _WorkerBase:
    """Shared bookkeeping: the router tracks per-worker queue depth here."""

    def __init__(self, worker_id: str):
        self.worker_id = worker_id
        self._depth = 0          # in-flight requests, router-maintained

    @property
    def depth(self) -> int:
        return self._depth

    @property
    def alive(self) -> bool:
        raise NotImplementedError

    def start(self) -> None:
        raise NotImplementedError

    def stop(self, timeout: float = 10.0) -> None:
        raise NotImplementedError

    def submit(self, model_id: str, x: np.ndarray,
               timeout: float | None) -> Future:
        """Dispatch one request; the future resolves to an (H, W, 3) image."""
        raise NotImplementedError


class ThreadWorker(_WorkerBase):
    """A :class:`BatchingEngine` on a thread, over an exclusive registry.

    The registry (and every model in it) must belong to this worker
    alone — two engines sharing a model would run concurrent forwards
    through shared layer caches.
    """

    def __init__(self, worker_id: str, registry: ModelRegistry,
                 max_batch: int = 8, max_wait_ms: float = 2.0,
                 obs_dir: str | Path | None = None,
                 publish_interval: float = 2.0):
        super().__init__(worker_id)
        self.metrics = MetricsRegistry()
        self.engine = BatchingEngine(registry, max_batch=max_batch,
                                     max_wait_ms=max_wait_ms,
                                     metrics=self.metrics)
        self._publisher = None
        if obs_dir is not None:
            self._publisher = TelemetryPublisher(
                self.metrics, Path(obs_dir) / TELEMETRY_DIR, role="serve",
                worker=worker_id, interval=publish_interval)

    @property
    def alive(self) -> bool:
        return self.engine.running

    def start(self) -> None:
        self.engine.start()
        if self._publisher is not None:
            self._publisher.start()

    def stop(self, timeout: float = 10.0) -> None:
        if self._publisher is not None:
            self._publisher.stop()
        self.engine.stop(timeout=timeout)

    def restart(self, timeout: float = 10.0) -> None:
        """Restart the in-process engine (thread workers share our fate
        on real crashes; this recovers a stopped engine)."""
        if self.engine.running:
            self.engine.stop(timeout=timeout)
        self.engine.start()

    def submit(self, model_id: str, x: np.ndarray,
               timeout: float | None) -> Future:
        inner = self.engine.submit(model_id, x, timeout=timeout)
        outer: Future = Future()

        def resolve(done: Future) -> None:
            error = done.exception()
            if error is not None:
                outer.set_exception(error)
            else:
                outer.set_result(done.result().image)

        inner.add_done_callback(resolve)
        return outer


def _process_worker_main(conn, checkpoints: str, max_batch: int,
                         max_wait_ms: float, obs_dir: str | None,
                         worker_id: str, publish_interval: float) -> None:
    """Child body: engine + registry fed from a pipe.

    Protocol (parent -> child): ``(req_id, model_id, x, timeout)``,
    ``("__ping__", token, None, None)`` liveness probes, or ``None`` to
    shut down.  (child -> parent): ``("__ready__", ids)`` once after
    loading, then ``(req_id, "ok", image)`` / ``(req_id, "error",
    message)`` per request in completion order, and ``(token, "pong",
    None)`` echoes for probes.  Any message the child cannot decode
    (a garbled pickle) is a protocol breach: the child shuts down
    cleanly and lets the parent's crash path restart it.
    """
    # A foreground Ctrl-C signals the whole process group; workers must
    # not die mid-recv with a traceback — the parent shuts them down
    # through the pipe sentinel.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        registry = ModelRegistry.from_directory(checkpoints)
        metrics = MetricsRegistry()
        engine = BatchingEngine(registry, max_batch=max_batch,
                                max_wait_ms=max_wait_ms, metrics=metrics,
                                warm_start=True)
        engine.start()
    except Exception as error:
        conn.send(("__error__", f"{type(error).__name__}: {error}"))
        conn.close()
        return
    publisher = None
    if obs_dir is not None:
        publisher = TelemetryPublisher(
            metrics, Path(obs_dir) / TELEMETRY_DIR, role="serve",
            worker=worker_id, interval=publish_interval)
        publisher.start()
    conn.send(("__ready__", registry.model_ids))
    send_lock = threading.Lock()

    def sender(req_id: int, future: Future) -> None:
        error = future.exception()
        if error is not None:
            payload = (req_id, "error",
                       f"{type(error).__name__}: {error}")
        else:
            payload = (req_id, "ok", future.result().image)
        with send_lock:
            try:
                conn.send(payload)
            except OSError:
                pass   # parent went away; nothing left to tell it

    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break
            except Exception:
                # Undecodable message (garbled pickle): the pipe can no
                # longer be trusted — exit cleanly; the supervisor's
                # crash path restarts this worker.
                break
            if message is None:
                break
            req_id, model_id, x, timeout = message
            if req_id == "__ping__":
                with send_lock:
                    try:
                        conn.send((model_id, "pong", None))
                    except OSError:
                        break
                continue
            try:
                future = engine.submit(model_id, x, timeout=timeout)
            except Exception as error:
                with send_lock:
                    conn.send((req_id, "error",
                               f"{type(error).__name__}: {error}"))
                continue
            future.add_done_callback(
                lambda done, req_id=req_id: sender(req_id, done))
    except (EOFError, OSError):
        pass
    finally:
        try:
            engine.stop()
        finally:
            if publisher is not None:
                publisher.stop()
            conn.close()


class ProcessWorker(_WorkerBase):
    """A serving engine in a child process, fed over a pipe.

    The child warm-loads ``checkpoints`` into its own registry, so its
    models are exclusive by construction.  Arrays cross the pipe via
    pickle (binary, exact — float32 bits survive the round trip).
    """

    def __init__(self, worker_id: str, checkpoints: str | Path,
                 max_batch: int = 8, max_wait_ms: float = 2.0,
                 obs_dir: str | Path | None = None,
                 publish_interval: float = 2.0,
                 start_timeout: float = 120.0):
        super().__init__(worker_id)
        self.checkpoints = str(checkpoints)
        self.max_batch = max_batch
        self.max_wait_ms = max_wait_ms
        self.obs_dir = str(obs_dir) if obs_dir is not None else None
        self.publish_interval = publish_interval
        self.start_timeout = start_timeout
        self._process = None
        self._conn = None
        self._receiver: threading.Thread | None = None
        self._pending: dict[int, Future] = {}
        self._pending_lock = threading.Lock()
        self._send_lock = threading.Lock()
        self._req_ids = itertools.count()
        self._alive = False
        self.model_ids: list[str] = []
        #: Liveness bookkeeping the supervisor reads (monotonic stamps).
        self.started_at: float | None = None
        self.last_pong: float | None = None
        self.restarts = 0

    @property
    def alive(self) -> bool:
        # The receiver flips _alive on pipe EOF; the process check
        # catches a SIGKILL in the instant before the EOF is observed.
        return (self._alive and self._process is not None
                and self._process.is_alive())

    @property
    def pid(self) -> int | None:
        """The child's pid (the chaos harness's kill target)."""
        return self._process.pid if self._process is not None else None

    def start(self) -> None:
        import multiprocessing

        methods = multiprocessing.get_all_start_methods()
        ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn")
        self._conn, child_conn = ctx.Pipe()
        self._process = ctx.Process(
            target=_process_worker_main,
            args=(child_conn, self.checkpoints, self.max_batch,
                  self.max_wait_ms, self.obs_dir, self.worker_id,
                  self.publish_interval),
            name=f"fleet-{self.worker_id}", daemon=True)
        self._process.start()
        child_conn.close()
        if not self._conn.poll(self.start_timeout):
            self._process.terminate()
            raise WorkerError(f"worker {self.worker_id} did not come up "
                              f"within {self.start_timeout}s")
        status, payload = self._conn.recv()
        if status != "__ready__":
            self._process.join(5.0)
            raise WorkerError(f"worker {self.worker_id} failed to load "
                              f"{self.checkpoints}: {payload}")
        self.model_ids = list(payload)
        self._alive = True
        self.started_at = time.monotonic()
        self.last_pong = None
        self._receiver = threading.Thread(
            target=self._receive, args=(self._conn,),
            name=f"fleet-recv-{self.worker_id}", daemon=True)
        self._receiver.start()

    def _receive(self, conn) -> None:
        # conn is bound at thread creation: a restart() swaps
        # self._conn, and a lingering old receiver must never read from
        # the new incarnation's pipe.
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break
            except Exception:
                break   # garbled message: treat the pipe as dead
            if message is None:
                break
            req_id, status, payload = message
            if status == "pong":
                self.last_pong = time.monotonic()
                continue
            with self._pending_lock:
                future = self._pending.pop(req_id, None)
            if future is None:
                continue
            if status == "ok":
                payload.flags.writeable = False
                future.set_result(payload)
            else:
                error: Exception
                if "TimeoutError" in payload.split(":", 1)[0]:
                    error = TimeoutError(payload)
                else:
                    error = WorkerError(
                        f"worker {self.worker_id}: {payload}")
                future.set_exception(error)
        self._alive = False
        self._fail_pending(
            f"worker {self.worker_id} exited with requests in flight")

    def _fail_pending(self, message: str) -> None:
        """Fail every pending future fast with a typed crash error."""
        with self._pending_lock:
            pending, self._pending = self._pending, {}
        for future in pending.values():
            if not future.done():
                future.set_exception(WorkerCrashError(message))

    def ping(self) -> bool:
        """Send one liveness probe; the pong lands in :attr:`last_pong`."""
        if not self._alive:
            return False
        token = next(self._req_ids)
        try:
            with self._send_lock:
                self._conn.send(("__ping__", token, None, None))
        except (OSError, ValueError):
            return False
        return True

    def submit(self, model_id: str, x: np.ndarray,
               timeout: float | None) -> Future:
        if not self.alive:
            raise WorkerError(f"worker {self.worker_id} is not running")
        future: Future = Future()
        req_id = next(self._req_ids)
        with self._pending_lock:
            self._pending[req_id] = future
        try:
            with self._send_lock:
                self._conn.send((req_id, model_id,
                                 np.ascontiguousarray(x), timeout))
        except (OSError, ValueError) as error:
            with self._pending_lock:
                self._pending.pop(req_id, None)
            raise WorkerError(f"worker {self.worker_id} pipe is down: "
                              f"{error}") from None
        return future

    def restart(self, timeout: float = 10.0) -> None:
        """Tear down whatever is left of the child and start a fresh one.

        The replacement re-warms the checkpoint directory exactly like
        the first incarnation (``warm_start`` in the child).  Pending
        futures, if the receiver has not failed them already, fail with
        :class:`WorkerCrashError` — never silently hang.
        """
        self._alive = False
        process, conn = self._process, self._conn
        receiver = self._receiver
        if conn is not None:
            try:
                conn.close()    # forces the old receiver out of recv()
            except OSError:
                pass
        if process is not None:
            if process.is_alive():
                process.terminate()
            process.join(timeout)
            if process.is_alive():
                process.kill()
                process.join(5.0)
        if receiver is not None \
                and receiver is not threading.current_thread():
            receiver.join(timeout)
        self._fail_pending(
            f"worker {self.worker_id} restarted with requests in flight")
        self._process = None
        self._conn = None
        self._receiver = None
        self.start()
        self.restarts += 1

    def stop(self, timeout: float = 10.0) -> None:
        if self._process is None:
            return
        self._alive = False
        try:
            with self._send_lock:
                self._conn.send(None)
        except (OSError, ValueError):
            pass
        self._process.join(timeout)
        if self._process.is_alive():
            self._process.terminate()
            self._process.join(5.0)
            raise WorkerError(f"worker {self.worker_id} did not stop "
                              f"within {timeout}s (terminated)")
        self._process = None


# -- the router ------------------------------------------------------------

def _failed_future(error: Exception) -> Future:
    future: Future = Future()
    future.set_exception(error)
    return future


class _NullWorker:
    """Stand-in dispatch target when no live worker exists for a retry."""

    worker_id = "(none)"
    _depth = 1          # _on_worker_done decrements it back to zero


class FleetRouter:
    """Admission-controlled request fan-out over N serving workers.

    Duck-types the :class:`BatchingEngine` serving surface so
    :class:`~repro.serve.http.ForecastServer` can serve it directly.
    """

    def __init__(self, workers: list, registry: ModelRegistry,
                 cache: ForecastCache | None = None,
                 max_inflight: int = 256, worker_queue_limit: int = 32,
                 metrics: MetricsRegistry | None = None,
                 tracer: Tracer | None = None,
                 obs_dir: str | Path | None = None,
                 publish_interval: float = 2.0,
                 retry_budget: int = 2, retry_base: float = 0.05,
                 retry_cap: float = 1.0, retry_after: float = 0.5,
                 supervise: bool = True, supervise_interval: float = 0.5,
                 heartbeat_timeout: float = 10.0,
                 breaker_threshold: int = 3, breaker_window: float = 30.0,
                 breaker_cooldown: float = 5.0,
                 retry_seed: int | None = None):
        if not workers:
            raise ValueError("a fleet needs at least one worker")
        if max_inflight < 1:
            raise ValueError(f"max_inflight must be >= 1, "
                             f"got {max_inflight}")
        if worker_queue_limit < 1:
            raise ValueError(f"worker_queue_limit must be >= 1, "
                             f"got {worker_queue_limit}")
        if retry_budget < 0:
            raise ValueError(f"retry_budget must be >= 0, "
                             f"got {retry_budget}")
        self.workers = list(workers)
        ids = [worker.worker_id for worker in self.workers]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate worker ids: {ids}")
        self.registry = registry
        self.cache = cache
        self.max_inflight = max_inflight
        self.worker_queue_limit = worker_queue_limit
        self.retry_budget = retry_budget
        self.retry_base = retry_base
        self.retry_cap = retry_cap
        self.retry_after = retry_after
        self.supervise = supervise
        self.supervise_interval = supervise_interval
        self.heartbeat_timeout = heartbeat_timeout
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else get_tracer()
        self.drift = None           # engine-surface parity (no monitor)
        self._lock = threading.Lock()
        self._inflight = 0
        self._running = False
        self._publisher = None
        self._rng = random.Random(retry_seed)
        self._breakers = {
            worker.worker_id: CircuitBreaker(
                threshold=breaker_threshold, window=breaker_window,
                cooldown=breaker_cooldown)
            for worker in self.workers}
        self._supervisor: threading.Thread | None = None
        self._supervisor_wake = threading.Event()
        self._timers: dict = {}      # pending retry Timer -> request state
        self._timer_lock = threading.Lock()
        if obs_dir is not None:
            self._publisher = TelemetryPublisher(
                self.metrics, Path(obs_dir) / TELEMETRY_DIR, role="router",
                worker="router", interval=publish_interval)
        self._register_metrics()

    @classmethod
    def local(cls, checkpoints: str | Path, workers: int = 2,
              mode: str = "process", max_batch: int = 8,
              max_wait_ms: float = 2.0,
              cache: ForecastCache | None = None,
              obs_dir: str | Path | None = None,
              publish_interval: float = 2.0, **router_kwargs
              ) -> "FleetRouter":
        """Build a fleet over one checkpoint directory.

        ``mode="process"`` gives each worker its own process (true
        multi-core scaling); ``mode="thread"`` keeps them in-process
        (cheaper to start, GIL-bound).  Either way each worker loads its
        own model instances.
        """
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if mode not in ("process", "thread"):
            raise ValueError(f"mode must be 'process' or 'thread', "
                             f"got {mode!r}")
        registry = ModelRegistry.from_directory(checkpoints)
        built: list = []
        for index in range(workers):
            worker_id = f"w{index}"
            if mode == "process":
                built.append(ProcessWorker(
                    worker_id, checkpoints, max_batch=max_batch,
                    max_wait_ms=max_wait_ms, obs_dir=obs_dir,
                    publish_interval=publish_interval))
            else:
                built.append(ThreadWorker(
                    worker_id, ModelRegistry.from_directory(checkpoints),
                    max_batch=max_batch, max_wait_ms=max_wait_ms,
                    obs_dir=obs_dir, publish_interval=publish_interval))
        return cls(built, registry, cache=cache, obs_dir=obs_dir,
                   publish_interval=publish_interval, **router_kwargs)

    # -- metrics -----------------------------------------------------------

    def _register_metrics(self) -> None:
        m = self.metrics
        self._m_requests = m.counter(
            "fleet_requests_total",
            "Requests reaching the router (cache hits included).")
        self._m_rejected = m.counter(
            "fleet_rejected_total",
            "Requests rejected by admission control or backpressure.",
            labelnames=("reason",))
        self._m_routed = m.counter(
            "fleet_routed_total", "Requests dispatched, by worker.",
            labelnames=("worker",))
        self._m_errors = m.counter(
            "fleet_errors_total", "Requests failed by a worker.")
        self._m_latency = m.histogram(
            "fleet_request_latency_seconds",
            "Router submit-to-result latency per completed request.")
        self._m_expired = m.counter(
            "fleet_requests_expired_total",
            "Requests that timed out before a worker produced a result.")
        self._m_retries = m.counter(
            "fleet_retries_total",
            "Requests resubmitted to a surviving worker after a crash.")
        self._m_restarts = m.counter(
            "fleet_worker_restarts_total",
            "Worker restarts performed by the supervisor, by worker.",
            labelnames=("worker",))
        self._m_breaker = m.gauge(
            "fleet_breaker_state",
            "Circuit breaker state per worker "
            "(0=closed, 1=half-open, 2=open).",
            labelnames=("worker",))
        for worker_id in self._breakers:
            self._m_breaker.labels(worker=worker_id).set(0)
        m.gauge("fleet_inflight", "Requests currently in flight.",
                fn=lambda: self._inflight)
        m.gauge("fleet_workers_alive", "Workers currently serving.",
                fn=lambda: sum(1 for w in self.workers if w.alive))
        m.gauge("fleet_worker_queue_depth",
                "Deepest per-worker queue right now.",
                fn=lambda: max((w.depth for w in self.workers), default=0))
        cache = self.cache
        if cache is not None:
            m.counter("fleet_cache_hits_total", "Shared-cache hits.",
                      fn=lambda: cache.hits)
            m.counter("fleet_cache_misses_total", "Shared-cache misses.",
                      fn=lambda: cache.misses)
            m.gauge("fleet_cache_hit_ratio",
                    "Shared-cache hits over lookups.",
                    fn=lambda: cache.hit_rate)

    # -- lifecycle ---------------------------------------------------------

    @property
    def running(self) -> bool:
        return self._running

    def start(self) -> "FleetRouter":
        if self._running:
            raise RuntimeError("fleet router is already running")
        started = []
        try:
            for worker in self.workers:
                worker.start()
                started.append(worker)
        except Exception:
            for worker in started:
                try:
                    worker.stop()
                except Exception:
                    pass
            raise
        if self._publisher is not None:
            self._publisher.start()
        self._running = True
        if self.supervise:
            self._supervisor_wake.clear()
            self._supervisor = threading.Thread(
                target=self._supervise_loop, name="fleet-supervisor",
                daemon=True)
            self._supervisor.start()
        return self

    def stop(self, timeout: float = 10.0) -> None:
        with self._lock:
            self._running = False
        self._supervisor_wake.set()
        if self._supervisor is not None:
            self._supervisor.join(timeout)
            self._supervisor = None
        with self._timer_lock:
            timers, self._timers = self._timers, {}
        for timer, state in timers.items():
            timer.cancel()
            if not state["future"].done():
                state["future"].set_exception(WorkerCrashError(
                    "fleet router stopped with a retry pending"))
        if self._publisher is not None:
            self._publisher.stop()
        errors = []
        for worker in self.workers:
            try:
                worker.stop(timeout=timeout)
            except Exception as error:
                errors.append(f"{worker.worker_id}: {error}")
        if errors:
            raise WorkerError("worker shutdown failed: "
                              + "; ".join(errors))

    # -- supervision -------------------------------------------------------

    def _supervise_loop(self) -> None:
        while True:
            self._supervisor_wake.wait(self.supervise_interval)
            if not self._running:
                return
            self._supervise_tick()

    def _supervise_tick(self) -> None:
        """One liveness sweep: probe, detect, restart behind breakers."""
        now = time.monotonic()
        for worker in self.workers:
            breaker = self._breakers[worker.worker_id]
            stalled = False
            if worker.alive and isinstance(worker, ProcessWorker):
                worker.ping()
                seen = worker.last_pong or worker.started_at or now
                stalled = (now - seen) > self.heartbeat_timeout
            if (not worker.alive or stalled) and breaker.allow(now):
                try:
                    worker.restart()
                except Exception:
                    breaker.record_failure(time.monotonic())
                else:
                    breaker.record_success()
                    self._m_restarts.labels(
                        worker=worker.worker_id).inc()
                    self.tracer.instant("fleet.worker_restart",
                                        worker=worker.worker_id,
                                        stalled=stalled)
            self._m_breaker.labels(
                worker=worker.worker_id).set(breaker.value)

    def __enter__(self) -> "FleetRouter":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- request path ------------------------------------------------------

    def submit(self, model_id: str, x: np.ndarray,
               timeout: float | None = None) -> Future:
        """Route one request; the future resolves to a
        :class:`~repro.serve.engine.ForecastResult`.

        Raises :class:`FleetBusyError` instead of queueing when the
        fleet is saturated — callers (and the HTTP 503 path) decide
        whether to retry.
        """
        if not self._running:
            raise RuntimeError("fleet router is not running "
                               "(call start())")
        info = self.registry.info(model_id)   # KeyError -> 404 upstream
        x = np.asarray(x, dtype=np.float32)
        if x.ndim == 4 and x.shape[0] == 1:
            x = x[0]
        expected = (info.input_channels, info.image_size, info.image_size)
        if x.shape != expected:
            raise ValueError(f"model {model_id!r} expects input shape "
                             f"{expected}, got {x.shape}")
        start = time.perf_counter()
        self._m_requests.inc()
        future: Future = Future()
        digest = input_digest(x) if self.cache is not None else None
        if self.cache is not None:
            hit = self.cache.get(model_id, digest)
            if hit is not None:
                latency = time.perf_counter() - start
                self._m_latency.observe(latency)
                self.tracer.instant("fleet.cache_hit", model=model_id)
                future.set_result(ForecastResult(
                    model_id=model_id, image=hit, cached=True,
                    latency_seconds=latency))
                return future
        state = {
            "model_id": model_id, "x": x, "timeout": timeout,
            "digest": digest, "start": start, "attempt": 0,
            "future": future,
            "deadline": (time.monotonic() + timeout
                         if timeout is not None else None),
        }
        with self._lock:
            if not self._running:
                raise RuntimeError("fleet router is stopping")
            if self._inflight >= self.max_inflight:
                self._m_rejected.labels(reason="admission").inc()
                raise FleetBusyError(
                    "admission",
                    f"fleet at max_inflight={self.max_inflight}; "
                    f"request rejected", retry_after=self.retry_after)
            live = [worker for worker in self.workers if worker.alive]
            if not live:
                raise WorkerError("no live workers in the fleet")
            worker = min(live, key=lambda w: w.depth)
            if worker.depth >= self.worker_queue_limit:
                self._m_rejected.labels(reason="backpressure").inc()
                raise FleetBusyError(
                    "backpressure",
                    f"every worker queue is at depth "
                    f">= {self.worker_queue_limit}; request rejected",
                    retry_after=self.retry_after)
            self._inflight += 1
            worker._depth += 1
        try:
            inner = worker.submit(model_id, x, timeout)
        except Exception:
            with self._lock:
                self._inflight -= 1
                worker._depth -= 1
            raise
        self._m_routed.labels(worker=worker.worker_id).inc()
        inner.add_done_callback(
            lambda done: self._on_worker_done(done, state, worker))
        return future

    # -- retry / failover --------------------------------------------------

    def _on_worker_done(self, done: Future, state: dict, worker) -> None:
        """Resolve one dispatch attempt: finish, or fail over and retry.

        ``_inflight`` was incremented exactly once per request at
        admission and is decremented exactly once here, at final
        resolution — retries in between only touch per-worker depth.
        """
        with self._lock:
            worker._depth -= 1
        error = done.exception()
        if error is None:
            self._finalize_success(state, done.result())
            return
        if isinstance(error, WorkerCrashError) and self._running:
            remaining = (state["deadline"] - time.monotonic()
                         if state["deadline"] is not None else None)
            if (state["attempt"] < self.retry_budget
                    and (remaining is None or remaining > 0)):
                delay = backoff_seconds(state["attempt"], self.retry_base,
                                        self.retry_cap, self._rng)
                if remaining is not None:
                    delay = min(delay, remaining)
                state["attempt"] += 1
                self._m_retries.inc()
                self.tracer.instant("fleet.retry",
                                    model=state["model_id"],
                                    attempt=state["attempt"])
                timer = threading.Timer(
                    delay, self._redispatch, args=(state,))
                timer.daemon = True
                with self._timer_lock:
                    state["_timer"] = timer
                    self._timers[timer] = state
                timer.start()
                return
        self._finalize_failure(state, error)

    def _redispatch(self, state: dict) -> None:
        """Resubmit after backoff to the least-loaded surviving worker.

        Retries are already admitted — they bypass admission control and
        queue limits so a recovering fleet cannot reject work it
        accepted before the crash.
        """
        with self._timer_lock:
            self._timers.pop(state.pop("_timer", None), None)
        if state["future"].done():
            return
        with self._lock:
            running = self._running
            live = ([worker for worker in self.workers if worker.alive]
                    if running else [])
            if live:
                worker = min(live, key=lambda w: w.depth)
                worker._depth += 1
        if not running:
            self._finalize_failure(state, WorkerCrashError(
                "fleet router stopped during retry"))
            return
        if not live:
            # Nobody to run on right now; burn one retry waiting for the
            # supervisor to bring a worker back.
            self._on_worker_done(_failed_future(WorkerCrashError(
                "no live workers to retry on")), state, _NullWorker())
            return
        remaining = (state["deadline"] - time.monotonic()
                     if state["deadline"] is not None else None)
        if remaining is not None and remaining <= 0:
            with self._lock:
                worker._depth -= 1
            self._finalize_failure(state, TimeoutError(
                f"request expired after {state['attempt']} retries"))
            return
        try:
            inner = worker.submit(state["model_id"], state["x"],
                                  remaining if remaining is not None
                                  else state["timeout"])
        except Exception as error:
            self._on_worker_done(_failed_future(error), state, worker)
            return
        self._m_routed.labels(worker=worker.worker_id).inc()
        inner.add_done_callback(
            lambda done: self._on_worker_done(done, state, worker))

    def _finalize_success(self, state: dict, image: np.ndarray) -> None:
        with self._lock:
            self._inflight -= 1
        latency = time.perf_counter() - state["start"]
        self._m_latency.observe(latency)
        if self.cache is not None and state["digest"] is not None:
            self.cache.put(state["model_id"], state["digest"], image)
        if not state["future"].done():
            state["future"].set_result(ForecastResult(
                model_id=state["model_id"], image=image, cached=False,
                latency_seconds=latency))

    def _finalize_failure(self, state: dict, error: Exception) -> None:
        with self._lock:
            self._inflight -= 1
        if isinstance(error, TimeoutError):
            self._m_expired.inc()
        else:
            self._m_errors.inc()
        if not state["future"].done():
            state["future"].set_exception(error)

    def forecast_result(self, model_id: str, x: np.ndarray,
                        timeout: float | None = 30.0) -> ForecastResult:
        """Blocking wrapper (the :class:`ForecastServer` entry point)."""
        return self.submit(model_id, x, timeout=timeout).result(
            timeout=timeout)

    def forecast(self, model_id: str, x: np.ndarray,
                 timeout: float | None = 30.0) -> np.ndarray:
        return self.forecast_result(model_id, x, timeout=timeout).image

    # -- introspection -----------------------------------------------------

    def stats(self) -> dict:
        """The fleet's ``/metrics`` JSON shape (router-level numbers)."""
        latency = self._m_latency
        completed = latency.count
        rejected = {labels[0]: int(counter.value)
                    for labels, counter in self._m_rejected.items()}
        routed = {labels[0]: int(counter.value)
                  for labels, counter in self._m_routed.items()}
        restarts = {labels[0]: int(counter.value)
                    for labels, counter in self._m_restarts.items()}
        snapshot = {
            "requests": int(self._m_requests.value),
            "completed": completed,
            "errors": int(self._m_errors.value),
            "expired": int(self._m_expired.value),
            "retries": int(self._m_retries.value),
            "restarts": restarts,
            "breakers": {worker_id: breaker.state
                         for worker_id, breaker in self._breakers.items()},
            "rejected": rejected,
            "routed_by_worker": routed,
            "inflight": self._inflight,
            "workers": len(self.workers),
            "workers_alive": sum(1 for w in self.workers if w.alive),
            "max_inflight": self.max_inflight,
            "worker_queue_limit": self.worker_queue_limit,
            "mean_latency_ms": (1e3 * latency.sum / completed
                                if completed else 0.0),
            "latency_p50_ms": 1e3 * latency.quantile(0.5),
            "latency_p99_ms": 1e3 * latency.quantile(0.99),
        }
        if self.cache is not None:
            cache_stats = self.cache.stats()
            snapshot["cache"] = cache_stats
            snapshot["cache_hits"] = cache_stats["hits"]
            snapshot["cache_misses"] = cache_stats["misses"]
        return snapshot

    def fleet_status(self) -> dict:
        """Per-worker detail for ``GET /fleet/status``."""
        return {
            "stats": self.stats(),
            "workers": [{"id": worker.worker_id, "alive": worker.alive,
                         "queue_depth": worker.depth,
                         "breaker": self._breakers[worker.worker_id].state,
                         "restarts": getattr(worker, "restarts", 0)}
                        for worker in self.workers],
            "models": self.registry.model_ids,
        }
