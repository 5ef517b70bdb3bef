"""Multi-worker serve front: one batching engine, N worker processes.

The single-process :class:`~repro.serve.engine.BatchingEngine` runs its
forwards on up to one lane thread per usable CPU, all in this process.
:class:`FleetRouter` *is* that engine with one drain lane per
:class:`ProcessWorker`: requests are validated, cached, deadlined and
batched once, at the front, and each lane ships its stacked batch down
its worker's pipe (binary pickle, exact — float32 bits survive the round
trip) to a child process that holds its own warm copy of the checkpoint
directory.  A model never runs two forwards concurrently because each
child has exactly one lane feeding it.

Because the front is the engine, everything the engine does holds for a
fleet unchanged — batch formation (one lane at a time, the lowest free
lane first: a lone caller's requests all go to worker 0, and the next
worker takes a batch only while every lower one is busy), the shared
content-addressed forecast cache (a result computed by worker 2 serves a
repeat that worker 0 would have run), the ``serve_*`` metrics, expiry of
requests whose caller gave up, and bitwise-identical images to a single
engine (deterministic inference is batch-invariant).
:class:`repro.serve.http.ForecastServer` serves a fleet as it serves an
engine, and is the one publisher of its registry.

The router adds only what a fleet needs:

* **admission control** — at most ``max_inflight`` requests in flight;
  excess is rejected at submit with :class:`FleetBusyError` (HTTP 503).
* **backpressure** — when the queue is already ``worker_queue_limit``
  deep per live worker, a request is rejected rather than parked on a
  queue whose latency is already blown.  Both 503s carry a
  ``retry_after`` hint the HTTP layer renders as ``Retry-After``.
* **crash requeue** — a batch whose worker dies (pipe closed) or stalls
  (no reply within ``heartbeat_timeout``) fails with
  :class:`WorkerCrashError`; forecasts are idempotent, so its requests go
  back on the queue for any lane to take, at most ``retry_budget`` times
  each.
* **restart behind a breaker** — the crashed lane restarts its own worker
  (the child re-warms on the way up), and an idle lane whose process has
  died does the same; a per-worker :class:`CircuitBreaker` stops a
  crash-looping checkpoint from melting the fleet with restart churn.
* **fleet telemetry** — ``fleet_*`` metrics (routed per worker,
  rejections, retries, restarts, breaker state, in-flight, live workers)
  next to the engine's ``serve_*`` ones, and ``GET /fleet/status``.
"""

from __future__ import annotations

import signal
import threading
import time
from collections import deque
from concurrent.futures import Future
from pathlib import Path

import numpy as np

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.serve.cache import ForecastCache
from repro.serve.engine import BatchingEngine, warm_models
from repro.serve.registry import ModelRegistry


class FleetBusyError(RuntimeError):
    """The fleet is saturated; the request was rejected, not queued.

    ``reason`` is ``"admission"`` (global in-flight cap) or
    ``"backpressure"`` (the queue is at its depth limit).  Subclasses
    ``RuntimeError`` so the HTTP layer maps it to 503.
    """

    def __init__(self, reason: str, message: str,
                 retry_after: float | None = None):
        super().__init__(message)
        self.reason = reason
        #: Suggested client wait before retrying; the HTTP layer renders
        #: it as a ``Retry-After`` header on the 503.
        self.retry_after = retry_after


class WorkerError(RuntimeError):
    """A worker process failed a batch or failed to come up."""


class WorkerCrashError(WorkerError):
    """The worker process died (or stalled) with this request in flight.

    Typed so the router (and callers) can distinguish a crashed worker —
    safe to retry elsewhere, the request never completed — from a
    request the worker itself rejected.
    """


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

# Held while a child is forked and its pipe end is still open in this
# process: a child forked concurrently by another lane's restart would
# inherit that end and keep the pipe from reporting EOF when its real
# owner dies.
_SPAWN_LOCK = threading.Lock()


def _process_worker_main(conn, checkpoints: str, max_batch: int) -> None:
    """Child body: load and warm the checkpoints, then serve batches.

    Protocol (parent -> child): ``(model_id, batch)`` or ``None`` to shut
    down.  (child -> parent): ``("ready", model_ids)`` or ``("error",
    message)`` once after loading, then ``("ok", images)`` or
    ``("error", message)`` per batch.  A message the child cannot decode
    (a garbled frame) is a protocol breach: the child exits and lets its
    lane restart it.
    """
    # A foreground Ctrl-C signals the whole process group; workers must
    # not die mid-recv with a traceback — the parent shuts them down
    # through the pipe sentinel.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        registry = ModelRegistry.from_directory(checkpoints)
        warm_models(registry, max_batch)
    except Exception as error:
        conn.send(("error", f"{type(error).__name__}: {error}"))
        conn.close()
        return
    conn.send(("ready", registry.model_ids))
    try:
        while True:
            try:
                message = conn.recv()
                if message is None:
                    break
                model_id, batch = message
            except Exception:
                break   # EOF, or a frame that is not a batch
            try:
                reply = ("ok", registry.get(model_id).forecast(batch))
            except Exception as error:
                reply = ("error", f"{type(error).__name__}: {error}")
            conn.send(reply)
    except OSError:
        pass        # parent went away; nothing left to tell it
    finally:
        conn.close()


class ProcessWorker:
    """A child process holding warm models, fed stacked batches over a pipe.

    The child warm-loads ``checkpoints`` into its own registry (warmed at
    ``max_batch`` width), so its models are exclusive by construction.
    Only its router lane talks to it, one batch at a time.
    """

    def __init__(self, worker_id: str, checkpoints: str | Path,
                 max_batch: int = 8, start_timeout: float = 120.0):
        self.worker_id = worker_id
        self.checkpoints = str(checkpoints)
        self.max_batch = max_batch
        self.start_timeout = start_timeout
        self._process = None
        self._conn = None
        self.model_ids: list[str] = []
        self.restarts = 0

    @property
    def alive(self) -> bool:
        return self._process is not None and self._process.is_alive()

    @property
    def pid(self) -> int | None:
        """The child's pid (the chaos harness's kill target)."""
        return self._process.pid if self._process is not None else None

    def start(self) -> None:
        import multiprocessing

        methods = multiprocessing.get_all_start_methods()
        ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn")
        with _SPAWN_LOCK:
            self._conn, child_conn = ctx.Pipe()
            self._process = ctx.Process(
                target=_process_worker_main,
                args=(child_conn, self.checkpoints, self.max_batch),
                name=f"fleet-{self.worker_id}", daemon=True)
            self._process.start()
            child_conn.close()
        try:
            status, payload = (
                self._conn.recv() if self._conn.poll(self.start_timeout)
                else ("error", f"not up within {self.start_timeout}s"))
        except (EOFError, OSError):
            status, payload = "error", "exited while loading"
        if status != "ready":
            self._kill()
            raise WorkerError(f"worker {self.worker_id} failed to load "
                              f"{self.checkpoints}: {payload}")
        self.model_ids = list(payload)

    def forecast(self, model_id: str, batch: np.ndarray,
                 timeout: float) -> np.ndarray:
        """Run one stacked batch in the child; its (N, H, W, 3) images.

        Raises :class:`WorkerCrashError` when the pipe closes or no reply
        arrives within ``timeout`` seconds, :class:`WorkerError` when the
        child reports a failed forward.
        """
        if self._conn is None:
            raise WorkerCrashError(f"worker {self.worker_id} is not "
                                   f"running")
        try:
            self._conn.send((model_id, batch))
            if not self._conn.poll(timeout):
                raise WorkerCrashError(
                    f"worker {self.worker_id} stalled: no reply within "
                    f"{timeout}s")
            status, payload = self._conn.recv()
        except (EOFError, OSError):
            raise WorkerCrashError(f"worker {self.worker_id} exited with "
                                   f"a batch in flight") from None
        if status != "ok":
            raise WorkerError(f"worker {self.worker_id}: {payload}")
        return payload

    def _kill(self) -> None:
        """SIGKILL whatever is left of the child (works on a stopped one)."""
        if self._conn is not None:
            self._conn.close()
        if self._process is not None:
            self._process.kill()
            self._process.join(5.0)
        self._process = None
        self._conn = None

    def restart(self) -> None:
        """Kill the child and start a fresh one, which re-warms its models."""
        self._kill()
        self.start()
        self.restarts += 1

    def stop(self, timeout: float = 10.0) -> None:
        if self._process is None:
            return
        try:
            self._conn.send(None)
        except (OSError, ValueError):
            pass
        self._process.join(timeout)
        alive = self._process.is_alive()
        self._kill()
        if alive:
            raise WorkerError(f"worker {self.worker_id} did not stop "
                              f"within {timeout}s (killed)")


# -- the router ------------------------------------------------------------

class FleetRouter(BatchingEngine):
    """A :class:`BatchingEngine` whose lanes forward on worker processes.

    ``registry`` holds the served models' metadata in this process (for
    validation and ``/v1/models``); the forwards run in the workers.
    ``max_batch`` and ``max_wait_ms`` shape the batches formed here, at
    the front; the lanes share the engine's batch formation and hold
    policy.
    """

    # An idle lane checks on its worker (see _idle).
    _idle_seconds = 0.1

    def __init__(self, workers: list, registry: ModelRegistry,
                 cache: ForecastCache | None = None,
                 max_batch: int = 8, max_wait_ms: float = 2.0,
                 max_inflight: int = 256, worker_queue_limit: int = 32,
                 metrics: MetricsRegistry | None = None,
                 tracer: Tracer | None = None,
                 retry_budget: int = 2, retry_after: float = 0.5,
                 heartbeat_timeout: float = 10.0,
                 breaker_threshold: int = 3, breaker_window: float = 30.0,
                 breaker_cooldown: float = 5.0):
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
        self.max_inflight = max_inflight
        self.worker_queue_limit = worker_queue_limit
        self.retry_budget = retry_budget
        self.retry_after = retry_after
        self.heartbeat_timeout = heartbeat_timeout
        self._lock = threading.Lock()
        self._inflight = 0
        self._breakers = {
            worker_id: CircuitBreaker(threshold=breaker_threshold,
                                      window=breaker_window,
                                      cooldown=breaker_cooldown)
            for worker_id in ids}
        super().__init__(registry, max_batch=max_batch,
                         max_wait_ms=max_wait_ms, cache=cache,
                         metrics=metrics, tracer=tracer,
                         lanes=len(self.workers))

    @classmethod
    def local(cls, checkpoints: str | Path, workers: int = 2,
              max_batch: int = 8, **router_kwargs) -> "FleetRouter":
        """A fleet of ``workers`` processes over one checkpoint directory.

        Each worker loads its own model instances from ``checkpoints``.
        """
        registry = ModelRegistry.from_directory(checkpoints)
        built = [ProcessWorker(f"w{index}", checkpoints, max_batch=max_batch)
                 for index in range(workers)]
        return cls(built, registry, max_batch=max_batch, **router_kwargs)

    # -- metrics -----------------------------------------------------------

    def _register_metrics(self) -> None:
        super()._register_metrics()
        m = self.metrics
        self._m_rejected = m.counter(
            "fleet_rejected_total",
            "Requests rejected by admission control or backpressure.",
            labelnames=("reason",))
        self._m_routed = m.counter(
            "fleet_routed_total", "Requests dispatched, by worker.",
            labelnames=("worker",))
        self._m_errors = m.counter(
            "fleet_errors_total", "Requests failed by a worker.")
        self._m_retries = m.counter(
            "fleet_retries_total",
            "Requests requeued after their worker crashed.")
        self._m_restarts = m.counter(
            "fleet_worker_restarts_total",
            "Worker restarts performed by their lanes, by worker.",
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
                fn=self._workers_alive)

    def _workers_alive(self) -> int:
        return sum(1 for worker in self.workers if worker.alive)

    # -- lifecycle ---------------------------------------------------------

    def _lanes(self) -> list:
        return self.workers

    def start(self) -> "FleetRouter":
        if self._threads is not None:
            raise RuntimeError("fleet router is already running")
        try:
            for worker in self.workers:
                worker.start()
        except (WorkerError, OSError):
            self._stop_workers()    # the ones already up; never-started
            raise                   # workers stop as a no-op
        super().start()
        return self

    def stop(self, timeout: float = 10.0) -> None:
        """Drain the queue through the lanes, then stop every worker."""
        try:
            super().stop(timeout)
        finally:
            self._stop_workers(timeout)

    def _stop_workers(self, timeout: float = 10.0) -> None:
        errors = []
        for worker in self.workers:
            try:
                worker.stop(timeout=timeout)
            except WorkerError as error:
                errors.append(str(error))
        if errors:
            raise WorkerError("worker shutdown failed: " + "; ".join(errors))

    # -- the fleet hooks ---------------------------------------------------

    def _admit(self, future: Future) -> None:
        with self._lock:
            if self._inflight >= self.max_inflight:
                self._m_rejected.labels(reason="admission").inc()
                raise FleetBusyError(
                    "admission",
                    f"fleet at max_inflight={self.max_inflight}; "
                    f"request rejected", retry_after=self.retry_after)
            live = self._workers_alive()
            if not live:
                raise WorkerError("no live workers in the fleet")
            limit = self.worker_queue_limit * live
            if self._queue.qsize() >= limit:
                self._m_rejected.labels(reason="backpressure").inc()
                raise FleetBusyError(
                    "backpressure",
                    f"fleet queue is at depth >= {limit} "
                    f"({self.worker_queue_limit} per live worker); "
                    f"request rejected", retry_after=self.retry_after)
            self._inflight += 1
        future.add_done_callback(self._release)

    def _release(self, _future: Future) -> None:
        with self._lock:
            self._inflight -= 1

    def _forward(self, worker, model_id: str,
                 stacked: np.ndarray) -> np.ndarray:
        self._m_routed.labels(worker=worker.worker_id).inc(len(stacked))
        return worker.forecast(model_id, stacked, self.heartbeat_timeout)

    def _fail(self, worker, requests: list, error: Exception) -> None:
        """Requeue a crashed batch within the retry budget, fail the rest,
        then restart the lane's worker."""
        crashed = isinstance(error, WorkerCrashError)
        failed = []
        for request in requests:
            if crashed and request.attempts < self.retry_budget:
                request.attempts += 1
                self._m_retries.inc()
                self._queue.put(request)
            else:
                failed.append(request)
        if len(failed) < len(requests):
            self.tracer.instant("fleet.retry", worker=worker.worker_id,
                                requests=len(requests) - len(failed))
        self._m_errors.inc(len(failed))
        super()._fail(worker, failed, error)
        if crashed:
            self._recover(worker)

    def _idle(self, worker) -> None:
        if not worker.alive:
            self._recover(worker)

    def _recover(self, worker) -> None:
        """Restart the lane's worker behind its breaker.

        The lane stays here, taking no requests, until a restart succeeds
        or the router stops — a lane without a worker must not drain the
        queue into crashes.
        """
        breaker = self._breakers[worker.worker_id]
        gauge = self._m_breaker.labels(worker=worker.worker_id)
        while not self._stopping:
            if not breaker.allow():
                time.sleep(0.1)
                continue
            try:
                worker.restart()
            except (WorkerError, OSError):
                breaker.record_failure()
                gauge.set(breaker.value)
                continue
            breaker.record_success()
            gauge.set(breaker.value)
            self._m_restarts.labels(worker=worker.worker_id).inc()
            self.tracer.instant("fleet.worker_restart",
                                worker=worker.worker_id)
            return

    # -- introspection -----------------------------------------------------

    def stats(self) -> dict:
        """The engine's ``/metrics`` JSON shape plus the fleet counters."""
        snapshot = super().stats()
        snapshot.update({
            "errors": int(self._m_errors.value),
            "retries": int(self._m_retries.value),
            "restarts": {labels[0]: int(counter.value)
                         for labels, counter in self._m_restarts.items()},
            "breakers": {worker_id: breaker.state
                         for worker_id, breaker in self._breakers.items()},
            "rejected": {labels[0]: int(counter.value)
                         for labels, counter in self._m_rejected.items()},
            "routed_by_worker": {
                labels[0]: int(counter.value)
                for labels, counter in self._m_routed.items()},
            "inflight": self._inflight,
            "workers": len(self.workers),
            "workers_alive": self._workers_alive(),
            "max_inflight": self.max_inflight,
            "worker_queue_limit": self.worker_queue_limit,
        })
        return snapshot

    def fleet_status(self) -> dict:
        """Per-worker detail for ``GET /fleet/status``."""
        return {
            "stats": self.stats(),
            "workers": [{"id": worker.worker_id, "alive": worker.alive,
                         "breaker": self._breakers[worker.worker_id].state,
                         "restarts": worker.restarts}
                        for worker in self.workers],
            "models": self.registry.model_ids,
        }
