"""Micro-batching inference engine.

Requests from any number of client threads are funneled into one queue.
A *lane* is one drain thread: it takes up to ``max_batch`` requests from
the queue, stacks each model's inputs into one NCHW batch, and runs a
single generator forward per model.  A plain engine has up to one lane
per usable CPU (the process's affinity mask, so ``taskset`` bounds it;
the ``lanes`` argument overrides it); :class:`repro.fleet.router.FleetRouter`
is the same engine with one lane per worker process.

Lanes form batches one at a time, lowest free lane first.  A lane that is
not running a batch is *free*; a request that finds no lane forming hands
the queue to the lowest-numbered free lane, which keeps it (stragglers
included) until its batch is formed.  So batches fill exactly as they
would on one lane, lane *k* only forms a batch while lanes 0 to *k* - 1
are all busy, and the forwards of consecutive batches overlap on
different cores: an explorer's round of 16 candidates runs as two
batches of 8 side by side, while a lone caller only ever uses lane 0.
How many lanes run is set by the concurrency the traffic brings, with
the lane count as its ceiling.

Hold policy, engine-wide: a forming lane always takes every request
already queued.  It also holds the batch open for up to ``max_wait_ms``
for stragglers, but only on the engine's first batch and after a batch
(on any lane) of more than one request.  After a lone request the next
one is served at once: a caller that is alone (a placer asking for one
forecast at a time) never waits for company that is not coming, while
concurrent traffic, which keeps producing batches of more than one,
keeps filling them.

Because deterministic inference is batch-invariant (see
:meth:`repro.gan.Pix2Pix.forecast`), a request's result is bitwise the same
whether it rode a full batch or ran alone — batching is purely a throughput
optimization, amortizing the per-forward Python and im2col overhead.

The numpy layers keep activations and arena scratch on ``self``, so one
model must never run two passes at once.  Each lane therefore runs its
own copy: lane 0 forwards on the registered model, and every other lane,
on its first batch for a model, builds a
:class:`~repro.gan.pix2pix.GeneratorReplica` from that model's generator
(its own arena and fold caches, the weights shared read-only) and
forwards on that, bitwise the same.  A lane that never forms a batch
never builds one.  The engine assumes it owns its models — don't train a
registered model while the engine is running.
"""

from __future__ import annotations

import os
import queue
import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass

import numpy as np

from repro.gan.pix2pix import GeneratorReplica
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer, get_tracer
from repro.serve.cache import ForecastCache, input_digest
from repro.serve.registry import ModelRegistry


@dataclass(slots=True)
class ForecastResult:
    """One served forecast plus how it was produced.

    ``image`` is read-only (cache hits share the cached array; misses are
    frozen too so both paths behave identically) — copy before mutating.
    """

    model_id: str
    image: np.ndarray        # (H, W, 3) float32 in [0, 1], read-only
    cached: bool
    latency_seconds: float


@dataclass(slots=True)
class _Request:
    model_id: str
    x: np.ndarray            # (C, H, W)
    digest: str | None
    future: Future
    submitted_at: float
    deadline: float | None = None   # perf_counter time after which the
                                    # caller has given up on the result
    attempts: int = 0        # times requeued after its lane crashed


_STOP = object()


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one (so ``taskset`` bounds it), else ``os.cpu_count()``."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


class _LaneQueue:
    """The request queue, handed to one forming lane at a time.

    A lane is *free* while it waits for its turn, and the lane holding the
    queue is its *former*.  An item that arrives while no lane forms makes
    the lowest free lane the former; a former that has formed its batch
    (:meth:`end_turn`) passes the queue on to the lowest free lane if items
    are still waiting, and otherwise no lane holds it until the next item.
    Invariant: whenever items wait and a lane is free, some lane forms.
    """

    def __init__(self, lanes: int):
        self._lock = threading.Lock()
        self._items: deque = deque()
        self._free = [False] * lanes
        self._former: int | None = None
        # One condition per lane, so that an arrival wakes only the former.
        self._wakeups = [threading.Condition(self._lock)
                         for _ in range(lanes)]

    def _lowest_free(self) -> int | None:
        try:
            return self._free.index(True)
        except ValueError:
            return None

    def put(self, item) -> None:
        with self._lock:
            self._items.append(item)
            if self._former is None:
                self._former = self._lowest_free()
            if self._former is not None:
                self._wakeups[self._former].notify()

    def qsize(self) -> int:
        return len(self._items)

    def get_nowait(self):
        """The oldest item, or ``queue.Empty``: for a stopped engine's
        final drain, when no lane is left to form."""
        with self._lock:
            if not self._items:
                raise queue.Empty
            return self._items.popleft()

    def wait_turn(self, lane: int, timeout: float | None):
        """Wait, free, until ``lane`` forms; its first item, or ``None``
        (and the lane no longer free) after ``timeout`` seconds."""
        with self._lock:
            self._free[lane] = True
            if self._former is None and self._items:
                self._former = lane     # every other lane is busy
            if self._former != lane:
                self._wakeups[lane].wait(timeout)
                if self._former != lane:
                    self._free[lane] = False
                    return None
            return self._items.popleft()

    def get(self, lane: int, deadline: float):
        """The former's next item, waiting until ``deadline`` (a
        ``perf_counter`` time) for one to arrive; ``None`` after it."""
        with self._lock:
            while not self._items:
                remaining = deadline - time.perf_counter()
                if remaining <= 0:
                    return None
                self._wakeups[lane].wait(remaining)
            return self._items.popleft()

    def end_turn(self, lane: int) -> None:
        """``lane`` has formed its batch and is busy until it next waits
        for a turn."""
        with self._lock:
            self._free[lane] = False
            self._former = None
            if self._items:
                self._former = self._lowest_free()
                if self._former is not None:
                    self._wakeups[self._former].notify()


def warm_models(registry: ModelRegistry, batch: int) -> None:
    """Preallocate every model's workspace at ``batch`` width."""
    for model_id in registry.model_ids:
        model = registry.get(model_id)
        cfg = model.config
        model.forecast(np.zeros((batch, cfg.input_channels, cfg.image_size,
                                 cfg.image_size), dtype=np.float32))


class BatchingEngine:
    """Queue + lane threads turning a :class:`ModelRegistry` into a service.

    Parameters
    ----------
    registry:
        Models to serve; requests name one by id.
    max_batch:
        Largest number of requests stacked into one forward.
    max_wait_ms:
        How long a lane holds an open batch for more arrivals after the
        first request.  Lanes hold on the engine's first batch and after
        any batch of more than one request; after a lone request they
        serve at once (see the module docstring).  ``0`` never holds:
        every batch is whatever is already queued.
    cache:
        Optional :class:`ForecastCache`; hits resolve at submit time without
        touching the queue.
    metrics:
        A :class:`repro.obs.MetricsRegistry` to publish into (one is
        created when omitted).  Everything ``/metrics`` serves — batch
        counters, latency histogram, queue depth, cache hit/miss — lives
        here; :meth:`stats` reconstructs the legacy JSON shape from it.
    tracer:
        A :class:`repro.obs.Tracer` for per-request spans
        (queue-wait → batch → forward).  Defaults to the process tracer,
        which is a no-op unless ``REPRO_TRACE`` is set.
    drift:
        Optional :class:`repro.obs.drift.DriftMonitor`.  Every served
        forecast (cache hits included — drift tracks traffic, not
        forwards) is folded into its sliding windows, publishing the
        ``serve_drift_*`` gauges into this engine's metrics registry.
        Monitor errors are swallowed: drift observes, it never fails a
        request.
    lanes:
        Drain threads, the most batches that run at once (see the module
        docstring).  ``None``, the default, is one per usable CPU
        (:func:`usable_cpus`); ``1`` runs every forward on one thread.
        A lane is used only while every lower lane is busy, and each lane
        that has served holds one arena and one set of folded weights per
        model.
    """

    #: Seconds a free lane waits for a batch to form before it calls
    #: :meth:`_idle`; ``None``: it just waits.
    _idle_seconds: float | None = None

    def __init__(self, registry: ModelRegistry, max_batch: int = 8,
                 max_wait_ms: float = 2.0,
                 cache: ForecastCache | None = None,
                 metrics: MetricsRegistry | None = None,
                 tracer: Tracer | None = None,
                 drift=None, lanes: int | None = None):
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_wait_ms < 0:
            raise ValueError(f"max_wait_ms must be >= 0, got {max_wait_ms}")
        if lanes is None:
            lanes = usable_cpus()
        if lanes < 1:
            raise ValueError(f"lanes must be >= 1, got {lanes}")
        self.registry = registry
        self.lanes = lanes
        self.max_batch = max_batch
        self.max_wait_ms = max_wait_ms
        self.cache = cache
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else get_tracer()
        self.drift = drift
        self._queue = _LaneQueue(lanes)
        # The registry is append-only (re-registration raises), so model
        # and expected-shape lookups are memoized.  The memo dict is
        # written from every submitter thread and read by the lanes, so
        # it gets its own lock (cheap: one uncontended acquire per call).
        self._model_cache: dict[str, tuple] = {}
        self._model_lock = threading.Lock()
        # Lanes 1.. forward on replicas, built per model on first use:
        # {model_id: GeneratorReplica} per lane.
        self._replicas: list[dict[str, GeneratorReplica]] = [
            {} for _ in range(lanes - 1)]
        # Read and written only by the forming lane, one at a time.
        self._hold = True
        self._threads: list[threading.Thread] | None = None
        self._stopping = False
        # Serializes the stopping-flag check against enqueueing: a submit
        # holding this lock either lands its request ahead of the _STOP
        # marker (so the drain loop serves it) or observes _stopping and
        # raises — a request can never slip in after the drain.
        self._submit_lock = threading.Lock()
        self._register_metrics()

    def _register_metrics(self) -> None:
        """Create the engine's metrics in the registry.

        Derived legacy numbers come from the histograms themselves —
        ``completed`` is the latency histogram's count, ``batches`` /
        ``batched_requests`` the occupancy histogram's count/sum — so
        the snapshot invariants (histogram sums to batch count) hold by
        construction rather than by multi-counter locking.
        """
        m = self.metrics
        self._m_requests = m.counter(
            "serve_requests_total",
            "Forecast requests accepted (cache hits included).")
        self._m_forward_seconds = m.counter(
            "serve_forward_seconds_total",
            "Wall seconds spent inside model forwards.")
        self._m_latency = m.histogram(
            "serve_request_latency_seconds",
            "Submit-to-result latency per completed request.")
        self._m_occupancy = m.histogram(
            "serve_batch_occupancy",
            "Requests per served micro-batch.",
            buckets=range(1, self.max_batch + 1))
        self._m_expired = m.counter(
            "serve_expired_total",
            "Requests dropped unserved because their deadline passed "
            "while they sat in the batch queue.")
        m.gauge("serve_queue_depth", "Requests waiting in the batch queue.",
                fn=self._queue.qsize)
        m.gauge("serve_workspace_bytes",
                "Scratch-arena capacity across served models and their "
                "lane replicas.",
                fn=self._workspace_bytes)
        cache = self.cache
        if cache is not None:
            m.counter("serve_cache_hits_total",
                      "Forecast cache hits.", fn=lambda: cache.hits)
            m.counter("serve_cache_misses_total",
                      "Forecast cache misses.", fn=lambda: cache.misses)
            m.counter("serve_cache_evictions_total",
                      "Forecast cache LRU evictions.",
                      fn=lambda: cache.evictions)
            m.gauge("serve_cache_size", "Entries currently cached.",
                    fn=cache.__len__)
            m.gauge("serve_cache_hit_ratio",
                    "Cache hits over total lookups.",
                    fn=lambda: cache.hit_rate)

    def _workspace_bytes(self) -> int:
        """Arena capacity of every served model and every lane's replica."""
        models = [self.registry.get(model_id)
                  for model_id in self.registry.model_ids]
        for replicas in self._replicas:
            models.extend(list(replicas.values()))
        return sum(model.workspace.nbytes for model in models
                   if getattr(model, "workspace", None) is not None)

    # -- lifecycle ---------------------------------------------------------

    @property
    def running(self) -> bool:
        return self._threads is not None and any(
            thread.is_alive() for thread in self._threads)

    def _lanes(self) -> list:
        """What each drain thread forwards on: ``None`` (the registered
        models) for lane 0, its replica dict for every other lane."""
        return [None, *self._replicas]

    def start(self) -> "BatchingEngine":
        if self._threads is not None:
            raise RuntimeError("engine is already running (or a previous "
                               "stop() timed out; see stop())")
        self._stopping = False
        self._hold = True
        self._threads = [
            threading.Thread(target=self._run, args=(index, lane),
                             name=f"forecast-lane-{index}", daemon=True)
            for index, lane in enumerate(self._lanes())]
        for thread in self._threads:
            thread.start()
        return self

    def stop(self, timeout: float = 10.0) -> None:
        """Drain in-flight work, then stop the lanes.

        New submissions are rejected as soon as stop begins; requests still
        queued behind the stop markers fail with ``RuntimeError``.  If a
        lane is wedged in a forward longer than ``timeout``, raises
        ``RuntimeError`` and leaves the engine as-is (so a second set of
        lanes can never run the same models concurrently).
        """
        threads = self._threads
        if threads is None:
            return
        with self._submit_lock:
            # Atomic with submit's check: everything enqueued before the
            # _STOP markers is served by the drain loops (one marker ends
            # one lane); every submit that loses the race observes
            # _stopping and raises instead of enqueueing a request nobody
            # will ever resolve.
            self._stopping = True
            for _ in threads:
                self._queue.put(_STOP)
        deadline = time.monotonic() + timeout
        for thread in threads:
            thread.join(max(0.0, deadline - time.monotonic()))
        if any(thread.is_alive() for thread in threads):
            raise RuntimeError(
                f"engine worker did not stop within {timeout}s")
        self._threads = None
        while True:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                break
            if item is not _STOP:
                item.future.set_exception(
                    RuntimeError("engine stopped before request ran"))

    def __enter__(self) -> "BatchingEngine":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- request paths -----------------------------------------------------

    def submit(self, model_id: str, x: np.ndarray,
               timeout: float | None = None) -> Future:
        """Enqueue one input; the future resolves to a :class:`ForecastResult`.

        ``x`` is a single (C, H, W) input in [-1, 1] matching the model's
        configured channels and image size.  Cache hits resolve immediately.

        ``timeout`` marks the request with a deadline ``timeout`` seconds
        from now: if a lane reaches it after the deadline passed (the
        caller has already given up), it is dropped instead of burning a
        batch slot on a result nobody reads, and its future fails with
        ``TimeoutError``.
        """
        if self._stopping or not self.running:
            raise RuntimeError("engine is not running (call start())")
        _, expected = self._lookup(model_id)
        x = np.asarray(x, dtype=np.float32)
        if x.ndim == 4 and x.shape[0] == 1:
            x = x[0]
        if x.shape != expected:
            raise ValueError(f"model {model_id!r} expects input shape "
                             f"{expected}, got {x.shape}")
        now = time.perf_counter()
        future: Future = Future()
        digest = None
        if self.cache is not None or self.drift is not None:
            # The drift monitor's novelty signal rides the same content
            # hash the cache keys on, so it is computed when either
            # consumer is present.
            digest = input_digest(x)
        if self.cache is not None:
            hit = self.cache.get(model_id, digest)
            if hit is not None:
                self._m_requests.inc()
                latency = time.perf_counter() - now
                self._m_latency.observe(latency)
                self.tracer.instant("serve.cache_hit", model=model_id)
                future.set_result(ForecastResult(
                    model_id=model_id, image=hit, cached=True,
                    latency_seconds=latency))
                self._observe_drift(model_id, hit, digest)
                return future
        self._admit(future)
        self._m_requests.inc()
        request = _Request(
            model_id=model_id, x=x, digest=digest, future=future,
            submitted_at=now,
            deadline=now + timeout if timeout is not None else None)
        with self._submit_lock:
            if self._stopping:
                error = RuntimeError("engine is stopping; request rejected")
                future.set_exception(error)    # resolves _admit's hold
                raise error
            self._queue.put(request)
        return future

    def _admit(self, future: Future) -> None:
        """Accept or reject a cache miss before it is queued (raise to
        reject).  The engine queues everything."""

    def _lookup(self, model_id: str) -> tuple:
        with self._model_lock:
            cached = self._model_cache.get(model_id)
            if cached is None:
                model = self.registry.get(model_id)
                cfg = model.config
                cached = (model, (cfg.input_channels, cfg.image_size,
                                  cfg.image_size))
                self._model_cache[model_id] = cached
            return cached

    def forecast(self, model_id: str, x: np.ndarray,
                 timeout: float | None = 30.0) -> np.ndarray:
        """Blocking convenience wrapper: the forecast image (H, W, 3)."""
        return self.forecast_result(model_id, x, timeout=timeout).image

    def forecast_result(self, model_id: str, x: np.ndarray,
                        timeout: float | None = 30.0) -> ForecastResult:
        """Blocking wrapper returning the full :class:`ForecastResult`.

        The timeout is propagated onto the queued request as a deadline,
        so a request this caller gives up on is also dropped by the
        lanes instead of occupying a batch slot.
        """
        return self.submit(model_id, x, timeout=timeout).result(
            timeout=timeout)

    # -- worker ------------------------------------------------------------

    def _run(self, index: int, lane) -> None:
        # Per-lane stacking buffers: lanes stack concurrently.
        buffers: dict[tuple, np.ndarray] = {}
        while True:
            batch, stop = self._next_batch(index)
            if batch is None:
                self._idle(lane)
                continue
            if batch:
                self._serve_batch(batch, index, lane, buffers)
            if stop:
                return

    def _next_batch(self, index: int) -> tuple[list[_Request] | None, bool]:
        """Form one batch on lane ``index``: ``(requests, stop)``, where
        ``stop`` means the lane took a stop marker, or ``(None, False)``
        after :attr:`_idle_seconds` without a turn."""
        first = self._queue.wait_turn(index, self._idle_seconds)
        if first is None:
            return None, False
        try:
            if first is _STOP:
                return [], True
            batch = [first]
            # Hold a batch open only while traffic has been concurrent:
            # after a lone request the next caller is most likely alone
            # too, and a hold would only delay it.  The engine's first
            # batch holds.
            deadline = time.perf_counter() + (
                self.max_wait_ms / 1000.0 if self._hold else 0.0)
            stop = False
            while len(batch) < self.max_batch:
                item = self._queue.get(index, deadline)
                if item is None:
                    break
                if item is _STOP:
                    stop = True
                    break
                batch.append(item)
            self._hold = len(batch) > 1
            return batch, stop
        finally:
            self._queue.end_turn(index)

    def _idle(self, lane) -> None:
        """Called when a lane has had no batch to form for
        :attr:`_idle_seconds`; the lane takes no batch until it returns."""

    def _serve_batch(self, batch: list[_Request], index: int, lane,
                     buffers: dict) -> None:
        tracer = self.tracer
        # Deadline check happens here — the last moment before real work
        # starts — so a request whose caller timed out while it queued
        # never reaches the (expensive) stacked forward.
        now = time.perf_counter()
        expired = [request for request in batch
                   if request.deadline is not None
                   and now > request.deadline]
        if expired:
            self._m_expired.inc(len(expired))
            for request in expired:
                request.future.set_exception(TimeoutError(
                    f"request expired after "
                    f"{now - request.submitted_at:.3f}s in queue"))
            batch = [request for request in batch
                     if request.deadline is None
                     or now <= request.deadline]
            if not batch:
                return
        self._m_occupancy.observe(len(batch))
        if tracer.enabled:
            # Queue wait per request: submitted_at is a perf_counter
            # float, the same clock perf_counter_ns reads in ns.
            now_ns = time.perf_counter_ns()
            for request in batch:
                start_ns = int(request.submitted_at * 1e9)
                tracer.complete("serve.queue_wait", start_ns,
                                now_ns - start_ns, model=request.model_id)
        # One forward per distinct model, in arrival order of first request.
        groups: dict[str, list[_Request]] = {}
        for request in batch:
            groups.setdefault(request.model_id, []).append(request)
        with tracer.span("serve.batch", size=len(batch),
                         models=len(groups)):
            for model_id, requests in groups.items():
                self._serve_group(index, lane, model_id, requests, buffers)

    def _forward(self, lane, model_id: str,
                 stacked: np.ndarray) -> np.ndarray:
        """One stacked forward on ``lane``: (N, H, W, 3) images."""
        model = self._lookup(model_id)[0]
        if lane is None:
            return model.forecast(stacked)
        replica = lane.get(model_id)
        if replica is None:
            # Reads only the weights and running statistics, which lane
            # 0's forwards never write, so lane 0 may be mid-forward.
            replica = lane[model_id] = GeneratorReplica(model.generator)
        return replica.forecast(stacked)

    def _fail(self, lane, requests: list[_Request],
              error: Exception) -> None:
        """Resolve the requests of a failed forward."""
        for request in requests:
            request.future.set_exception(error)

    def _serve_group(self, index: int, lane, model_id: str,
                     requests: list[_Request], buffers: dict) -> None:
        try:
            stacked = self._stack_inputs(model_id, requests, buffers)
            start = time.perf_counter()
            with self.tracer.span("serve.forward", model=model_id,
                                  batch=len(requests), lane=index):
                images = self._forward(lane, model_id, stacked)
            forward_seconds = time.perf_counter() - start
        except Exception as error:  # surface to every waiting caller
            self._fail(lane, requests, error)
            return
        done = time.perf_counter()
        self._m_forward_seconds.inc(forward_seconds)
        for request in requests:
            self._m_latency.observe(done - request.submitted_at)
        caching = self.cache is not None
        if not caching:
            # No cache: hand out read-only row views of the batch
            # result directly.  The batch array is modest (it lives
            # exactly as long as its views) and skipping per-request
            # copies is measurable at small image sizes.
            images = np.ascontiguousarray(images)
            images.flags.writeable = False
        for request, image in zip(requests, images):
            if caching:
                # Copy out of the batch (a row view would pin the
                # whole batch in the cache) and freeze — results are
                # read-only on the hit path too.
                image = np.ascontiguousarray(image)
                image.flags.writeable = False
                if request.digest is not None:
                    self.cache.put(model_id, request.digest, image)
            request.future.set_result(ForecastResult(
                model_id=model_id, image=image, cached=False,
                latency_seconds=done - request.submitted_at))
            self._observe_drift(model_id, image, request.digest)

    def _observe_drift(self, model_id: str, image: np.ndarray,
                       digest: str | None) -> None:
        if self.drift is None:
            return
        try:
            self.drift.observe(model_id, image, digest=digest)
        except Exception:
            # Quality monitoring must never take down serving.
            pass

    def _stack_inputs(self, model_id: str, requests: list[_Request],
                      buffers: dict) -> np.ndarray:
        """Stack request inputs into the lane's per-(model, batch-size)
        reused buffer — a lane is one thread and its forward consumes the
        batch before the buffer can be reused."""
        key = (model_id, len(requests))
        buf = buffers.get(key)
        if buf is None or buf.shape[1:] != requests[0].x.shape:
            buf = np.empty((len(requests),) + requests[0].x.shape,
                           dtype=np.float32)
            buffers[key] = buf
        for index, request in enumerate(requests):
            buf[index] = request.x
        return buf

    # -- metrics -----------------------------------------------------------

    def stats(self) -> dict:
        """Legacy counters snapshot (the ``/metrics`` JSON shape).

        Every number is reconstructed from the metrics registry — the
        registry is the single source of truth; this method only adapts
        it to the response shape pre-registry clients expect.  The
        Prometheus rendering of the same state is
        ``self.metrics.render_prometheus()``.
        """
        occupancy = self._m_occupancy
        latency = self._m_latency
        batches = occupancy.count
        batched_requests = int(occupancy.sum)
        completed = latency.count
        snapshot = {
            "requests": int(self._m_requests.value),
            "expired": int(self._m_expired.value),
            "completed": completed,
            "batches": batches,
            "batched_requests": batched_requests,
            "mean_batch_occupancy": (
                batched_requests / batches if batches else 0.0),
            "max_batch_occupancy": int(occupancy.max_observed or 0),
            # Micro-batch size histogram: {occupancy: batch count}.  The
            # metric's buckets are exactly the integers 1..max_batch, so
            # the exact per-size counts survive; zero-count sizes are
            # omitted as the hand-rolled dict omitted them.
            "batch_occupancy_histogram": {
                size: count
                for size, count in occupancy.bucket_counts().items()
                if count and size != "+Inf"},
            "forward_seconds_total": self._m_forward_seconds.value,
            "mean_latency_ms": (
                1e3 * latency.sum / completed if completed else 0.0),
            "latency_p50_ms": 1e3 * latency.quantile(0.5),
            "latency_p99_ms": 1e3 * latency.quantile(0.99),
            "max_batch": self.max_batch,
            "max_wait_ms": self.max_wait_ms,
            "lanes": self.lanes,
            "queue_depth": self._queue.qsize(),
            # Scratch-arena capacity across served models and their
            # replicas: steady state means forwards allocate (almost)
            # nothing per request.
            "workspace_bytes": self._workspace_bytes(),
        }
        # Forecast-cache hit/miss counters, surfaced at the top level next
        # to the batching counters (the cache itself owns the state).
        if self.cache is not None:
            cache_stats = self.cache.stats()
            snapshot["cache"] = cache_stats
            snapshot["cache_hits"] = cache_stats["hits"]
            snapshot["cache_misses"] = cache_stats["misses"]
        else:
            snapshot["cache_hits"] = 0
            snapshot["cache_misses"] = 0
        return snapshot
