"""Worker pool: N processes draining a :class:`~repro.fleet.jobs.JobStore`.

Each worker process loops *claim → execute → complete/fail* against the
shared spool directory; the executor for a job is looked up by its
``kind`` in the module-level :data:`EXECUTORS` registry.  Two executors
ship with the pool:

* ``train`` — runs one :class:`~repro.train.spec.TrainSpec` document
  through the PR 5 :class:`~repro.train.runner.Runner` (the sweep driver
  routes its runs through this);
* ``forecast`` — loads a checkpoint (cached per process), forecasts one
  input drawn from a dataset store or an artifact, and puts the result
  into a content-addressed :class:`~repro.fleet.artifacts.ArtifactStore`.

Because every executor is deterministic and every job is independent,
the pool's outputs are worker-count invariant: N workers produce the
same result rows, the same artifact digests, and byte-identical blobs
as a serial drain.

Workers publish live telemetry (jobs claimed/done/failed, per-kind
timings) through :class:`repro.obs.publish.TelemetryPublisher` into
``<spool>/telemetry/``, so ``repro obs top <spool>`` watches a pool the
same way it watches a sweep or a serve fleet.

**Fault tolerance.**  Every claim is a lease (see
:mod:`repro.fleet.jobs`): a background keeper thread in each worker
heartbeats the current job, and the pool's supervising parent loop reaps
expired leases — a SIGKILLed worker's job goes back to ``pending/``
(bounded by the job's attempt budget) instead of stranding in
``running/`` forever — and restarts dead worker processes while pending
work remains, up to ``max_restarts`` per worker slot.  Because results
are completion-renamed exactly once and executors are deterministic, a
drain that lost workers mid-flight still produces byte-identical output
to an undisturbed serial drain.
"""

from __future__ import annotations

import io
import json
import multiprocessing
import threading
import time
import traceback
from pathlib import Path

from repro.fleet.jobs import Job, JobStore, LeaseLostError
from repro.obs.metrics import MetricsRegistry
from repro.obs.publish import TELEMETRY_DIR, TelemetryPublisher

#: kind -> callable(payload: dict) -> dict.  Executors must be importable
#: module-level functions so spawn-start workers resolve them too.
EXECUTORS: dict = {}


def executor(kind: str):
    """Register an executor for a job kind (decorator)."""
    def register(fn):
        EXECUTORS[kind] = fn
        return fn
    return register


class PoolError(Exception):
    """The pool was misconfigured or a worker died unexpectedly."""


# -- built-in executors ----------------------------------------------------

@executor("train")
def run_train_job(payload: dict) -> dict:
    """Execute one train spec under a runs root (the sweep's unit).

    Payload: ``{"root": runs_root, "spec": <TrainSpec document>}``.
    Returns the sweep summary row (never raises on a failed run — the
    row carries the error, matching the sweep driver's contract).
    """
    from repro.train.sweep import _run_one
    return _run_one(payload["root"], payload["spec"])


# One warm registry per checkpoint directory per worker process — the
# forecast executor's equivalent of the serve registry's warm loading.
_MODEL_REGISTRIES: dict = {}


def _registry_for(checkpoints: str):
    from repro.serve.registry import ModelRegistry
    registry = _MODEL_REGISTRIES.get(checkpoints)
    if registry is None:
        registry = ModelRegistry.from_directory(checkpoints)
        _MODEL_REGISTRIES[checkpoints] = registry
    return registry


def _load_forecast_input(payload: dict):
    """The (C, H, W) input named by a forecast payload.

    Either ``{"store": <dataset store root>, "index": i}`` (sample i of
    the sharded store, shard-local read) or ``{"artifact_store": root,
    "artifact": digest}`` (a ``.npy`` payload in the artifact store).
    """
    import numpy as np

    source = payload["input"]
    if "store" in source:
        from repro.data.store import ShardedStore
        store = ShardedStore.open(source["store"])
        index = int(source["index"])
        if not 0 <= index < store.num_samples:
            raise ValueError(f"sample index {index} out of range "
                             f"(store has {store.num_samples})")
        for shard_index in range(store.num_shards):
            shard = store.manifest["shards"][shard_index]
            if index < shard["num_samples"]:
                return store.load_shard(shard_index)[index].x
            index -= shard["num_samples"]
        raise ValueError(f"sample index walked off the shard table")
    if "artifact" in source:
        from repro.fleet.artifacts import ArtifactStore
        artifacts = ArtifactStore(source["artifact_store"])
        data = artifacts.read_bytes(source["artifact"])
        return np.load(io.BytesIO(data))
    raise ValueError(f"forecast input needs 'store' or 'artifact', "
                     f"got {sorted(source)}")


@executor("forecast")
def run_forecast_job(payload: dict) -> dict:
    """Forecast one input and store the result content-addressed.

    Payload::

        {"checkpoints": <dir>, "model": <id>,
         "input": {"store": ..., "index": ...} | {"artifact_store": ...,
                                                  "artifact": ...},
         "artifacts": <artifact store root>}

    Returns ``{"artifact": <forecast artifact digest>, ...}``.  The
    forecast is deterministic, so the digest is worker-count invariant.
    """
    import numpy as np

    from repro.fleet.artifacts import ArtifactStore
    from repro.serve.cache import input_digest

    registry = _registry_for(str(payload["checkpoints"]))
    model_id = payload["model"]
    model = registry.get(model_id)
    x = np.asarray(_load_forecast_input(payload), dtype=np.float32)
    image = model.forecast(x)
    digest = input_digest(x)
    buffer = io.BytesIO()
    np.save(buffer, image)
    artifacts = ArtifactStore(payload["artifacts"])
    ref = artifacts.put_bytes(
        buffer.getvalue(), name=f"{model_id}-{digest[:12]}.npy",
        kind="forecast",
        meta={"model_id": model_id, "input_digest": digest,
              "shape": list(image.shape)})
    return {"artifact": ref.digest, "model": model_id,
            "input_digest": digest}


# -- the worker loop -------------------------------------------------------

class _LeaseKeeper(threading.Thread):
    """Heartbeats the worker's current job so its lease never expires
    while the executor is genuinely making progress."""

    def __init__(self, store: JobStore, interval: float):
        super().__init__(name="fleet-lease-keeper", daemon=True)
        self._store = store
        self._interval = interval
        self._halt = threading.Event()
        self._lock = threading.Lock()
        self._job: Job | None = None

    def watch(self, job: Job | None) -> None:
        with self._lock:
            self._job = job

    def halt(self) -> None:
        self._halt.set()
        self.join(timeout=5.0)

    def run(self) -> None:
        while not self._halt.wait(self._interval):
            with self._lock:
                job = self._job
            if job is None:
                continue
            try:
                self._store.heartbeat(job)
            except OSError:       # spool unwritable; the reaper decides
                pass


def worker_loop(root: str, worker_id: str, drain: bool = True,
                poll: float = 0.05, publish: bool = True,
                lease_seconds: float | None = None) -> dict:
    """Claim and execute jobs until the spool drains (or stop is asked).

    ``drain=True`` exits once no pending job remains; ``drain=False``
    keeps polling until the store's stop sentinel appears (and reaps
    expired leases while idle, so a standing pool self-heals).  Returns
    this worker's counters.  Runs in-process — the pool spawns it in
    worker processes, tests call it directly.
    """
    store = (JobStore(root) if lease_seconds is None
             else JobStore(root, lease_seconds=lease_seconds))
    metrics = MetricsRegistry()
    claimed = metrics.counter("fleet_jobs_claimed_total",
                              "Jobs this worker claimed.")
    done = metrics.counter("fleet_jobs_done_total",
                           "Jobs this worker completed.")
    failed = metrics.counter("fleet_jobs_failed_total",
                             "Jobs this worker failed.")
    lease_lost = metrics.counter(
        "fleet_jobs_lease_lost_total",
        "Results discarded because the job's lease was reaped away.")
    requeued = metrics.counter(
        "fleet_jobs_requeued_total",
        "Expired orphan jobs this worker requeued while idle.")
    seconds = metrics.counter("fleet_job_seconds_total",
                              "Wall seconds spent executing jobs.",
                              labelnames=("kind",))
    publisher = None
    if publish:
        publisher = TelemetryPublisher(
            metrics, Path(root) / TELEMETRY_DIR, role="pool",
            worker=worker_id, interval=1.0)
        publisher.start()
    keeper = _LeaseKeeper(store, interval=store.lease_seconds / 4.0)
    keeper.start()
    try:
        while True:
            job = store.claim(worker_id)
            if job is None:
                if drain or store.stop_requested:
                    break
                for action in store.reap():
                    if action["action"] == "requeued":
                        requeued.inc()
                time.sleep(poll)
                continue
            keeper.watch(job)
            claimed.inc()
            start = time.perf_counter()
            try:
                fn = EXECUTORS.get(job.kind)
                if fn is None:
                    raise PoolError(f"no executor for job kind "
                                    f"{job.kind!r} (have "
                                    f"{sorted(EXECUTORS)})")
                result = fn(job.payload)
                keeper.watch(None)
                store.complete(job, result if isinstance(result, dict)
                               else {"result": result})
                done.inc()
            except LeaseLostError:
                lease_lost.inc()
            except Exception:
                keeper.watch(None)
                try:
                    store.fail(job, traceback.format_exc(limit=8))
                    failed.inc()
                except LeaseLostError:
                    lease_lost.inc()
            finally:
                keeper.watch(None)
            seconds.labels(kind=job.kind).inc(
                time.perf_counter() - start)
    finally:
        keeper.halt()
        if publisher is not None:
            publisher.stop()
    return {"claimed": int(claimed.value), "done": int(done.value),
            "failed": int(failed.value),
            "lease_lost": int(lease_lost.value)}


def _mp_context():
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn")


class WorkerPool:
    """Fan a job spool across N supervised worker processes.

    ``workers <= 1`` drains the spool serially in-process — handy for
    tests and the invariance guarantee's reference side.

    The parent is a supervisor, not a passive joiner: while the drain
    runs it reaps expired job leases (requeueing orphans a dead worker
    stranded in ``running/``) and respawns worker processes that died
    while pending work remains, up to ``max_restarts`` incarnations per
    worker slot.  ``lease_seconds``/``max_attempts`` tune the spool's
    lease policy (see :class:`~repro.fleet.jobs.JobStore`).
    """

    def __init__(self, root: str | Path, workers: int = 2,
                 publish: bool = True,
                 lease_seconds: float | None = None,
                 max_attempts: int | None = None,
                 max_restarts: int = 3, poll: float = 0.1):
        if workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers}")
        if max_restarts < 0:
            raise ValueError(f"max_restarts must be >= 0, "
                             f"got {max_restarts}")
        self.root = Path(root)
        self.workers = workers
        self.publish = publish
        self.lease_seconds = lease_seconds
        self.max_attempts = max_attempts
        self.max_restarts = max_restarts
        self.poll = poll

    def _open_store(self) -> JobStore:
        kwargs: dict = {}
        if self.lease_seconds is not None:
            kwargs["lease_seconds"] = self.lease_seconds
        if self.max_attempts is not None:
            kwargs["max_attempts"] = self.max_attempts
        return JobStore(self.root, **kwargs)

    def run_until_drained(self, timeout: float | None = None,
                          on_poll=None) -> dict:
        """Execute every pending job; returns the job-state counts.

        The returned dict carries the four state counts plus
        ``"requeued"`` (orphan jobs the reaper recycled) and
        ``"restarts"`` (worker incarnations respawned).  ``on_poll``,
        when given, is called as ``on_poll(counts, processes)`` on every
        supervision tick — the chaos harness's injection point.  Raises
        :class:`PoolError` if the drain does not finish within
        ``timeout`` seconds or every worker slot exhausts its restart
        budget with work still pending.
        """
        store = self._open_store()
        metrics = MetricsRegistry()
        requeued = metrics.counter(
            "fleet_jobs_requeued_total",
            "Expired orphan jobs requeued by the pool supervisor.")
        reap_failed = metrics.counter(
            "fleet_jobs_reaped_failed_total",
            "Orphan jobs terminally failed (attempt budget spent).")
        restarts = metrics.counter(
            "fleet_worker_restarts_total",
            "Worker processes respawned by the pool supervisor.")
        deadline = (time.monotonic() + timeout
                    if timeout is not None else None)

        def reap_once() -> None:
            for action in store.reap():
                if action["action"] == "requeued":
                    requeued.inc()
                else:
                    reap_failed.inc()

        def finish() -> dict:
            reap_once()     # installs a completion whose finisher died
            counts = store.counts()
            counts["requeued"] = int(requeued.value)
            counts["restarts"] = int(restarts.value)
            return counts

        if self.workers <= 1:
            # Serial reference drain: loop reap -> drain until clean, so
            # even leftover orphans from a previously-killed drain are
            # recycled once their lease expires.
            while True:
                worker_loop(str(self.root), "w0", drain=True,
                            publish=self.publish,
                            lease_seconds=self.lease_seconds)
                reap_once()
                if not store.outstanding():
                    return finish()
                if deadline is not None and time.monotonic() > deadline:
                    raise PoolError(f"serial drain did not finish within "
                                    f"{timeout}s")
                time.sleep(self.poll)

        ctx = _mp_context()
        publisher = None
        if self.publish:
            publisher = TelemetryPublisher(
                metrics, self.root / TELEMETRY_DIR, role="pool",
                worker="supervisor", interval=1.0)
            publisher.start()

        def spawn(slot: int, incarnation: int):
            worker_id = (f"w{slot}" if incarnation == 0
                         else f"w{slot}r{incarnation}")
            process = ctx.Process(
                target=worker_loop, args=(str(self.root), worker_id),
                kwargs={"drain": True, "publish": self.publish,
                        "lease_seconds": self.lease_seconds},
                daemon=True)
            process.start()
            return process

        processes = {slot: spawn(slot, 0) for slot in range(self.workers)}
        incarnations = {slot: 0 for slot in range(self.workers)}
        try:
            while True:
                reap_once()
                counts = store.counts()
                if on_poll is not None:
                    on_poll(counts, processes)
                if counts["pending"] + counts["running"] == 0:
                    break
                if counts["pending"] > 0:
                    for slot, process in processes.items():
                        if process.is_alive():
                            continue
                        if incarnations[slot] >= self.max_restarts:
                            continue
                        incarnations[slot] += 1
                        restarts.inc()
                        processes[slot] = spawn(slot, incarnations[slot])
                    if not any(p.is_alive() for p in processes.values()) \
                            and all(incarnations[slot] >= self.max_restarts
                                    for slot in processes):
                        raise PoolError(
                            f"every worker slot spent its restart budget "
                            f"({self.max_restarts}) with "
                            f"{counts['pending']} job(s) still pending")
                if deadline is not None and time.monotonic() > deadline:
                    raise PoolError(
                        f"pool did not drain within {timeout}s "
                        f"({counts['pending']} pending, "
                        f"{counts['running']} running)")
                time.sleep(self.poll)
            for process in processes.values():
                remaining = (30.0 if deadline is None
                             else max(0.0, deadline - time.monotonic()))
                process.join(remaining)
            alive = [p for p in processes.values() if p.is_alive()]
            if alive:
                raise PoolError(
                    f"{len(alive)} pool worker(s) still running after "
                    f"the spool drained")
        except Exception:
            for process in processes.values():
                if process.is_alive():
                    process.terminate()
            raise
        finally:
            if publisher is not None:
                publisher.stop()
        return finish()
