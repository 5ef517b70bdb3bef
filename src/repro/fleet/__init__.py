"""repro.fleet — fleet-scale orchestration over the single-process stack.

Four layers, all stdlib + numpy, all preserving the repo's exactness
discipline (N workers produce byte-identical outputs to one):

* :mod:`repro.fleet.artifacts` — content-addressed artifact store
  converging dataset shards, training run directories, and serve
  checkpoints behind one ``put`` / ``get`` / ``verify`` interface, with
  a ``scrub`` pass that quarantines corrupt blobs.
* :mod:`repro.fleet.jobs` / :mod:`repro.fleet.pool` — file-backed job
  spool with atomic claims and lease-based orphan recovery, plus the
  supervised worker pool that drains it across N processes (train
  sweeps and batch forecasts route through this).
* :mod:`repro.fleet.router` — multi-worker serve front: a
  :class:`~repro.serve.engine.BatchingEngine` whose batches run in
  worker processes, one drain lane per worker.  It adds admission
  control, queue-depth backpressure, requeue of a crashed batch,
  circuit-broken worker restarts and ``fleet_*`` telemetry;
  :class:`~repro.serve.http.ForecastServer` serves a fleet as it serves
  an engine.
* :mod:`repro.fleet.chaos` — seeded, replayable fault injection
  (worker kills, stalls, garbled pipes, blob corruption) proving the
  recovery paths above deterministically.
"""

from repro.fleet.artifacts import ArtifactError, ArtifactRef, ArtifactStore
from repro.fleet.chaos import (
    ChaosError,
    Fault,
    FaultPlan,
    PoolChaos,
    RouterChaos,
    run_chaos_drain,
)
from repro.fleet.jobs import Job, JobError, JobStore, LeaseLostError
from repro.fleet.pool import EXECUTORS, PoolError, WorkerPool, executor, worker_loop
from repro.fleet.router import (
    CircuitBreaker,
    FleetBusyError,
    FleetRouter,
    ProcessWorker,
    WorkerCrashError,
    WorkerError,
)

__all__ = [
    "ArtifactError",
    "ArtifactRef",
    "ArtifactStore",
    "ChaosError",
    "CircuitBreaker",
    "EXECUTORS",
    "Fault",
    "FaultPlan",
    "FleetBusyError",
    "FleetRouter",
    "Job",
    "JobError",
    "JobStore",
    "LeaseLostError",
    "PoolChaos",
    "PoolError",
    "ProcessWorker",
    "RouterChaos",
    "WorkerCrashError",
    "WorkerError",
    "WorkerPool",
    "executor",
    "run_chaos_drain",
    "worker_loop",
]
