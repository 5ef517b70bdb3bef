"""Deterministic fault injection: prove the fleet survives what it claims.

PR 9 gave the fleet leases, supervision, retries, and scrub.  None of
that is worth much unasserted, so this module makes failure a test
input: a :class:`FaultPlan` is a seeded, JSON-round-trippable list of
:class:`Fault` records, and the appliers here fire them at deterministic
points in a drain or a request stream.  The same plan file replays the
same injected faults, which is what lets the kill -9 tests and the CI
``chaos-smoke`` job assert exact recovery behavior instead of "it
usually survives".

Fault kinds
-----------

``kill_worker``
    SIGKILL the worker process in slot ``target`` once ``at`` jobs (or
    requests) have finished — the lease reaper / router failover path.
``stall_worker``
    SIGSTOP the slot for ``seconds``, then SIGCONT.  The stalled
    worker's heartbeats stop, its lease expires, the job is requeued;
    on resume its late result loses the completion rename
    (``LeaseLostError``) and is discarded.
``corrupt_blob``
    Flip one byte in the ``target``-th blob (sorted order) of an
    artifact store — detected and quarantined by
    :meth:`ArtifactStore.scrub`.
``garble_message``
    Send an unparseable message down a :class:`ProcessWorker` pipe; the
    child exits cleanly and its router lane, finding the process dead,
    restarts it (a batch in flight is requeued).

Two appliers consume plans: :class:`PoolChaos` hooks
``WorkerPool.run_until_drained(on_poll=...)`` (trigger unit: jobs
finished), and :class:`RouterChaos` wraps ``FleetRouter.submit``
(trigger unit: requests submitted).  ``repro fleet chaos`` drives the
pool scenario end to end and prints the report the CI job asserts on.
"""

from __future__ import annotations

import json
import os
import random
import signal
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.fleet.artifacts import ArtifactStore
from repro.fleet.pool import WorkerPool

FAULT_KINDS = ("kill_worker", "stall_worker", "corrupt_blob",
               "garble_message")


class ChaosError(Exception):
    """A malformed fault plan or an injection that cannot apply."""


@dataclass(frozen=True)
class Fault:
    """One scheduled fault: what to break, at which progress point."""

    kind: str                 # one of FAULT_KINDS
    at: int = 0               # trigger: jobs finished / requests sent
    target: int = 0           # worker slot or blob index (modulo count)
    seconds: float = 1.0      # stall duration (stall_worker only)

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ChaosError(f"unknown fault kind {self.kind!r} "
                             f"(have {FAULT_KINDS})")
        if self.at < 0:
            raise ChaosError(f"fault trigger must be >= 0, got {self.at}")

    def to_dict(self) -> dict:
        return {"kind": self.kind, "at": self.at, "target": self.target,
                "seconds": self.seconds}

    @classmethod
    def from_dict(cls, document: dict) -> "Fault":
        return cls(kind=document["kind"], at=int(document.get("at", 0)),
                   target=int(document.get("target", 0)),
                   seconds=float(document.get("seconds", 1.0)))


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, replayable fault schedule (JSON round-trips exactly)."""

    seed: int
    faults: tuple = field(default_factory=tuple)

    def to_dict(self) -> dict:
        return {"seed": self.seed,
                "faults": [fault.to_dict() for fault in self.faults]}

    @classmethod
    def from_dict(cls, document: dict) -> "FaultPlan":
        return cls(seed=int(document.get("seed", 0)),
                   faults=tuple(Fault.from_dict(entry)
                                for entry in document.get("faults", [])))

    def save(self, path: str | Path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_dict(), indent=1,
                                   sort_keys=True) + "\n")
        return path

    @classmethod
    def load(cls, path: str | Path) -> "FaultPlan":
        return cls.from_dict(json.loads(Path(path).read_text()))

    @classmethod
    def generate(cls, seed: int, workers: int = 3, jobs: int = 6,
                 count: int = 2, kinds=("kill_worker", "corrupt_blob")
                 ) -> "FaultPlan":
        """A deterministic plan: same seed, same faults, every time."""
        if workers < 1:
            raise ChaosError(f"workers must be >= 1, got {workers}")
        rng = random.Random(seed)
        faults = []
        for index in range(count):
            kind = kinds[index % len(kinds)]
            # Trigger inside the drain (never at 0 or the last job) so
            # the fault lands mid-flight, which is the interesting case.
            at = rng.randrange(1, max(2, jobs - 1))
            faults.append(Fault(kind=kind, at=at,
                                target=rng.randrange(workers),
                                seconds=round(0.5 + rng.random(), 3)))
        faults.sort(key=lambda fault: (fault.at, fault.kind, fault.target))
        return cls(seed=seed, faults=tuple(faults))


# -- low-level injection primitives ----------------------------------------

def flip_byte(path: str | Path, offset: int = 0) -> dict:
    """Invert one byte of a file in place (the bit-rot primitive)."""
    path = Path(path)
    data = bytearray(path.read_bytes())
    if not data:
        raise ChaosError(f"{path} is empty; nothing to corrupt")
    offset %= len(data)
    data[offset] ^= 0xFF
    path.write_bytes(bytes(data))
    return {"path": str(path), "offset": offset, "size": len(data)}


def corrupt_blob(artifacts_root: str | Path, index: int = 0) -> dict | None:
    """Flip a byte in the ``index``-th blob of an artifact store.

    Returns the event record, or None when the store has no blobs yet
    (the applier retries on the next tick).
    """
    store = ArtifactStore(artifacts_root)
    if not store.objects_dir.is_dir():
        return None
    blobs = sorted(path for path in store.objects_dir.rglob("*")
                   if path.is_file() and not path.name.startswith("."))
    if not blobs:
        return None
    blob = blobs[index % len(blobs)]
    event = flip_byte(blob, offset=len(blob.name))
    event["digest"] = blob.name
    return event


def kill_process(pid: int) -> bool:
    """SIGKILL, tolerant of already-dead targets."""
    try:
        os.kill(pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        return False
    return True


def stall_process(pid: int, seconds: float) -> bool:
    """SIGSTOP now, SIGCONT after ``seconds`` (timer thread)."""
    try:
        os.kill(pid, signal.SIGSTOP)
    except (ProcessLookupError, PermissionError):
        return False

    def resume() -> None:
        try:
            os.kill(pid, signal.SIGCONT)
        except (ProcessLookupError, PermissionError):
            pass

    timer = threading.Timer(seconds, resume)
    timer.daemon = True
    timer.start()
    return True


def garble_pipe(worker) -> bool:
    """Send an unparseable frame down a ProcessWorker's request pipe.

    The child's receive loop cannot unpack it, breaks out cleanly, and
    exits — exercising the router's crash-detect-and-restart path
    without any signal delivery.
    """
    try:
        worker._conn.send("\x00garbled\x00")
    except (OSError, ValueError, AttributeError):
        return False
    return True


# -- plan appliers ---------------------------------------------------------

class PoolChaos:
    """Fire a plan's faults during ``WorkerPool.run_until_drained``.

    Pass :meth:`on_poll` as the pool's ``on_poll=`` hook.  The trigger
    unit is jobs finished (``done + failed``); each fault fires at most
    once and every injection lands in :attr:`events` so a test (or the
    CI job) can assert exactly what was broken.
    """

    def __init__(self, plan: FaultPlan,
                 artifacts: str | Path | None = None):
        self.plan = plan
        self.artifacts = artifacts
        self.events: list[dict] = []
        self._fired: set[int] = set()

    def on_poll(self, counts: dict, processes: dict) -> None:
        finished = counts.get("done", 0) + counts.get("failed", 0)
        for index, fault in enumerate(self.plan.faults):
            if index in self._fired or finished < fault.at:
                continue
            event = self._fire(fault, processes)
            if event is None:
                continue            # not applicable yet; retry next tick
            event.update(kind=fault.kind, at=fault.at,
                         finished=finished)
            self.events.append(event)
            self._fired.add(index)

    def _fire(self, fault: Fault, processes: dict) -> dict | None:
        if fault.kind in ("kill_worker", "stall_worker"):
            slots = sorted(processes)
            if not slots:
                return {"applied": False, "reason": "no worker processes"}
            slot = slots[fault.target % len(slots)]
            process = processes[slot]
            if process.pid is None or not process.is_alive():
                return {"applied": False, "slot": slot,
                        "reason": "worker already dead"}
            if fault.kind == "kill_worker":
                applied = kill_process(process.pid)
            else:
                applied = stall_process(process.pid, fault.seconds)
            return {"applied": applied, "slot": slot, "pid": process.pid}
        if fault.kind == "corrupt_blob":
            if self.artifacts is None:
                return {"applied": False,
                        "reason": "no artifact store attached"}
            event = corrupt_blob(self.artifacts, index=fault.target)
            if event is None:
                return None         # no blobs yet; keep waiting
            event["applied"] = True
            return event
        return {"applied": False,
                "reason": f"{fault.kind} has no pool-side injection"}


class RouterChaos:
    """Fire a plan's faults around a :class:`FleetRouter` request stream.

    Wraps ``router.submit`` — call :meth:`submit` (or
    :meth:`forecast_result`) instead of the router's own.  The trigger
    unit is requests submitted through this wrapper.
    """

    def __init__(self, router, plan: FaultPlan,
                 artifacts: str | Path | None = None):
        self.router = router
        self.plan = plan
        self.artifacts = artifacts
        self.events: list[dict] = []
        self._fired: set[int] = set()
        self._requests = 0

    def _fire_due(self) -> None:
        for index, fault in enumerate(self.plan.faults):
            if index in self._fired or self._requests < fault.at:
                continue
            event = self._fire(fault)
            if event is None:
                continue
            event.update(kind=fault.kind, at=fault.at,
                         requests=self._requests)
            self.events.append(event)
            self._fired.add(index)

    def _fire(self, fault: Fault) -> dict | None:
        if fault.kind in ("kill_worker", "stall_worker", "garble_message"):
            workers = self.router.workers
            worker = workers[fault.target % len(workers)]
            pid = getattr(worker, "pid", None)
            if fault.kind == "garble_message":
                return {"applied": garble_pipe(worker),
                        "worker": worker.worker_id}
            if pid is None:
                return {"applied": False, "worker": worker.worker_id,
                        "reason": "worker has no process"}
            if fault.kind == "kill_worker":
                applied = kill_process(pid)
            else:
                applied = stall_process(pid, fault.seconds)
            return {"applied": applied, "worker": worker.worker_id,
                    "pid": pid}
        if fault.kind == "corrupt_blob":
            if self.artifacts is None:
                return {"applied": False,
                        "reason": "no artifact store attached"}
            event = corrupt_blob(self.artifacts, index=fault.target)
            if event is None:
                return None
            event["applied"] = True
            return event
        return {"applied": False,
                "reason": f"{fault.kind} has no router-side injection"}

    def submit(self, model_id: str, x, timeout: float | None = None):
        self._fire_due()
        self._requests += 1
        return self.router.submit(model_id, x, timeout=timeout)

    def forecast_result(self, model_id: str, x,
                        timeout: float | None = 30.0):
        return self.submit(model_id, x, timeout=timeout).result(
            timeout=timeout)


# -- the CLI / CI scenario -------------------------------------------------

def run_chaos_drain(spool: str | Path, plan: FaultPlan, workers: int = 3,
                    artifacts: str | Path | None = None,
                    timeout: float | None = 300.0,
                    lease_seconds: float | None = 2.0,
                    max_attempts: int | None = None,
                    max_restarts: int = 3,
                    publish: bool = False) -> dict:
    """Drain a job spool under a fault plan; returns the full report.

    The report carries the plan, every injected fault event, the final
    drain counts, and (when an artifact store is attached) its scrub
    report — everything the acceptance assertions need in one JSON
    document.  ``lease_seconds`` defaults low so a killed worker's
    orphan requeues within the drain instead of after it.
    """
    pool = WorkerPool(spool, workers=workers, publish=publish,
                      lease_seconds=lease_seconds,
                      max_attempts=max_attempts,
                      max_restarts=max_restarts)
    chaos = PoolChaos(plan, artifacts=artifacts)
    started = time.monotonic()
    counts = pool.run_until_drained(timeout=timeout,
                                    on_poll=chaos.on_poll)
    report = {
        "plan": plan.to_dict(),
        "workers": workers,
        "events": chaos.events,
        "counts": counts,
        "elapsed_seconds": round(time.monotonic() - started, 3),
    }
    if artifacts is not None:
        report["scrub"] = ArtifactStore(artifacts).scrub()
    return report
