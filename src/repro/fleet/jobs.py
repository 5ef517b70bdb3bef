"""File-backed job registry: the fleet's orchestration spool.

A :class:`JobStore` is a directory of JSON job documents partitioned by
state::

    <root>/pending/<job-id>.json
    <root>/running/<job-id>.json
    <root>/done/<job-id>.json       # result embedded
    <root>/failed/<job-id>.json     # error embedded

The state *is* the directory — a job moves between states via atomic
``os.rename``, which is also what makes claiming safe across processes:
when N workers race to claim the same pending job, exactly one rename
succeeds and the losers get ``FileNotFoundError`` and move on.  No
locks, no daemons, no sockets; any process that can see the directory
can submit, claim, or inspect work, which is exactly the property a
multi-process worker pool (and a human with ``ls``) needs.

Jobs are ordered: every submit records a monotonically increasing
``submit_index``, claims walk pending ids in sorted order, and result
collection sorts by the index — so a pool's output rows are invariant
to worker count and completion order, matching the repo's exactness
discipline.

**Leases.**  A claim is a *lease*, not ownership forever: every claim
stamps the running document with a deadline (``time.monotonic()``-based,
which is system-wide on Linux, so every process on the machine reads the
same clock) that the worker must keep refreshing via :meth:`JobStore.heartbeat`.
A worker that is SIGKILLed, wedged, or partitioned stops heartbeating,
its lease expires, and :meth:`JobStore.reap` moves the orphan back to
``pending/`` with its ``submit_index`` (ordering survives requeue) and
its ``attempts`` counter intact — or to ``failed/`` once the attempt
budget is spent, so a poison job cannot ping-pong forever.

Completion is *rename-first*: :meth:`complete`/:meth:`fail` first write
the finished document beside the running one, as
``running/<id>.final-<attempts>`` (no ``*.json`` glob sees it), then
atomically rename ``running/<id>.json`` to the destination state — the
single commit point — and finally install the finished document over
it.  Exactly one of {finishing worker, reaper} wins that rename; the
loser raises/skips.  A finisher killed between the commit and the
install leaves its finished document behind, and :meth:`reap` installs
it, so a ``done`` job never stays without its result.  A stale worker
that finishes after its job was requeued gets :class:`LeaseLostError`
and discards its result — the job can be *executed* more than once
under pathological stalls (executors are deterministic, so the bytes
match), but it is *completed* exactly once, which is what keeps drained
output duplicate-free.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

PENDING = "pending"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
STATES = (PENDING, RUNNING, DONE, FAILED)

#: Name of the sentinel file a long-running pool polls to shut down.
STOP_SENTINEL = "stop"

#: Default seconds a claim stays valid without a heartbeat.
DEFAULT_LEASE_SECONDS = 30.0

#: Default total claims a job gets before the reaper fails it for good.
DEFAULT_MAX_ATTEMPTS = 3


class JobError(Exception):
    """A malformed job document or an invalid state transition."""


class LeaseLostError(JobError):
    """This worker's lease expired and the job was requeued elsewhere.

    Raised by :meth:`JobStore.complete`/:meth:`JobStore.fail` when the
    running document is gone — the reaper (or a racing finisher) won the
    completion rename.  The caller must discard its result.
    """


@dataclass
class Job:
    """One unit of fleet work (a JSON document on disk)."""

    job_id: str
    kind: str                      # "train" | "forecast" | ...
    payload: dict
    state: str = PENDING
    submit_index: int = 0
    worker: str | None = None      # who claimed it
    result: dict | None = None     # set on done
    error: str | None = None       # set on failed
    attempts: int = 0              # claims so far (bounded by the reaper)
    lease_deadline: float | None = None   # monotonic; None when not running

    def to_dict(self) -> dict:
        return {"job_id": self.job_id, "kind": self.kind,
                "payload": self.payload, "state": self.state,
                "submit_index": self.submit_index, "worker": self.worker,
                "result": self.result, "error": self.error,
                "attempts": self.attempts,
                "lease_deadline": self.lease_deadline}

    @classmethod
    def from_dict(cls, document: dict) -> "Job":
        """Rebuild a job; :class:`JobError` unless ``document`` is one."""
        try:
            job = cls(job_id=document["job_id"], kind=document["kind"],
                      payload=document["payload"],
                      state=document.get("state", PENDING),
                      submit_index=int(document.get("submit_index", 0)),
                      worker=document.get("worker"),
                      result=document.get("result"),
                      error=document.get("error"),
                      attempts=int(document.get("attempts", 0)),
                      lease_deadline=document.get("lease_deadline"))
            if job.lease_deadline is not None:
                job.lease_deadline = float(job.lease_deadline)
        except KeyError as missing:
            raise JobError(f"job document missing key {missing}") from None
        except (TypeError, ValueError) as error:
            raise JobError(f"malformed job document: {error}") from None
        if not isinstance(job.job_id, str):
            raise JobError(f"job_id must be a string, got {job.job_id!r}")
        return job


def read_job(path: Path) -> Job:
    """The job document at ``path``; :class:`JobError` if it is malformed.

    Spool files are input from outside the process: anything but a UTF-8
    JSON object with the job keys, a string id and numeric counters is
    malformed.  ``OSError`` (the file was moved away, or cannot be read)
    propagates.
    """
    try:
        document = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as error:     # not UTF-8, or not JSON
        raise JobError(f"unreadable job document {path.name}: "
                       f"{error}") from None
    return Job.from_dict(document)


class JobStore:
    """Submit / claim / complete over a spool directory.

    ``lease_seconds`` is how long a claim stays valid without a
    heartbeat; ``max_attempts`` is the total number of claims a job gets
    before :meth:`reap` moves the expired orphan to ``failed/`` instead
    of requeueing it.
    """

    def __init__(self, root: str | Path,
                 lease_seconds: float = DEFAULT_LEASE_SECONDS,
                 max_attempts: int = DEFAULT_MAX_ATTEMPTS):
        if lease_seconds <= 0:
            raise ValueError(f"lease_seconds must be > 0, "
                             f"got {lease_seconds}")
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, "
                             f"got {max_attempts}")
        self.root = Path(root)
        self.lease_seconds = float(lease_seconds)
        self.max_attempts = int(max_attempts)
        # job id -> deadline given to a running document seen without a
        # lease (its claimer died between the claim rename and the stamp).
        self._unstamped: dict[str, float] = {}
        for state in STATES:
            (self.root / state).mkdir(parents=True, exist_ok=True)

    def _path(self, state: str, job_id: str) -> Path:
        return self.root / state / f"{job_id}.json"

    def _final_path(self, job: Job) -> Path:
        """Where a finisher stages its finished document (see reap)."""
        return self.root / RUNNING / f"{job.job_id}.final-{job.attempts}"

    def _write(self, state: str, job: Job) -> None:
        self._dump(self._path(state, job.job_id), job)

    def _dump(self, path: Path, job: Job) -> None:
        tmp = path.with_name(f".{path.name}.tmp-{os.getpid()}")
        try:
            tmp.write_text(json.dumps(job.to_dict(), sort_keys=True,
                                      indent=1) + "\n")
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)

    # -- submission --------------------------------------------------------

    def submit(self, kind: str, payload: dict,
               job_id: str | None = None) -> Job:
        """Enqueue one job; returns it in ``pending`` state.

        Auto-generated ids embed the submit index
        (``<kind>-<index:05d>``); explicit ids must be unique across
        every state directory.
        """
        explicit = job_id is not None
        while True:
            index = self._next_index()
            current_id = job_id if explicit else f"{kind}-{index:05d}"
            taken = next((state for state in STATES
                          if self._path(state, current_id).exists()), None)
            if taken is not None:
                if explicit:
                    raise JobError(f"job id {current_id!r} already exists "
                                   f"({taken})")
                continue   # another submitter landed this index; recompute
            job = Job(job_id=current_id, kind=kind, payload=dict(payload),
                      submit_index=index)
            # Exclusive create: two submitters racing to the same
            # auto-generated id cannot silently overwrite each other —
            # the loser recomputes the index and retries.
            try:
                with open(self._path(PENDING, current_id), "x",
                          encoding="utf-8") as handle:
                    handle.write(json.dumps(job.to_dict(), sort_keys=True,
                                            indent=1) + "\n")
            except FileExistsError:
                if explicit:
                    raise JobError(
                        f"job id {current_id!r} already exists") from None
                continue
            return job

    def _next_index(self) -> int:
        highest = -1
        for state in STATES:
            for path in (self.root / state).glob("*.json"):
                try:
                    highest = max(highest, read_job(path).submit_index)
                except (JobError, OSError):
                    continue
        return highest + 1

    # -- claiming ----------------------------------------------------------

    def claim(self, worker: str) -> Job | None:
        """Atomically move the oldest pending job to running, or ``None``.

        Safe under concurrent claimers: the rename either succeeds (this
        worker owns the job) or raises (another worker won; try the next
        pending id).  The claim is a lease: the running document carries
        a ``lease_deadline`` this worker must refresh via
        :meth:`heartbeat` before it expires, and an incremented
        ``attempts`` counter the reaper budgets against.
        """
        pending_dir = self.root / PENDING
        for path in sorted(pending_dir.glob("*.json")):
            running = self._path(RUNNING, path.stem)
            try:
                os.rename(path, running)
            except FileNotFoundError:
                continue        # lost the race for this one
            try:
                job = read_job(running)
            except JobError as error:
                failed = Job(job_id=path.stem, kind="?", payload={},
                             state=FAILED, error=f"unreadable job: {error}")
                self._write(FAILED, failed)
                running.unlink(missing_ok=True)
                continue
            job.state = RUNNING
            job.worker = worker
            job.attempts += 1
            job.lease_deadline = time.monotonic() + self.lease_seconds
            self._write(RUNNING, job)
            return job
        return None

    def heartbeat(self, job: Job) -> bool:
        """Refresh a running job's lease; ``False`` if the lease is gone.

        Best-effort: a reaper racing this refresh in the tiny window
        between the existence check and the rewrite can still requeue the
        job — the rename-first completion protocol, not the heartbeat, is
        what guarantees single completion.
        """
        if not self._path(RUNNING, job.job_id).exists():
            return False
        job.lease_deadline = time.monotonic() + self.lease_seconds
        self._write(RUNNING, job)
        return True

    # -- completion --------------------------------------------------------

    def _finish(self, job: Job, state: str) -> None:
        # Stage, commit, install.  The rename is the commit: exactly one
        # of {this finisher, the reaper} gets to move the running
        # document, so a job whose lease was reaped away cannot also
        # land a (duplicate) result.  Staging first means a kill after
        # the commit leaves the result on disk for reap() to install.
        final = self._final_path(job)
        self._dump(final, job)
        target = self._path(state, job.job_id)
        try:
            os.rename(self._path(RUNNING, job.job_id), target)
        except FileNotFoundError:
            final.unlink(missing_ok=True)
            raise LeaseLostError(
                f"job {job.job_id!r} is no longer running under "
                f"{self.root} (lease expired and the job was requeued, "
                f"or another finisher won); result discarded") from None
        try:
            os.replace(final, target)
        except FileNotFoundError:
            pass        # a reaper installed it first (same bytes)

    def complete(self, job: Job, result: dict) -> Job:
        """Record a successful result and move the job to ``done``.

        Raises :class:`LeaseLostError` when this worker's lease was
        reaped away — the caller must discard the result.
        """
        job.state = DONE
        job.result = dict(result)
        job.lease_deadline = None
        self._finish(job, DONE)
        return job

    def fail(self, job: Job, error: str) -> Job:
        """Record a failure and move the job to ``failed``.

        Raises :class:`LeaseLostError` when the lease was reaped away.
        """
        job.state = FAILED
        job.error = str(error)
        job.lease_deadline = None
        self._finish(job, FAILED)
        return job

    # -- the reaper --------------------------------------------------------

    def reap(self, now: float | None = None) -> list[dict]:
        """Requeue (or terminally fail) running jobs whose lease expired.

        Returns one ``{"job_id", "action", "attempts", "worker"}`` entry
        per orphan handled: ``action`` is ``"requeued"`` (back to
        ``pending/`` with ``submit_index`` and ``attempts`` intact) or
        ``"failed"`` (the attempt budget is spent).  Safe to call from
        any process at any time; races with finishing workers and other
        reapers resolve through the same atomic renames claims use.

        First, it installs every committed but never-installed finished
        document (a finisher killed between commit and install).  A
        running document without a lease (a claimer killed between its
        rename and its stamp) expires one lease period after the first
        reap by this store that sees it.
        """
        now = time.monotonic() if now is None else now
        self._install_finished()
        actions: list[dict] = []
        for path in sorted((self.root / RUNNING).glob("*.json")):
            try:
                job = read_job(path)
            except (JobError, OSError):
                continue
            if job.lease_deadline is None:
                # Claimed but never stamped: one lease period from first
                # sight, then it expires like any other lease.
                job.lease_deadline = self._unstamped.setdefault(
                    job.job_id, now + self.lease_seconds)
            else:
                self._unstamped.pop(job.job_id, None)
            if now <= job.lease_deadline:
                continue
            self._unstamped.pop(job.job_id, None)
            expired_worker = job.worker
            if job.attempts >= self.max_attempts:
                try:
                    os.rename(path, self._path(FAILED, job.job_id))
                except FileNotFoundError:
                    continue    # the worker (or another reaper) won
                job.state = FAILED
                job.worker = None
                job.lease_deadline = None
                job.error = (f"lease expired on worker "
                             f"{expired_worker!r}; attempt "
                             f"{job.attempts}/{self.max_attempts} "
                             f"budget spent")
                self._write(FAILED, job)
                actions.append({"job_id": job.job_id, "action": "failed",
                                "attempts": job.attempts,
                                "worker": expired_worker})
            else:
                # The rename alone IS the requeue: a racing claimer may
                # take the job the instant it lands in pending/, so no
                # follow-up rewrite is allowed (it could resurrect a
                # stale pending doc next to the new running one).  The
                # stale worker/lease fields in the document are dead
                # weight until the next claim re-stamps them.
                try:
                    os.rename(path, self._path(PENDING, job.job_id))
                except FileNotFoundError:
                    continue
                actions.append({"job_id": job.job_id, "action": "requeued",
                                "attempts": job.attempts,
                                "worker": expired_worker})
        return actions

    def _install_finished(self) -> None:
        """Roll forward completions whose finisher died after the commit.

        A staged ``<id>.final-<n>`` whose running document is gone was
        committed when the job's document in the finished state carries
        the same ``attempts``; installing it is idempotent (same bytes as
        the finisher would write).  Any other staged document whose job
        is no longer running belongs to an attempt that never committed
        and is dropped.  One whose job is running again may belong to a
        live finisher and is left alone.
        """
        for final in sorted((self.root / RUNNING).glob("*.final-*")):
            job_id, _, attempts = final.name.rpartition(".final-")
            if final.name.startswith(".") \
                    or self._path(RUNNING, job_id).exists():
                continue        # a _dump temp file, or a live job
            try:
                staged = read_job(final)
                target = self._path(staged.state, job_id)
                committed = read_job(target)
                install = committed.attempts == int(attempts)
            except (OSError, ValueError, JobError):
                install = False
            if install:
                try:
                    os.replace(final, target)
                except FileNotFoundError:
                    pass    # the finisher (or another reaper) installed it
            else:
                final.unlink(missing_ok=True)

    # -- inspection --------------------------------------------------------

    def jobs(self, state: str | None = None) -> list[Job]:
        """Jobs in one state (or all), sorted by submit order."""
        states = [state] if state is not None else list(STATES)
        found = []
        for current in states:
            for path in sorted((self.root / current).glob("*.json")):
                try:
                    job = read_job(path)
                except JobError:
                    continue
                job.state = current   # the directory is the truth
                found.append(job)
        found.sort(key=lambda job: job.submit_index)
        return found

    def get(self, job_id: str) -> Job:
        for state in STATES:
            path = self._path(state, job_id)
            if path.exists():
                job = read_job(path)
                job.state = state
                return job
        raise JobError(f"no job {job_id!r} under {self.root}")

    def counts(self) -> dict:
        """``{state: job count}`` for every state directory."""
        return {state: len(list((self.root / state).glob("*.json")))
                for state in STATES}

    def outstanding(self) -> int:
        counts = self.counts()
        return counts[PENDING] + counts[RUNNING]

    def wait(self, timeout: float | None = None,
             poll: float = 0.05) -> bool:
        """Block until no job is pending or running; ``False`` on timeout.

        All spool deadlines — this wait, the pool drain, and job leases —
        share ``time.monotonic``, so a lease deadline written by one
        process means the same thing to every other process reaping it.
        """
        deadline = (time.monotonic() + timeout
                    if timeout is not None else None)
        while self.outstanding():
            if deadline is not None and time.monotonic() > deadline:
                return False
            time.sleep(poll)
        return True

    # -- pool shutdown sentinel -------------------------------------------

    @property
    def stop_requested(self) -> bool:
        return (self.root / STOP_SENTINEL).exists()

    def request_stop(self) -> None:
        """Ask long-running pool workers to exit after their current job."""
        (self.root / STOP_SENTINEL).touch()

    def clear_stop(self) -> None:
        (self.root / STOP_SENTINEL).unlink(missing_ok=True)
