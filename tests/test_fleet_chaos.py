"""Fault tolerance: leases, reap, scrub, breakers, failover — proven.

The kill -9 tests here are the PR's acceptance bar: SIGKILL one of
three process workers mid-drain and mid-forecast-load, and assert the
spool drains with every job done (requeued, not lost) and routed
forecasts stay bitwise-equal to a serial single-engine run.
"""

import json
import os
import signal
import time
from pathlib import Path

import numpy as np
import pytest

from tests.conftest import make_dataset, make_tiny_model
from repro.data.store import ShardedStore
from repro.fleet import (
    ArtifactStore,
    CircuitBreaker,
    Fault,
    FaultPlan,
    FleetRouter,
    JobStore,
    LeaseLostError,
    WorkerCrashError,
    WorkerPool,
    executor,
    run_chaos_drain,
)
from repro.fleet.chaos import ChaosError, corrupt_blob, flip_byte, garble_pipe
from repro.fleet.pool import EXECUTORS
from repro.serve.client import ClientError, ForecastClient

FAR_FUTURE = 1e12          # a monotonic instant past any real lease


@pytest.fixture()
def store(tmp_path):
    return JobStore(tmp_path / "jobs", lease_seconds=5.0, max_attempts=2)


@pytest.fixture()
def slow_executor():
    """A deliberately slow job kind, so kills land mid-drain."""
    @executor("slow-chaos")
    def run_slow(payload):
        time.sleep(payload.get("delay", 0.2))
        return {"value": payload["value"]}

    yield run_slow
    EXECUTORS.pop("slow-chaos", None)


def _forecast_fixture(tmp_path, count=6):
    """Checkpoint + dataset store shared by the recovery scenarios."""
    (tmp_path / "ckpt").mkdir(exist_ok=True)
    make_tiny_model().save(tmp_path / "ckpt" / "cong.npz")
    ShardedStore.from_dataset(tmp_path / "data",
                              make_dataset(count=count, size=16),
                              shard_size=3)
    return tmp_path / "ckpt", tmp_path / "data"


def _fill_forecast_spool(tmp_path, tag, count=6, **store_kwargs):
    root = tmp_path / f"spool-{tag}"
    store = JobStore(root, **store_kwargs)
    for index in range(count):
        store.submit("forecast", {
            "checkpoints": str(tmp_path / "ckpt"),
            "model": "cong",
            "input": {"store": str(tmp_path / "data"), "index": index},
            "artifacts": str(tmp_path / f"art-{tag}")})
    return root, store


class TestLeases:
    def test_claim_stamps_lease_and_attempts(self, store):
        store.submit("echo", {})
        before = time.monotonic()
        job = store.claim("w0")
        assert job.attempts == 1
        assert job.lease_deadline is not None
        assert job.lease_deadline >= before + store.lease_seconds - 1.0
        on_disk = store.get(job.job_id)
        assert on_disk.attempts == 1
        assert on_disk.lease_deadline == job.lease_deadline

    def test_heartbeat_refreshes_and_detects_loss(self, store):
        store.submit("echo", {})
        job = store.claim("w0")
        old_deadline = job.lease_deadline
        time.sleep(0.01)
        assert store.heartbeat(job) is True
        assert job.lease_deadline > old_deadline
        store.reap(now=FAR_FUTURE)           # lease gone
        assert store.heartbeat(job) is False

    def test_reap_requeues_expired_preserving_order(self, store):
        ids = [store.submit("echo", {"value": i}).job_id for i in range(3)]
        claimed = [store.claim(f"w{i}") for i in range(3)]
        actions = store.reap(now=FAR_FUTURE)
        assert [entry["action"] for entry in actions] == ["requeued"] * 3
        assert {entry["worker"] for entry in actions} == {"w0", "w1", "w2"}
        assert store.counts()["pending"] == 3
        # Requeue preserves submit order; the next claims re-walk it.
        reclaimed = [store.claim("w9").job_id for _ in range(3)]
        assert reclaimed == ids
        assert claimed[0].job_id == ids[0]

    def test_reclaim_increments_attempts(self, store):
        store.submit("echo", {})
        first = store.claim("w0")
        assert first.attempts == 1
        store.reap(now=FAR_FUTURE)
        second = store.claim("w1")
        assert second.attempts == 2

    def test_reap_fails_job_after_attempt_budget(self, store):
        # max_attempts=2: first expiry requeues, second fails for good.
        store.submit("echo", {})
        store.claim("w0")
        assert store.reap(now=FAR_FUTURE)[0]["action"] == "requeued"
        store.claim("w0")
        actions = store.reap(now=FAR_FUTURE)
        assert actions[0]["action"] == "failed"
        failed = store.jobs("failed")
        assert len(failed) == 1
        assert "attempt 2/2 budget spent" in failed[0].error
        assert "w0" in failed[0].error

    def test_unexpired_lease_not_reaped(self, store):
        store.submit("echo", {})
        store.claim("w0")
        assert store.reap() == []
        assert store.counts()["running"] == 1

    def test_complete_after_reap_raises_lease_lost(self, store):
        store.submit("echo", {})
        job = store.claim("w0")
        store.reap(now=FAR_FUTURE)
        with pytest.raises(LeaseLostError, match="result discarded"):
            store.complete(job, {"late": True})
        # The job survived in pending, unduplicated.
        assert store.counts() == {"pending": 1, "running": 0,
                                  "done": 0, "failed": 0}

    def test_fail_after_reap_raises_lease_lost(self, store):
        store.submit("echo", {})
        job = store.claim("w0")
        store.reap(now=FAR_FUTURE)
        with pytest.raises(LeaseLostError):
            store.fail(job, "late error")

    def test_kill_between_commit_and_install_is_rolled_forward(
            self, store, monkeypatch):
        """A finisher killed after the commit rename, before its result
        is installed, leaves a done job whose result reap() restores."""
        import repro.fleet.jobs as jobs_module

        store.submit("echo", {})
        job = store.claim("w0")
        real_replace = os.replace

        def killed_at_install(src, dst):
            if Path(dst).parent.name == "done":
                raise KeyboardInterrupt("killed before install")
            return real_replace(src, dst)

        monkeypatch.setattr(jobs_module.os, "replace", killed_at_install)
        with pytest.raises(KeyboardInterrupt):
            store.complete(job, {"echo": 7})
        monkeypatch.setattr(jobs_module.os, "replace", real_replace)
        assert store.get(job.job_id).result is None       # the defect
        assert store.reap() == []
        assert store.get(job.job_id).result == {"echo": 7}
        assert store.counts() == {"pending": 0, "running": 0,
                                  "done": 1, "failed": 0}
        assert list((store.root / "running").iterdir()) == []

    def test_uncommitted_staged_result_is_dropped(self, store):
        """A result staged by an attempt whose lease was reaped before
        its commit never installs, even after a later attempt finishes."""
        store.submit("echo", {})
        stale = store.claim("w0")
        store._dump(store._final_path(stale), stale)   # staged, then killed
        store.reap(now=FAR_FUTURE)
        fresh = store.claim("w1")
        store.complete(fresh, {"echo": "fresh"})
        store.reap()
        assert store.get(fresh.job_id).result == {"echo": "fresh"}
        assert list((store.root / "running").iterdir()) == []

    def test_claim_killed_before_its_stamp_is_requeued(self, store):
        """A claimer killed between the claim rename and the lease stamp
        leaves a running document with no lease; it must not strand."""
        job = store.submit("echo", {})
        os.rename(store.root / "pending" / f"{job.job_id}.json",
                  store.root / "running" / f"{job.job_id}.json")
        assert store.reap(now=100.0) == []          # grace: one lease
        assert store.reap(now=100.0 + store.lease_seconds) == []
        actions = store.reap(now=100.1 + store.lease_seconds)
        assert [entry["action"] for entry in actions] == ["requeued"]
        assert store.claim("w1").job_id == job.job_id

    def test_reap_leaves_a_staging_temp_file_alone(self, store):
        """A finisher mid-write owns its temp file; reap must not touch
        it even though the job's running document is already gone."""
        temp = store.root / "running" / ".echo-00000.final-1.tmp-99"
        temp.write_text("{")
        store.reap()
        assert temp.exists()

    def test_lease_params_validated(self, tmp_path):
        with pytest.raises(ValueError, match="lease_seconds"):
            JobStore(tmp_path / "a", lease_seconds=0)
        with pytest.raises(ValueError, match="max_attempts"):
            JobStore(tmp_path / "b", max_attempts=0)


class TestFaultPlan:
    def test_round_trips_through_json(self, tmp_path):
        plan = FaultPlan.generate(7, workers=3, jobs=10, count=3,
                                  kinds=("kill_worker", "corrupt_blob",
                                         "stall_worker"))
        path = plan.save(tmp_path / "plan.json")
        assert FaultPlan.load(path) == plan
        # The file is plain JSON a CI job can also author by hand.
        document = json.loads(path.read_text())
        assert document["seed"] == 7
        assert len(document["faults"]) == 3

    def test_same_seed_same_plan(self):
        assert FaultPlan.generate(3) == FaultPlan.generate(3)
        assert FaultPlan.generate(3) != FaultPlan.generate(4)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ChaosError, match="unknown fault kind"):
            Fault(kind="set-on-fire")

    def test_triggers_land_mid_drain(self):
        plan = FaultPlan.generate(0, workers=3, jobs=8, count=5)
        assert all(1 <= fault.at <= 6 for fault in plan.faults)


class TestScrub:
    def test_detects_and_quarantines_exactly_the_corrupt_blob(self,
                                                              tmp_path):
        store = ArtifactStore(tmp_path / "art")
        good = store.put_bytes(b"intact" * 100, "good.bin")
        bad = store.put_bytes(b"doomed" * 100, "bad.bin")
        bad_blob = bad.files[0]["sha256"]
        flip_byte(store.blob_path(bad_blob), offset=17)
        report = store.scrub()
        assert [e["digest"] for e in report["corrupt_blobs"]] == [bad_blob]
        assert len(report["quarantined"]) == 1
        assert not store.blob_path(bad_blob).exists()
        assert (store.quarantine_dir / bad_blob).exists()
        assert report["clean"] is False
        # The good artifact is untouched and still readable.
        assert store.read_bytes(good.digest) == b"intact" * 100
        # Quarantined blob shows up as missing for its artifact.
        assert [e["artifact"] for e in report["missing_blobs"]] \
            == ["bad.bin"]

    def test_store_self_heals_on_reput(self, tmp_path):
        store = ArtifactStore(tmp_path / "art")
        ref = store.put_bytes(b"payload" * 50, "x.bin")
        flip_byte(store.blob_path(ref.files[0]["sha256"]))
        assert store.scrub()["clean"] is False
        # Content-addressed: re-putting identical bytes refills the
        # vacated address and the store is whole again.
        again = store.put_bytes(b"payload" * 50, "x.bin")
        assert again.digest == ref.digest
        report = store.scrub()
        assert report["clean"] is True
        assert store.read_bytes(ref.digest) == b"payload" * 50

    def test_corrupt_manifest_quarantined(self, tmp_path):
        store = ArtifactStore(tmp_path / "art")
        ref = store.put_bytes(b"data", "m.bin")
        manifest = store.manifests_dir / f"{ref.digest}.json"
        manifest.write_text("{ not json")
        report = store.scrub()
        assert len(report["corrupt_manifests"]) == 1
        assert "unreadable" in report["corrupt_manifests"][0]["problem"]
        assert not manifest.exists()
        assert report["clean"] is False

    def test_clean_store_reports_clean(self, tmp_path):
        store = ArtifactStore(tmp_path / "art")
        store.put_bytes(b"fine", "ok.bin")
        report = store.scrub()
        assert report["clean"] is True
        assert report["blobs_scanned"] == 1
        assert report["quarantined"] == []

    def test_no_quarantine_mode_reports_only(self, tmp_path):
        store = ArtifactStore(tmp_path / "art")
        ref = store.put_bytes(b"stays" * 20, "s.bin")
        blob = store.blob_path(ref.files[0]["sha256"])
        flip_byte(blob)
        report = store.scrub(quarantine=False)
        assert len(report["corrupt_blobs"]) == 1
        assert report["quarantined"] == []
        assert blob.exists()

    def test_stats_count_quarantined(self, tmp_path):
        store = ArtifactStore(tmp_path / "art")
        ref = store.put_bytes(b"q" * 64, "q.bin")
        flip_byte(store.blob_path(ref.files[0]["sha256"]))
        store.scrub()
        assert store.stats()["quarantined"] == 1


class TestCircuitBreaker:
    def test_opens_after_threshold_and_cools_down(self):
        breaker = CircuitBreaker(threshold=2, window=10.0, cooldown=5.0)
        assert breaker.allow(now=0.0)
        breaker.record_failure(now=0.0)
        assert breaker.allow(now=0.1)           # one failure: still closed
        breaker.record_failure(now=0.2)
        assert breaker.state == CircuitBreaker.OPEN
        assert not breaker.allow(now=1.0)
        assert breaker.allow(now=5.5)           # cooldown -> half-open
        assert breaker.state == CircuitBreaker.HALF_OPEN

    def test_half_open_failure_reopens(self):
        breaker = CircuitBreaker(threshold=1, window=10.0, cooldown=1.0)
        breaker.record_failure(now=0.0)
        assert breaker.allow(now=1.5)           # half-open probe
        breaker.record_failure(now=1.6)
        assert breaker.state == CircuitBreaker.OPEN
        assert not breaker.allow(now=1.7)

    def test_success_closes_and_clears(self):
        breaker = CircuitBreaker(threshold=1, window=10.0, cooldown=1.0)
        breaker.record_failure(now=0.0)
        breaker.allow(now=1.5)
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.value == 0.0

    def test_old_failures_age_out_of_window(self):
        breaker = CircuitBreaker(threshold=2, window=1.0, cooldown=1.0)
        breaker.record_failure(now=0.0)
        breaker.record_failure(now=5.0)         # first aged out
        assert breaker.state == CircuitBreaker.CLOSED


class TestBackoff:
    def test_client_backoff_prefers_server_hint(self):
        client = ForecastClient(retries=3, retry_seed=1)
        assert client._backoff(0, 0.75) == 0.75
        fallback = client._backoff(5, None)
        assert 0 < fallback <= client.retry_cap


class TestClientRetry:
    def _flaky(self, client, failures, status=503, retry_after=0.0):
        calls = {"n": 0}

        def fake(path, payload=None, accept=None):
            calls["n"] += 1
            if calls["n"] <= failures:
                raise ClientError(status, "busy",
                                  retry_after=retry_after)
            return {"ok": True}

        client._request_once = fake
        return calls

    def test_retries_503_until_success(self):
        client = ForecastClient(retries=2, retry_base=0.001)
        calls = self._flaky(client, failures=2, retry_after=0.001)
        assert client._request("/x") == {"ok": True}
        assert calls["n"] == 3

    def test_budget_exhausted_raises_last_error(self):
        client = ForecastClient(retries=1, retry_base=0.001)
        self._flaky(client, failures=5, retry_after=0.001)
        with pytest.raises(ClientError) as failure:
            client._request("/x")
        assert failure.value.status == 503
        assert failure.value.retry_after == 0.001

    def test_client_errors_not_retried(self):
        client = ForecastClient(retries=5)
        calls = self._flaky(client, failures=5, status=404)
        with pytest.raises(ClientError):
            client._request("/x")
        assert calls["n"] == 1                   # no retry on 4xx

    def test_zero_retries_is_the_old_behavior(self):
        client = ForecastClient()
        calls = self._flaky(client, failures=1)
        with pytest.raises(ClientError):
            client._request("/x")
        assert calls["n"] == 1


class TestKill9Pool:
    def test_sigkill_mid_forecast_load_recovers_bitwise(self, tmp_path):
        """Acceptance: SIGKILL 1 of 3 workers while it is still coming
        up; the drain completes and output is byte-identical to serial."""
        _forecast_fixture(tmp_path, count=6)
        serial_root, serial_store = _fill_forecast_spool(tmp_path, "serial")
        counts = WorkerPool(serial_root, workers=1,
                            publish=False).run_until_drained(timeout=300)
        assert counts["done"] == 6
        reference = [job.result["artifact"]
                     for job in serial_store.jobs("done")]

        chaos_root, chaos_store = _fill_forecast_spool(tmp_path, "chaos")
        killed: dict = {}

        def kill_first_alive(poll_counts, processes):
            # First supervision tick: workers are spawning / warming
            # their model registries — kill slot 0 right there.
            if killed:
                return
            process = processes[0]
            if process.pid is not None and process.is_alive():
                os.kill(process.pid, signal.SIGKILL)
                killed["pid"] = process.pid

        counts = WorkerPool(chaos_root, workers=3, publish=False,
                            lease_seconds=1.0).run_until_drained(
            timeout=300, on_poll=kill_first_alive)
        assert killed, "the kill never applied to a live worker"
        assert counts["done"] == 6 and counts["failed"] == 0
        digests = [job.result["artifact"]
                   for job in chaos_store.jobs("done")]
        assert digests == reference
        serial_art = ArtifactStore(tmp_path / "art-serial")
        chaos_art = ArtifactStore(tmp_path / "art-chaos")
        for digest in reference:
            assert serial_art.read_bytes(digest) \
                == chaos_art.read_bytes(digest)
        assert chaos_art.verify() == []

    def test_sigkill_mid_drain_requeues_not_loses(self, tmp_path,
                                                  slow_executor):
        """SIGKILL a worker that owns a running job: the lease reaper
        recycles the orphan and every job still completes exactly once."""
        root = tmp_path / "spool"
        store = JobStore(root, lease_seconds=0.5)
        for i in range(6):
            store.submit("slow-chaos", {"value": i, "delay": 0.2})
        killed: dict = {}

        def kill_once_running(counts, processes):
            if killed or counts["running"] == 0:
                return
            process = processes[0]
            if process.pid is not None and process.is_alive():
                os.kill(process.pid, signal.SIGKILL)
                killed["pid"] = process.pid

        counts = WorkerPool(root, workers=3, publish=False,
                            lease_seconds=0.5).run_until_drained(
            timeout=120, on_poll=kill_once_running)
        assert killed
        assert counts["done"] == 6 and counts["failed"] == 0
        # Exactly one completion per job, values intact.
        values = sorted(job.result["value"] for job in store.jobs("done"))
        assert values == list(range(6))

    def test_poison_job_fails_after_budget_without_stalling_drain(
            self, tmp_path, slow_executor):
        """A job whose worker always dies must land in failed/, not
        ping-pong forever or wedge the drain."""
        root = tmp_path / "spool"
        store = JobStore(root, lease_seconds=0.3, max_attempts=2)
        store.submit("slow-chaos", {"value": 0, "delay": 30.0})  # poison
        store.submit("slow-chaos", {"value": 1, "delay": 0.05})

        def kill_poison_owner(counts, processes):
            # Whoever is running the 30s job gets killed, every tick.
            for job in store.jobs("running"):
                if job.payload["delay"] > 1.0 and job.worker:
                    slot = int(job.worker[1])   # "w0" / "w0r1" -> 0
                    process = processes.get(slot)
                    if process is not None and process.pid is not None \
                            and process.is_alive():
                        os.kill(process.pid, signal.SIGKILL)

        counts = WorkerPool(root, workers=2, publish=False,
                            lease_seconds=0.3, max_attempts=2,
                            max_restarts=6).run_until_drained(
            timeout=120, on_poll=kill_poison_owner)
        assert counts["done"] == 1
        assert counts["failed"] == 1
        failed = store.jobs("failed")
        assert "budget spent" in failed[0].error


class TestRouterFailover:
    def _checkpoints(self, tmp_path):
        ckpt = tmp_path / "ckpt"
        ckpt.mkdir()
        model = make_tiny_model()
        model.save(ckpt / "tiny.npz")
        return ckpt, model

    @staticmethod
    def _wait(predicate, timeout: float = 20.0) -> None:
        deadline = time.monotonic() + timeout
        while not predicate():
            assert time.monotonic() < deadline, "condition never held"
            time.sleep(0.02)

    def test_crash_fails_pending_futures_fast_and_typed(self, tmp_path):
        ckpt, _ = self._checkpoints(tmp_path)
        rng = np.random.default_rng(0)
        x = rng.normal(size=(4, 16, 16)).astype(np.float32)
        # No retry budget, and a batch window wide enough to hold all
        # three requests (this relies on a fresh lane holding its first
        # batch open for max_wait_ms): the crash must fail them, typed
        # and fast.
        router = FleetRouter.local(ckpt, workers=1, retry_budget=0,
                                   max_wait_ms=500.0)
        with router:
            victim = router.workers[0]
            os.kill(victim.pid, signal.SIGSTOP)
            futures = [router.submit("tiny", x, timeout=30.0)
                       for _ in range(3)]
            self._wait(lambda: router.stats()["routed_by_worker"]
                       .get("w0", 0) == 3)
            os.kill(victim.pid, signal.SIGKILL)
            started = time.monotonic()
            for future in futures:
                with pytest.raises(WorkerCrashError):
                    future.result(timeout=10.0)
            assert time.monotonic() - started < 5.0
            self._wait(lambda: victim.alive)
            stats = router.stats()
        assert stats["errors"] == 3
        assert stats["retries"] == 0

    def test_restart_rewarns_models_and_serves(self, tmp_path):
        ckpt, model = self._checkpoints(tmp_path)
        with FleetRouter.local(ckpt, workers=1) as router:
            worker = router.workers[0]
            first_pid = worker.pid
            os.kill(worker.pid, signal.SIGKILL)     # no traffic at all
            self._wait(lambda: worker.restarts >= 1 and worker.alive)
            assert worker.pid != first_pid
            assert worker.model_ids == ["tiny"]
            rng = np.random.default_rng(1)
            x = rng.normal(size=(4, 16, 16)).astype(np.float32)
            image = router.forecast("tiny", x, timeout=30.0)
            stats = router.stats()
        assert np.array_equal(image, model.forecast(x))
        assert stats["restarts"] == {"w0": 1}
        assert stats["breakers"] == {"w0": "closed"}

    def test_router_retries_crashed_requests_bitwise_equal(self, tmp_path):
        """Kill one of three workers with a batch in flight; the batch is
        requeued and every result matches the serial model."""
        ckpt, model = self._checkpoints(tmp_path)
        rng = np.random.default_rng(2)
        inputs = [rng.normal(size=(4, 16, 16)).astype(np.float32)
                  for _ in range(9)]
        reference = [model.forecast(x) for x in inputs]
        router = FleetRouter.local(ckpt, workers=3, max_batch=3,
                                   retry_budget=3)
        with router:
            # Freeze every worker first: each lane takes at most three
            # requests and holds them, so all three lanes — the victim's
            # included — provably hold a batch when the kill lands.
            for worker in router.workers:
                os.kill(worker.pid, signal.SIGSTOP)
            futures = [router.submit("tiny", x, timeout=60.0)
                       for x in inputs]
            self._wait(lambda: len(router.stats()["routed_by_worker"]) == 3)
            victim, *survivors = router.workers
            os.kill(victim.pid, signal.SIGKILL)
            for worker in survivors:
                os.kill(worker.pid, signal.SIGCONT)
            images = [future.result(60.0).image for future in futures]
            self._wait(lambda: router.stats()["restarts"].get("w0", 0) >= 1)
            stats = router.stats()
        for image, expected in zip(images, reference):
            assert np.array_equal(image, expected)
        assert stats["retries"] >= 1
        assert stats["errors"] == 0              # crashes retried, not failed

    def test_stall_beyond_heartbeat_timeout_restarts_worker(self, tmp_path):
        ckpt, model = self._checkpoints(tmp_path)
        rng = np.random.default_rng(4)
        x = rng.normal(size=(4, 16, 16)).astype(np.float32)
        with FleetRouter.local(ckpt, workers=1,
                               heartbeat_timeout=0.5) as router:
            worker = router.workers[0]
            stalled_pid = worker.pid
            os.kill(stalled_pid, signal.SIGSTOP)   # alive, never replies
            result = router.forecast_result("tiny", x, timeout=30.0)
            stats = router.stats()
        assert np.array_equal(result.image, model.forecast(x))
        assert worker.restarts == 1
        assert stats["retries"] == 1 and stats["errors"] == 0
        with pytest.raises(ProcessLookupError):
            os.kill(stalled_pid, 0)              # the stalled child is gone

    def test_garbled_pipe_message_recovers_via_restart(self, tmp_path):
        ckpt, model = self._checkpoints(tmp_path)
        router = FleetRouter.local(ckpt, workers=1)
        with router:
            worker = router.workers[0]
            assert garble_pipe(worker)
            self._wait(lambda: worker.restarts >= 1)
            rng = np.random.default_rng(3)
            x = rng.normal(size=(4, 16, 16)).astype(np.float32)
            result = router.forecast_result("tiny", x, timeout=30.0)
            assert np.array_equal(result.image, model.forecast(x))
            status = router.fleet_status()
        assert status["workers"][0]["restarts"] >= 1

    def test_stats_surface_new_counters(self, tmp_path):
        ckpt, _ = self._checkpoints(tmp_path)
        router = FleetRouter.local(ckpt, workers=1)
        with router:
            stats = router.stats()
            status = router.fleet_status()
        assert stats["expired"] == 0
        assert stats["retries"] == 0
        assert stats["breakers"] == {"w0": "closed"}
        assert status["workers"][0]["breaker"] == "closed"


class TestChaosScenario:
    def test_seeded_plan_drain_scrub_and_self_heal(self, tmp_path):
        """The CI chaos-smoke scenario in miniature: worker kill + blob
        corruption under a seeded plan; drain completes, scrub
        quarantines exactly the corrupted blob, a re-route heals it."""
        _forecast_fixture(tmp_path, count=6)
        serial_root, serial_store = _fill_forecast_spool(tmp_path, "serial")
        WorkerPool(serial_root, workers=1,
                   publish=False).run_until_drained(timeout=300)
        reference = [job.result["artifact"]
                     for job in serial_store.jobs("done")]

        chaos_root, chaos_store = _fill_forecast_spool(tmp_path, "chaos")
        plan = FaultPlan(seed=42, faults=(
            Fault(kind="kill_worker", at=1, target=0),
            Fault(kind="corrupt_blob", at=2, target=0),
        ))
        report = run_chaos_drain(chaos_root, plan, workers=3,
                                 artifacts=tmp_path / "art-chaos",
                                 timeout=300, lease_seconds=1.0)
        counts = report["counts"]
        assert counts["done"] == 6 and counts["failed"] == 0
        digests = [job.result["artifact"]
                   for job in chaos_store.jobs("done")]
        assert digests == reference              # zero lost or duplicated
        corrupted = [event for event in report["events"]
                     if event["kind"] == "corrupt_blob"
                     and event.get("applied")]
        assert len(corrupted) == 1
        scrub = report["scrub"]
        assert scrub["clean"] is False
        assert [e["digest"] for e in scrub["corrupt_blobs"]] \
            == [corrupted[0]["digest"]]          # exactly the corrupted one
        assert len(scrub["quarantined"]) == 1

        # Self-heal: re-draining the same inputs re-puts the quarantined
        # content, after which the store scrubs clean and byte-matches
        # the serial store.
        heal_root, _ = _fill_forecast_spool(tmp_path, "chaos-heal")
        # Point the heal spool at the damaged store.
        heal_store = JobStore(heal_root)
        for job in heal_store.jobs("pending"):
            job.payload["artifacts"] = str(tmp_path / "art-chaos")
            heal_store._write("pending", job)
        WorkerPool(heal_root, workers=1,
                   publish=False).run_until_drained(timeout=300)
        chaos_art = ArtifactStore(tmp_path / "art-chaos")
        assert chaos_art.scrub()["clean"] is True
        serial_art = ArtifactStore(tmp_path / "art-serial")
        for digest in reference:
            assert chaos_art.read_bytes(digest) \
                == serial_art.read_bytes(digest)

    def test_corrupt_blob_primitive_waits_for_blobs(self, tmp_path):
        assert corrupt_blob(tmp_path / "empty") is None
