"""Job spool and worker pool: atomic claims, ordering, invariance."""

import json
import threading

import pytest

from tests.conftest import make_dataset, make_tiny_model
from repro.fleet import (
    ArtifactStore,
    Job,
    JobError,
    JobStore,
    PoolError,
    WorkerPool,
    executor,
    worker_loop,
)
from repro.fleet.jobs import STATES
from repro.fleet.pool import EXECUTORS


def _job_document(**changes) -> bytes:
    document = Job(job_id="aaa-bad", kind="echo", payload={}).to_dict()
    document.update(changes)
    return json.dumps(document).encode()


#: Spool documents that are not jobs.  "aaa-bad" sorts before every
#: auto-generated id, so a claim meets it first.
MALFORMED_DOCUMENTS = {
    "not-an-object": b"[1, 2]",
    "attempts-not-int": _job_document(attempts="x"),
    "submit-index-null": _job_document(submit_index=None),
    "not-utf8": b'{"job_id": "\xff\xfe"}',
    "lease-not-number": _job_document(lease_deadline="x"),
    "job-id-not-string": _job_document(job_id=[1]),
}


@pytest.fixture()
def store(tmp_path):
    return JobStore(tmp_path / "jobs")


@pytest.fixture()
def echo_executor():
    """A trivial registered executor, removed again after the test."""
    @executor("echo")
    def run_echo(payload):
        if payload.get("boom"):
            raise ValueError("boom requested")
        return {"echo": payload["value"]}

    yield run_echo
    EXECUTORS.pop("echo", None)


class TestSpool:
    def test_submit_claim_complete_roundtrip(self, store):
        submitted = store.submit("echo", {"value": 1})
        assert submitted.state == "pending"
        job = store.claim("w0")
        assert job.job_id == submitted.job_id
        assert job.worker == "w0"
        store.complete(job, {"echo": 1})
        assert store.counts() == {"pending": 0, "running": 0,
                                  "done": 1, "failed": 0}
        assert store.get(job.job_id).result == {"echo": 1}

    def test_claims_follow_submit_order(self, store):
        ids = [store.submit("echo", {"value": i}).job_id for i in range(5)]
        claimed = [store.claim("w").job_id for _ in range(5)]
        assert claimed == ids

    def test_explicit_duplicate_id_rejected(self, store):
        store.submit("echo", {}, job_id="mine")
        with pytest.raises(JobError, match="already exists"):
            store.submit("echo", {}, job_id="mine")

    def test_concurrent_claimers_each_job_claimed_once(self, store):
        for i in range(20):
            store.submit("echo", {"value": i})
        claimed: list = []
        lock = threading.Lock()

        def drain(worker):
            while True:
                job = store.claim(worker)
                if job is None:
                    return
                with lock:
                    claimed.append(job.job_id)

        threads = [threading.Thread(target=drain, args=(f"w{i}",))
                   for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(claimed) == 20
        assert len(set(claimed)) == 20          # nobody claimed twice

    def test_concurrent_submitters_never_collide(self, tmp_path):
        store = JobStore(tmp_path / "jobs")
        errors: list = []

        def submit_some():
            try:
                for _ in range(10):
                    store.submit("echo", {})
            except Exception as error:   # pragma: no cover - failure path
                errors.append(error)

        threads = [threading.Thread(target=submit_some) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert store.counts()["pending"] == 40
        indexes = [job.submit_index for job in store.jobs()]
        assert len(set(indexes)) == 40          # no index reused

    def test_stop_sentinel(self, store):
        assert store.stop_requested is False
        store.request_stop()
        assert store.stop_requested is True
        store.clear_stop()
        assert store.stop_requested is False


@pytest.mark.parametrize("document", MALFORMED_DOCUMENTS.values(),
                         ids=MALFORMED_DOCUMENTS.keys())
class TestMalformedDocuments:
    def test_claim_fails_it_and_claims_the_next_job(self, store, document):
        queued = store.submit("echo", {"value": 1})
        (store.root / "pending" / "aaa-bad.json").write_bytes(document)
        job = store.claim("w0")
        assert job.job_id == queued.job_id
        failed = store.jobs("failed")
        assert [job.job_id for job in failed] == ["aaa-bad"]
        assert "unreadable job" in failed[0].error
        assert store.reap() == []
        assert len(store.jobs()) == 2
        assert store.submit("echo", {}).state == "pending"

    def test_every_state_skips_it(self, tmp_path, document):
        for state in STATES:
            store = JobStore(tmp_path / state)
            queued = store.submit("echo", {"value": 1})
            (store.root / state / "aaa-bad.json").write_bytes(document)
            assert [job.job_id for job in store.jobs()] == [queued.job_id]
            assert store.reap() == []
            assert store.submit("echo", {}).submit_index == 1
            with pytest.raises(JobError):
                store.get("aaa-bad")


class TestWorkerLoop:
    def test_drains_and_counts(self, store, echo_executor):
        for i in range(4):
            store.submit("echo", {"value": i})
        store.submit("echo", {"value": -1, "boom": True})
        counters = worker_loop(str(store.root), "w0", publish=False)
        assert counters == {"claimed": 5, "done": 4, "failed": 1,
                            "lease_lost": 0}
        failed = store.jobs("failed")
        assert len(failed) == 1
        assert "boom requested" in failed[0].error

    def test_unknown_kind_fails_the_job_not_the_worker(self, store):
        store.submit("no-such-kind", {})
        counters = worker_loop(str(store.root), "w0", publish=False)
        assert counters["failed"] == 1
        assert "no executor" in store.jobs("failed")[0].error

    def test_results_ordered_by_submit_index(self, store, echo_executor):
        for i in range(6):
            store.submit("echo", {"value": i})
        worker_loop(str(store.root), "w0", publish=False)
        values = [job.result["echo"] for job in store.jobs("done")]
        assert values == list(range(6))


class TestPoolInvariance:
    def _forecast_spool(self, tmp_path, tag, count=6):
        root = tmp_path / f"spool-{tag}"
        store = JobStore(root)
        for index in range(count):
            store.submit("forecast", {
                "checkpoints": str(tmp_path / "ckpt"),
                "model": "cong",
                "input": {"store": str(tmp_path / "data"), "index": index},
                "artifacts": str(tmp_path / f"art-{tag}")})
        return root, store

    def test_forecast_digests_invariant_to_worker_count(self, tmp_path):
        """The acceptance bar: a 4-worker pool produces the same artifact
        digests and byte-identical blobs as a serial drain."""
        (tmp_path / "ckpt").mkdir()
        make_tiny_model().save(tmp_path / "ckpt" / "cong.npz")
        from repro.data.store import ShardedStore
        ShardedStore.from_dataset(tmp_path / "data",
                                  make_dataset(count=6, size=16),
                                  shard_size=3)
        results = {}
        for tag, workers in (("serial", 1), ("fleet", 4)):
            root, store = self._forecast_spool(tmp_path, tag)
            counts = WorkerPool(root, workers=workers,
                                publish=False).run_until_drained(timeout=300)
            assert counts["failed"] == 0 and counts["done"] == 6
            results[tag] = [job.result["artifact"]
                            for job in store.jobs("done")]
        assert results["serial"] == results["fleet"]
        serial = ArtifactStore(tmp_path / "art-serial")
        fleet = ArtifactStore(tmp_path / "art-fleet")
        for digest in results["serial"]:
            assert serial.read_bytes(digest) == fleet.read_bytes(digest)
        assert fleet.verify() == []

    def test_pool_timeout_raises(self, tmp_path, echo_executor):
        # workers=0 validates; a bad worker count is caught up front.
        with pytest.raises(ValueError, match="workers"):
            WorkerPool(tmp_path / "jobs", workers=-1)

    def test_pool_serial_path_equals_worker_loop(self, tmp_path,
                                                 echo_executor):
        store = JobStore(tmp_path / "jobs")
        for i in range(3):
            store.submit("echo", {"value": i})
        counts = WorkerPool(tmp_path / "jobs", workers=1,
                            publish=False).run_until_drained()
        assert counts["done"] == 3


class TestPoolTelemetry:
    def test_worker_publishes_snapshots(self, tmp_path, echo_executor):
        from repro.obs.aggregate import aggregate_dir
        from repro.obs.timeseries import flatten_export

        store = JobStore(tmp_path / "jobs")
        for i in range(3):
            store.submit("echo", {"value": i})
        worker_loop(str(store.root), "w0", publish=True)
        fleet = aggregate_dir(tmp_path / "jobs")
        assert fleet.workers == ["pool-w0"]
        flat = flatten_export(fleet.merged)
        assert flat["fleet_jobs_done_total"] == 3
        assert flat["fleet_jobs_claimed_total"] == 3
