"""Content-addressed artifact store: identity, dedup, format ingestion."""

import json

import numpy as np
import pytest

from tests.conftest import make_dataset, make_tiny_model
from repro.fleet import ArtifactError, ArtifactStore


@pytest.fixture()
def store(tmp_path):
    return ArtifactStore(tmp_path / "artifacts")


class TestIdentity:
    def test_put_bytes_roundtrip(self, store):
        ref = store.put_bytes(b"hello fleet", name="greeting.txt")
        assert store.read_bytes(ref.digest) == b"hello fleet"
        got = store.get(ref.digest)
        assert got.name == "greeting.txt"
        assert got.size_bytes == len(b"hello fleet")

    def test_identical_content_dedups(self, store):
        a = store.put_bytes(b"same", name="a", kind="blob")
        b = store.put_bytes(b"same", name="a", kind="blob")
        assert a.digest == b.digest
        assert len(store) == 1
        # Different name -> different artifact, same blob underneath.
        c = store.put_bytes(b"same", name="c", kind="blob")
        assert c.digest != a.digest
        assert c.files[0]["sha256"] == a.files[0]["sha256"]

    def test_digest_is_content_addressed_not_time_addressed(self, tmp_path):
        """The worker-count-invariance cornerstone: identity is pure
        content, so two stores built independently agree digest-for-digest."""
        refs = []
        for which in ("one", "two"):
            store = ArtifactStore(tmp_path / which)
            refs.append(store.put_bytes(b"payload", name="p",
                                        kind="forecast",
                                        meta={"model_id": "m"}))
        assert refs[0].digest == refs[1].digest

    def test_meta_changes_identity(self, store):
        a = store.put_bytes(b"x", name="n", meta={"k": 1})
        b = store.put_bytes(b"x", name="n", meta={"k": 2})
        assert a.digest != b.digest


class TestResolve:
    def test_resolve_by_prefix_and_name(self, store):
        ref = store.put_bytes(b"data", name="thing")
        assert store.resolve(ref.digest[:10]).digest == ref.digest
        assert store.resolve("thing").digest == ref.digest

    def test_ambiguous_resolve_is_an_error(self, store):
        store.put_bytes(b"1", name="dup")
        store.put_bytes(b"2", name="dup")
        with pytest.raises(ArtifactError, match="ambiguous"):
            store.resolve("dup")

    def test_missing_artifact_and_blob(self, store):
        with pytest.raises(ArtifactError, match="no artifact"):
            store.get("0" * 64)
        with pytest.raises(ArtifactError, match="no artifact matching"):
            store.resolve("nothing")


class TestFormatIngestion:
    def test_put_checkpoint_with_reference_sidecar(self, store, tmp_path):
        model = make_tiny_model()
        path = tmp_path / "cong.npz"
        model.save(path)
        (tmp_path / "cong-reference.json").write_text(
            json.dumps({"mean": 0.5}))
        ref = store.put_checkpoint(path)
        assert ref.kind == "checkpoint"
        assert ref.meta["model_id"] == "cong"
        assert ref.meta["has_reference"] is True
        assert {entry["path"] for entry in ref.files} \
            == {"cong.npz", "cong-reference.json"}
        # Materialized checkpoint loads back bit-exactly.
        out = store.materialize(ref.digest, tmp_path / "restored")
        restored = type(model).load(out / "cong.npz")
        rng = np.random.default_rng(0)
        x = rng.normal(size=(4, 16, 16)).astype(np.float32)
        assert np.array_equal(restored.forecast(x), model.forecast(x))

    def test_put_dataset_store(self, store, tmp_path):
        from repro.data.store import ShardedStore

        ShardedStore.from_dataset(tmp_path / "data",
                                  make_dataset(count=4, size=8),
                                  shard_size=2)
        ref = store.put_dataset_store(tmp_path / "data")
        assert ref.kind == "dataset"
        assert ref.meta["num_samples"] == 4
        assert any(entry["path"] == "manifest.json"
                   for entry in ref.files)
        # Materialize and reopen as a store.
        out = store.materialize(ref.digest, tmp_path / "data2")
        reopened = ShardedStore.open(out)
        assert reopened.num_samples == 4
        assert reopened.verify() == []

    def test_put_dataset_store_rejects_shard_outside_store(self, store,
                                                           tmp_path):
        from repro.data.store import ShardedStore

        root = tmp_path / "data"
        ShardedStore.from_dataset(root, make_dataset(count=2, size=8),
                                  shard_size=2)
        manifest_path = root / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        outside = tmp_path / "outside.npz"
        (root / manifest["shards"][0]["name"]).rename(outside)
        manifest["shards"][0]["name"] = str(outside)
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ArtifactError, match="bare file name"):
            store.put_dataset_store(root)

    def test_put_run_dir_keeps_record_drops_checkpoint_states(
            self, store, tmp_path):
        run = tmp_path / "myrun"
        (run / "checkpoints").mkdir(parents=True)
        (run / "export").mkdir()
        (run / "spec.json").write_text(json.dumps({"name": "myrun"}))
        (run / "status.json").write_text(
            json.dumps({"state": "done", "best_value": 0.25}))
        (run / "losses.jsonl").write_text('{"epoch": 1}\n')
        (run / "export" / "model.npz").write_bytes(b"npzbytes")
        (run / "checkpoints" / "state-000010.npz").write_bytes(b"huge")
        ref = store.put_run_dir(run)
        paths = {entry["path"] for entry in ref.files}
        assert "spec.json" in paths and "export/model.npz" in paths
        assert not any(path.startswith("checkpoints/") for path in paths)
        assert ref.meta["state"] == "done"
        assert ref.meta["best_value"] == 0.25


class TestVerify:
    def test_clean_store_verifies(self, store):
        store.put_bytes(b"abc", name="a")
        store.put_bytes(b"def", name="b")
        assert store.verify() == []

    def test_corrupted_blob_detected(self, store):
        ref = store.put_bytes(b"precious", name="p")
        blob = store.blob_path(ref.files[0]["sha256"])
        blob.chmod(0o644)
        blob.write_bytes(b"tampered")
        problems = store.verify()
        assert problems and "corrupted" in problems[0]

    def test_missing_blob_detected(self, store):
        ref = store.put_bytes(b"gone", name="g")
        store.blob_path(ref.files[0]["sha256"]).unlink()
        problems = store.verify(ref.digest)
        assert problems and "missing blob" in problems[0]

    def test_stats_counts_kinds(self, store):
        store.put_bytes(b"1", name="a", kind="forecast")
        store.put_bytes(b"2", name="b", kind="forecast")
        store.put_bytes(b"3", name="c", kind="blob")
        stats = store.stats()
        assert stats["artifacts"] == 3
        assert stats["kinds"] == {"blob": 1, "forecast": 2}
        assert stats["blob_bytes"] == 3
