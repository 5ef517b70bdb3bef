"""Sharded store tests: manifest, integrity, merge, legacy conversion."""

import json

import numpy as np
import pytest

from repro.data import (
    ShardedStore,
    StoreError,
    sample_content_hash,
)
from repro.data.store import MANIFEST_NAME
from repro.gan import Dataset
from tests.conftest import make_dataset, make_sample


class TestContentHash:
    def test_stable_across_equal_samples(self):
        assert (sample_content_hash(make_sample(seed=3))
                == sample_content_hash(make_sample(seed=3)))

    def test_sensitive_to_content(self):
        a = make_sample(seed=3)
        b = make_sample(seed=4)
        assert sample_content_hash(a) != sample_content_hash(b)

    def test_ignores_wall_clock_timings(self):
        a = make_sample(seed=3)
        b = make_sample(seed=3)
        b.route_seconds = 99.0
        b.place_seconds = 99.0
        assert sample_content_hash(a) == sample_content_hash(b)


class TestShardedStore:
    def test_append_shards_at_shard_size(self, tmp_path):
        store = ShardedStore.create(tmp_path / "s", shard_size=2)
        store.extend(make_dataset(5))
        store.flush()
        assert store.num_samples == 5
        assert store.num_shards == 3   # 2 + 2 + 1
        sizes = [shard["num_samples"]
                 for shard in store.manifest["shards"]]
        assert sizes == [2, 2, 1]

    def test_roundtrip_preserves_samples(self, tmp_path):
        dataset = make_dataset(4)
        ShardedStore.from_dataset(tmp_path / "s", dataset, shard_size=3)
        loaded = ShardedStore.open(tmp_path / "s").to_dataset()
        assert len(loaded) == 4
        for original, restored in zip(dataset, loaded):
            np.testing.assert_array_equal(original.x, restored.x)
            np.testing.assert_array_equal(original.y, restored.y)
            assert original.placer_options == restored.placer_options

    def test_sample_hashes_ordered(self, tmp_path):
        dataset = make_dataset(4)
        store = ShardedStore.from_dataset(tmp_path / "s", dataset,
                                          shard_size=2)
        assert store.sample_hashes == [sample_content_hash(s)
                                       for s in dataset]

    def test_open_missing_raises(self, tmp_path):
        with pytest.raises(StoreError, match="no manifest"):
            ShardedStore.open(tmp_path / "nope")

    def test_create_over_existing_raises(self, tmp_path):
        ShardedStore.create(tmp_path / "s")
        with pytest.raises(StoreError, match="already exists"):
            ShardedStore.create(tmp_path / "s")

    def test_shape_mismatch_rejected(self, tmp_path):
        store = ShardedStore.create(tmp_path / "s", shard_size=4)
        store.append(make_sample(size=8))
        with pytest.raises(StoreError, match="does not match"):
            store.append(make_sample(size=16))

    def test_no_staging_files_left_behind(self, tmp_path):
        store = ShardedStore.from_dataset(tmp_path / "s", make_dataset(3),
                                          shard_size=2)
        leftovers = [p for p in store.root.iterdir() if ".tmp-" in p.name]
        assert leftovers == []

    def test_interrupted_build_keeps_completed_shards(self, tmp_path):
        store = ShardedStore.create(tmp_path / "s", shard_size=2)
        store.extend(make_dataset(3))
        # No flush: one full shard written, one sample still buffered.
        reopened = ShardedStore.open(tmp_path / "s")
        assert reopened.num_samples == 2
        assert reopened.verify() == []


class TestVerify:
    def test_clean_store_verifies(self, tmp_path):
        store = ShardedStore.from_dataset(tmp_path / "s", make_dataset(5),
                                          shard_size=2)
        assert store.verify() == []

    def test_detects_corrupted_shard(self, tmp_path):
        store = ShardedStore.from_dataset(tmp_path / "s", make_dataset(3),
                                          shard_size=2)
        shard = store.root / store.manifest["shards"][0]["name"]
        shard.write_bytes(shard.read_bytes()[:-7] + b"garbage")
        problems = store.verify()
        assert any("sha256 mismatch" in p for p in problems)

    def test_detects_missing_shard(self, tmp_path):
        store = ShardedStore.from_dataset(tmp_path / "s", make_dataset(3),
                                          shard_size=2)
        (store.root / store.manifest["shards"][1]["name"]).unlink()
        problems = store.verify()
        assert any("file missing" in p for p in problems)

    def test_detects_count_tampering(self, tmp_path):
        store = ShardedStore.from_dataset(tmp_path / "s", make_dataset(3),
                                          shard_size=3)
        manifest = json.loads((store.root / MANIFEST_NAME).read_text())
        manifest["num_samples"] = 7
        (store.root / MANIFEST_NAME).write_text(json.dumps(manifest))
        problems = ShardedStore.open(store.root).verify()
        assert any("num_samples" in p for p in problems)


class TestMergeAndConvert:
    def test_merge_combines_and_reshards(self, tmp_path):
        a = ShardedStore.from_dataset(
            tmp_path / "a", make_dataset(3, design="a"), shard_size=2)
        b = ShardedStore.from_dataset(
            tmp_path / "b", make_dataset(2, design="b"), shard_size=2)
        merged = ShardedStore.create(tmp_path / "m", shard_size=4)
        merged.merge_from(a)
        merged.merge_from(b)
        merged.flush()
        assert merged.num_samples == 5
        assert merged.designs == ["a", "b"]
        assert merged.verify() == []
        assert merged.sample_hashes == a.sample_hashes + b.sample_hashes

    def test_merge_rejects_mismatched_image_size(self, tmp_path):
        a = ShardedStore.from_dataset(tmp_path / "a",
                                      make_dataset(2, size=8))
        b = ShardedStore.from_dataset(tmp_path / "b",
                                      make_dataset(2, size=16))
        merged = ShardedStore.create(tmp_path / "m")
        merged.merge_from(a)
        with pytest.raises(StoreError, match="image size"):
            merged.merge_from(b)

    def test_convert_legacy_archive(self, tmp_path):
        dataset = make_dataset(4)
        archive = tmp_path / "legacy.npz"
        dataset.save(archive)
        store = ShardedStore.convert_archive(archive, tmp_path / "s",
                                             shard_size=3)
        assert store.num_samples == 4
        assert store.verify() == []
        assert archive.exists()   # legacy file left in place
        assert store.manifest["provenance"][0]["converted_from"] == \
            "legacy.npz"
        restored = store.to_dataset()
        np.testing.assert_array_equal(dataset[2].x, restored[2].x)


class TestDatasetSatellites:
    def test_save_is_atomic_no_temp_left(self, tmp_path):
        dataset = make_dataset(2)
        path = tmp_path / "data.npz"
        dataset.save(path)
        assert path.exists()
        assert [p.name for p in tmp_path.iterdir()] == ["data.npz"]
        assert len(Dataset.load(path)) == 2

    def test_save_overwrites_atomically(self, tmp_path):
        path = tmp_path / "data.npz"
        make_dataset(2).save(path)
        make_dataset(5).save(path)
        assert len(Dataset.load(path)) == 5

    def test_shuffled_is_independent_copy(self):
        dataset = make_dataset(4)
        rng = np.random.default_rng(0)
        shuffled = dataset.shuffled(rng)
        assert sorted(id(s) for s in shuffled) == \
            sorted(id(s) for s in dataset)
        shuffled.append(make_sample(seed=99))
        assert len(dataset) == 4           # original unchanged
        dataset.append(make_sample(seed=100))
        assert len(shuffled) == 5          # copy unchanged

    def test_shuffled_empty_dataset(self):
        shuffled = Dataset().shuffled(np.random.default_rng(0))
        shuffled.append(make_sample())
        assert len(shuffled) == 1


def _set_shard_name(manifest, name):
    manifest["shards"][0]["name"] = name


#: Damaged manifests: each must raise StoreError naming the manifest.
DAMAGED_MANIFESTS = {
    "list": lambda m: [m],
    "shards-string": lambda m: m.update(shards="abc"),
    "shard-not-object": lambda m: m.update(shards=[1]),
    "num-samples-string": lambda m: m.update(num_samples="4"),
    "num-samples-bool": lambda m: m.update(num_samples=True),
    "shard-size-missing": lambda m: m.pop("shard_size"),
    "image-size-missing": lambda m: m.pop("image_size"),
    "image-size-string": lambda m: m.update(image_size="16"),
    "metadata-list": lambda m: m.update(metadata=[]),
    "designs-list": lambda m: m.update(designs=[]),
    "provenance-object": lambda m: m.update(provenance={}),
    "version": lambda m: m.update(format_version=2),
    "shard-sha-missing": lambda m: m["shards"][0].pop("sha256"),
    "shard-count-float": lambda m: m["shards"][0].update(num_samples=2.0),
    "shard-hashes-string": lambda m: m["shards"][0].update(
        sample_hashes="ab"),
    "absolute-name": lambda m: _set_shard_name(m, "/tmp/shard-00000.npz"),
    "parent-name": lambda m: _set_shard_name(m, "../shard-00000.npz"),
    "nested-name": lambda m: _set_shard_name(m, "sub/shard-00000.npz"),
    "dot-dot": lambda m: _set_shard_name(m, ".."),
    "empty-name": lambda m: _set_shard_name(m, ""),
}


class TestDamagedManifest:
    """A manifest is untrusted input: every reader indexes it, so open()
    accepts only the shape they rely on."""

    @pytest.fixture()
    def store_dir(self, tmp_path):
        root = tmp_path / "s"
        ShardedStore.from_dataset(root, make_dataset(4), shard_size=2)
        return root

    @pytest.mark.parametrize("damage", sorted(DAMAGED_MANIFESTS))
    def test_damaged_manifest_raises_store_error(self, store_dir, damage):
        path = store_dir / MANIFEST_NAME
        manifest = json.loads(path.read_text())
        replaced = DAMAGED_MANIFESTS[damage](manifest)
        path.write_text(json.dumps(
            replaced if isinstance(replaced, list) else manifest))
        with pytest.raises(StoreError, match=str(path)):
            ShardedStore.open(store_dir)

    @pytest.mark.parametrize("text", [
        '{"format_version": 1, "shards": [',
        "[" * 100_000,
        "\xff\xfe not json",
    ], ids=["truncated", "nested-past-recursion-limit", "not-utf8"])
    def test_unparseable_manifest_names_the_file(self, store_dir, text):
        path = store_dir / MANIFEST_NAME
        path.write_bytes(text.encode("latin-1"))
        with pytest.raises(StoreError, match=str(path)):
            ShardedStore.open(store_dir)

    def test_shard_outside_the_store_is_never_loaded(self, store_dir,
                                                     tmp_path):
        path = store_dir / MANIFEST_NAME
        manifest = json.loads(path.read_text())
        moved = tmp_path / "outside.npz"
        (store_dir / manifest["shards"][0]["name"]).rename(moved)
        manifest["shards"][0]["name"] = str(moved)
        path.write_text(json.dumps(manifest))
        with pytest.raises(StoreError, match="bare file name"):
            ShardedStore.open(store_dir)
