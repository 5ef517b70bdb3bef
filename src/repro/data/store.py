"""Sharded on-disk dataset store with a provenance-carrying manifest.

A store is a directory of fixed-size ``.npz`` shards (each one a
:class:`repro.gan.dataset.Dataset` archive, so any shard also loads as a
legacy single-file dataset) plus a ``manifest.json`` recording:

* shape metadata — image size, input/target channel counts, sample counts;
* per-shard integrity — file sha256, sample count, designs;
* per-sample **content hashes** — sha256 over each sample's deterministic
  fields (design, x, y, congestion, placer options, convergence), excluding
  wall-clock timings, so a worker-pool build hashes identically to a
  serial one;
* free-form ``metadata`` (e.g. routed channel width) and a ``provenance``
  list of build records appended by each generation run.

All writes are atomic (staged file + ``os.replace``), and the manifest is
rewritten after every completed shard, so an interrupted build keeps every
shard it finished.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from repro import __version__
from repro.gan.dataset import Dataset, Sample
from repro.obs.trace import get_tracer

MANIFEST_NAME = "manifest.json"
FORMAT_VERSION = 1
DEFAULT_SHARD_SIZE = 16


def sample_content_hash(sample: Sample) -> str:
    """sha256 over a sample's deterministic content.

    Covers design, both arrays (dtype, shape, bytes), the routed
    congestion, placer options, and convergence — but *not* the recorded
    place/route wall-clock seconds, which vary run to run.
    """
    hasher = hashlib.sha256()
    hasher.update(sample.design.encode())
    for array in (sample.x, sample.y):
        array = np.ascontiguousarray(array)
        hasher.update(str(array.dtype).encode())
        hasher.update(str(array.shape).encode())
        hasher.update(array.tobytes())
    hasher.update(repr(float(sample.true_congestion)).encode())
    hasher.update(repr(sorted(sample.placer_options.items())).encode())
    hasher.update(b"1" if sample.converged else b"0")
    return hasher.hexdigest()


def file_sha256(path: Path) -> str:
    hasher = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            hasher.update(chunk)
    return hasher.hexdigest()


def _atomic_write_text(path: Path, text: str) -> None:
    tmp = path.with_name(f".{path.name}.tmp-{os.getpid()}")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


class StoreError(ValueError):
    """A store directory is missing, malformed, or fails verification."""


#: What every reader indexes in a manifest, and the JSON type it expects
#: (the shape fields stay null until the first sample is written).
_SHAPE = (int, type(None))
_MANIFEST_FIELDS = {"num_samples": int, "shard_size": int,
                    "image_size": _SHAPE, "input_channels": _SHAPE,
                    "target_channels": _SHAPE, "designs": dict,
                    "metadata": dict, "provenance": list, "shards": list}
_SHARD_FIELDS = {"name": str, "num_samples": int, "sha256": str,
                 "sample_hashes": list}


def _field_problem(document: dict, fields: dict) -> str | None:
    for key, kind in fields.items():
        if key not in document:
            return f"{key!r} is missing"
        value = document[key]
        if not isinstance(value, kind) or isinstance(value, bool):
            return f"{key!r} has the wrong type ({type(value).__name__})"
    return None


def _manifest_problem(manifest) -> str | None:
    """Why ``manifest`` is not one every reader can index, or ``None``.

    A manifest is untrusted input.  A shard name is joined under the
    store root, so only a bare file name is accepted, never a path that
    reaches outside the store.
    """
    if not isinstance(manifest, dict):
        return "not a JSON object"
    version = manifest.get("format_version")
    if version != FORMAT_VERSION:
        return (f"unsupported store format {version!r} "
                f"(expected {FORMAT_VERSION})")
    problem = _field_problem(manifest, _MANIFEST_FIELDS)
    if problem is not None:
        return problem
    for index, shard in enumerate(manifest["shards"]):
        if not isinstance(shard, dict):
            return f"shards[{index}] is not a JSON object"
        problem = _field_problem(shard, _SHARD_FIELDS)
        if problem is not None:
            return f"shards[{index}]: {problem}"
        name = shard["name"]
        if name in ("", ".", "..") or any(ch in name for ch in "/\\\0"):
            return f"shards[{index}]: {name!r} is not a bare file name"
    return None


class ShardedStore:
    """Append-only sharded dataset rooted at a directory.

    Use :meth:`create` for a new store, :meth:`open` for an existing one.
    ``append``/``extend`` buffer samples and write a shard whenever
    ``shard_size`` samples accumulate; call :meth:`flush` to persist a
    final partial shard.  Reading is shard-at-a-time (:meth:`load_shard`,
    :meth:`iter_samples`), which is what the streaming loader builds on.
    """

    def __init__(self, root: str | Path, manifest: dict):
        self.root = Path(root)
        self.manifest = manifest
        self._buffer: list[Sample] = []

    # -- construction ------------------------------------------------------

    @classmethod
    def create(cls, root: str | Path, shard_size: int = DEFAULT_SHARD_SIZE,
               metadata: dict | None = None) -> "ShardedStore":
        if shard_size < 1:
            raise ValueError(f"shard_size must be >= 1, got {shard_size}")
        root = Path(root)
        if cls.is_store(root):
            raise StoreError(f"store already exists at {root}")
        root.mkdir(parents=True, exist_ok=True)
        store = cls(root, {
            "format_version": FORMAT_VERSION,
            "created_by": f"repro {__version__}",
            "shard_size": shard_size,
            "image_size": None,
            "input_channels": None,
            "target_channels": None,
            "num_samples": 0,
            "designs": {},
            "metadata": dict(metadata or {}),
            "provenance": [],
            "shards": [],
        })
        store._write_manifest()
        return store

    @classmethod
    def open(cls, root: str | Path) -> "ShardedStore":
        root = Path(root)
        manifest_path = root / MANIFEST_NAME
        if not manifest_path.exists():
            raise StoreError(f"no {MANIFEST_NAME} under {root}")
        try:
            manifest = json.loads(manifest_path.read_bytes())
        except (ValueError, RecursionError) as error:
            raise StoreError(f"{manifest_path}: not valid JSON "
                             f"({error})") from None
        problem = _manifest_problem(manifest)
        if problem is not None:
            raise StoreError(f"{manifest_path}: {problem}")
        return cls(root, manifest)

    @staticmethod
    def is_store(root: str | Path) -> bool:
        return (Path(root) / MANIFEST_NAME).exists()

    # -- introspection -----------------------------------------------------

    @property
    def num_samples(self) -> int:
        return int(self.manifest["num_samples"])

    def __len__(self) -> int:
        return self.num_samples

    @property
    def num_shards(self) -> int:
        return len(self.manifest["shards"])

    @property
    def shard_size(self) -> int:
        return int(self.manifest["shard_size"])

    @property
    def image_size(self) -> int | None:
        return self.manifest["image_size"]

    @property
    def designs(self) -> list[str]:
        return list(self.manifest["designs"])

    @property
    def metadata(self) -> dict:
        return self.manifest["metadata"]

    @property
    def sample_hashes(self) -> list[str]:
        """Per-sample content hashes in dataset order (buffered included)."""
        hashes = []
        for shard in self.manifest["shards"]:
            hashes.extend(shard["sample_hashes"])
        hashes.extend(sample_content_hash(s) for s in self._buffer)
        return hashes

    def stats(self) -> dict:
        """Summary for ``repro data stats`` (counts, sizes, provenance)."""
        shard_bytes = sum(
            (self.root / shard["name"]).stat().st_size
            for shard in self.manifest["shards"]
            if (self.root / shard["name"]).exists())
        return {
            "root": str(self.root),
            "num_samples": self.num_samples,
            "num_shards": self.num_shards,
            "shard_size": self.shard_size,
            "image_size": self.image_size,
            "designs": dict(self.manifest["designs"]),
            "total_bytes": shard_bytes,
            "provenance_records": len(self.manifest["provenance"]),
        }

    # -- writing -----------------------------------------------------------

    def append(self, sample: Sample) -> None:
        """Buffer one sample; write a shard when the buffer fills."""
        self._check_shapes(sample)
        self._buffer.append(sample)
        if len(self._buffer) >= self.shard_size:
            self._write_shard()

    def extend(self, samples: Iterable[Sample]) -> None:
        for sample in samples:
            self.append(sample)

    def flush(self) -> None:
        """Write any buffered samples as a final (possibly partial) shard."""
        if self._buffer:
            self._write_shard()

    def add_provenance(self, record: dict) -> None:
        """Append one build record to the manifest and persist it."""
        self.manifest["provenance"].append(dict(record))
        self._write_manifest()

    def _check_shapes(self, sample: Sample) -> None:
        manifest = self.manifest
        if manifest["image_size"] is None:
            manifest["image_size"] = int(sample.x.shape[-1])
            manifest["input_channels"] = int(sample.x.shape[0])
            manifest["target_channels"] = int(sample.y.shape[0])
            return
        expected_x = (manifest["input_channels"], manifest["image_size"],
                      manifest["image_size"])
        expected_y = (manifest["target_channels"], manifest["image_size"],
                      manifest["image_size"])
        if tuple(sample.x.shape) != expected_x:
            raise StoreError(f"sample x shape {sample.x.shape} does not "
                             f"match store shape {expected_x}")
        if tuple(sample.y.shape) != expected_y:
            raise StoreError(f"sample y shape {sample.y.shape} does not "
                             f"match store shape {expected_y}")

    def _write_shard(self) -> None:
        samples, self._buffer = self._buffer, []
        name = f"shard-{self.num_shards:05d}.npz"
        path = self.root / name
        Dataset(samples).save(path)   # atomic (staged + os.replace)
        designs = sorted({sample.design for sample in samples})
        self.manifest["shards"].append({
            "name": name,
            "num_samples": len(samples),
            "sha256": file_sha256(path),
            "designs": designs,
            "sample_hashes": [sample_content_hash(s) for s in samples],
        })
        self.manifest["num_samples"] += len(samples)
        counts = self.manifest["designs"]
        for sample in samples:
            counts[sample.design] = counts.get(sample.design, 0) + 1
        self._write_manifest()

    def _write_manifest(self) -> None:
        _atomic_write_text(self.root / MANIFEST_NAME,
                           json.dumps(self.manifest, indent=1))

    # -- reading -----------------------------------------------------------

    def load_shard(self, index: int) -> Dataset:
        shard = self.manifest["shards"][index]
        # Decode span is separate from the loader's "data.shard_load":
        # this is the npz read+decompress alone, the loader span adds
        # whatever sits above it (manifest math, Sample assembly).
        with get_tracer().span("data.shard_decode", shard=index,
                               shard_name=shard["name"]):
            return Dataset.load(self.root / shard["name"])

    def iter_samples(self) -> Iterator[Sample]:
        """Stream every sample, holding one shard in memory at a time."""
        for index in range(self.num_shards):
            yield from self.load_shard(index)
        yield from self._buffer

    def to_dataset(self) -> Dataset:
        """Materialize the whole store (the legacy in-memory path)."""
        return Dataset(list(self.iter_samples()))

    # -- maintenance -------------------------------------------------------

    def verify(self) -> list[str]:
        """Recheck every shard against the manifest; return the problems.

        Checks file presence, sha256, per-shard sample counts, per-sample
        content hashes and shapes, and the manifest's total count.  An
        empty list means the store is intact.
        """
        problems = []
        total = 0
        for index, shard in enumerate(self.manifest["shards"]):
            path = self.root / shard["name"]
            if not path.exists():
                problems.append(f"shard {shard['name']}: file missing")
                continue
            if file_sha256(path) != shard["sha256"]:
                problems.append(f"shard {shard['name']}: sha256 mismatch "
                                f"(file corrupted or rewritten)")
                continue
            try:
                dataset = self.load_shard(index)
            except Exception as error:
                problems.append(f"shard {shard['name']}: unreadable "
                                f"({error})")
                continue
            total += len(dataset)
            if len(dataset) != shard["num_samples"]:
                problems.append(
                    f"shard {shard['name']}: {len(dataset)} samples, "
                    f"manifest says {shard['num_samples']}")
            hashes = [sample_content_hash(s) for s in dataset]
            if hashes != shard["sample_hashes"]:
                problems.append(
                    f"shard {shard['name']}: sample content hashes do not "
                    f"match the manifest")
            for sample in dataset:
                try:
                    self._check_shapes(sample)
                except StoreError as error:
                    problems.append(f"shard {shard['name']}: {error}")
                    break
        if total != self.num_samples:
            problems.append(f"manifest num_samples={self.num_samples} but "
                            f"shards hold {total}")
        return problems

    def merge_from(self, other: "ShardedStore") -> None:
        """Append every sample (and provenance) of ``other`` to this store.

        Samples are re-sharded at this store's ``shard_size``; call
        :meth:`flush` after the last merge.
        """
        if (self.image_size is not None and other.image_size is not None
                and self.image_size != other.image_size):
            raise StoreError(
                f"cannot merge image size {other.image_size} into "
                f"{self.image_size}")
        self.extend(other.iter_samples())
        self.manifest["provenance"].extend(other.manifest["provenance"])
        for key, value in other.metadata.items():
            self.metadata.setdefault(key, value)
        self._write_manifest()

    # -- conversions -------------------------------------------------------

    @classmethod
    def from_dataset(cls, root: str | Path, dataset: Dataset,
                     shard_size: int = DEFAULT_SHARD_SIZE,
                     metadata: dict | None = None,
                     provenance: list[dict] | None = None) -> "ShardedStore":
        """Write an in-memory dataset out as a new store."""
        store = cls.create(root, shard_size=shard_size, metadata=metadata)
        store.extend(dataset)
        store.flush()
        for record in provenance or []:
            store.manifest["provenance"].append(dict(record))
        store._write_manifest()
        return store

    @classmethod
    def convert_archive(cls, archive: str | Path, root: str | Path,
                        shard_size: int = DEFAULT_SHARD_SIZE,
                        metadata: dict | None = None) -> "ShardedStore":
        """Convert a legacy single-file ``Dataset.save`` archive to a store.

        The legacy archive is left in place; the new store records the
        conversion in its provenance.
        """
        archive = Path(archive)
        dataset = Dataset.load(archive)
        return cls.from_dataset(
            root, dataset, shard_size=shard_size, metadata=metadata,
            provenance=[{"converted_from": archive.name,
                         "num_samples": len(dataset)}])
