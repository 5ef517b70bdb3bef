"""Content-addressed artifact store: one ``put/get/verify`` for every format.

The repo grew three on-disk artifact families that all carry provenance
metadata but live behind three different APIs:

* **dataset shards** — ``repro.data.ShardedStore`` directories (PR 2);
* **run directories** — ``repro.train.Runner`` outputs (PR 5);
* **serve checkpoints** — ``Pix2Pix.save`` ``.npz`` files plus their
  optional ``<name>-reference.json`` drift profiles (PR 1/7).

This module converges them behind one content-addressed store.  Every
artifact is a *manifest* — kind, name, member files (each a sha256
digest into a shared blob area), and free-form metadata — and the
artifact's identity is the sha256 of its canonical manifest JSON.  Two
consequences fall out of that design:

* **dedup for free** — identical content (a checkpoint ingested twice, a
  shard shared by two dataset snapshots) maps to the same blob and the
  same artifact digest;
* **worker-count invariance** — nothing wall-clock or host-specific is
  hashed (or even written), so a store populated by a 4-worker pool is
  byte-identical to one populated serially, matching the exactness
  discipline of the formats it ingests.

Layout under the store root::

    objects/<d[:2]>/<digest>      # raw blobs, content-addressed
    artifacts/<digest>.json       # manifests, one per artifact
    quarantine/                   # corrupt files moved aside by scrub()

Because blobs are content-addressed, quarantining a corrupt blob makes
the store self-healing: the next ``put`` of the same content sees the
address vacant and rewrites good bytes, after which ``scrub`` reports
clean again.

All writes are atomic (temp + ``os.replace``), and both areas are
append-only, so concurrent writers — pool workers putting forecast
results, a sweep archiving run directories — need no locking: the worst
case is two processes writing the same bytes to the same name.

Manifests and digests are untrusted input (a digest may come from a
spool job document): :func:`read_manifest` is the one manifest parser,
and every digest that names a file must be 64 lowercase hex characters,
so no manifest or digest can point a read or a ``materialize`` outside
the store or the destination.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

FORMAT_VERSION = 1
OBJECTS_DIR = "objects"
MANIFESTS_DIR = "artifacts"
QUARANTINE_DIR = "quarantine"

#: Run-directory members worth archiving: the self-describing record and
#: the exported serve checkpoints — not the (large, prunable) exact-resume
#: training states.
RUN_DIR_FILES = ("spec.json", "status.json", "losses.jsonl", "evals.jsonl",
                 "reference.json")


class ArtifactError(Exception):
    """A missing, malformed, or corrupted artifact."""


@dataclass(frozen=True)
class ArtifactRef:
    """One stored artifact: identity plus its manifest content."""

    digest: str                       # sha256 of the canonical manifest
    kind: str                         # checkpoint | dataset | run | blob...
    name: str
    files: tuple = ()                 # ({"path", "sha256", "size"}, ...)
    meta: dict = field(default_factory=dict)

    @property
    def size_bytes(self) -> int:
        return sum(entry["size"] for entry in self.files)

    def as_dict(self) -> dict:
        return {"digest": self.digest, "kind": self.kind, "name": self.name,
                "files": list(self.files), "meta": dict(self.meta)}


_HEX_DIGITS = frozenset("0123456789abcdef")


def _is_digest(value) -> bool:
    """A sha256 hex digest: 64 lowercase hex characters."""
    return (isinstance(value, str) and len(value) == 64
            and set(value) <= _HEX_DIGITS)


def _check_digest(digest) -> str:
    if not _is_digest(digest):
        raise ArtifactError(f"not a sha256 digest: {str(digest)[:80]!r}")
    return digest


def _is_member(entry) -> bool:
    """One ``files`` entry: a relative POSIX path with no empty, ``.`` or
    ``..`` part (an absolute path has an empty first part), a sha256
    digest and a non-negative integer size."""
    if not isinstance(entry, dict):
        return False
    path, size = entry.get("path"), entry.get("size")
    return (isinstance(path, str) and "\0" not in path
            and all(part not in ("", ".", "..") for part in path.split("/"))
            and _is_digest(entry.get("sha256"))
            and type(size) is int and size >= 0)


def read_manifest(path: Path) -> ArtifactRef:
    """Parse one manifest file, trusting nothing in it.

    Accepts only a JSON object whose ``digest`` is the file's stem, with
    string ``kind`` and ``name``, an object ``meta`` and a ``files`` list
    of :func:`_is_member` entries; anything else raises
    :class:`ArtifactError` naming the file.
    """
    try:
        document = json.loads(path.read_bytes())
    except (OSError, ValueError, RecursionError) as error:
        raise ArtifactError(f"unreadable manifest {path}: {error}") from None
    if not isinstance(document, dict):
        problem = "not a JSON object"
    elif not (_is_digest(path.stem) and document.get("digest") == path.stem):
        problem = "'digest' does not match the file name"
    elif not (isinstance(document.get("kind"), str)
              and isinstance(document.get("name"), str)):
        problem = "'kind' and 'name' must be strings"
    elif not isinstance(document.get("meta"), dict):
        problem = "'meta' must be an object"
    elif not (isinstance(document.get("files"), list)
              and all(map(_is_member, document["files"]))):
        problem = ("'files' must be a list of {path, sha256, size} "
                   "entries with relative paths")
    else:
        return ArtifactRef(digest=document["digest"], kind=document["kind"],
                           name=document["name"],
                           files=tuple(document["files"]),
                           meta=document["meta"])
    raise ArtifactError(f"malformed manifest {path}: {problem}")


def _hash_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _hash_file(path: Path) -> str:
    hasher = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            hasher.update(chunk)
    return hasher.hexdigest()


def manifest_core(kind: str, name: str, files: list[dict],
                  meta: dict) -> dict:
    """The hashed portion of a manifest (canonical field order)."""
    return {
        "kind": kind,
        "name": name,
        "files": sorted(files, key=lambda entry: entry["path"]),
        "meta": meta,
    }


def manifest_digest(core: dict) -> str:
    """An artifact's identity: sha256 of its canonical manifest JSON."""
    return _hash_bytes(
        json.dumps(core, sort_keys=True, separators=(",", ":")).encode())


class ArtifactStore:
    """Content-addressed ``put/get/verify`` over a store directory.

    The constructor accepts any directory (created on first write); a
    store is just its ``objects/`` and ``artifacts/`` subtrees.
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)

    @property
    def objects_dir(self) -> Path:
        return self.root / OBJECTS_DIR

    @property
    def manifests_dir(self) -> Path:
        return self.root / MANIFESTS_DIR

    @property
    def quarantine_dir(self) -> Path:
        return self.root / QUARANTINE_DIR

    # -- blob layer --------------------------------------------------------

    def blob_path(self, digest: str) -> Path:
        _check_digest(digest)
        return self.objects_dir / digest[:2] / digest

    def _store_blob_file(self, source: Path) -> tuple[str, int]:
        """Copy one file into the blob area; returns (digest, size)."""
        digest = _hash_file(source)
        dest = self.blob_path(digest)
        if not dest.exists():
            dest.parent.mkdir(parents=True, exist_ok=True)
            tmp = dest.with_name(f".{dest.name}.tmp-{os.getpid()}")
            try:
                shutil.copyfile(source, tmp)
                os.replace(tmp, dest)
            finally:
                tmp.unlink(missing_ok=True)
        return digest, source.stat().st_size

    def _store_blob_bytes(self, data: bytes) -> tuple[str, int]:
        digest = _hash_bytes(data)
        dest = self.blob_path(digest)
        if not dest.exists():
            dest.parent.mkdir(parents=True, exist_ok=True)
            tmp = dest.with_name(f".{dest.name}.tmp-{os.getpid()}")
            try:
                tmp.write_bytes(data)
                os.replace(tmp, dest)
            finally:
                tmp.unlink(missing_ok=True)
        return digest, len(data)

    def open_blob(self, digest: str) -> Path:
        """Path of one stored blob (zero-copy read access)."""
        path = self.blob_path(digest)
        if not path.exists():
            raise ArtifactError(f"no blob {digest[:12]}... in {self.root}")
        return path

    # -- put ---------------------------------------------------------------

    def _put_manifest(self, kind: str, name: str, files: list[dict],
                      meta: dict) -> ArtifactRef:
        core = manifest_core(kind, name, files, dict(meta))
        digest = manifest_digest(core)
        path = self.manifests_dir / f"{digest}.json"
        if not path.exists():
            path.parent.mkdir(parents=True, exist_ok=True)
            document = {"format_version": FORMAT_VERSION,
                        "digest": digest, **core}
            tmp = path.with_name(f".{path.name}.tmp-{os.getpid()}")
            try:
                tmp.write_text(json.dumps(document, sort_keys=True,
                                          indent=1) + "\n")
                os.replace(tmp, path)
            finally:
                tmp.unlink(missing_ok=True)
        return ArtifactRef(digest=digest, kind=kind, name=name,
                           files=tuple(core["files"]), meta=dict(meta))

    def put_bytes(self, data: bytes, name: str, kind: str = "blob",
                  meta: dict | None = None) -> ArtifactRef:
        """Store one in-memory payload as a single-file artifact."""
        digest, size = self._store_blob_bytes(data)
        return self._put_manifest(
            kind, name, [{"path": name, "sha256": digest, "size": size}],
            meta or {})

    def put_file(self, path: str | Path, kind: str = "blob",
                 name: str | None = None,
                 meta: dict | None = None) -> ArtifactRef:
        """Store one file as a single-file artifact (name = file name)."""
        path = Path(path)
        if not path.is_file():
            raise ArtifactError(f"{path} is not a file")
        digest, size = self._store_blob_file(path)
        name = name if name is not None else path.name
        return self._put_manifest(
            kind, name,
            [{"path": path.name, "sha256": digest, "size": size}],
            meta or {})

    def put_dir(self, directory: str | Path, kind: str = "tree",
                name: str | None = None, meta: dict | None = None,
                include=None) -> ArtifactRef:
        """Store a directory tree (relative paths preserved).

        ``include``, when given, is a predicate on the relative POSIX
        path selecting which files to ingest.
        """
        directory = Path(directory)
        if not directory.is_dir():
            raise ArtifactError(f"{directory} is not a directory")
        files = []
        for path in sorted(directory.rglob("*")):
            if not path.is_file():
                continue
            relative = path.relative_to(directory).as_posix()
            if include is not None and not include(relative):
                continue
            digest, size = self._store_blob_file(path)
            files.append({"path": relative, "sha256": digest, "size": size})
        if not files:
            raise ArtifactError(f"nothing to ingest under {directory}")
        return self._put_manifest(kind, name or directory.name, files,
                                  meta or {})

    # -- format-specific ingestion ----------------------------------------

    def put_checkpoint(self, path: str | Path,
                       name: str | None = None) -> ArtifactRef:
        """Ingest a serve checkpoint ``.npz`` (+ drift reference sidecar).

        The sidecar ``<stem>-reference.json`` written by training rides
        along when present, so materializing the artifact next to a
        serve process re-enables drift monitoring automatically.
        """
        path = Path(path)
        if not path.is_file():
            raise ArtifactError(f"{path} is not a checkpoint file")
        name = name if name is not None else path.stem
        digest, size = self._store_blob_file(path)
        files = [{"path": path.name, "sha256": digest, "size": size}]
        reference = path.with_name(f"{path.stem}-reference.json")
        if reference.exists():
            ref_digest, ref_size = self._store_blob_file(reference)
            files.append({"path": reference.name, "sha256": ref_digest,
                          "size": ref_size})
        return self._put_manifest(
            "checkpoint", name, files,
            {"model_id": name, "checkpoint_sha256": digest,
             "has_reference": len(files) > 1})

    def put_dataset_store(self, root: str | Path,
                          name: str | None = None) -> ArtifactRef:
        """Ingest a ``ShardedStore`` directory (manifest + shards).

        The dataset manifest's shape metadata and provenance records are
        lifted into the artifact's ``meta``, converging the PR 2 format's
        provenance with the store's.
        """
        from repro.data.store import MANIFEST_NAME, ShardedStore, StoreError

        root = Path(root)
        try:
            manifest = ShardedStore.open(root).manifest
        except StoreError as error:
            raise ArtifactError(f"{root} is not a dataset store "
                                f"({error})") from None
        files = []
        for member in [MANIFEST_NAME] + [shard["name"]
                                         for shard in manifest["shards"]]:
            path = root / member
            if not path.exists():
                raise ArtifactError(f"dataset store {root} is missing "
                                    f"{member}")
            digest, size = self._store_blob_file(path)
            files.append({"path": member, "sha256": digest, "size": size})
        return self._put_manifest(
            "dataset", name or root.name, files,
            {"num_samples": manifest["num_samples"],
             "image_size": manifest["image_size"],
             "designs": manifest["designs"],
             "provenance": manifest["provenance"]})

    def put_run_dir(self, run_dir: str | Path,
                    name: str | None = None) -> ArtifactRef:
        """Ingest a training run directory (spec, logs, exports).

        Keeps the run's self-describing record (``spec.json``, loss and
        eval logs, ``status.json``) plus everything under ``export/`` —
        the serve-format checkpoints — and lifts the spec name, run
        state, and best-metric fields into ``meta``.
        """
        run_dir = Path(run_dir)
        spec_path = run_dir / "spec.json"
        if not spec_path.exists():
            raise ArtifactError(f"{run_dir} is not a run directory "
                                f"(no spec.json)")
        spec = json.loads(spec_path.read_text())
        meta = {"run_name": spec.get("name", run_dir.name),
                "spec": spec}
        status_path = run_dir / "status.json"
        if status_path.exists():
            status = json.loads(status_path.read_text())
            meta["state"] = status.get("state")
            meta["best_value"] = status.get("best_value")

        def include(relative: str) -> bool:
            return relative in RUN_DIR_FILES or relative.startswith("export/")

        return self.put_dir(run_dir, kind="run",
                            name=name or spec.get("name", run_dir.name),
                            meta=meta, include=include)

    # -- get ---------------------------------------------------------------

    def get(self, digest: str) -> ArtifactRef:
        """The manifest for one artifact digest."""
        path = self.manifests_dir / f"{_check_digest(digest)}.json"
        if not path.exists():
            raise ArtifactError(f"no artifact {digest[:12]}... in "
                                f"{self.root}")
        return read_manifest(path)

    def resolve(self, ref: str, kind: str | None = None) -> ArtifactRef:
        """An artifact by digest, digest prefix, or name.

        Names are not unique; a name (or prefix) matching several
        artifacts is an error listing the candidates.
        """
        matches = [artifact for artifact in self.list(kind=kind)
                   if artifact.digest == ref
                   or artifact.digest.startswith(ref)
                   or artifact.name == ref]
        if not matches:
            raise ArtifactError(f"no artifact matching {ref!r} in "
                                f"{self.root}")
        if len(matches) > 1:
            listing = ", ".join(f"{a.name}@{a.digest[:12]}"
                                for a in matches)
            raise ArtifactError(f"{ref!r} is ambiguous: {listing}")
        return matches[0]

    def materialize(self, digest: str, dest: str | Path) -> Path:
        """Write an artifact's files out under ``dest``; returns ``dest``."""
        artifact = self.get(digest)
        dest = Path(dest)
        for entry in artifact.files:
            target = dest / entry["path"]
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(self.open_blob(entry["sha256"]), target)
        return dest

    def read_bytes(self, digest: str, path: str | None = None) -> bytes:
        """One member file's bytes (the only file when ``path`` omitted)."""
        artifact = self.get(digest)
        if path is None:
            if len(artifact.files) != 1:
                raise ArtifactError(
                    f"artifact {artifact.name} has {len(artifact.files)} "
                    f"files; pass path=")
            entry = artifact.files[0]
        else:
            matching = [e for e in artifact.files if e["path"] == path]
            if not matching:
                raise ArtifactError(f"artifact {artifact.name} has no "
                                    f"member {path!r}")
            entry = matching[0]
        return self.open_blob(entry["sha256"]).read_bytes()

    # -- enumeration / verification ---------------------------------------

    def list(self, kind: str | None = None) -> list[ArtifactRef]:
        """All artifacts (optionally one kind), sorted by (kind, name)."""
        artifacts = []
        if self.manifests_dir.is_dir():
            for path in sorted(self.manifests_dir.glob("*.json")):
                try:
                    artifact = self.get(path.stem)
                except ArtifactError:
                    continue
                if kind is None or artifact.kind == kind:
                    artifacts.append(artifact)
        artifacts.sort(key=lambda a: (a.kind, a.name, a.digest))
        return artifacts

    def __iter__(self) -> Iterator[ArtifactRef]:
        return iter(self.list())

    def __len__(self) -> int:
        return len(self.list())

    def verify(self, digest: str | None = None) -> list[str]:
        """Recheck blob hashes and manifest digests; returns the problems.

        With ``digest``, verifies one artifact; otherwise the whole
        store.  An empty list means everything matches its address.
        """
        artifacts = [self.get(digest)] if digest is not None else self.list()
        problems = []
        for artifact in artifacts:
            core = manifest_core(artifact.kind, artifact.name,
                                 list(artifact.files), dict(artifact.meta))
            if manifest_digest(core) != artifact.digest:
                problems.append(f"{artifact.digest[:12]}: manifest content "
                                f"does not hash to its digest")
            for entry in artifact.files:
                blob = self.blob_path(entry["sha256"])
                if not blob.exists():
                    problems.append(f"{artifact.name}: missing blob for "
                                    f"{entry['path']}")
                    continue
                if _hash_file(blob) != entry["sha256"]:
                    problems.append(f"{artifact.name}: blob for "
                                    f"{entry['path']} is corrupted")
        return problems

    def _quarantine(self, path: Path) -> dict:
        """Move one corrupt file into ``quarantine/`` (never clobbers)."""
        self.quarantine_dir.mkdir(parents=True, exist_ok=True)
        dest = self.quarantine_dir / path.name
        suffix = 0
        while dest.exists():
            suffix += 1
            dest = self.quarantine_dir / f"{path.name}.{suffix}"
        os.replace(path, dest)
        return {"from": str(path), "to": str(dest)}

    def scrub(self, quarantine: bool = True) -> dict:
        """Full-store integrity pass: detect, quarantine, re-verify.

        Three sweeps:

        1. every blob under ``objects/`` is re-hashed; a file whose
           content no longer hashes to its name is corrupt and (with
           ``quarantine=True``) moved into ``quarantine/``;
        2. every manifest is re-parsed and its digest recomputed;
           unreadable, malformed or mis-addressed manifests quarantine
           the same way;
        3. what survived is re-verified manifest-by-manifest, so blobs
           that went missing (including ones just quarantined) are
           reported per artifact.

        Returns a JSON-able report; ``report["clean"]`` is True only
        when all three sweeps found nothing.  A store whose corrupt
        blobs were quarantined reports *not* clean until the content is
        re-put (the vacant address self-heals on the next write).
        """
        report: dict = {"blobs_scanned": 0, "manifests_scanned": 0,
                        "corrupt_blobs": [], "corrupt_manifests": [],
                        "missing_blobs": [], "quarantined": []}
        if self.objects_dir.is_dir():
            for path in sorted(self.objects_dir.rglob("*")):
                if not path.is_file() or path.name.startswith("."):
                    continue        # dotfiles are in-flight temp writes
                report["blobs_scanned"] += 1
                actual = _hash_file(path)
                if actual != path.name:
                    report["corrupt_blobs"].append(
                        {"digest": path.name, "actual_sha256": actual})
                    if quarantine:
                        report["quarantined"].append(self._quarantine(path))
        if self.manifests_dir.is_dir():
            for path in sorted(self.manifests_dir.glob("*.json")):
                if path.name.startswith("."):
                    continue
                report["manifests_scanned"] += 1
                problem = None
                try:
                    artifact = read_manifest(path)
                    core = manifest_core(artifact.kind, artifact.name,
                                         list(artifact.files),
                                         dict(artifact.meta))
                    if manifest_digest(core) != path.stem:
                        problem = ("manifest content does not hash to "
                                   "its digest")
                except ArtifactError as error:
                    problem = str(error)
                if problem is not None:
                    report["corrupt_manifests"].append(
                        {"digest": path.stem, "problem": problem})
                    if quarantine:
                        report["quarantined"].append(self._quarantine(path))
        for artifact in self.list():
            for entry in artifact.files:
                if not self.blob_path(entry["sha256"]).exists():
                    report["missing_blobs"].append(
                        {"artifact": artifact.name,
                         "digest": artifact.digest,
                         "path": entry["path"],
                         "sha256": entry["sha256"]})
        report["clean"] = not (report["corrupt_blobs"]
                               or report["corrupt_manifests"]
                               or report["missing_blobs"])
        return report

    def stats(self) -> dict:
        """Counts and sizes for ``repro fleet status``."""
        artifacts = self.list()
        kinds: dict[str, int] = {}
        for artifact in artifacts:
            kinds[artifact.kind] = kinds.get(artifact.kind, 0) + 1
        blob_bytes = sum(path.stat().st_size
                         for path in self.objects_dir.rglob("*")
                         if path.is_file()) if self.objects_dir.is_dir() \
            else 0
        quarantined = sum(1 for path in self.quarantine_dir.iterdir()
                          if path.is_file()) \
            if self.quarantine_dir.is_dir() else 0
        return {"root": str(self.root), "artifacts": len(artifacts),
                "kinds": kinds, "blob_bytes": blob_bytes,
                "quarantined": quarantined}
