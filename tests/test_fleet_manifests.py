"""Artifact manifests and digests are untrusted input.

A manifest file or a digest taken from a spool job document may be
damaged or forged: every one is refused with ``ArtifactError`` naming
the file, nothing reads or writes outside the store or the
``materialize`` destination, and ``list()``/``scrub`` carry on past it.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.fleet import ArtifactError, ArtifactStore

SHA = "ab" * 32


def _damage(document: dict, case: str):
    """``document`` with one field broken the way ``case`` names."""
    files = document["files"]
    damaged = {
        "list": [1, 2],
        "string": "manifest",
        "null": None,
        "digest-mismatch": {**document, "digest": "0" * 64},
        "digest-missing": {k: v for k, v in document.items()
                           if k != "digest"},
        "kind-not-string": {**document, "kind": 5},
        "name-missing": {k: v for k, v in document.items() if k != "name"},
        "meta-list": {**document, "meta": []},
        "files-object": {**document, "files": {"path": "m.bin"}},
        "files-missing": {k: v for k, v in document.items()
                          if k != "files"},
        "entry-list": {**document, "files": [list(files[0].values())]},
        "path-parent": {**document, "files": [{**files[0],
                                               "path": "../escaped.txt"}]},
        "path-nested-parent": {**document, "files": [
            {**files[0], "path": "a/../../escaped.txt"}]},
        "path-absolute": {**document, "files": [{**files[0],
                                                 "path": "/tmp/x.txt"}]},
        "path-empty": {**document, "files": [{**files[0], "path": ""}]},
        "path-empty-part": {**document, "files": [{**files[0],
                                                   "path": "a//b"}]},
        "path-not-string": {**document, "files": [{**files[0], "path": 3}]},
        "sha-parent": {**document, "files": [{**files[0],
                                              "sha256": "../secret.txt"}]},
        "sha-upper": {**document, "files": [
            {**files[0], "sha256": files[0]["sha256"].upper()}]},
        "sha-short": {**document, "files": [
            {**files[0], "sha256": files[0]["sha256"][:12]}]},
        "size-negative": {**document, "files": [{**files[0], "size": -1}]},
        "size-bool": {**document, "files": [{**files[0], "size": True}]},
        "size-float": {**document, "files": [{**files[0], "size": 4.0}]},
        "size-missing": {**document, "files": [
            {k: v for k, v in files[0].items() if k != "size"}]},
    }
    return damaged[case]


DAMAGE = ["list", "string", "null", "digest-mismatch", "digest-missing",
          "kind-not-string", "name-missing", "meta-list", "files-object",
          "files-missing", "entry-list", "path-parent", "path-nested-parent",
          "path-absolute", "path-empty", "path-empty-part", "path-not-string",
          "sha-parent", "sha-upper", "sha-short", "size-negative",
          "size-bool", "size-float", "size-missing"]

UNPARSEABLE = {
    "not-json": b"{ not json",
    "not-utf8": b'{"kind": "\xff\xfe"}',
    "nested-past-recursion-limit": b"[" * 100_000,
}


@pytest.fixture()
def store(tmp_path):
    return ArtifactStore(tmp_path / "store" / "art")


def _forge(store: ArtifactStore, document) -> str:
    """Overwrite one fresh artifact's manifest; returns its digest."""
    ref = store.put_bytes(b"data", "m.bin")
    path = store.manifests_dir / f"{ref.digest}.json"
    if isinstance(document, bytes):
        path.write_bytes(document)
    else:
        original = json.loads(path.read_text())
        path.write_text(json.dumps(document(original)
                                   if callable(document) else document))
    return ref.digest


class TestDamagedManifests:
    @pytest.mark.parametrize("case", DAMAGE + sorted(UNPARSEABLE))
    def test_refused_naming_the_file_and_skipped_by_list(self, store, case):
        healthy = store.put_bytes(b"fine", "ok.bin")
        document = UNPARSEABLE.get(case) or (
            lambda original: _damage(original, case))
        digest = _forge(store, document)
        with pytest.raises(ArtifactError) as excinfo:
            store.get(digest)
        assert f"{digest}.json" in str(excinfo.value)
        assert [artifact.digest for artifact in store.list()] == \
            [healthy.digest]
        assert store.stats()["artifacts"] == 1
        with pytest.raises(ArtifactError, match="no artifact matching"):
            store.resolve(digest)

    def test_manifests_written_by_put_still_pass(self, store, tmp_path):
        (tmp_path / "tree" / "sub").mkdir(parents=True)
        (tmp_path / "tree" / "a.txt").write_text("a")
        (tmp_path / "tree" / "sub" / "b.txt").write_text("b")
        refs = [store.put_bytes(b"x", "x.bin", meta={"k": [1, {"n": 2}]}),
                store.put_dir(tmp_path / "tree")]
        for ref in refs:
            assert store.get(ref.digest) == ref
        assert store.verify() == []

    def test_materialize_writes_nothing_outside_dest(self, store, tmp_path):
        outside = tmp_path / "absolute.txt"
        for path in ("../escaped.txt", str(outside)):
            digest = _forge(store, lambda original: {
                **original, "files": [{**original["files"][0],
                                       "path": path}]})
            dest = tmp_path / "dest"
            with pytest.raises(ArtifactError, match="malformed manifest"):
                store.materialize(digest, dest)
            assert not (tmp_path / "escaped.txt").exists()
            assert not outside.exists()

    def test_read_bytes_reads_nothing_outside_objects(self, store):
        digest = _forge(store, lambda original: {
            **original, "files": [{**original["files"][0],
                                   "sha256": "../secret.txt"}]})
        # Where objects/../../secret.txt lands: next to the store root.
        (store.root.parent / "secret.txt").write_text("outside the store")
        with pytest.raises(ArtifactError, match="malformed manifest"):
            store.read_bytes(digest)
        # A forged artifact digest (a spool job's ``artifact`` field)
        # cannot reach a manifest outside ``artifacts/`` either.
        forged = {"digest": "../evil", "kind": "input", "name": "x",
                  "meta": {},
                  "files": [{"path": "m.bin", "sha256": SHA, "size": 4}]}
        (store.root / "evil.json").write_text(json.dumps(forged))
        for digest in ("../evil", SHA.upper(), SHA[:12], ""):
            with pytest.raises(ArtifactError, match="not a sha256 digest"):
                store.read_bytes(digest)
            with pytest.raises(ArtifactError, match="not a sha256 digest"):
                store.blob_path(digest)

    def test_scrub_cli_reports_a_list_manifest(self, store, capsys):
        good = store.put_bytes(b"good", "good.bin")
        digest = _forge(store, [1, 2])
        assert main(["fleet", "scrub", str(store.root),
                     "--no-quarantine"]) == 1
        out = capsys.readouterr().out
        assert f"CORRUPT manifest {digest[:12]}: malformed manifest" in out
        assert "not a JSON object" in out
        assert (store.manifests_dir / f"{digest}.json").exists()
        assert store.read_bytes(good.digest) == b"good"


def _json_values():
    return st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats()
        | st.text(max_size=8),
        lambda children: st.lists(children, max_size=3)
        | st.dictionaries(st.text(max_size=6), children, max_size=3),
        max_leaves=8)


_PATHS = st.sampled_from(["m.bin", "a/b.txt", "../x", "/abs", "a//b", "",
                          ".", "a/./b"]) | st.text(max_size=12)
_SHAS = st.sampled_from([SHA, SHA.upper(), SHA[:63], "../secret"]) \
    | st.text(alphabet="0123456789abcdef", min_size=63, max_size=65)
_ENTRIES = st.fixed_dictionaries(
    {}, optional={"path": _PATHS | _json_values(),
                  "sha256": _SHAS | _json_values(),
                  "size": st.integers() | _json_values()}) | _json_values()


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(document=st.fixed_dictionaries({}, optional={
    "digest": st.just(SHA) | _json_values(),
    "kind": st.text(max_size=6) | _json_values(),
    "name": st.text(max_size=6) | _json_values(),
    "meta": st.dictionaries(st.text(max_size=4), _json_values(),
                            max_size=2) | _json_values(),
    "files": st.lists(_ENTRIES, max_size=3) | _json_values(),
}) | _json_values())
def test_get_returns_or_raises_artifact_error(tmp_path_factory, document):
    store = ArtifactStore(tmp_path_factory.mktemp("manifests"))
    store.manifests_dir.mkdir(parents=True)
    (store.manifests_dir / f"{SHA}.json").write_text(json.dumps(document))
    try:
        artifact = store.get(SHA)
    except ArtifactError as error:
        assert f"{SHA}.json" in str(error)
        assert store.list() == []
        return
    assert artifact.digest == SHA
    for entry in artifact.files:
        parts = entry["path"].split("/")
        assert not entry["path"].startswith("/")
        assert not {"", ".", ".."} & set(parts)
        assert store.blob_path(entry["sha256"]).parent.parent \
            == store.objects_dir
    assert [listed.digest for listed in store.list()] == [SHA]
