"""Checkpoint serialization for :class:`repro.nn.layers.Module` trees.

Every archive written here carries a versioned header (the
``__checkpoint__`` entry): a JSON document naming the schema
(``format``) and its ``version``.  Loading an archive whose format or
version does not match raises :class:`CheckpointError` with a message
naming both sides, instead of failing deep inside ``load_state_dict``
on the first odd key; so does an archive that cannot be read at all
(truncated, corrupt, or with a header that is not a JSON object).
Archives written before the header existed load as version 0 of the
expected format.

Beyond module weights, this module round-trips the pieces of training
state that exact resume needs:

* :func:`optimizer_state_dict` / :func:`load_optimizer_state_dict` —
  Adam's step count and moments, flat in parameter order.
* :func:`rng_state_to_json` / :func:`rng_state_from_json` — a numpy
  ``Generator``'s bit-generator state as a JSON string, so dropout
  noise streams resume mid-sequence.
"""

from __future__ import annotations

import json
import os
import tokenize
import zipfile
import zlib
from pathlib import Path

import numpy as np

from repro.nn.layers import Module

#: Header entry name inside every ``.npz`` archive written here.
HEADER_KEY = "__checkpoint__"

#: Schema name and current version for plain module state dicts.
MODULE_STATE_FORMAT = "repro.module-state"
MODULE_STATE_VERSION = 1


#: What ``np.load`` and reading its members raise for a damaged archive
#: (besides ``FileNotFoundError``, which callers keep): a bad zip
#: structure or CRC, a corrupt deflate stream, an encrypted-flag or
#: unknown-compression entry (``RuntimeError``, ``NotImplementedError``),
#: or a garbled ``.npy`` header (``ValueError``, ``tokenize.TokenError``).
ARCHIVE_ERRORS = (OSError, EOFError, RuntimeError, ValueError,
                  tokenize.TokenError, zipfile.BadZipFile, zlib.error)


class CheckpointError(ValueError):
    """A checkpoint file does not match the expected schema."""


def make_header(format_name: str, version: int, **meta) -> dict:
    """The JSON header document stored under :data:`HEADER_KEY`."""
    return {"format": format_name, "version": version, **meta}


def savez_atomic(path: str | Path, arrays: dict[str, np.ndarray]) -> None:
    """Write ``arrays`` to ``path`` as a compressed ``.npz``, atomically.

    The archive is staged next to ``path`` and moved into place with
    ``os.replace``, so an interrupted write never leaves a truncated
    archive at the destination.  It is written through a file object, so
    numpy cannot append ``.npz`` to the staging name.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.tmp-{os.getpid()}")
    try:
        with open(tmp, "wb") as handle:
            np.savez_compressed(handle, **arrays)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def write_npz(path: str | Path, arrays: dict[str, np.ndarray],
              header: dict) -> None:
    """Atomically write ``arrays`` plus a versioned ``header`` to ``path``."""
    if HEADER_KEY in arrays:
        raise ValueError(f"array name {HEADER_KEY!r} is reserved")
    payload = dict(arrays)
    payload[HEADER_KEY] = np.array(json.dumps(header, sort_keys=True))
    savez_atomic(path, payload)


def read_npz(path: str | Path, expect_format: str,
             max_version: int) -> tuple[dict[str, np.ndarray], dict]:
    """Load ``(arrays, header)``, validating the schema header.

    A missing header is treated as ``version 0`` of ``expect_format``
    (pre-header archives).  An unreadable archive, a header that is not
    a JSON object, a different format name or a version newer than
    ``max_version`` raise :class:`CheckpointError` naming the file; a
    missing file raises ``FileNotFoundError``.
    """
    path = Path(path)
    try:
        with np.load(path, allow_pickle=False) as archive:
            names = [name for name in archive.files if name != HEADER_KEY]
            if HEADER_KEY in archive.files:
                header = json.loads(str(archive[HEADER_KEY]))
            else:
                header = make_header(expect_format, 0)
            arrays = {name: archive[name] for name in names}
    except FileNotFoundError:
        raise
    except ARCHIVE_ERRORS as error:
        raise CheckpointError(
            f"{path} is not a readable checkpoint ({error})") from error
    if not isinstance(header, dict):
        raise CheckpointError(
            f"{path} has a {type(header).__name__} header, expected a "
            f"JSON object")
    found = header.get("format")
    if found != expect_format:
        raise CheckpointError(
            f"{path} holds a {found!r} checkpoint, expected "
            f"{expect_format!r}")
    version = header.get("version")
    if not isinstance(version, int) or version > max_version:
        raise CheckpointError(
            f"{path} is {found!r} schema version {version!r}; this build "
            f"reads versions up to {max_version} — rebuild the checkpoint "
            f"or upgrade")
    return arrays, header


# -- module state dicts ------------------------------------------------------


def save_state_dict(module: Module, path: str | Path) -> None:
    """Save a module's parameters and running buffers to an ``.npz`` file."""
    write_npz(Path(path), module.state_dict(),
              make_header(MODULE_STATE_FORMAT, MODULE_STATE_VERSION))


def state_dict_mismatch(module: Module, state: dict[str, np.ndarray]
                        ) -> tuple[list[str], list[str]]:
    """(missing, unexpected) key lists between ``module`` and ``state``."""
    own = set(dict(module.named_parameters())) | {
        name for name, _ in module._named_buffers()}
    loaded = set(state)
    return sorted(own - loaded), sorted(loaded - own)


def validate_state_dict(module: Module, state: dict[str, np.ndarray],
                        context: str = "state dict") -> None:
    """Raise a ``ValueError`` naming every missing/unexpected key.

    ``Module.load_state_dict`` fails deep inside the module tree on the
    first bad key (and silently ignores missing ones); validating up front
    turns a truncated or mismatched checkpoint into one readable error.
    """
    missing, unexpected = state_dict_mismatch(module, state)
    if not missing and not unexpected:
        return
    parts = []
    if missing:
        parts.append(f"missing keys: {', '.join(missing)}")
    if unexpected:
        parts.append(f"unexpected keys: {', '.join(unexpected)}")
    raise ValueError(f"cannot load {context}: " + "; ".join(parts))


def load_state_dict(module: Module, path: str | Path) -> None:
    """Load parameters saved by :func:`save_state_dict` into ``module``.

    Raises :class:`CheckpointError` when the archive's schema header does
    not match, and ``ValueError`` listing all missing/unexpected keys when
    the checkpoint does not match the module's structure.
    """
    path = Path(path)
    state, _ = read_npz(path, MODULE_STATE_FORMAT, MODULE_STATE_VERSION)
    validate_state_dict(module, state, context=f"checkpoint {path}")
    module.load_state_dict(state)


# -- optimizer state ---------------------------------------------------------


def optimizer_state_dict(optimizer) -> dict[str, np.ndarray]:
    """An :class:`repro.nn.optim.Adam`'s persistent state as arrays.

    The step count plus the first/second moment estimates, each moment a
    copy of the optimizer's flat parameter-order array.
    """
    out: dict[str, np.ndarray] = {}
    for name, value in optimizer.state_arrays().items():
        if isinstance(value, np.ndarray):
            out[name] = value.ravel().copy()
        else:
            out[name] = np.asarray(value)
    return out


def load_optimizer_state_dict(optimizer,
                              state: dict[str, np.ndarray]) -> None:
    """Restore state captured by :func:`optimizer_state_dict`.

    The optimizer must be freshly constructed over the same parameter
    list (same shapes, same order); size mismatches raise
    :class:`CheckpointError` naming the entry.
    """
    expected = optimizer.state_arrays()
    missing = sorted(set(expected) - set(state))
    unexpected = sorted(set(state) - set(expected))
    if missing or unexpected:
        parts = []
        if missing:
            parts.append(f"missing entries: {', '.join(missing)}")
        if unexpected:
            parts.append(f"unexpected entries: {', '.join(unexpected)}")
        raise CheckpointError(
            "optimizer state does not match: " + "; ".join(parts))
    for name, value in state.items():
        target = expected[name]
        if isinstance(target, np.ndarray):
            if value.size != target.size:
                raise CheckpointError(
                    f"optimizer state {name!r} has {value.size} elements, "
                    f"expected {target.size}")
            target.ravel()[...] = value
        else:
            optimizer.set_state_scalar(name, value)


# -- rng streams -------------------------------------------------------------


def rng_state_to_json(rng: np.random.Generator) -> str:
    """A generator's bit-generator state as a JSON string."""
    return json.dumps(rng.bit_generator.state, sort_keys=True)


def rng_state_from_json(rng: np.random.Generator, state_json: str) -> None:
    """Restore a state captured by :func:`rng_state_to_json` in place."""
    state = json.loads(state_json)
    expected = rng.bit_generator.state.get("bit_generator")
    found = state.get("bit_generator")
    if found != expected:
        raise CheckpointError(
            f"rng state is for bit generator {found!r}, "
            f"this generator uses {expected!r}")
    rng.bit_generator.state = state


def module_rng_states(module: Module) -> dict[str, str]:
    """JSON-encoded rng states of every generator reachable in ``module``."""
    return {name: rng_state_to_json(rng)
            for name, rng in module.named_rngs()}


def restore_module_rng_states(module: Module,
                              states: dict[str, str]) -> None:
    """Restore states captured by :func:`module_rng_states`.

    Missing or unexpected rng paths raise :class:`CheckpointError`
    (a mismatch means the architectures differ).  Layers sharing one
    ``Generator`` instance restore it once per path to the same state,
    which preserves the sharing.
    """
    own = dict(module.named_rngs())
    missing = sorted(set(own) - set(states))
    unexpected = sorted(set(states) - set(own))
    if missing or unexpected:
        parts = []
        if missing:
            parts.append(f"missing rng paths: {', '.join(missing)}")
        if unexpected:
            parts.append(f"unexpected rng paths: {', '.join(unexpected)}")
        raise CheckpointError("rng state does not match module: "
                              + "; ".join(parts))
    for name, state_json in states.items():
        rng_state_from_json(own[name], state_json)
