"""Exact-resume training checkpoints.

A train-state checkpoint captures *everything* a step depends on, so a
run resumed from it is bitwise-identical to one that never stopped:

* generator / discriminator parameters **and** BatchNorm running stats
  (the module state dicts),
* both flat-Adam optimizers' moment buffers and step counts,
* every live rng stream (decoder dropout noise) mid-sequence,
* the cursor — phase, epoch, batches consumed, the sample-order state,
  and the partial-epoch loss sums the epoch average folds from.

Arrays live in one ``.npz`` with the versioned header from
:mod:`repro.nn.serialize`; the cursor travels inside that header, so a
checkpoint file is self-describing.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from repro.gan.pix2pix import Pix2Pix
from repro.nn.serialize import (
    CheckpointError,
    load_optimizer_state_dict,
    make_header,
    module_rng_states,
    optimizer_state_dict,
    read_npz,
    restore_module_rng_states,
    validate_state_dict,
    write_npz,
)

TRAIN_STATE_FORMAT = "repro.train-state"
TRAIN_STATE_VERSION = 1

#: Array-name prefixes inside the archive.
_PREFIXES = ("G.", "D.", "optG.", "optD.")


@dataclass
class TrainCursor:
    """Where a run stands, in loop coordinates (all JSON-able)."""

    phase: int = 0                 # index into the runner's phase plan
    epoch: int = 0                 # epoch in progress within the phase
    step: int = 0                  # batches consumed in that epoch
    global_step: int = 0           # optimizer steps since run start
    loss_lines: int = 0            # valid lines in losses.jsonl
    eval_lines: int = 0            # valid lines in evals.jsonl
    loss_count: int = 0            # samples folded into the partial epoch
    order_state: dict | None = None   # sample-order rng state (shuffle mode)
    best_value: float | None = None   # best tracked eval metric so far
    best_epoch: int | None = None
    rng_states: dict = field(default_factory=dict)   # module rng JSON blobs

    def to_meta(self) -> dict:
        return {
            "phase": self.phase, "epoch": self.epoch, "step": self.step,
            "global_step": self.global_step,
            "loss_lines": self.loss_lines, "eval_lines": self.eval_lines,
            "loss_count": self.loss_count, "order_state": self.order_state,
            "best_value": self.best_value, "best_epoch": self.best_epoch,
            "rng_states": self.rng_states,
        }

    @classmethod
    def from_meta(cls, meta, path: str | Path) -> "TrainCursor":
        """The cursor stored in ``path``'s header.

        A cursor that is not a JSON object, lacks a field, or carries
        ``rng_states`` that are not an object raises
        :class:`CheckpointError` naming ``path``.
        """
        if not isinstance(meta, dict):
            raise CheckpointError(
                f"{path} header's train cursor is {meta!r:.40}, expected "
                f"a JSON object")
        names = [item.name for item in fields(cls)]
        missing = [name for name in names if name not in meta]
        if missing:
            raise CheckpointError(
                f"{path} header's train cursor lacks {', '.join(missing)}")
        if not isinstance(meta["rng_states"], dict):
            raise CheckpointError(
                f"{path} header's train cursor has rng_states "
                f"{meta['rng_states']!r:.40}, expected a JSON object")
        return cls(**{name: meta[name] for name in names})


def save_train_state(path: str | Path, model: Pix2Pix,
                     cursor: TrainCursor, loss_sums: np.ndarray,
                     spec_sha: str | None = None) -> None:
    """Write one exact-resume checkpoint (atomic)."""
    arrays: dict[str, np.ndarray] = {}
    for prefix, state in (
            ("G.", model.generator.state_dict()),
            ("D.", model.discriminator.state_dict()),
            ("optG.", optimizer_state_dict(model.opt_g)),
            ("optD.", optimizer_state_dict(model.opt_d))):
        for name, value in state.items():
            arrays[prefix + name] = value
    arrays["loss_sums"] = np.asarray(loss_sums, dtype=np.float64)
    cursor.rng_states = {
        **{f"G.{k}": v
           for k, v in module_rng_states(model.generator).items()},
        **{f"D.{k}": v
           for k, v in module_rng_states(model.discriminator).items()},
    }
    header = make_header(TRAIN_STATE_FORMAT, TRAIN_STATE_VERSION,
                         cursor=cursor.to_meta(), spec_sha=spec_sha)
    write_npz(path, arrays, header)


def load_train_state(path: str | Path, model: Pix2Pix,
                     spec_sha: str | None = None
                     ) -> tuple[TrainCursor, np.ndarray]:
    """Restore a checkpoint into ``model``; returns (cursor, loss sums).

    ``model`` must be freshly built from the same spec (same config,
    same seed); weight/optimizer/rng mismatches raise with the offending
    keys named.  When both sides carry a spec hash they must agree —
    resuming a run directory with an edited ``spec.json`` is an error,
    not a silent divergence.  The cursor and the loss sums are checked
    before anything is loaded into ``model``.
    """
    arrays, header = read_npz(path, TRAIN_STATE_FORMAT, TRAIN_STATE_VERSION)
    saved_sha = header.get("spec_sha")
    if spec_sha and saved_sha and spec_sha != saved_sha:
        raise CheckpointError(
            f"{path} was written under a different spec "
            f"({saved_sha[:12]} vs {spec_sha[:12]}); refusing to resume "
            f"a run whose spec.json changed")
    cursor = TrainCursor.from_meta(header.get("cursor"), path)
    if "loss_sums" not in arrays:
        raise CheckpointError(f"{path} has no loss_sums array")
    split: dict[str, dict[str, np.ndarray]] = {p: {} for p in _PREFIXES}
    for name, value in arrays.items():
        for prefix in _PREFIXES:
            if name.startswith(prefix):
                split[prefix][name[len(prefix):]] = value
                break
    validate_state_dict(model.generator, split["G."],
                        context=f"generator from {path}")
    validate_state_dict(model.discriminator, split["D."],
                        context=f"discriminator from {path}")
    model.generator.load_state_dict(split["G."])
    model.discriminator.load_state_dict(split["D."])
    load_optimizer_state_dict(model.opt_g, split["optG."])
    load_optimizer_state_dict(model.opt_d, split["optD."])

    rng_states = cursor.rng_states
    restore_module_rng_states(
        model.generator,
        {k[2:]: v for k, v in rng_states.items() if k.startswith("G.")})
    restore_module_rng_states(
        model.discriminator,
        {k[2:]: v for k, v in rng_states.items() if k.startswith("D.")})
    return cursor, arrays["loss_sums"]
