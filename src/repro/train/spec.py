"""Typed training-run manifests with JSON round-trip.

A :class:`TrainSpec` is everything a :class:`~repro.train.runner.Runner`
needs to execute (and re-execute) a run: the experiment scale, the
dataset reference, model/loss knobs, the sample-order policy, the
strategy-2 fine-tuning phase, eval-hook cadence, and checkpoint cadence.
Specs serialize to plain JSON — the run directory's ``spec.json`` is the
authoritative manifest a resume reconstructs the run from — and unknown
keys fail loudly so a typo'd spec never silently trains the wrong thing.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.config import ExperimentScale, custom_scale, get_scale

#: Sample-order policies.  ``stream`` uses the shard-aware loader plan
#: (pure function of seed+epoch); ``shuffle`` is the classic trainer
#: order (one persistent rng reshuffling every epoch, batch size 1).
ORDER_MODES = ("stream", "shuffle")


def describe_scale(scale: ExperimentScale) -> tuple[str, dict]:
    """``(preset name, overrides)`` capturing a scale object in spec form.

    Flows receive :class:`ExperimentScale` objects (often
    ``custom_scale`` derivatives); a spec stores the base preset's name
    plus whichever fields differ, so the JSON manifest re-materializes
    the exact scale.  Raises ``KeyError`` for a scale whose ``name`` is
    not a registered preset.
    """
    base = get_scale(scale.name)
    overrides = {
        f.name: getattr(scale, f.name)
        for f in dataclasses.fields(scale)
        if f.name != "name" and getattr(scale, f.name) != getattr(base,
                                                                  f.name)}
    return scale.name, overrides


def _dict_from(cls, data: dict, context: str):
    """Build a dataclass from a JSON dict, rejecting unknown keys."""
    known = {f.name for f in dataclasses.fields(cls)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ValueError(f"unknown {context} field(s): {', '.join(unknown)} "
                         f"(known: {', '.join(sorted(known))})")
    try:
        return cls(**data)
    except TypeError as error:   # a missing required field, e.g. name
        raise ValueError(f"bad {context}: {error}") from None


@dataclass(frozen=True)
class FinetuneSpec:
    """Strategy-2 transfer phase: a few pairs of one design, damped lr."""

    epochs: int = 1
    pairs: int = 2                 # pairs taken from the finetune design
    design: str | None = None      # defaults to the run's holdout design
    lr_scale: float = 0.2          # same damping fit_tune has always used

    def validate(self) -> None:
        if self.epochs < 1:
            raise ValueError(f"finetune epochs must be >= 1, "
                             f"got {self.epochs}")
        if self.pairs < 1:
            raise ValueError(f"finetune pairs must be >= 1, "
                             f"got {self.pairs}")
        if self.lr_scale <= 0:
            raise ValueError(f"finetune lr_scale must be positive, "
                             f"got {self.lr_scale}")


@dataclass(frozen=True)
class EvalSpec:
    """Eval-hook cadence: a metric pass every N epochs.

    The pass runs over the run's eval dataset — the held-out design when
    ``holdout_design`` is set (minus the strategy-2 pairs when
    fine-tuning), an explicit ``eval_dataset`` handed to the Runner, or,
    failing both, the training samples themselves (in-sample tracking;
    store-backed runs stream it one shard at a time).
    """

    every_epochs: int = 1
    batch_size: int = 16
    track: str = "nrms"            # best-checkpoint selection metric
    mode: str = "min"              # "min": lower tracked metric is better

    def validate(self) -> None:
        if self.every_epochs < 1:
            raise ValueError(f"eval every_epochs must be >= 1, "
                             f"got {self.every_epochs}")
        if self.batch_size < 1:
            raise ValueError(f"eval batch_size must be >= 1, "
                             f"got {self.batch_size}")
        if self.mode not in ("min", "max"):
            raise ValueError(f"eval mode must be 'min' or 'max', "
                             f"got {self.mode!r}")


@dataclass(frozen=True)
class TrainSpec:
    """One training run, fully described.

    ``data`` names the dataset: ``store:<dir>`` (sharded store),
    ``archive:<file>`` (legacy single-``.npz`` dataset), or ``inline``
    (datasets handed to the Runner in memory — flows use this; such specs
    round-trip but cannot be re-materialized from JSON alone).

    ``holdout_design`` excludes one design from the training set (the
    paper's strategy-1 leave-one-design-out split); the held-out samples
    become the eval-hook dataset and, when ``finetune`` is set, supply
    the strategy-2 pairs.
    """

    name: str
    data: str = "inline"
    scale: str = "default"
    seed: int = 0
    epochs: int | None = None          # None: the scale preset's epochs
    batch_size: int = 1
    order: str = "stream"
    augment: bool = False
    shard_size: int | None = None      # virtual shards for non-store data
    holdout_design: str | None = None
    model: dict = field(default_factory=dict)       # Pix2PixConfig overrides
    scale_overrides: dict = field(default_factory=dict)
    finetune: FinetuneSpec | None = None
    eval: EvalSpec | None = None
    checkpoint_every_steps: int = 0    # 0: checkpoint at epoch ends only
    checkpoint_every_epochs: int = 1
    keep_checkpoints: int = 3
    publish: bool = True               # export final model in serve format

    def __post_init__(self):
        if not self.name or "/" in self.name or self.name.startswith("."):
            raise ValueError(f"bad run name {self.name!r}: must be a "
                             f"non-empty plain directory name")
        if self.order not in ORDER_MODES:
            raise ValueError(f"order must be one of {ORDER_MODES}, "
                             f"got {self.order!r}")
        if self.order == "shuffle" and self.batch_size != 1:
            raise ValueError("order='shuffle' is the batch-size-1 legacy "
                             f"plan; got batch_size={self.batch_size}")
        if self.order == "shuffle" and self.augment:
            raise ValueError("order='shuffle' (the legacy plan) has no "
                             "augmentation path; use order='stream'")
        if self.order == "shuffle" and self.shard_size is not None:
            raise ValueError("shard_size only applies to order='stream'")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, "
                             f"got {self.batch_size}")
        if self.epochs is not None and self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.checkpoint_every_steps < 0:
            raise ValueError("checkpoint_every_steps must be >= 0")
        if self.checkpoint_every_epochs < 1:
            raise ValueError("checkpoint_every_epochs must be >= 1")
        if self.keep_checkpoints < 1:
            raise ValueError("keep_checkpoints must be >= 1")
        kind = self.data.partition(":")[0]
        if kind not in ("inline", "store", "archive"):
            raise ValueError(f"bad data ref {self.data!r}: expected "
                             f"'inline', 'store:<dir>', or "
                             f"'archive:<file>'")
        if self.finetune is not None:
            self.finetune.validate()
            if self.finetune.design is None and self.holdout_design is None:
                raise ValueError("finetune needs a design: set "
                                 "finetune.design or holdout_design")
        if self.eval is not None:
            self.eval.validate()
        try:
            get_scale(self.scale)
        except KeyError:
            raise ValueError(f"unknown scale preset {self.scale!r} "
                             f"(smoke/default/paper)") from None

    # -- resolution ----------------------------------------------------------

    def resolve_scale(self) -> ExperimentScale:
        scale = get_scale(self.scale)
        if self.scale_overrides:
            scale = custom_scale(scale, **self.scale_overrides)
        return scale

    @property
    def total_epochs(self) -> int:
        return (self.epochs if self.epochs is not None
                else self.resolve_scale().epochs)

    @property
    def data_kind(self) -> str:
        return self.data.partition(":")[0]

    @property
    def data_path(self) -> str | None:
        kind, _, path = self.data.partition(":")
        return path if kind in ("store", "archive") else None

    def finetune_design(self) -> str | None:
        if self.finetune is None:
            return None
        return (self.finetune.design if self.finetune.design is not None
                else self.holdout_design)

    # -- JSON round-trip -----------------------------------------------------

    def to_dict(self) -> dict:
        doc = dataclasses.asdict(self)
        doc["finetune"] = (dataclasses.asdict(self.finetune)
                           if self.finetune is not None else None)
        doc["eval"] = (dataclasses.asdict(self.eval)
                       if self.eval is not None else None)
        return doc

    @classmethod
    def from_dict(cls, data: dict) -> "TrainSpec":
        data = dict(data)
        # Specs and spool jobs written by older versions carry a
        # "threads" gemm-pool width.  Every width trained the same bits,
        # so the key is dropped rather than rejected as unknown.
        data.pop("threads", None)
        finetune = data.pop("finetune", None)
        evaluation = data.pop("eval", None)
        spec = _dict_from(cls, data, "train spec")
        if finetune is not None:
            finetune = _dict_from(FinetuneSpec, finetune, "finetune spec")
        if evaluation is not None:
            evaluation = _dict_from(EvalSpec, evaluation, "eval spec")
        return dataclasses.replace(spec, finetune=finetune,
                                   eval=evaluation)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "TrainSpec":
        return cls.from_dict(json.loads(text))

    @classmethod
    def load(cls, path: str | Path) -> "TrainSpec":
        return cls.from_json(Path(path).read_text())

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.to_json())
