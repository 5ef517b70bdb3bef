"""Streaming evaluation driver: shards in, deterministic reports out.

The runner streams a :class:`~repro.data.store.ShardedStore` one shard at
a time (the PR-2 memory discipline), forecasts each batch with any
checkpoint or baseline, and folds per-sample metric values in manifest
order — so the same store and model always produce the same report,
byte for byte, serial or parallel.

* **Forecasters** — anything with ``forecast_images(x) -> (N, H, W, 3)``
  in [0, 1]: :class:`CheckpointForecaster` adapts a
  :class:`~repro.gan.pix2pix.Pix2Pix` checkpoint (resolved through the
  serve registry's loader, so eval and serving agree on checkpoint
  identity), and the :data:`BASELINES` from :mod:`repro.gan.baselines`
  give the non-learned reference points.
* **Splits** — ``all``, ``design:<name>`` (one design's samples), and
  ``holdout:<name>`` (the leave-one-design-out cross-generalization
  split: evaluate on one design, keyed off the manifest's design
  provenance, with the remaining designs recorded as the training side).
* **Parallelism** — ``workers > 1`` fans whole shards over a process
  pool; each worker reopens the store and reloads the checkpoint, and
  results are folded in shard order, so an N-worker run is byte-identical
  to a serial one.
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.data.loader import shard_eval_arrays
from repro.obs.trace import get_tracer
from repro.data.store import ShardedStore
from repro.eval.metrics import (
    DEFAULT_ROC_THRESHOLD,
    DEFAULT_THRESHOLDS,
    Metric,
    aggregate,
    compute_per_sample,
    metric_suite,
)
from repro.eval.report import build_report, dataset_fingerprint
from repro.gan.baselines import MeanTargetBaseline, PlacementCopyBaseline
from repro.gan.dataset import from_unit_range

DEFAULT_BATCH_SIZE = 16


# -- split policies --------------------------------------------------------


@dataclass(frozen=True)
class SplitSpec:
    """Which samples to evaluate, keyed off manifest design provenance."""

    policy: str = "all"          # "all" | "design" | "holdout"
    design: str | None = None

    def evaluated_designs(self, all_designs: list[str]) -> list[str] | None:
        """Designs whose samples are evaluated; ``None`` means every one."""
        if self.policy == "all":
            return None
        if self.design not in all_designs:
            known = ", ".join(sorted(all_designs)) or "<none>"
            raise ValueError(f"design {self.design!r} not in store "
                             f"(designs: {known})")
        if self.policy == "holdout" and len(all_designs) < 2:
            raise ValueError(
                "holdout split needs at least two designs in the store "
                "(one held out, the rest as the training side)")
        return [self.design]

    def train_designs(self, all_designs: list[str]) -> list[str] | None:
        """The training-side designs a holdout split implies."""
        if self.policy != "holdout":
            return None
        return sorted(d for d in all_designs if d != self.design)

    def describe(self, all_designs: list[str]) -> dict:
        evaluated = self.evaluated_designs(all_designs)
        description = {
            "policy": self.policy,
            "design": self.design,
            "designs": sorted(evaluated if evaluated is not None
                              else all_designs),
        }
        train = self.train_designs(all_designs)
        if train is not None:
            description["train_designs"] = train
        return description


def parse_split(spec: str) -> SplitSpec:
    """Parse ``all``, ``design:<name>``, or ``holdout:<name>``."""
    if spec == "all":
        return SplitSpec()
    for policy in ("design", "holdout"):
        prefix = f"{policy}:"
        if spec.startswith(prefix) and len(spec) > len(prefix):
            return SplitSpec(policy=policy, design=spec[len(prefix):])
    raise ValueError(f"bad split {spec!r}: expected 'all', "
                     f"'design:<name>', or 'holdout:<name>'")


# -- forecasters -----------------------------------------------------------


class CheckpointForecaster:
    """A :class:`Pix2Pix` checkpoint behind the eval forecaster protocol."""

    def __init__(self, model, identity: dict):
        self.model = model
        self.identity = dict(identity)

    @classmethod
    def from_checkpoint(cls, path) -> "CheckpointForecaster":
        """Load one checkpoint file (same loader the serve registry uses)."""
        from repro.serve.registry import load_checkpoint

        model, info = load_checkpoint(path)
        return cls(model, _checkpoint_identity(info))

    @classmethod
    def from_registry(cls, registry, model_id: str) -> "CheckpointForecaster":
        """Wrap a model already warm-loaded in a serve ModelRegistry."""
        return cls(registry.get(model_id),
                   _checkpoint_identity(registry.info(model_id)))

    def forecast_images(self, x: np.ndarray) -> np.ndarray:
        """Deterministic (noise-free) forecasts as (N, H, W, 3) in [0, 1].

        Runs the generator's fused ``forward_eval`` path (no gradient
        caches, workspace-arena scratch), bitwise the per-sample
        ``Pix2Pix.forecast`` and within ``atol=1e-6`` of the tests' float64
        reference forward.
        """
        return self.model.forecast(x, sample_noise=False)

    def warm(self, batch_size: int) -> "CheckpointForecaster":
        """Preallocate the model's workspace at the eval batch width.

        One dummy forward grows the arena to its steady-state footprint so
        no shard pays the first-call allocation cost (used by the parallel
        runner's worker initializer).
        """
        cfg = self.model.config
        self.forecast_images(np.zeros(
            (batch_size, cfg.input_channels, cfg.image_size,
             cfg.image_size), dtype=np.float32))
        return self


def _checkpoint_identity(info) -> dict:
    return {
        "kind": "checkpoint",
        "id": info.model_id,
        "path": info.path,
        "checksum": info.checksum,
        "image_size": info.image_size,
        "num_parameters": info.num_parameters,
    }


#: Non-learned reference forecasters, by CLI name.  Each factory takes
#: ``(store, train_designs)`` — the designs a fair baseline may learn
#: from (``None`` = all; the holdout split passes the training side).
BASELINES: dict[str, Callable] = {
    "placement-copy": lambda store, train_designs: PlacementCopyBaseline(),
    "mean-target": lambda store, train_designs: MeanTargetBaseline.fit(
        store.iter_samples(), designs=train_designs),
}


def make_baseline(name: str, store: ShardedStore,
                  split: SplitSpec) -> tuple[object, dict]:
    """Instantiate a named baseline plus its report identity."""
    try:
        factory = BASELINES[name]
    except KeyError:
        known = ", ".join(sorted(BASELINES))
        raise ValueError(f"unknown baseline {name!r}; "
                         f"choose from: {known}") from None
    train_designs = split.train_designs(store.designs)
    baseline = factory(store, train_designs)
    identity = {"kind": "baseline", "id": f"baseline:{name}"}
    if train_designs is not None:
        identity["fit_designs"] = train_designs
    return baseline, identity


# -- the evaluation loop ---------------------------------------------------


@dataclass
class EvalResult:
    """Per-sample metric values in manifest order, plus provenance."""

    per_sample: dict[str, np.ndarray] = field(default_factory=dict)
    designs: list[str] = field(default_factory=list)
    #: Wall seconds per evaluated shard, in shard order.  Observational
    #: only — deliberately excluded from :func:`evaluation_report`, whose
    #: bytes must not depend on machine speed.
    shard_seconds: list[float] = field(default_factory=list)

    @property
    def num_samples(self) -> int:
        return len(self.designs)

    def metrics(self) -> dict[str, float]:
        return aggregate(self.per_sample)

    def per_design(self) -> dict[str, dict[str, float]]:
        designs = np.asarray(self.designs)
        breakdown = {}
        for design in sorted(set(self.designs)):
            mask = designs == design
            breakdown[design] = {
                name: float(np.mean(values[mask]))
                for name, values in self.per_sample.items()}
        return breakdown


def _eval_shard(store: ShardedStore, shard_index: int, forecaster,
                metrics: dict[str, Metric], designs: list[str] | None,
                batch_size: int) -> tuple[list[str], dict[str, np.ndarray]]:
    """Evaluate one shard: the unit both serial and parallel paths share."""
    shard_designs: list[str] = []
    parts: dict[str, list[np.ndarray]] = {name: [] for name in metrics}
    for x, y, batch_designs in shard_eval_arrays(
            store, shard_index, batch_size=batch_size, designs=designs):
        pred = np.moveaxis(forecaster.forecast_images(x), -1, 1)
        target = from_unit_range(y)
        for name, values in compute_per_sample(pred, target,
                                               metrics).items():
            parts[name].append(values)
        shard_designs.extend(batch_designs)
    folded = {name: (np.concatenate(chunks) if chunks
                     else np.zeros(0, dtype=np.float64))
              for name, chunks in parts.items()}
    return shard_designs, folded


# Per-process evaluation context, built once by the pool initializer.
_EVAL_WORKER: dict = {}


def _init_eval_worker(store_root: str, checkpoint: str,
                      thresholds: tuple, roc_threshold: float,
                      designs: list[str] | None, batch_size: int) -> None:
    _EVAL_WORKER["store"] = ShardedStore.open(store_root)
    _EVAL_WORKER["forecaster"] = CheckpointForecaster.from_checkpoint(
        checkpoint).warm(batch_size)
    _EVAL_WORKER["metrics"] = metric_suite(thresholds=thresholds,
                                           roc_threshold=roc_threshold)
    _EVAL_WORKER["designs"] = designs
    _EVAL_WORKER["batch_size"] = batch_size


def _eval_shard_task(shard_index: int):
    assert _EVAL_WORKER, "pool initializer did not run"
    started = time.perf_counter()
    part = _eval_shard(
        _EVAL_WORKER["store"], shard_index, _EVAL_WORKER["forecaster"],
        _EVAL_WORKER["metrics"], _EVAL_WORKER["designs"],
        _EVAL_WORKER["batch_size"])
    return shard_index, part, time.perf_counter() - started


def _pool_context() -> multiprocessing.context.BaseContext:
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn")


def evaluate_store(store: ShardedStore, forecaster, *,
                   split: SplitSpec | None = None,
                   thresholds: tuple = DEFAULT_THRESHOLDS,
                   roc_threshold: float = DEFAULT_ROC_THRESHOLD,
                   batch_size: int = DEFAULT_BATCH_SIZE,
                   workers: int = 1) -> EvalResult:
    """Evaluate a forecaster over a store, one shard resident at a time.

    Shards are processed in manifest order and per-sample metric values
    folded in that same order, so the result is identical for any worker
    count.  ``workers > 1`` requires the forecaster to come from an
    on-disk checkpoint (each worker process reloads it); baselines and
    in-memory models evaluate serially.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    split = split if split is not None else SplitSpec()
    designs = split.evaluated_designs(store.designs)
    metrics = metric_suite(thresholds=thresholds,
                           roc_threshold=roc_threshold)

    if workers > 1:
        checkpoint = (forecaster.identity or {}).get("path") \
            if isinstance(forecaster, CheckpointForecaster) else None
        if not checkpoint:
            raise ValueError(
                "workers > 1 requires an on-disk checkpoint forecaster "
                "(each worker process reloads it); evaluate baselines "
                "and in-memory models with workers=1")
        with _pool_context().Pool(
                processes=workers, initializer=_init_eval_worker,
                initargs=(str(store.root), checkpoint, tuple(thresholds),
                          roc_threshold, designs, batch_size)) as pool:
            shard_parts = {}
            for index, part, seconds in pool.imap_unordered(
                    _eval_shard_task, range(store.num_shards)):
                shard_parts[index] = (part, seconds)
        ordered = [shard_parts[i][0] for i in range(store.num_shards)]
        shard_seconds = [shard_parts[i][1]
                         for i in range(store.num_shards)]
    else:
        tracer = get_tracer()
        ordered = []
        shard_seconds = []
        for index in range(store.num_shards):
            started = time.perf_counter()
            with tracer.span("eval.shard", shard=index):
                ordered.append(_eval_shard(store, index, forecaster,
                                           metrics, designs, batch_size))
            shard_seconds.append(time.perf_counter() - started)

    result = EvalResult()
    result.shard_seconds = shard_seconds
    for shard_designs, _ in ordered:
        result.designs.extend(shard_designs)
    result.per_sample = {
        name: np.concatenate([folded[name] for _, folded in ordered])
        if ordered else np.zeros(0, dtype=np.float64)
        for name in metrics}
    if result.num_samples == 0:
        raise ValueError("split selected no samples to evaluate")
    return result


def evaluation_report(store: ShardedStore, result: EvalResult,
                      identity: dict, split: SplitSpec | None = None, *,
                      thresholds: tuple = DEFAULT_THRESHOLDS,
                      roc_threshold: float = DEFAULT_ROC_THRESHOLD,
                      batch_size: int = DEFAULT_BATCH_SIZE) -> dict:
    """Assemble the deterministic report document for one evaluation."""
    split = split if split is not None else SplitSpec()
    split_info = split.describe(store.designs)
    split_info["num_samples"] = result.num_samples
    return build_report(
        dataset={
            "root": store.root.name,
            "fingerprint": dataset_fingerprint(store),
            "num_samples": store.num_samples,
            "designs": dict(store.manifest["designs"]),
            "image_size": store.image_size,
        },
        split=split_info,
        model=identity,
        params={
            "batch_size": batch_size,
            "thresholds": list(thresholds),
            "roc_threshold": roc_threshold,
        },
        metrics=result.metrics(),
        per_design=result.per_design(),
    )
