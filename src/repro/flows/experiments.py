"""Experiment orchestration for the paper's quantitative results.

* :func:`run_table2` — Table 2: Acc.1 (leave-one-design-out), Acc.2
  (plus transfer fine-tuning), Top10 ranking accuracy, per design.
* :func:`run_ablation` — Sections 5.3 / Figures 7-8: L1 and skip-connection
  ablations with loss histories and inference images.
* :func:`run_grayscale_ablation` — Section 5.2: color scheme vs grayscale.
* :func:`measure_speedup` — Section 5.1: routing runtime vs inference.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.config import ExperimentScale
from repro.flows.datagen import DesignBundle, build_suite_bundles
from repro.fpga import PathFinderRouter
from repro.gan.dataset import Dataset, Sample
from repro.gan.metrics import (
    image_congestion_score,
    per_pixel_accuracy,
    speedup,
    top_k_overlap,
)
from repro.gan.pix2pix import Pix2Pix, Pix2PixConfig
from repro.gan.trainer import Pix2PixTrainer, TrainHistory
from repro.viz.colors import rgb_to_grayscale


@dataclass
class Table2Row:
    """One row of Table 2.

    ``rank_rho`` extends the paper's table with the Spearman correlation
    between forecast and routed congestion over the test set — the
    continuous counterpart of the Top10 column, far less noisy at reduced
    placement counts.
    """

    design: str
    num_luts: int
    num_ffs: int
    num_nets: int
    num_placements: int
    acc1: float
    acc2: float
    top10: float
    rank_rho: float = float("nan")

    def format(self) -> str:
        return (f"{self.design:<10} {self.num_luts:>7} {self.num_ffs:>6} "
                f"{self.num_nets:>7} {self.num_placements:>4} "
                f"{self.acc1:>7.1%} {self.acc2:>7.1%} {self.top10:>6.0%} "
                f"{self.rank_rho:>6.2f}")

    @staticmethod
    def header() -> str:
        return (f"{'Design':<10} {'#LUTs':>7} {'#FF':>6} {'#Nets':>7} "
                f"{'#P':>4} {'Acc.1':>7} {'Acc.2':>7} {'Top10':>6} "
                f"{'rho':>6}")


def _combined_dataset(bundles: dict[str, DesignBundle]) -> Dataset:
    combined = Dataset()
    for bundle in bundles.values():
        combined.extend(bundle.dataset)
    return combined


def run_table2(
    scale: ExperimentScale,
    bundles: dict[str, DesignBundle] | None = None,
    designs: list[str] | None = None,
    seed: int = 0,
    cache_dir=None,
    log=None,
    run_root=None,
) -> list[Table2Row]:
    """Reproduce Table 2 at the given scale.

    For every design D: train on all other designs (strategy 1, Acc.1),
    fine-tune on ``scale.finetune_pairs`` pairs of D (strategy 2, Acc.2),
    then rank the remaining placements of D by forecast congestion and
    report the Top-k overlap with ground truth (Top10 column; k scales
    down with the dataset).

    Both strategies execute through the :mod:`repro.train` run layer —
    one :class:`~repro.train.runner.Runner` per design with a scratch
    phase and a fine-tune phase, sample order and trajectories
    bitwise-identical to the historical in-place loops.  Pass
    ``run_root`` to persist each design's run directory (loss JSONL,
    exact-resume checkpoints, published strategy-2 checkpoints);
    ``None`` keeps the runs in memory.
    """
    from repro.train import FinetuneSpec, Runner, TrainSpec, describe_scale

    if bundles is None:
        bundles = build_suite_bundles(scale, designs=designs, seed=seed,
                                      cache_dir=cache_dir, log=log)
    combined = _combined_dataset(bundles)
    scale_name, scale_overrides = describe_scale(scale)

    rows = []
    for design, bundle in bundles.items():
        if log is not None:
            log(f"table2: leave-one-out training for {design}")
        train, test = combined.leave_one_out(design)
        finetune = test[:scale.finetune_pairs]
        holdout = test[scale.finetune_pairs:]
        if len(holdout) == 0:
            holdout = test

        spec = TrainSpec(
            name=f"table2-{design}",
            data="inline",
            scale=scale_name,
            scale_overrides=scale_overrides,
            seed=seed,
            epochs=scale.epochs,
            order="shuffle",
            finetune=FinetuneSpec(epochs=scale.finetune_epochs,
                                  pairs=len(finetune), design=design),
            publish=run_root is not None,
        )
        runner = Runner(
            spec,
            run_dir=(Path(run_root) / spec.name
                     if run_root is not None else None),
            dataset=train, finetune_dataset=finetune, log=log)
        trainer = Pix2PixTrainer(runner.model, seed=seed)
        acc1_of = {}

        def measure_acc1(phase_name: str, model,
                         trainer=trainer, test=test, box=acc1_of) -> None:
            if phase_name == "train":
                box["acc1"] = trainer.mean_accuracy(test)

        runner.run(on_phase=measure_acc1)
        acc1 = acc1_of["acc1"]
        acc2 = trainer.mean_accuracy(holdout)

        # Top10: rank the *whole* testing set of the design by forecast
        # congestion (the paper ranks within the full per-design test set,
        # using the strategy-2 model).
        mask = bundle.channel_mask
        predicted = np.array([
            image_congestion_score(trainer.forecast(sample), mask)
            for sample in test])
        truth = np.array([sample.true_congestion for sample in test])
        k = max(1, min(scale.top_k, len(test) // 2))
        top10 = top_k_overlap(predicted, truth, k=k)
        if len(test) >= 3:
            from scipy.stats import spearmanr

            rank_rho = float(spearmanr(predicted, truth).statistic)
        else:
            rank_rho = float("nan")

        spec = bundle.spec
        rows.append(Table2Row(
            design=design,
            num_luts=spec.num_luts,
            num_ffs=spec.num_ffs,
            num_nets=spec.num_nets,
            num_placements=len(bundle.dataset),
            acc1=acc1,
            acc2=acc2,
            top10=top10,
            rank_rho=rank_rho,
        ))
        if log is not None:
            log(f"  {design}: Acc.1={acc1:.1%} Acc.2={acc2:.1%} "
                f"Top{k}={top10:.0%} rho={rank_rho:.2f}")
    return rows


# ---------------------------------------------------------------------------
# Section 5.3 — L1 / skip-connection ablation (Figures 7 and 8)
# ---------------------------------------------------------------------------

#: The three configurations compared in Figures 7 and 8.
ABLATION_VARIANTS: dict[str, dict] = {
    "L1+skip": {"l1_weight": None, "skip_mode": "all"},
    "w/o L1": {"l1_weight": 0.0, "skip_mode": "all"},
    "single skip": {"l1_weight": None, "skip_mode": "single"},
}


@dataclass
class AblationResult:
    """Loss curves and a held-out forecast for one model variant."""

    name: str
    history: TrainHistory
    forecast01: np.ndarray        # (H, W, 3) generated heat map in [0, 1]
    truth01: np.ndarray           # ground truth heat map in [0, 1]
    accuracy: float
    loss_noise: float = field(default=0.0)

    @staticmethod
    def loss_roughness(values: list[float]) -> float:
        """Mean |second difference|: the 'training noise' of Figure 8."""
        if len(values) < 3:
            return 0.0
        arr = np.asarray(values)
        return float(np.abs(np.diff(arr, n=2)).mean())


def run_ablation(
    scale: ExperimentScale,
    bundle: DesignBundle,
    variants: dict[str, dict] | None = None,
    epochs: int | None = None,
    seed: int = 0,
) -> dict[str, AblationResult]:
    """Train the Figure 7/8 model variants on one design's dataset.

    The last placement is held out as the Figure 7 inference example; the
    rest train each variant from the same initialization seed.
    """
    variants = variants if variants is not None else ABLATION_VARIANTS
    epochs = epochs if epochs is not None else max(2, scale.epochs)
    if len(bundle.dataset) < 2:
        raise ValueError("ablation needs at least 2 samples")
    train = bundle.dataset[:-1]
    held_out = bundle.dataset[len(bundle.dataset) - 1]

    results = {}
    for name, overrides in variants.items():
        l1_weight = overrides.get("l1_weight")
        config = Pix2PixConfig.from_scale(
            scale,
            image_size=bundle.layout.image_size,
            skip_mode=overrides.get("skip_mode", "all"),
            seed=seed,
            **({} if l1_weight is None else {"l1_weight": l1_weight}),
        )
        model = Pix2Pix(config)
        trainer = Pix2PixTrainer(model, seed=seed)
        history = trainer.fit(train, epochs)
        forecast = trainer.forecast(held_out)
        truth = held_out.y_image
        results[name] = AblationResult(
            name=name,
            history=history,
            forecast01=forecast,
            truth01=truth,
            accuracy=per_pixel_accuracy(forecast, truth),
            loss_noise=AblationResult.loss_roughness(history.g_total),
        )
    return results


# ---------------------------------------------------------------------------
# Section 5.2 — color scheme vs grayscale
# ---------------------------------------------------------------------------

def _grayscale_dataset(dataset: Dataset) -> Dataset:
    """Replace the RGB placement channels with their grayscale version."""
    converted = Dataset()
    for sample in dataset:
        place01 = sample.place_image
        gray01 = rgb_to_grayscale(place01)
        x = sample.x.copy()
        x[:3] = (2.0 * gray01 - 1.0).transpose(2, 0, 1)
        converted.append(Sample(
            design=sample.design, x=x, y=sample.y,
            true_congestion=sample.true_congestion,
            placer_options=sample.placer_options,
            route_seconds=sample.route_seconds,
            place_seconds=sample.place_seconds,
            converged=sample.converged,
        ))
    return converted


@dataclass
class GrayscaleComparison:
    """Color vs grayscale: accuracy and runtime (Section 5.2)."""

    color_accuracy: float
    gray_accuracy: float
    color_train_seconds: float
    gray_train_seconds: float
    color_infer_seconds: float
    gray_infer_seconds: float

    @property
    def accuracy_drop(self) -> float:
        return self.color_accuracy - self.gray_accuracy


def run_grayscale_ablation(
    scale: ExperimentScale,
    bundle: DesignBundle,
    epochs: int | None = None,
    holdout: int = 2,
    seed: int = 0,
) -> GrayscaleComparison:
    """Train identical models on RGB and grayscale inputs and compare."""
    epochs = epochs if epochs is not None else max(2, scale.epochs)
    if len(bundle.dataset) <= holdout:
        raise ValueError("not enough samples for the requested holdout")
    results = {}
    for variant in ("color", "gray"):
        dataset = (bundle.dataset if variant == "color"
                   else _grayscale_dataset(bundle.dataset))
        train = dataset[:-holdout]
        test = dataset[len(dataset) - holdout:]
        model = Pix2Pix(Pix2PixConfig.from_scale(
            scale, image_size=bundle.layout.image_size, seed=seed))
        trainer = Pix2PixTrainer(model, seed=seed)
        start = time.perf_counter()
        trainer.fit(train, epochs)
        train_seconds = time.perf_counter() - start
        trainer.forecast(test[0])  # warm caches before timing inference
        start = time.perf_counter()
        accuracy = trainer.mean_accuracy(test)
        infer_seconds = (time.perf_counter() - start) / len(test)
        results[variant] = (accuracy, train_seconds, infer_seconds)
    return GrayscaleComparison(
        color_accuracy=results["color"][0],
        gray_accuracy=results["gray"][0],
        color_train_seconds=results["color"][1],
        gray_train_seconds=results["gray"][1],
        color_infer_seconds=results["color"][2],
        gray_infer_seconds=results["gray"][2],
    )


# ---------------------------------------------------------------------------
# Section 5.1 — speedup
# ---------------------------------------------------------------------------

@dataclass
class SpeedupReport:
    """Routing runtime vs forecast runtime."""

    mean_route_seconds: float
    mean_infer_seconds: float

    @property
    def speedup(self) -> float:
        return speedup(self.mean_route_seconds, self.mean_infer_seconds)


#: Placements :func:`measure_speedup` routes: enough for a mean, and few
#: enough that the call stays cheap at the paper's 200 per design.
SPEEDUP_ROUTES = 4


def measure_speedup(bundle: DesignBundle, trainer: Pix2PixTrainer,
                    repeats: int = 3) -> SpeedupReport:
    """Routing runtime vs generator inference, both timed by this call.

    The first :data:`SPEEDUP_ROUTES` samples' placements
    (:meth:`DesignBundle.placement`) are routed again with the current
    :class:`~repro.fpga.PathFinderRouter`, and the routes' own timings
    (``RoutingResult.route_seconds``, which leave out the architecture's
    one-off channel-graph build) are averaged.  The ``route_seconds``
    stored with each sample are not read: they time the router of
    whichever commit built the dataset, and a cached one may be older.
    """
    route_seconds = float(np.mean([
        PathFinderRouter(bundle.netlist, bundle.arch, bundle.placement(index))
        .route().route_seconds
        for index in range(min(SPEEDUP_ROUTES, len(bundle.dataset)))]))
    sample = bundle.dataset[0]
    start = time.perf_counter()
    for _ in range(repeats):
        trainer.forecast(sample)
    infer_seconds = (time.perf_counter() - start) / repeats
    return SpeedupReport(mean_route_seconds=route_seconds,
                         mean_infer_seconds=infer_seconds)
