"""Real-time congestion forecasting during placement (Section 5.4).

"The proposed approach is applied to visualize the routing utilization
on-the-fly during placement ... the classic simulated annealing based
placement algorithm implemented in VPR."

:func:`live_forecast` hooks the annealer's snapshot callback: at every K-th
temperature it renders the in-flight placement, forecasts the heat map with
the trained generator, and records (optionally writes) the frame — the GIF
frames of the paper's demo page.

Forecasts run either directly on a :class:`~repro.gan.Pix2Pix` model or
through a running :class:`repro.serve.BatchingEngine` (pass ``engine=``),
which is how a placer shares one warm forecaster — and its cache — with
other clients.  Both paths are deterministic and produce identical frames.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.fpga import PlacerOptions, SimulatedAnnealingPlacer
from repro.flows.datagen import DesignBundle
from repro.gan.dataset import input_from_images
from repro.gan.metrics import image_congestion_score
from repro.gan.pix2pix import Pix2Pix
from repro.viz import render_connectivity, render_placement, write_png


@dataclass
class RealtimeFrame:
    """One forecast taken mid-anneal."""

    temperature_index: int
    temperature: float
    place_image: np.ndarray       # (H, W, 3) in [0, 1]
    forecast: np.ndarray          # (H, W, 3) in [0, 1]
    predicted_congestion: float
    forecast_seconds: float


def live_forecast(
    bundle: DesignBundle,
    model: Pix2Pix | None = None,
    options: PlacerOptions | None = None,
    snapshot_every: int = 2,
    out_dir: str | Path | None = None,
    gif_path: str | Path | None = None,
    engine=None,
    engine_model_id: str | None = None,
) -> list[RealtimeFrame]:
    """Anneal the bundle's netlist while forecasting congestion per snapshot.

    Each frame is rendered on the bundle's floor image with the bundle's
    ``connect_weight``, the weight its training samples carry.

    Returns the frame sequence; when ``out_dir`` is given, each frame's
    placement and forecast images are written as PNG pairs; when
    ``gif_path`` is given, the forecast frames are additionally written as
    an animated GIF (the artifact of the paper's demo page).

    When ``engine`` (a started :class:`repro.serve.BatchingEngine`) is
    given, forecasts go through its batching/cache path instead of calling
    the model directly: either name a registered model with
    ``engine_model_id``, or pass ``model`` and it is registered in the
    engine's registry on first use (under ``"realtime"``, or a suffixed id
    when that is taken by a different model).
    """
    if engine is None and model is None:
        raise ValueError("pass a model, an engine, or both")
    options = options if options is not None else PlacerOptions(seed=17)
    layout = bundle.layout
    mask = bundle.channel_mask
    frames: list[RealtimeFrame] = []

    model_id = engine_model_id
    if engine is not None and model_id is None:
        if model is None:
            raise ValueError(
                "pass model= or engine_model_id= with an engine")
        # Serve THIS model instance — never a same-named earlier one.
        model_id = engine.registry.id_of(model)
        if model_id is None:
            model_id, suffix = "realtime", 1
            while model_id in engine.registry:
                suffix += 1
                model_id = f"realtime-{suffix}"
            engine.registry.register(model_id, model)

    def snapshot(index: int, temperature: float, placement) -> None:
        place_image = render_placement(placement, layout,
                                       base=bundle.floor_image)
        connect_image = render_connectivity(bundle.netlist, placement, layout)
        x = input_from_images(place_image, connect_image,
                              bundle.connect_weight)
        start = time.perf_counter()
        if engine is not None:
            forecast01 = engine.forecast(model_id, x[0])
        else:
            forecast01 = model.forecast(x[0])
        forecast_seconds = time.perf_counter() - start
        frames.append(RealtimeFrame(
            temperature_index=index,
            temperature=temperature,
            place_image=place_image,
            forecast=forecast01,
            predicted_congestion=image_congestion_score(forecast01, mask),
            forecast_seconds=forecast_seconds,
        ))

    placer = SimulatedAnnealingPlacer(bundle.netlist, bundle.arch, options)
    placer.place(snapshot_callback=snapshot, snapshot_every=snapshot_every)

    if out_dir is not None:
        out_dir = Path(out_dir)
        for number, frame in enumerate(frames):
            write_png(out_dir / f"frame_{number:03d}_place.png",
                      frame.place_image)
            write_png(out_dir / f"frame_{number:03d}_forecast.png",
                      frame.forecast)
    if gif_path is not None and frames:
        from repro.viz.gif import write_gif

        side_by_side = [
            np.concatenate([frame.place_image, frame.forecast], axis=1)
            for frame in frames
        ]
        write_gif(gif_path, side_by_side)
    return frames
