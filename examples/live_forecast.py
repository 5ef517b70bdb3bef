#!/usr/bin/env python3
"""Real-time congestion forecasting during simulated annealing (Section 5.4).

Trains a forecaster on one design, then re-places the design from scratch
while forecasting the routing heat map at every few annealing temperatures —
the frames of the paper's GIF demo.  Prints how the predicted congestion
falls as the annealer improves the placement.

Run:  python examples/live_forecast.py [scale]
Frames land in examples/out/realtime/.
"""

import sys
from pathlib import Path

from repro.config import get_scale
from repro.flows import build_design_bundle, live_forecast
from repro.fpga import PlacerOptions
from repro.fpga.generators import scaled_suite
from repro.gan import Pix2Pix, Pix2PixConfig, Pix2PixTrainer

OUT_DIR = Path(__file__).parent / "out" / "realtime"


def main() -> None:
    scale = get_scale(sys.argv[1] if len(sys.argv) > 1 else None)
    spec = next(s for s in scaled_suite(scale) if s.name == "OR1200")
    print(f"building training data for {spec.name}")
    bundle = build_design_bundle(spec, scale, seed=5)

    model = Pix2Pix(Pix2PixConfig.from_scale(
        scale, image_size=bundle.layout.image_size))
    trainer = Pix2PixTrainer(model)
    print(f"training on {len(bundle.dataset)} pairs ({scale.epochs} epochs)")
    trainer.fit(bundle.dataset, scale.epochs)

    print("annealing a fresh placement with live forecasts...")
    frames = live_forecast(
        bundle, model,
        options=PlacerOptions(seed=99, alpha_t=0.9),
        snapshot_every=2,
        out_dir=OUT_DIR,
        gif_path=OUT_DIR / "live_forecast.gif",
    )
    print(f"\n{'frame':>5} {'temperature':>12} {'pred congestion':>16} "
          f"{'forecast ms':>12}")
    for index, frame in enumerate(frames):
        print(f"{index:>5} {frame.temperature:>12.4f} "
              f"{frame.predicted_congestion:>16.4f} "
              f"{frame.forecast_seconds * 1e3:>12.1f}")
    start, end = frames[0], frames[-1]
    print(f"\npredicted congestion {start.predicted_congestion:.4f} -> "
          f"{end.predicted_congestion:.4f} as placement converged")
    print(f"{len(frames)} frame pairs + live_forecast.gif written to "
          f"{OUT_DIR}")


if __name__ == "__main__":
    main()
