"""E10 — Section 5.4: real-time forecasting while the design is placed.

Benchmarks the per-frame forecast latency when hooked into the annealer and
checks the demo's qualitative behaviour: predicted congestion falls as the
annealer improves the placement.
"""

import numpy as np
from conftest import write_result
from reporting import entry, write_bench_json

from repro.flows import live_forecast
from repro.fpga import PlacerOptions


def test_realtime_forecast(benchmark, scale, ode_bundle, ode_trainer):
    holder = {}

    def run():
        holder["frames"] = live_forecast(
            ode_bundle, ode_trainer.model,
            options=PlacerOptions(seed=77, alpha_t=0.9),
            snapshot_every=2)
        return holder["frames"]

    benchmark.pedantic(run, rounds=1, iterations=1)
    frames = holder["frames"]

    latencies = [frame.forecast_seconds for frame in frames]
    early = float(np.mean([f.predicted_congestion for f in frames[:3]]))
    late = float(np.mean([f.predicted_congestion for f in frames[-3:]]))
    lines = [
        f"Section 5.4 real-time forecast (design ode, scale={scale.name})",
        f"  frames: {len(frames)}  "
        f"mean forecast latency: {np.mean(latencies) * 1e3:.1f} ms  "
        f"({1.0 / max(np.mean(latencies), 1e-9):.0f} fps)",
        f"  predicted congestion early(first 3): {early:.4f}  "
        f"late(last 3): {late:.4f}",
        f"  annealer cooled over {len(frames)} snapshots: "
        f"{frames[0].temperature:.3f} -> {frames[-1].temperature:.5f}",
    ]
    write_result("realtime", lines)
    mean_latency = float(np.mean(latencies))
    write_bench_json("realtime", [
        entry("live_forecast_frame", wall_time_s=mean_latency,
              throughput=1.0 / max(mean_latency, 1e-9),
              frames=len(frames)),
    ], scale.name)

    assert len(frames) >= 5
    # Forecast must keep up with the annealer (sub-second per frame).
    assert max(latencies) < 1.0
    # The demo's point: congestion forecasts improve as placement converges.
    assert late <= early + 0.02
