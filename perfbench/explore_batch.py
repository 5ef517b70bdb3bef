"""explore_batch: closed rounds of 16 candidates submitted at once.

Models placement exploration: every round submits 16 distinct candidate
inputs to an engine configured as ``repro serve`` configures it and waits
for all of them.  Candidates are annealing snapshots rendered in setup,
each sent with a small seeded perturbation so no input ever repeats (the
cache is bypassed).
"""

from __future__ import annotations

import threading
import time

import numpy as np

import inputs
from common import Outcome, Spans, Timeline, closed_loop_metrics, timed_setup
from loop import (EngineProbe, ForwardProbe, closed_loop, finish_layers,
                  profile_forward)
from route_vs_forecast import start_engine

ROUND = 16
POOL = 48          # rendered placements candidates are drawn from


def run(ctx, calibrator, spans: Spans) -> Outcome:
    out = Outcome()
    calibrator.sample(20)
    context = inputs.design_context()
    snapshots = inputs.Snapshots(context, ctx.seed)
    pool = np.stack([inputs.render_input(context, snapshots.next())[1]
                     for _ in range(POOL)])
    rng = np.random.default_rng(ctx.seed)

    def candidates() -> np.ndarray:
        picks = pool[rng.integers(0, POOL, size=ROUND)]
        noise = rng.standard_normal(picks.shape, dtype=np.float32)
        return np.clip(picks + 1e-3 * noise, -1.0, 1.0)

    first = candidates()

    def build():
        model = inputs.model(ctx.seed)
        engine = start_engine(model)
        # Setup ends when the first round's results are all back.
        for future in [engine.submit("bench", x) for x in first]:
            future.result()
        return model, engine

    setup_s, setup_raw, (model, engine) = timed_setup(
        calibrator, build, repeats=9, keep=lambda built: built[1].stop())
    out.e2e["setup_s"] = setup_s
    out.info["setup_raw_s"] = setup_raw
    reference = inputs.model(ctx.seed)
    rounds = [0]

    def step(timeline: Timeline) -> None:
        batch = candidates()
        out.attempted += ROUND
        t0 = time.perf_counter()
        with spans.span("serve.engine.submit"):
            futures = [engine.submit("bench", x) for x in batch]
        with spans.span("serve.engine.wait"):
            results = [future.result() for future in futures]
        t1 = time.perf_counter()
        # Latency is the round's: an explorer compares candidates once all
        # are back.  (Per candidate it is bimodal, first batch of 8 vs
        # second, so its median would sit in the gap between the modes.)
        timeline.add(t0, t1, items=ROUND)
        check = rounds[0] % ROUND
        rounds[0] += 1
        for result in results:
            if result.cached:
                out.fail("candidate served from cache")
        if not np.array_equal(results[check].image,
                              reference.forecast(batch[check])):
            out.fail("batched forecast differs from direct forecast")

    probes = {}

    def on_traced():
        from repro.obs.profile import Profiler

        probes["forward"] = ForwardProbe(model, spans)
        probes["profiler"] = Profiler().attach(model.generator, "G.")
        probes["engine"] = EngineProbe(engine)

    try:
        plain, traced = closed_loop(ctx, calibrator, spans, step, on_traced)
    finally:
        engine.stop()
        for name in ("forward", "profiler"):
            if name in probes:
                probes[name].detach()

    if traced is None:
        closed_loop_metrics(plain, out)
        return out

    summary = spans.summary()
    forwards = summary.get("nn.forward", {"count": 0, "total_ms": 0.0})
    engine_ms = (summary["serve.engine.submit"]["total_ms"]
                 + summary["serve.engine.wait"]["total_ms"])
    layers = out.layers
    layers.update(probes["engine"].finish())
    # Per engine call, which here is one round of 16.
    layers["serve.engine.wait_ms"] = (
        (engine_ms - forwards["total_ms"]) / len(traced))
    layers["nn.forward_ms"] = spans.mean_ms("nn.forward")
    layers["nn.gemms_per_forward"] = profile_forward(probes["profiler"],
                                                     forwards["count"])
    layers["nn.workspace_peak_bytes"] = float(model.workspace.peak_nbytes)
    finish_layers(out, calibrator, plain, traced,
                  spans.root_ms(threading.get_ident()))
    return out
