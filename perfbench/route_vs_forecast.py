"""route_vs_forecast: each placement goes down both paths, one caller.

Forecast path: render -> ``BatchingEngine`` configured as ``repro serve``
configures it -> heat map.  Route path: ``PathFinderRouter`` ->
``render_routing`` -> ground-truth heat map.  Inputs are distinct
snapshots of seeded annealing runs of the benchmark design.
"""

from __future__ import annotations

import threading
import time

import numpy as np

import inputs
from common import (Outcome, Spans, Timeline, closed_loop_metrics, mean,
                    percentile, timed_setup)
from loop import (EngineProbe, ForwardProbe, closed_loop, finish_layers,
                  profile_forward)

#: Every CHECK_EVERY-th forecast is compared with a direct forecast.
CHECK_EVERY = 4


def start_engine(model):
    """An engine with the ``repro serve`` defaults (batch 8, 2 ms, cache 256)."""
    from repro.serve import BatchingEngine, ForecastCache, ModelRegistry

    registry = ModelRegistry()
    registry.register("bench", model)
    return BatchingEngine(registry, max_batch=8, max_wait_ms=2.0,
                          cache=ForecastCache(256)).start()


def run(ctx, calibrator, spans: Spans) -> Outcome:
    from repro.fpga import PathFinderRouter
    from repro.serve import input_digest
    from repro.viz import render_routing

    out = Outcome()
    calibrator.sample(20)
    first = inputs.Snapshots(inputs.design_context(),
                             ctx.seed + 7).next()

    def build():
        context = inputs.design_context()
        model = inputs.model(ctx.seed)
        engine = start_engine(model)
        # Setup ends at the first served forecast.
        engine.forecast("bench", inputs.render_input(context, first)[1])
        return context, model, engine

    setup_s, setup_raw, (context, model, engine) = timed_setup(
        calibrator, build, repeats=5, keep=lambda built: built[2].stop())
    out.e2e["setup_s"] = setup_s
    out.info["setup_raw_s"] = setup_raw
    reference = inputs.model(ctx.seed)
    snapshots = inputs.Snapshots(context, ctx.seed)
    routes: list = []
    sent = {input_digest(inputs.render_input(context, first)[1])}

    def step(timeline: Timeline) -> None:
        placement = snapshots.next()
        out.attempted += 1
        t0 = time.perf_counter()
        with spans.span("viz.render"):
            place_image, x = inputs.render_input(context, placement)
        with spans.span("serve.engine"):
            result = engine.forecast_result("bench", x)
        t1 = time.perf_counter()
        with spans.span("fpga.router.init"):
            router = PathFinderRouter(context.netlist, context.arch,
                                      placement)
        with spans.span("fpga.router.route"):
            routing = router.route()
        with spans.span("viz.render_routing"):
            route_image = render_routing(placement, routing, context.layout,
                                         place_image=place_image)
        t2 = time.perf_counter()
        digest = input_digest(x)
        if digest in sent:
            # Two placements rendered to the same input; the engine was
            # right to serve it from cache, but it is not a new placement.
            out.attempted -= 1
            return
        sent.add(digest)
        timeline.add(t0, t2, latencies=(t1 - t0,))
        timeline.mark("route", t1, t2)
        routes.append((routing.iterations, routing.converged))
        if result.cached:
            out.fail("forecast served from cache for a new placement")
        elif (out.attempted % CHECK_EVERY == 0
              and not np.array_equal(result.image, reference.forecast(x))):
            out.fail("engine forecast differs from direct forecast")
        if (routing.iterations < 1
                or routing.converged != (routing.overuse == 0)
                or route_image.shape != place_image.shape
                or not np.isfinite(route_image).all()):
            out.fail("routing result inconsistent")

    probes = {}

    def on_traced():
        from repro.obs.profile import Profiler

        probes["forward"] = ForwardProbe(model, spans)
        probes["profiler"] = Profiler().attach(model.generator, "G.")
        probes["engine"] = EngineProbe(engine)
        probes["routes_before"] = len(routes)

    try:
        plain, traced = closed_loop(ctx, calibrator, spans, step, on_traced)
    finally:
        engine.stop()
        for name in ("forward", "profiler"):
            if name in probes:
                probes[name].detach()

    if traced is None:
        closed_loop_metrics(plain, out)
        # The router's own number and the paper's ratio are printed, not
        # gated: a faster router would lower the ratio and read as a loss.
        route_p50 = percentile(plain.marks_ms("route"), 50)
        out.info["route_ms_p50"] = route_p50
        out.info["route_over_forecast_p50"] = (
            route_p50 / out.e2e["latency_ms_p50"])
        out.info["anneals"] = snapshots.anneals
        return out

    summary = spans.summary()
    main = threading.get_ident()
    forwards = summary.get("nn.forward", {"count": 0, "total_ms": 0.0})
    engine_calls = summary["serve.engine"]
    traced_routes = routes[probes["routes_before"]:]
    layers = out.layers
    layers.update(probes["engine"].finish())
    layers["viz.render_ms"] = spans.mean_ms("viz.render")
    layers["viz.render_routing_ms"] = spans.mean_ms("viz.render_routing")
    layers["fpga.router.init_ms"] = spans.mean_ms("fpga.router.init")
    layers["fpga.router.route_ms"] = spans.mean_ms("fpga.router.route")
    layers["fpga.router.iterations"] = mean(
        [iterations for iterations, _ in traced_routes])
    layers["fpga.router.converged_ratio"] = mean(
        [1.0 if converged else 0.0 for _, converged in traced_routes])
    layers["serve.engine.wait_ms"] = (
        (engine_calls["total_ms"] - forwards["total_ms"])
        / engine_calls["count"])
    layers["nn.forward_ms"] = spans.mean_ms("nn.forward")
    layers["nn.gemms_per_forward"] = profile_forward(probes["profiler"],
                                                     forwards["count"])
    layers["nn.workspace_peak_bytes"] = float(model.workspace.peak_nbytes)
    finish_layers(out, calibrator, plain, traced, spans.root_ms(main))
    return out
