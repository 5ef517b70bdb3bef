"""Closed-loop runner and the layer probes shared by the workloads."""

from __future__ import annotations

import io
import json
import time

from common import LAYER_METRICS, Timeline, mean


#: Seconds of untimed operations before measuring (caches, lazy set-up).
WARMUP_S = 1.0


def closed_loop(ctx, calibrator, spans, step, on_traced):
    """Warm up, then call ``step(timeline)`` until the run's time is up.

    One calibration sample follows every step, outside its timed interval.
    Untraced runs measure for the whole ``ctx.seconds``.  Traced runs
    measure half untraced and then, after ``on_traced()`` and with spans
    on, half traced; the two timelines give ``trace_overhead_ratio``.
    Returns ``(untraced timeline, traced timeline or None)``.
    """
    def loop(seconds: float, timeline: Timeline) -> Timeline:
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            step(timeline)
            calibrator.sample()
        return timeline

    loop(WARMUP_S, Timeline(calibrator))
    if not ctx.trace:
        return loop(ctx.seconds, Timeline(calibrator)), None
    plain = loop(ctx.seconds / 2, Timeline(calibrator))
    on_traced()
    spans.enabled = True
    try:
        traced = loop(ctx.seconds / 2, Timeline(calibrator))
    finally:
        spans.enabled = False
    return plain, traced


class ForwardProbe:
    """Times every ``model.forecast`` call on one model instance.

    The shim lives in the instance ``__dict__`` (the engine looks the
    model up once and calls ``model.forecast``), so detaching restores
    the class method.  Spans land on whichever thread ran the forward.
    """

    def __init__(self, model, spans):
        self.model = model
        original = model.forecast

        def forecast(x, *args, **kwargs):
            start = time.perf_counter_ns()
            try:
                return original(x, *args, **kwargs)
            finally:
                spans.add("nn.forward", start, time.perf_counter_ns())

        model.forecast = forecast

    def detach(self) -> None:
        vars(self.model).pop("forecast", None)


class EngineProbe:
    """Engine-side numbers for one traced phase of an in-process engine.

    Counters come from ``BatchingEngine.stats()`` deltas; queue waits from
    the engine's own ``serve.queue_wait`` spans, collected by swapping an
    in-memory :class:`repro.obs.trace.Tracer` onto ``engine.tracer``.
    """

    def __init__(self, engine):
        from repro.obs.trace import Tracer

        self.engine = engine
        self.before = engine.stats()
        self.sink = io.StringIO()
        self._old_tracer = engine.tracer
        engine.tracer = Tracer(self.sink, flush_every=1 << 30)

    def finish(self) -> dict:
        engine = self.engine
        engine.tracer = self._old_tracer
        after = engine.stats()
        before = self.before
        batches = after["batches"] - before["batches"]
        hits = after["cache_hits"] - before["cache_hits"]
        misses = after["cache_misses"] - before["cache_misses"]
        waits = [record["dur_us"] / 1e3
                 for record in map(json.loads,
                                   self.sink.getvalue().splitlines())
                 if record["name"] == "serve.queue_wait"]
        return {
            "serve.engine.batch_occupancy": (
                (after["batched_requests"] - before["batched_requests"])
                / batches if batches else 0.0),
            "serve.engine.queue_wait_ms": mean(waits),
            "serve.cache.hit_ratio": (hits / (hits + misses)
                                      if hits + misses else 0.0),
        }


def profile_forward(profiler, forwards: int) -> float:
    """Gemms per forward from a profiler attached to a generator."""
    return profiler.snapshot()["totals"]["gemms"] / forwards if forwards else 0.0


def guard_layers(outcome, calibrator, unattributed_share: float,
                 trace_overhead_ratio: float) -> None:
    """The validity guards every traced workload reports, then zeros for
    the layers this workload never calls."""
    layers = outcome.layers
    layers["unattributed_share"] = unattributed_share
    layers["trace_overhead_ratio"] = trace_overhead_ratio
    layers["host.calibration_ms"] = calibrator.mean_ms
    layers["host.calibration_cv"] = calibrator.cv
    for name in LAYER_METRICS:
        layers.setdefault(name, 0.0)


def finish_layers(outcome, calibrator, plain: Timeline,
                  traced: Timeline, attributed_ms: float) -> None:
    """:func:`guard_layers` for a closed loop: ``attributed_ms`` is the
    time its top-level layer spans cover during the traced phase."""
    traced_ms = 1e3 * traced.busy_seconds(normalized=False)
    guard_layers(outcome, calibrator, 1.0 - attributed_ms / traced_ms,
                 traced.mean_op_ms() / plain.mean_op_ms())
