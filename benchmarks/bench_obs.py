"""Observability overhead: the <3% no-perturbation budget, measured.

Runs one tiny training workload three ways — instrumentation fully off
(a disabled tracer), fully on (the default: span tracing into the run
directory's ``trace.jsonl``), and fully on *plus* fleet publishing (a
metrics registry counting steps and a background publisher snapshotting
it to disk every second) — once each per round, for ``ROUNDS`` rounds
that rotate which variant goes first, and gates the medians of the
per-round instrumented/uninstrumented and published/instrumented ratios
at 3%.  One run takes a fraction of a second, so a single host stall
moves one run's time by several percent: a best-of-N comparison of such
runs is decided by noise, while the median of paired ratios is not.
The artifact-level guarantee
(byte-identical checkpoints and logs) is pinned by
``tests/test_obs_integration.py``; this bench pins the *time* side of
the contract and micro-benches the hot paths that make it cheap: the
disabled no-op span, a histogram observation, an atomic snapshot
publish, and a 4-worker exact merge.
"""

import statistics
import time

import numpy as np
from conftest import write_result
from reporting import entry, write_bench_json

from repro.gan import Dataset, Sample
from repro.obs import (
    Histogram,
    MetricsRegistry,
    TELEMETRY_DIR,
    TelemetryPublisher,
    Tracer,
    aggregate_snapshots,
    write_snapshot,
)
from repro.train import EvalSpec, Runner, TrainSpec

#: Instrumented wall time may exceed uninstrumented by at most this.
MAX_OVERHEAD = 0.03
#: Rounds of one run per variant; the gate takes per-round ratios' medians.
ROUNDS = 20
VARIANTS = ("off", "on", "fleet")
EPOCHS = 4
SAMPLES = 8
SIZE = 16


def _dataset() -> Dataset:
    rng = np.random.default_rng(11)
    samples = [
        Sample(design="bench",
               x=rng.normal(size=(4, SIZE, SIZE)).astype(np.float32),
               y=np.tanh(rng.normal(size=(3, SIZE, SIZE))
                         ).astype(np.float32),
               true_congestion=0.5)
        for _ in range(SAMPLES)
    ]
    return Dataset(samples)


def _timed_run(root, name: str, dataset: Dataset, instrumented: bool,
               publish: bool = False) -> tuple[float, int]:
    spec = TrainSpec(name=name, data="inline", scale="smoke", seed=5,
                     epochs=EPOCHS, order="shuffle",
                     model={"base_filters": 4, "disc_filters": 4},
                     eval=EvalSpec(every_epochs=1))
    metrics = MetricsRegistry() if publish else None
    runner = Runner.create(spec, root, dataset=dataset,
                           tracer=None if instrumented else Tracer(None),
                           metrics=metrics)
    publisher = None
    if publish:
        publisher = TelemetryPublisher(
            metrics, root / TELEMETRY_DIR, role="sweep", worker=name,
            interval=1.0)
        publisher.start()
    start = time.perf_counter()
    result = runner.run()
    elapsed = time.perf_counter() - start
    if publisher is not None:
        publisher.stop()
    assert result.completed
    return elapsed, result.global_step


def _fleet_exports(workers: int = 4):
    """Realistically-sized worker exports: labels + a busy histogram."""
    docs = []
    for index in range(workers):
        registry = MetricsRegistry()
        requests = registry.counter("serve_requests_total")
        routes = registry.counter("http_requests_total",
                                  labelnames=("route",))
        latency = registry.histogram(
            "serve_request_latency_seconds",
            buckets=(0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0))
        for sample in range(500):
            requests.inc()
            routes.labels(route=f"/r{sample % 4}").inc()
            latency.observe(0.001 * (sample % 90))
        registry.gauge("serve_queue_depth", agg="sum").set(float(index))
        docs.append({"role": "sweep", "worker": f"w{index}",
                     "families": registry.export()})
    return docs


def _publish_ns(tmp_path, calls: int = 200) -> float:
    registry = MetricsRegistry()
    registry.counter("n").inc(3)
    registry.histogram("h", buckets=(1.0, 5.0)).observe(2.0)
    start = time.perf_counter_ns()
    for _ in range(calls):
        write_snapshot(registry, tmp_path, "serve", "bench")
    return (time.perf_counter_ns() - start) / calls


def _aggregate_ns(calls: int = 50) -> float:
    docs = _fleet_exports(4)
    start = time.perf_counter_ns()
    for _ in range(calls):
        aggregate_snapshots(docs)
    return (time.perf_counter_ns() - start) / calls


def _disabled_span_ns(calls: int = 200_000) -> float:
    tracer = Tracer(None)
    span = tracer.span  # the exact hot-path attribute lookup pattern
    start = time.perf_counter_ns()
    for _ in range(calls):
        with span("noop"):
            pass
    return (time.perf_counter_ns() - start) / calls


def _observe_ns(calls: int = 200_000) -> float:
    histogram = Histogram()
    observe = histogram.observe
    start = time.perf_counter_ns()
    for index in range(calls):
        observe(0.001 * (index % 7))
    return (time.perf_counter_ns() - start) / calls


def test_obs_overhead(tmp_path, scale):
    dataset = _dataset()
    walls = {tag: [] for tag in VARIANTS}
    steps = 0
    for round_ in range(ROUNDS):
        first = round_ % len(VARIANTS)
        for tag in VARIANTS[first:] + VARIANTS[:first]:
            elapsed, steps = _timed_run(
                tmp_path / f"{tag}-{round_}", f"bench-{tag}",
                dataset, instrumented=tag != "off",
                publish=tag == "fleet")
            walls[tag].append(elapsed)
    median_off, median_on, median_fleet = (
        statistics.median(walls[tag]) for tag in VARIANTS)
    overhead = statistics.median(
        on / off for on, off in zip(walls["on"], walls["off"])) - 1.0
    publish_overhead = statistics.median(
        fleet / on for fleet, on in zip(walls["fleet"], walls["on"])) - 1.0

    span_ns = _disabled_span_ns()
    observe_ns = _observe_ns()
    publish_ns = _publish_ns(tmp_path / "publish")
    aggregate_ns = _aggregate_ns()

    lines = [
        f"Observability overhead (scale={scale.name}, {SAMPLES} samples "
        f"x {EPOCHS} epochs = {steps} steps, medians of {ROUNDS} rounds; "
        f"overheads are medians of per-round ratios)",
        f"  uninstrumented run: {median_off:8.3f} s "
        f"({steps / median_off:6.1f} steps/s)",
        f"  instrumented run:   {median_on:8.3f} s  "
        f"(span tracing, overhead {overhead:+.2%})",
        f"  + fleet publishing: {median_fleet:8.3f} s  "
        f"(registry + snapshots, overhead {publish_overhead:+.2%})",
        f"  disabled span():    {span_ns:8.0f} ns/call (no-op singleton)",
        f"  histogram observe:  {observe_ns:8.0f} ns/call",
        f"  snapshot publish:   {publish_ns:8.0f} ns/call (atomic write)",
        f"  4-worker merge:     {aggregate_ns:8.0f} ns/call (exact)",
    ]
    write_result("obs", lines)

    entries = [
        entry("obs_train_uninstrumented", shape=[SAMPLES, 4, SIZE, SIZE],
              wall_time_s=median_off, throughput=steps / median_off),
        entry("obs_train_instrumented", shape=[SAMPLES, 4, SIZE, SIZE],
              wall_time_s=median_on, throughput=steps / median_on,
              overhead_fraction=round(overhead, 4)),
        entry("obs_train_fleet_published", shape=[SAMPLES, 4, SIZE, SIZE],
              wall_time_s=median_fleet, throughput=steps / median_fleet,
              overhead_fraction=round(publish_overhead, 4)),
        entry("obs_disabled_span", wall_time_s=span_ns / 1e9,
              throughput=1e9 / span_ns),
        entry("obs_histogram_observe", wall_time_s=observe_ns / 1e9,
              throughput=1e9 / observe_ns),
        entry("obs_snapshot_publish", wall_time_s=publish_ns / 1e9,
              throughput=1e9 / publish_ns),
        entry("obs_aggregate_4workers", wall_time_s=aggregate_ns / 1e9,
              throughput=1e9 / aggregate_ns),
    ]
    write_bench_json("obs", entries, scale.name)

    # The budget: full instrumentation must stay within MAX_OVERHEAD of
    # the uninstrumented wall time (median per-round ratio), and fleet
    # publishing within MAX_OVERHEAD of plain instrumentation.
    assert overhead < MAX_OVERHEAD, (
        f"observability overhead {overhead:.2%} exceeds "
        f"{MAX_OVERHEAD:.0%} budget (medians {median_on:.3f}s vs "
        f"{median_off:.3f}s)")
    assert publish_overhead < MAX_OVERHEAD, (
        f"fleet publish overhead {publish_overhead:.2%} exceeds "
        f"{MAX_OVERHEAD:.0%} budget (medians {median_fleet:.3f}s vs "
        f"{median_on:.3f}s)")
