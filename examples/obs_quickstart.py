#!/usr/bin/env python3
"""Observability quickstart: one instrumented run, four views of it.

1. Train a tiny model.  Its run directory records every step, epoch,
   eval and checkpoint as a span in ``trace.jsonl``, and (the whole
   point) the model artifacts are byte-identical to those of a run
   built with a disabled tracer.
2. Read the run back: the throughput line ``repro train status`` prints
   and the span table ``repro obs trace`` prints.
3. Export the span log as Chrome ``trace_event`` JSON for
   ``chrome://tracing`` / Perfetto.
4. Profile the model per layer (wall time + gemm counts), and render a
   serving engine's metrics registry as Prometheus text.

Run:  python examples/obs_quickstart.py [scale]  (scale: smoke|default|paper)
Artifacts land in examples/out/obs/.
"""

import shutil
import sys
from pathlib import Path

import numpy as np

from repro.config import get_scale
from repro.gan import Dataset, Sample
from repro.obs import (
    Profiler,
    format_span_summary,
    read_spans,
    summarize_spans,
    write_chrome_trace,
)
from repro.serve import BatchingEngine, ForecastCache, ModelRegistry
from repro.train import EvalSpec, Runner, TrainSpec
from repro.train.status import format_run_status, read_run_status

OUT_DIR = Path(__file__).parent / "out" / "obs"
SIZE = 16


def make_dataset(count: int = 8) -> Dataset:
    rng = np.random.default_rng(7)
    return Dataset([
        Sample(design="demo",
               x=rng.normal(size=(4, SIZE, SIZE)).astype(np.float32),
               y=np.tanh(rng.normal(size=(3, SIZE, SIZE))
                         ).astype(np.float32),
               true_congestion=0.5)
        for _ in range(count)
    ])


def main() -> None:
    scale = get_scale(sys.argv[1] if len(sys.argv) > 1 else None)
    if OUT_DIR.exists():
        shutil.rmtree(OUT_DIR)
    dataset = make_dataset()

    print("[1/4] training run (spans into the run directory)")
    spec = TrainSpec(name="demo", data="inline", scale=scale.name, seed=7,
                     epochs=max(2, scale.epochs // 2), order="shuffle",
                     model={"base_filters": 4, "disc_filters": 4},
                     eval=EvalSpec(every_epochs=1))
    runner = Runner.create(spec, OUT_DIR / "runs", dataset=dataset)
    result = runner.run()
    run_dir = OUT_DIR / "runs" / "demo"
    print(f"  finished at step {result.global_step}; "
          f"trace in {run_dir}")

    print("[2/4] reading it back (what `repro train status` and "
          "`repro obs trace` print)")
    timing = [line for line in
              format_run_status(read_run_status(run_dir)).splitlines()
              if "timing" in line]
    print("\n".join(timing))
    spans = read_spans(run_dir / "trace.jsonl")
    print(format_span_summary(summarize_spans(spans)))

    print("[3/4] exporting for chrome://tracing")
    chrome_path = OUT_DIR / "trace_chrome.json"
    count = write_chrome_trace(spans, chrome_path)
    print(f"  wrote {count} traceEvents to {chrome_path}")

    print("[4/4] per-layer profile + Prometheus metrics")
    x = np.stack([sample.x for sample in dataset.samples[:2]])
    with Profiler().attach(runner.model.generator, prefix="gen.") as prof:
        runner.model.generator.forward(x)
        print(prof.format_table(top=5))
        totals = prof.snapshot()["totals"]
    print(f"  generator forward: {totals['gemms']} gemms "
          f"in {totals['ms']:.1f} ms")

    registry = ModelRegistry()
    registry.register("demo", runner.model)
    engine = BatchingEngine(registry, max_batch=4,
                            cache=ForecastCache(16))
    with engine:
        engine.forecast("demo", dataset.samples[0].x)
        engine.forecast("demo", dataset.samples[0].x)  # cache hit
        text = engine.metrics.render_prometheus()
    prometheus_path = OUT_DIR / "metrics.prom"
    prometheus_path.write_text(text)
    shown = [line for line in text.splitlines()
             if line.startswith(("# TYPE", "serve_requests_total ",
                                 "serve_cache_hits_total "))]
    print("\n".join(f"  {line}" for line in shown))
    print(f"full exposition in {prometheus_path}")


if __name__ == "__main__":
    main()
