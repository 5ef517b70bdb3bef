"""train: closed-loop ``Pix2Pix.train_step`` at batch 1, as ``repro train``.

Batches come from a ``StreamingLoader`` over a ``ShardedStore`` that
``build_design_store`` builds in setup (placing, routing and rendering
every sample), so the workload covers ``nn`` backward, the optimizer and
``repro.data``.
"""

from __future__ import annotations

import math
import shutil
import threading
import time

import inputs
from common import Outcome, Spans, Timeline, closed_loop_metrics, timed_setup
from loop import closed_loop, finish_layers

PLACEMENTS = 4
SHARD_SIZE = 2
TOP_LAYERS = ("D.net.layers.0", "D.net.layers.8", "D.net.layers.11",
              "G.enc_blocks.0.layers.0", "G.dec_blocks.5.layers.1")


def run(ctx, calibrator, spans: Spans) -> Outcome:
    from repro.data import StreamingLoader
    from repro.data.parallel import build_design_store

    out = Outcome()
    calibrator.sample(20)
    builds = iter(range(5))

    def build():
        store_dir = ctx.work_dir / f"store-{next(builds)}"
        store = build_design_store(inputs.design_spec(), inputs.scale(),
                                   store_dir, num_placements=PLACEMENTS,
                                   shard_size=SHARD_SIZE, seed=0)
        loader = StreamingLoader(store, batch_size=1, seed=ctx.seed,
                                 shuffle=True, augment=True)
        return loader, inputs.model(ctx.seed)

    setup_s, setup_raw, (loader, model) = timed_setup(
        calibrator, build, repeats=5,
        keep=lambda built: shutil.rmtree(built[0].store.root))
    out.e2e["setup_s"] = setup_s
    out.info["setup_raw_s"] = setup_raw
    per_epoch = len(loader)
    state = {"epoch": 0, "yielded": 0}

    def batches():
        while True:
            state["yielded"] = 0
            for batch in loader.epoch(state["epoch"]):
                state["yielded"] += 1
                yield batch
            if state["yielded"] != per_epoch:
                out.fail(f"epoch yielded {state['yielded']} batches, "
                         f"planned {per_epoch}")
            state["epoch"] += 1

    stream = batches()

    def step(timeline: Timeline) -> None:
        out.attempted += 1
        t0 = time.perf_counter()
        with spans.span("data.loader.batch"):
            x, y = next(stream)
        with spans.span("nn.train_step"):
            losses = model.train_step(x, y)
        t1 = time.perf_counter()
        timeline.add(t0, t1)
        if not all(math.isfinite(value) for value in (
                losses.d_real, losses.d_fake, losses.g_gan, losses.g_l1)):
            out.fail("non-finite training loss")

    probes = {}

    def on_traced():
        from repro.obs.profile import Profiler

        profiler = Profiler()
        profiler.attach(model.generator, "G.")
        profiler.attach(model.discriminator, "D.")
        probes["profiler"] = profiler
        probes["shards"] = (loader.shard_loads, loader.shard_load_seconds)

    try:
        plain, traced = closed_loop(ctx, calibrator, spans, step, on_traced)
    finally:
        if "profiler" in probes:
            probes["profiler"].detach()

    # The plan: every step consumed exactly one planned batch.
    consumed = state["epoch"] * per_epoch + state["yielded"]
    if consumed != out.attempted:
        out.fail(f"{out.attempted} steps consumed {consumed} batches")
    if traced is None:
        closed_loop_metrics(plain, out)
        out.info["epochs"] = state["epoch"]
        return out

    steps = len(traced)
    snapshot = probes["profiler"].snapshot(model.workspace)
    layers = out.layers
    layers["nn.train_step_ms"] = spans.mean_ms("nn.train_step")
    layers["nn.gemms_per_step"] = snapshot["totals"]["gemms"] / steps
    layers["nn.workspace_peak_bytes"] = float(
        snapshot["workspace"]["peak_nbytes"])
    for leaf in TOP_LAYERS:
        for pass_ in ("forward", "backward"):
            stat = snapshot["layers"].get(leaf, {}).get(pass_)
            layers[f"nn.layer.{leaf}.{pass_}_ms"] = (
                stat["ms"] / steps if stat else 0.0)
    layers["data.loader.batch_ms"] = spans.mean_ms("data.loader.batch")
    loads = loader.shard_loads - probes["shards"][0]
    layers["data.store.shard_load_ms"] = (
        1e3 * (loader.shard_load_seconds - probes["shards"][1]) / loads
        if loads else 0.0)
    finish_layers(out, calibrator, plain, traced,
                  spans.root_ms(threading.get_ident()))
    return out
