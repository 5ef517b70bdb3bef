"""The Section-5 sweep loop, inline or over worker processes.

:func:`iter_design_samples` turns a design's
:class:`~repro.flows.datagen.DesignContext` and swept placer options into
samples, one :func:`~repro.flows.datagen.route_and_render` per placement;
bundles keep them in memory, :func:`build_design_store` writes them to
shards.  Each task is seeded by its own ``PlacerOptions.seed``, every
worker holds the same context (inherited on fork, pickled once on spawn),
and results arrive in task order (``imap``), so an N-worker build emits
the samples of a serial one (up to the wall-clock timings, which the
store's content hashes exclude).
"""

from __future__ import annotations

import multiprocessing
import time
from pathlib import Path
from typing import Callable, Iterator

from repro.config import ExperimentScale
from repro.flows.datagen import (
    _SWEEP_VERSION,
    DesignContext,
    make_design_context,
    route_and_render,
    sweep_placer_options,
)
from repro.fpga import PlacerOptions
from repro.fpga.generators import DesignSpec
from repro.gan.dataset import Sample

from repro.data.store import DEFAULT_SHARD_SIZE, ShardedStore

# Per-process context, installed once by the pool initializer so every
# task in a worker reuses the same netlist/arch/layout/floor image.
_WORKER_CONTEXT: DesignContext | None = None


def _init_worker(context: DesignContext) -> None:
    global _WORKER_CONTEXT
    _WORKER_CONTEXT = context


def _run_option(option: PlacerOptions) -> Sample:
    assert _WORKER_CONTEXT is not None, "pool initializer did not run"
    sample, _ = route_and_render(_WORKER_CONTEXT, option)
    return sample


def _pool_context() -> multiprocessing.context.BaseContext:
    # fork shares the imported interpreter (cheap start); fall back to
    # spawn where fork is unavailable (e.g. macOS default, Windows).
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn")


def iter_design_samples(context: DesignContext,
                        options: list[PlacerOptions], workers: int = 0,
                        chunksize: int = 1) -> Iterator[Sample]:
    """Yield one sample per placer option, in ``options`` order.

    ``workers <= 1`` runs inline (no pool, no pickling); otherwise a pool
    of ``workers`` processes runs :func:`route_and_render` per placement
    and results stream back in task order.
    """
    if workers <= 1:
        for option in options:
            sample, _ = route_and_render(context, option)
            yield sample
        return
    with _pool_context().Pool(processes=workers, initializer=_init_worker,
                              initargs=(context,)) as pool:
        yield from pool.imap(_run_option, options, chunksize=chunksize)


def build_design_store(
    spec: DesignSpec,
    scale: ExperimentScale,
    out_dir: str | Path,
    num_placements: int | None = None,
    seed: int = 0,
    workers: int = 0,
    shard_size: int = DEFAULT_SHARD_SIZE,
    image_size: int | None = None,
    connect_weight: float | None = None,
    store: ShardedStore | None = None,
    log: Callable[[str], None] | None = None,
) -> ShardedStore:
    """Generate one design's sweep into a sharded store.

    Pass an existing ``store`` to append a design into a multi-design
    corpus (the CLI does this when given several designs); otherwise a new
    store is created at ``out_dir``.  The build's parameters land in the
    manifest's provenance, and the content hashes of an N-worker build
    match a serial build of the same parameters exactly.
    """
    num_placements = (num_placements if num_placements is not None
                      else scale.placements_per_design)
    context = make_design_context(spec, scale, seed=seed,
                                  image_size=image_size,
                                  connect_weight=connect_weight)
    options = sweep_placer_options(num_placements, base_seed=seed)
    if store is None:
        store = ShardedStore.create(out_dir, shard_size=shard_size)
    start = time.perf_counter()
    for done, sample in enumerate(
            iter_design_samples(context, options, workers=workers), 1):
        store.append(sample)
        if log is not None:
            log(f"{spec.name}: {done}/{num_placements} placements")
    store.flush()
    store.metadata.setdefault("channel_width", context.channel_width)
    store.add_provenance({
        "design": spec.name,
        "scale": scale.name,
        "seed": seed,
        "num_placements": num_placements,
        "image_size": context.layout.image_size,
        "channel_width": context.channel_width,
        "connect_weight": context.connect_weight,
        "sweep_version": _SWEEP_VERSION,
        "workers": workers,
        "build_seconds": round(time.perf_counter() - start, 3),
    })
    return store
