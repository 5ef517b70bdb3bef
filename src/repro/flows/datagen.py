"""Dataset generation: the paper's Section 5 "Datasets" pipeline.

"The placement results are generated by sweeping the VPR placement options,
including seed, ALPHA_T, INNER_NUM and place_algorithm.  The ground truth
images are collected with these placement options with default VPR settings."

For each design: synthesize the netlist, fit an architecture, sweep placer
options to produce diverse placements, size the routing channels once per
design (VPR-style), route every placement for ground truth, and render the
(img_place + img_connect, img_route) training pairs.

:func:`make_design_context` builds a design's substrate and
:func:`repro.data.parallel.iter_design_samples` sweeps it; a bundle keeps
the samples in memory, a store (:func:`repro.data.build_design_store`)
writes them to shards.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from repro.config import ExperimentScale
from repro.fpga import (
    PathFinderRouter,
    Placement,
    PlacerOptions,
    SimulatedAnnealingPlacer,
    generate_design,
    paper_architecture,
)
from repro.fpga.arch import FpgaArchitecture
from repro.fpga.generators import DesignSpec, minimum_architecture_size, scaled_suite
from repro.fpga.netlist import Netlist
from repro.fpga.router import estimate_channel_width
from repro.gan.dataset import Dataset, Sample, make_input_stack, target_from_image
from repro.viz import (
    FloorplanLayout,
    minimum_image_size,
    render_connectivity,
    render_floorplan,
    render_placement,
    render_routing,
)

#: Option values swept to diversify placements (mirrors the paper's sweep).
#: The fast-quench corner (INNER_NUM 0.02, ALPHA_T 0.3) matters: it yields
#: visibly congested placements, giving the dataset the quality spread the
#: paper's 200-placement sweeps have on full-size designs.
ALPHA_T_CHOICES: tuple[float | None, ...] = (None, 0.3, 0.5, 0.8, 0.95)
INNER_NUM_CHOICES: tuple[float, ...] = (0.02, 0.1, 0.3, 1.0)
ALGORITHM_CHOICES: tuple[str, ...] = (
    "bounding_box", "congestion_driven", "criticality")

#: Bump when the sweep or generator definition changes so disk caches
#: invalidate (v3: process-stable netlist name hashing).
_SWEEP_VERSION = 3


def sweep_placer_options(count: int, base_seed: int = 0
                         ) -> list[PlacerOptions]:
    """Deterministic sweep over (seed, ALPHA_T, INNER_NUM, place_algorithm).

    The cartesian product of the option choices is shuffled with a fixed
    seed (so *any prefix* mixes all three option dimensions), then cycled,
    bumping the seed on every item so placements are distinct even when
    other options repeat.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    product = list(itertools.product(
        ALPHA_T_CHOICES, INNER_NUM_CHOICES, ALGORITHM_CHOICES))
    order = np.random.default_rng(0xC0FFEE).permutation(len(product))
    combos = itertools.cycle([product[i] for i in order])
    options = []
    for index, (alpha_t, inner_num, algorithm) in zip(range(count), combos):
        options.append(PlacerOptions(
            seed=base_seed + index,
            alpha_t=alpha_t,
            inner_num=inner_num,
            place_algorithm=algorithm,
        ))
    return options


@dataclass
class DesignContext:
    """Per-design substrate shared by every placement task.

    Everything :func:`route_and_render` needs, so the per-placement work is
    a pure function of ``(context, options)`` — the unit of work
    :func:`repro.data.parallel.iter_design_samples` runs for bundles and
    stores alike.  Only :func:`make_design_context` builds one.
    """

    design: str
    netlist: Netlist
    probe_arch: FpgaArchitecture   # placement arch (pre channel sizing)
    arch: FpgaArchitecture         # routing arch with sized channels
    layout: FloorplanLayout
    floor_image: np.ndarray
    connect_weight: float
    channel_width: int

    def place(self, option: PlacerOptions) -> Placement:
        """Anneal ``option`` on the probe arch; sites on the routing arch."""
        result = SimulatedAnnealingPlacer(
            self.netlist, self.probe_arch, option).place()
        return Placement(self.netlist, self.arch,
                         list(result.placement.site_of))


def prepare_design(spec: DesignSpec, scale: ExperimentScale, seed: int = 0,
                   image_size: int | None = None
                   ) -> tuple[Netlist, FpgaArchitecture, int, int]:
    """Synthesize one design and fit its pre-sizing (probe) architecture.

    Returns ``(netlist, probe_arch, grid_width, image_size)``; the image
    size is resolved to at least the architecture's minimum when not given.
    """
    netlist = generate_design(spec, cluster_size=scale.cluster_size,
                              seed=seed)
    width = minimum_architecture_size(netlist)
    probe_arch = paper_architecture(width, channel_width=scale.channel_width)
    if image_size is None:
        image_size = max(scale.image_size, minimum_image_size(probe_arch))
    return netlist, probe_arch, width, image_size


def size_channels(netlist: Netlist, probe_arch: FpgaArchitecture,
                  option: PlacerOptions) -> int:
    """VPR-style channel sizing from the first sweep placement."""
    result = SimulatedAnnealingPlacer(netlist, probe_arch, option).place()
    return estimate_channel_width(netlist, probe_arch, result.placement)


def make_design_context(
    spec: DesignSpec,
    scale: ExperimentScale,
    seed: int = 0,
    image_size: int | None = None,
    connect_weight: float | None = None,
    channel_width: int | None = None,
) -> DesignContext:
    """Build the full per-design context (sizing channels if not given)."""
    connect_weight = (connect_weight if connect_weight is not None
                      else scale.connect_weight)
    netlist, probe_arch, width, image_size = prepare_design(
        spec, scale, seed=seed, image_size=image_size)
    if channel_width is None:
        channel_width = size_channels(
            netlist, probe_arch, sweep_placer_options(1, base_seed=seed)[0])
    arch = paper_architecture(width, channel_width=channel_width)
    layout = FloorplanLayout(arch, image_size)
    return DesignContext(
        design=spec.name, netlist=netlist, probe_arch=probe_arch, arch=arch,
        layout=layout, floor_image=render_floorplan(arch, layout),
        connect_weight=connect_weight, channel_width=channel_width)


def route_and_render(context: DesignContext, option: PlacerOptions
                     ) -> tuple[Sample, Placement]:
    """One dataset pair: place with ``option``, route it, render the images.

    Deterministic given ``(context, option)`` up to the recorded wall-clock
    timings — which is what makes the N-worker build in
    :mod:`repro.data.parallel` content-equivalent to the serial one.
    """
    start = time.perf_counter()
    placement = context.place(option)
    place_seconds = time.perf_counter() - start
    routing = PathFinderRouter(context.netlist, context.arch,
                               placement).route()
    place_image = render_placement(placement, context.layout,
                                   base=context.floor_image)
    route_image = render_routing(placement, routing, context.layout,
                                 place_image=place_image)
    connect_image = render_connectivity(context.netlist, placement,
                                        context.layout)
    sample = Sample(
        design=context.design,
        x=make_input_stack(place_image, connect_image,
                           context.connect_weight),
        y=target_from_image(route_image),
        true_congestion=routing.mean_utilization,
        placer_options=_options_to_dict(option),
        route_seconds=routing.route_seconds,
        place_seconds=place_seconds,
        converged=routing.converged,
    )
    return sample, placement


@dataclass
class DesignBundle(DesignContext):
    """One design's :class:`DesignContext` plus its swept samples."""

    spec: DesignSpec
    dataset: Dataset

    def placement(self, index: int) -> Placement:
        """Sample ``index``'s placement, re-annealed from its
        ``placer_options`` exactly as :func:`route_and_render` placed it."""
        return self.place(PlacerOptions(**self.dataset[index].placer_options))

    @cached_property
    def placements(self) -> list[Placement]:
        """Every sample's :meth:`placement`, annealed on first read."""
        return [self.placement(index) for index in range(len(self.dataset))]

    @property
    def channel_mask(self) -> np.ndarray:
        return self.layout.channel_pixel_mask()


def _options_to_dict(options: PlacerOptions) -> dict:
    return {
        "seed": options.seed,
        "alpha_t": options.alpha_t,
        "inner_num": options.inner_num,
        "place_algorithm": options.place_algorithm,
    }


def build_design_bundle(
    spec: DesignSpec,
    scale: ExperimentScale,
    num_placements: int | None = None,
    seed: int = 0,
    image_size: int | None = None,
    connect_weight: float | None = None,
    cache_dir: str | Path | None = None,
) -> DesignBundle:
    """Generate (or load from cache) the full dataset for one design.

    The context comes from :func:`make_design_context` and the samples
    from :func:`repro.data.parallel.iter_design_samples` run inline — the
    same two steps a store build takes, so both emit identical samples.
    The disk cache is a :class:`repro.data.ShardedStore` directory per
    build configuration; a hit still sizes the channels (one anneal) but
    routes and renders nothing.
    """
    from repro.data.parallel import iter_design_samples
    from repro.data.store import ShardedStore

    num_placements = (num_placements if num_placements is not None
                      else scale.placements_per_design)
    context = make_design_context(spec, scale, seed=seed,
                                  image_size=image_size,
                                  connect_weight=connect_weight)
    store_dir = None
    if cache_dir is not None:
        stem = (f"{scale.name}_{spec.name}_n{num_placements}_s{seed}"
                f"_w{context.layout.image_size}_cw{context.connect_weight}"
                f"_v{_SWEEP_VERSION}")
        store_dir = Path(cache_dir) / stem

    if store_dir is not None and ShardedStore.is_store(store_dir):
        dataset = ShardedStore.open(store_dir).to_dataset()
    else:
        options = sweep_placer_options(num_placements, base_seed=seed)
        dataset = Dataset(list(iter_design_samples(context, options)))
        if store_dir is not None:
            ShardedStore.from_dataset(
                store_dir, dataset,
                metadata={"channel_width": context.channel_width,
                          "grid_width": context.arch.width},
                provenance=[{
                    "design": spec.name, "scale": scale.name, "seed": seed,
                    "num_placements": num_placements,
                    "image_size": context.layout.image_size,
                    "connect_weight": context.connect_weight,
                    "sweep_version": _SWEEP_VERSION,
                }])
    return DesignBundle(**vars(context), spec=spec, dataset=dataset)


def suite_image_size(scale: ExperimentScale, specs, seed: int = 0) -> int:
    """Shared rendering resolution for a set of designs.

    The largest per-design minimum, floored at ``scale.image_size``, so
    leave-one-design-out training can mix every design's samples.
    """
    return max([scale.image_size,
                *(prepare_design(spec, scale, seed=seed)[3]
                  for spec in specs)])


def build_suite_bundles(
    scale: ExperimentScale,
    num_placements: int | None = None,
    seed: int = 0,
    designs: list[str] | None = None,
    cache_dir: str | Path | None = None,
    log=None,
) -> dict[str, DesignBundle]:
    """Build bundles for the (scaled) Table 2 suite at one shared resolution.

    All designs are rendered at the same image size (the largest per-design
    minimum, floored at ``scale.image_size``) so that leave-one-design-out
    training can mix them.
    """
    specs = scaled_suite(scale)
    if designs is not None:
        specs = tuple(spec for spec in specs if spec.name in designs)
        if not specs:
            raise ValueError(f"no suite designs match {designs}")

    image_size = suite_image_size(scale, specs, seed=seed)

    bundles = {}
    for spec in specs:
        if log is not None:
            log(f"building dataset for {spec.name} "
                f"({spec.num_luts} LUTs, {spec.num_nets} nets)")
        bundles[spec.name] = build_design_bundle(
            spec, scale, num_placements=num_placements, seed=seed,
            image_size=image_size, cache_dir=cache_dir)
    return bundles
