"""Seeded inputs: the design, annealing snapshots and rendered placements.

The program sees only what these helpers generate from the workload
seed; the same seed gives the same placements, inputs and model weights.
"""

from __future__ import annotations

import numpy as np

from common import DESIGN, SCALE


def scale():
    from repro.config import get_scale

    return get_scale(SCALE)


def design_spec():
    from repro.fpga.generators import scaled_suite

    return next(spec for spec in scaled_suite(scale()) if spec.name == DESIGN)


def design_context():
    """Netlist, sized routing architecture, layout and floor image.

    The design itself is fixed (design seed 0); the workload seed varies
    the placements, perturbations and model weights sent through it."""
    from repro.flows.datagen import make_design_context

    return make_design_context(design_spec(), scale(), seed=0)


def model(seed: int):
    """An untrained ``Pix2Pix`` at the benchmark scale (timing does not
    depend on the weights; the seed fixes them)."""
    from repro.gan import Pix2Pix, Pix2PixConfig

    return Pix2Pix(Pix2PixConfig.from_scale(scale(), seed=seed))


class Snapshots:
    """An endless stream of distinct placements: every temperature step of
    successive seeded annealing runs, from near-random to converged.

    Anneals run lazily in :meth:`next`, which callers keep outside their
    timed intervals.
    """

    def __init__(self, context, seed: int):
        self.context = context
        self.seed = seed
        self.anneals = 0
        self._pending: list[list] = []
        self._seen: set[bytes] = set()

    def _anneal(self) -> None:
        from repro.fpga import PlacerOptions, SimulatedAnnealingPlacer

        ctx = self.context
        options = PlacerOptions(seed=self.seed * 1000 + self.anneals)
        sites: list[list] = []

        def snapshot(_index, _temperature, placement) -> None:
            # A cooled anneal repeats placements, and blocks swapping
            # slots within one tile render identically: send each tile
            # assignment once.
            # (bytes, not tuples: a large set of tuples would make the
            # collector's full passes land inside timed intervals)
            key = placement.xs.tobytes() + placement.ys.tobytes()
            if key not in self._seen:
                self._seen.add(key)
                sites.append(list(placement.site_of))

        SimulatedAnnealingPlacer(ctx.netlist, ctx.probe_arch, options).place(
            snapshot_callback=snapshot)
        self.anneals += 1
        self._pending.extend(reversed(sites))

    def next(self):
        from repro.fpga import Placement

        if not self._pending:
            self._anneal()
        ctx = self.context
        return Placement(ctx.netlist, ctx.arch, self._pending.pop())


def render_input(context, placement) -> tuple[np.ndarray, np.ndarray]:
    """(place image, model input) for one placement — the forecast path's
    render stage."""
    from repro.gan.dataset import make_input_stack
    from repro.viz import render_connectivity, render_placement

    place_image = render_placement(placement, context.layout,
                                   base=context.floor_image)
    connect_image = render_connectivity(context.netlist, placement,
                                        context.layout)
    return place_image, make_input_stack(place_image, connect_image,
                                         context.connect_weight)
