"""The route path against its slow references, bitwise.

``PathFinderRouter`` (table-driven A*), ``estimate_channel_width``,
``render_routing`` and ``FloorplanLayout.channel_pixel_mask`` must give
exactly what the per-call heuristic closure (``tests/reference_router.py``)
and the per-segment rect loops (``tests/reference_raster.py``) give, on
every suite design at smoke scale: every dataset sample and ground-truth
heat map depends on it.
"""

import numpy as np
import pytest

from repro.config import SMOKE
from repro.flows.datagen import make_design_context
from repro.fpga import (
    PathFinderRouter,
    Placement,
    PlacerOptions,
    RouterOptions,
    paper_architecture,
)
from repro.fpga import router as router_module
from repro.fpga.generators import scaled_suite
from repro.fpga.router import estimate_channel_width
from repro.viz import render_placement, render_routing
from tests.reference_raster import (
    reference_channel_pixel_mask,
    reference_render_routing,
)
from tests.reference_router import ReferenceRouter

SUITE = scaled_suite(SMOKE)


def assert_same_route(result, reference):
    assert result.occupancy.dtype == reference.occupancy.dtype
    assert result.occupancy.tobytes() == reference.occupancy.tobytes()
    assert result.net_trees == reference.net_trees
    assert result.iterations == reference.iterations
    assert result.converged == reference.converged
    assert result.wirelength == reference.wirelength


def third_width(context):
    """The design's architecture at a third of its sized channel width."""
    return paper_architecture(context.arch.width,
                              channel_width=max(1, context.channel_width // 3))


@pytest.fixture(scope="module", params=SUITE, ids=lambda spec: spec.name)
def routed_design(request):
    """A design's context and three placements: two anneals, one random."""
    context = make_design_context(request.param, SMOKE, seed=0)
    placements = [context.place(PlacerOptions(seed=seed)) for seed in (1, 2)]
    placements.append(Placement.random(context.netlist, context.arch,
                                       np.random.default_rng(3)))
    return context, placements


class TestRouteMatchesReference:
    def test_sized_channels(self, routed_design):
        context, placements = routed_design
        for placement in placements:
            result = PathFinderRouter(context.netlist, context.arch,
                                      placement).route()
            reference = ReferenceRouter(context.netlist, context.arch,
                                        placement).route()
            assert_same_route(result, reference)

    def test_third_width_negotiates_to_the_cap(self, routed_design):
        context, placements = routed_design
        narrow = third_width(context)
        capped = 0
        for placement in placements:
            placement = Placement(context.netlist, narrow,
                                  list(placement.site_of))
            result = PathFinderRouter(context.netlist, narrow,
                                      placement).route()
            reference = ReferenceRouter(context.netlist, narrow,
                                        placement).route()
            assert_same_route(result, reference)
            capped += result.iterations == RouterOptions().max_iterations
        assert capped > 0, "no route negotiated to the iteration cap"

    def test_channel_width_estimate(self, routed_design, monkeypatch):
        context, placements = routed_design

        def estimates():
            return [estimate_channel_width(context.netlist, context.arch,
                                           placement)
                    for placement in placements]

        fast = estimates()
        monkeypatch.setattr(router_module, "PathFinderRouter",
                            ReferenceRouter)
        assert fast == estimates()

    @pytest.mark.parametrize("sized", [True, False],
                             ids=["sized", "third-width"])
    def test_render_routing_and_mask(self, routed_design, sized):
        """At a third of the width, overused segments clip their colour."""
        context, placements = routed_design
        layout = context.layout
        arch = context.arch if sized else third_width(context)
        assert np.array_equal(layout.channel_pixel_mask(),
                              reference_channel_pixel_mask(layout))
        for placement in placements:
            placement = Placement(context.netlist, arch,
                                  list(placement.site_of))
            routing = PathFinderRouter(context.netlist, arch,
                                       placement).route()
            place_image = render_placement(placement, layout,
                                           base=context.floor_image)
            image = render_routing(placement, routing, layout,
                                   place_image=place_image)
            expected = reference_render_routing(placement, routing, layout,
                                                place_image)
            assert image.dtype == expected.dtype
            assert image.tobytes() == expected.tobytes()


class TestSharedGraph:
    def test_routers_share_the_architecture_graph(self, routed_design):
        context, placements = routed_design
        first = PathFinderRouter(context.netlist, context.arch, placements[0])
        second = PathFinderRouter(context.netlist, context.arch,
                                  placements[1])
        assert first.graph is second.graph is context.arch.channel_graph

    def test_capacity_refuses_writes(self, routed_design):
        context, _ = routed_design
        capacity = context.arch.channel_graph.capacity
        with pytest.raises(ValueError):
            capacity[0] = 0
        assert (capacity == context.channel_width).all()
