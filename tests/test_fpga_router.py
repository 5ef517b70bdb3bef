"""Channel graph and PathFinder router tests."""

import numpy as np
import pytest

from repro.fpga import (
    BlockType,
    DesignSpec,
    PathFinderRouter,
    Placement,
    PlacerOptions,
    RouterOptions,
    SimulatedAnnealingPlacer,
    generate_design,
    paper_architecture,
)
from repro.fpga.arch import FpgaArchitecture, Site
from repro.fpga.router import ChannelGraph, estimate_channel_width


@pytest.fixture(scope="module")
def design():
    spec = DesignSpec("routed", 60, 20, 220)
    return generate_design(spec, cluster_size=4, seed=11)


@pytest.fixture(scope="module")
def arch(design):
    from repro.fpga.generators import minimum_architecture_size

    return paper_architecture(minimum_architecture_size(design),
                              channel_width=16)


@pytest.fixture(scope="module")
def placement(design, arch):
    return Placement.random(design, arch, np.random.default_rng(5))


class TestChannelGraph:
    def test_node_counts(self):
        arch = FpgaArchitecture(4, 3)
        graph = ChannelGraph(arch)
        assert graph.num_h == 4 * 4   # W * (H+1)
        assert graph.num_v == 5 * 3   # (W+1) * H
        assert graph.num_nodes == graph.num_h + graph.num_v

    def test_indices_bijective(self):
        arch = FpgaArchitecture(4, 3)
        graph = ChannelGraph(arch)
        seen = set()
        for x in range(1, 5):
            for y in range(0, 4):
                seen.add(graph.h_index(x, y))
        for x in range(0, 5):
            for y in range(1, 4):
                seen.add(graph.v_index(x, y))
        assert seen == set(range(graph.num_nodes))

    def test_out_of_range_raises(self):
        graph = ChannelGraph(FpgaArchitecture(4, 3))
        with pytest.raises(ValueError):
            graph.h_index(0, 0)
        with pytest.raises(ValueError):
            graph.v_index(5, 1)

    def test_adjacency_is_symmetric(self):
        graph = ChannelGraph(FpgaArchitecture(5, 4))
        for node, neighbors in enumerate(graph.adjacency_lists):
            for neighbor in neighbors:
                assert node in graph.adjacency_lists[neighbor]

    def test_adjacent_segments_touch_geometrically(self):
        graph = ChannelGraph(FpgaArchitecture(5, 4))
        for node, neighbors in enumerate(graph.adjacency_lists):
            for neighbor in neighbors:
                dx, dy = np.abs(graph.coords[node] - graph.coords[neighbor])
                assert dx + dy <= 1.0 + 1e-9

    def test_graph_is_connected(self):
        import networkx as nx

        graph = ChannelGraph(FpgaArchitecture(4, 4))
        g = nx.Graph()
        g.add_nodes_from(range(graph.num_nodes))
        for node, neighbors in enumerate(graph.adjacency_lists):
            g.add_edges_from((node, n) for n in neighbors)
        assert nx.is_connected(g)

    def test_tile_access_four_segments(self):
        graph = ChannelGraph(FpgaArchitecture(4, 4))
        access = graph.tile_access(2, 2)
        assert len(access) == 4

    def test_io_access_single_ring_segment(self):
        arch = FpgaArchitecture(4, 4)
        graph = ChannelGraph(arch)
        left = graph.block_access(Site(0, 2), BlockType.IO)
        assert left == [graph.v_index(0, 2)]
        bottom = graph.block_access(Site(3, 0), BlockType.IO)
        assert bottom == [graph.h_index(3, 0)]

    def test_macro_access_spans_rows(self):
        arch = FpgaArchitecture(8, 8, mem_columns=(3,), mem_height=2)
        graph = ChannelGraph(arch)
        access = graph.block_access(Site(3, 1), BlockType.MEM)
        # Two stacked tiles share one horizontal segment: 4 + 4 - 1 = 7.
        assert len(access) == 7


class TestRouter:
    def test_routes_every_net(self, design, arch, placement):
        result = PathFinderRouter(design, arch, placement).route()
        assert set(result.net_trees) == {net.id for net in design.nets}
        assert all(result.net_trees.values())

    def test_tree_is_connected_through_driver(self, design, arch, placement):
        """Every tree component must touch a segment reachable from the
        driver pin: paths may fan out of different driver access segments,
        joining electrically at the pin itself."""
        import networkx as nx

        router = PathFinderRouter(design, arch, placement)
        result = router.route()
        graph = result.graph
        for net in design.nets[:50]:
            tree = result.net_trees[net.id]
            nodes = set(tree)
            g = nx.Graph()
            g.add_nodes_from(nodes)
            driver_pin = -1
            g.add_node(driver_pin)
            for access in router._block_access(net.driver):
                if access in nodes:
                    g.add_edge(driver_pin, access)
            for node in nodes:
                for neighbor in graph.adjacency_lists[node]:
                    if neighbor in nodes:
                        g.add_edge(node, neighbor)
            assert nx.is_connected(g), f"net {net.id} tree disconnected"

    def test_tree_touches_all_terminals(self, design, arch, placement):
        router = PathFinderRouter(design, arch, placement)
        result = router.route()
        for net in design.nets[:50]:
            tree = result.net_trees[net.id]
            for terminal in net.terminals:
                access = set(router._block_access(terminal))
                assert access & tree, (
                    f"net {net.id} terminal {terminal} unreached")

    def test_occupancy_equals_tree_sum(self, design, arch, placement):
        result = PathFinderRouter(design, arch, placement).route()
        manual = np.zeros_like(result.occupancy)
        for tree in result.net_trees.values():
            for node in tree:
                manual[node] += 1
        np.testing.assert_array_equal(manual, result.occupancy)

    def test_wide_channels_converge(self, design, placement, arch):
        wide = FpgaArchitecture(
            arch.width, arch.height, io_capacity=arch.io_capacity,
            mem_columns=arch.mem_columns, mul_columns=arch.mul_columns,
            mem_height=arch.mem_height, mul_height=arch.mul_height,
            channel_width=200)
        wide_placement = Placement(design, wide, list(placement.site_of))
        result = PathFinderRouter(design, wide, wide_placement).route()
        assert result.converged
        assert result.max_utilization <= 1.0

    def test_narrow_channels_spread_or_overflow(self, design, placement, arch):
        narrow = FpgaArchitecture(
            arch.width, arch.height, io_capacity=arch.io_capacity,
            mem_columns=arch.mem_columns, mul_columns=arch.mul_columns,
            mem_height=arch.mem_height, mul_height=arch.mul_height,
            channel_width=2)
        narrow_placement = Placement(design, narrow, list(placement.site_of))
        result = PathFinderRouter(
            design, narrow, narrow_placement,
            options=RouterOptions(max_iterations=3)).route()
        # With W=2 the design cannot route; PathFinder must report overuse.
        assert not result.converged or result.max_utilization <= 1.0

    def test_negotiation_reduces_overuse(self, design, arch, placement):
        one_shot = PathFinderRouter(
            design, arch, placement,
            options=RouterOptions(max_iterations=1)).route()
        negotiated = PathFinderRouter(
            design, arch, placement,
            options=RouterOptions(max_iterations=10)).route()
        assert negotiated.overuse <= one_shot.overuse

    def test_utilization_views_cover_all_segments(self, design, arch,
                                                  placement):
        result = PathFinderRouter(design, arch, placement).route()
        h = result.h_utilization()
        v = result.v_utilization()
        assert h.shape == (arch.width, arch.height + 1)
        assert v.shape == (arch.width + 1, arch.height)
        total = h.sum() + v.sum()
        assert total == pytest.approx(result.utilization.sum())

    def test_good_placement_less_congested_than_random(self, design, arch):
        """The causal property the whole paper relies on."""
        placed = SimulatedAnnealingPlacer(
            design, arch, PlacerOptions(seed=2)).place().placement
        random_placement = Placement.random(design, arch,
                                            np.random.default_rng(3))
        good = PathFinderRouter(design, arch, placed).route()
        bad = PathFinderRouter(design, arch, random_placement).route()
        assert good.wirelength < bad.wirelength
        assert good.mean_utilization < bad.mean_utilization

    def test_route_seconds_recorded(self, design, arch, placement):
        result = PathFinderRouter(design, arch, placement).route()
        assert result.route_seconds > 0


class TestChannelWidthEstimate:
    def test_estimate_is_routable(self, design, arch, placement):
        width = estimate_channel_width(design, arch, placement)
        sized = FpgaArchitecture(
            arch.width, arch.height, io_capacity=arch.io_capacity,
            mem_columns=arch.mem_columns, mul_columns=arch.mul_columns,
            mem_height=arch.mem_height, mul_height=arch.mul_height,
            channel_width=width)
        sized_placement = Placement(design, sized, list(placement.site_of))
        result = PathFinderRouter(design, sized, sized_placement).route()
        assert result.converged

    def test_margin_scales_estimate(self, design, arch, placement):
        tight = estimate_channel_width(design, arch, placement, margin=1.0)
        loose = estimate_channel_width(design, arch, placement, margin=2.0)
        assert loose >= tight
