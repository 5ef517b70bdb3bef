"""Layout geometry and renderer tests (Figure 2 semantics)."""

import numpy as np
import pytest

from repro.config import SMOKE
from repro.flows.datagen import prepare_design
from repro.fpga import (
    BlockType,
    DesignSpec,
    PathFinderRouter,
    Placement,
    PlacerOptions,
    SimulatedAnnealingPlacer,
    generate_design,
    paper_architecture,
)
from repro.fpga.generators import minimum_architecture_size, scaled_suite
from repro.viz import (
    COLOR_SCHEME,
    FloorplanLayout,
    difference_image,
    minimum_image_size,
    render_connectivity,
    render_floorplan,
    render_placement,
    render_routing,
)
from tests.reference_raster import reference_connectivity


@pytest.fixture(scope="module")
def design():
    spec = DesignSpec("viz", 60, 20, 200)
    return generate_design(spec, cluster_size=4, seed=2)


@pytest.fixture(scope="module")
def arch(design):
    return paper_architecture(minimum_architecture_size(design),
                              channel_width=12)


@pytest.fixture(scope="module")
def layout(arch):
    return FloorplanLayout(arch, minimum_image_size(arch))


@pytest.fixture(scope="module")
def placement(design, arch):
    return Placement.random(design, arch, np.random.default_rng(0))


@pytest.fixture(scope="module")
def routing(design, arch, placement):
    return PathFinderRouter(design, arch, placement).route()


class TestLayout:
    def test_minimum_size_is_power_of_two(self, arch):
        size = minimum_image_size(arch)
        assert size & (size - 1) == 0

    def test_rejects_too_small_image(self, arch):
        with pytest.raises(ValueError, match="below minimum"):
            FloorplanLayout(arch, minimum_image_size(arch) // 2)

    def test_elements_at_least_2x2(self, arch, layout):
        for x in range(1, arch.width + 1):
            for y in range(1, arch.height + 1):
                x0, y0, x1, y1 = layout.tile_rect(x, y)
                assert x1 - x0 >= 2 and y1 - y0 >= 2, (x, y)

    def test_channels_at_least_1px(self, arch, layout):
        for x in range(1, arch.width + 1):
            for y in range(0, arch.height + 1):
                x0, y0, x1, y1 = layout.hchan_rect(x, y)
                assert x1 - x0 >= 1 and y1 - y0 >= 1

    def test_rects_are_disjoint(self, arch, layout):
        """Tiles, channels and pads never overlap in pixel space."""
        cover = np.zeros((layout.image_size, layout.image_size), dtype=int)

        def paint(rect):
            x0, y0, x1, y1 = rect
            cover[y0:y1, x0:x1] += 1

        for x in range(1, arch.width + 1):
            for y in range(1, arch.height + 1):
                paint(layout.tile_rect(x, y))
        for x in range(1, arch.width + 1):
            for y in range(0, arch.height + 1):
                paint(layout.hchan_rect(x, y))
        for x in range(0, arch.width + 1):
            for y in range(1, arch.height + 1):
                paint(layout.vchan_rect(x, y))
        for x in range(1, arch.width + 1):
            for y in (0, arch.height + 1):
                paint(layout.io_rect(x, y))
        for y in range(1, arch.height + 1):
            for x in (0, arch.width + 1):
                paint(layout.io_rect(x, y))
        assert cover.max() == 1

    def test_y_axis_flipped(self, arch, layout):
        """Grid y grows upward; image rows grow downward."""
        _, top_row, _, _ = layout.tile_rect(1, arch.height)
        _, bottom_row, _, _ = layout.tile_rect(1, 1)
        assert top_row < bottom_row

    def test_macro_block_spans_rows(self, arch, layout):
        site = arch.mem_sites[0]
        x0, y0, x1, y1 = layout.block_rect(site, BlockType.MEM)
        tx0, ty0, tx1, ty1 = layout.tile_rect(site.x, site.y)
        assert (x0, x1) == (tx0, tx1)
        assert y1 - y0 > ty1 - ty0  # taller than a single tile

    def test_block_center_inside_rect(self, arch, layout):
        sites = [(site, block_type)
                 for block_type in BlockType
                 for site in arch.sites_for(block_type)]
        cols, rows = layout.block_centers(
            np.array([site.x for site, _ in sites]),
            np.array([site.y for site, _ in sites]),
            np.array([arch.block_height(block_type)
                      for _, block_type in sites]))
        for (site, block_type), col, row in zip(sites, cols, rows):
            x0, y0, x1, y1 = layout.block_rect(site, block_type)
            assert (col, row) == ((x0 + x1) // 2, (y0 + y1) // 2)
            assert x0 <= col < x1 and y0 <= row < y1

    def test_channel_mask_fraction_sane(self, layout):
        mask = layout.channel_pixel_mask()
        fraction = mask.mean()
        assert 0.05 < fraction < 0.6

    def test_io_rect_rejects_interior(self, arch, layout):
        with pytest.raises(ValueError):
            layout.io_rect(2, 2)


class TestRenderers:
    def test_floorplan_uses_scheme_colors(self, arch, layout):
        image = render_floorplan(arch, layout)
        site = arch.clb_sites[0]
        x0, y0, x1, y1 = layout.block_rect(site, BlockType.CLB)
        np.testing.assert_allclose(image[y0, x0], COLOR_SCHEME.lightblue)
        mem = arch.mem_sites[0]
        x0, y0, x1, y1 = layout.block_rect(mem, BlockType.MEM)
        np.testing.assert_allclose(image[y0, x0], COLOR_SCHEME.lightyellow)

    def test_floorplan_channels_white(self, arch, layout):
        image = render_floorplan(arch, layout)
        x0, y0, _, _ = layout.hchan_rect(1, 1)
        np.testing.assert_allclose(image[y0, x0], COLOR_SCHEME.white)

    def test_placement_blackens_used_clbs(self, design, arch, layout,
                                          placement):
        image = render_placement(placement, layout)
        clb = design.blocks_of_type(BlockType.CLB)[0]
        site = placement.site_of[clb.id]
        x0, y0, _, _ = layout.block_rect(site, BlockType.CLB)
        np.testing.assert_allclose(image[y0, x0], COLOR_SCHEME.black)

    def test_placement_keeps_unused_clbs_lightblue(self, design, arch, layout,
                                                   placement):
        used = {placement.site_of[b.id] for b in design.blocks}
        free = next(s for s in arch.clb_sites if s not in used)
        image = render_placement(placement, layout)
        x0, y0, _, _ = layout.block_rect(free, BlockType.CLB)
        np.testing.assert_allclose(image[y0, x0], COLOR_SCHEME.lightblue)

    def test_placement_differs_from_floorplan_only_on_blocks(
            self, arch, layout, placement):
        floor = render_floorplan(arch, layout)
        placed = render_placement(placement, layout, base=floor)
        changed = np.any(placed != floor, axis=-1)
        channel_mask = layout.channel_pixel_mask()
        assert not (changed & channel_mask).any()

    def test_routing_paints_all_channels(self, design, arch, layout, placement,
                                         routing):
        image = render_routing(placement, routing, layout)
        mask = layout.channel_pixel_mask()
        from repro.viz.colors import gradient_distance

        distances = gradient_distance(image[mask])
        assert distances.max() < 1e-4  # every channel pixel on the gradient

    def test_routing_preserves_structure_outside_channels(
            self, design, arch, layout, placement, routing):
        placed = render_placement(placement, layout)
        routed = render_routing(placement, routing, layout,
                                place_image=placed)
        mask = layout.channel_pixel_mask()
        np.testing.assert_allclose(routed[~mask], placed[~mask])

    def test_routing_utilization_recoverable(self, design, arch, layout,
                                             placement, routing):
        """Decode the painted heat map and compare with actual utilization."""
        from repro.viz.colors import decode_utilization

        image = render_routing(placement, routing, layout)
        h_util = routing.h_utilization()
        x0, y0, x1, y1 = layout.hchan_rect(2, 1)
        decoded = float(decode_utilization(image[y0, x0]))
        expected = float(np.clip(h_util[1, 1], 0, 1))
        assert decoded == pytest.approx(expected, abs=0.01)

    def test_difference_image_zero_iff_identical(self, arch, layout):
        floor = render_floorplan(arch, layout)
        assert difference_image(floor, floor).max() == 0.0
        other = floor.copy()
        other[0, 0, 0] += 0.5
        assert difference_image(floor, other).max() == pytest.approx(0.5)

    def test_difference_shape_mismatch_raises(self, arch, layout):
        floor = render_floorplan(arch, layout)
        with pytest.raises(ValueError):
            difference_image(floor, floor[:-1])


class TestConnectivity:
    def test_range_and_shape(self, design, arch, layout, placement):
        image = render_connectivity(design, placement, layout)
        assert image.shape == (layout.image_size, layout.image_size)
        assert image.min() >= 0.0 and image.max() <= 1.0

    def test_nonempty_for_nonempty_netlist(self, design, arch, layout,
                                           placement):
        image = render_connectivity(design, placement, layout)
        assert image.max() == 1.0  # normalized peak

    def test_depends_on_placement(self, design, arch, layout):
        a = render_connectivity(
            design, Placement.random(design, arch, np.random.default_rng(1)),
            layout)
        b = render_connectivity(
            design, Placement.random(design, arch, np.random.default_rng(2)),
            layout)
        assert not np.allclose(a, b)

    def test_log_compress_toggle(self, design, arch, layout, placement):
        raw = render_connectivity(design, placement, layout,
                                  log_compress=False)
        compressed = render_connectivity(design, placement, layout,
                                         log_compress=True)
        # Log compression lifts mid-range values relative to the peak.
        assert compressed[raw > 0].mean() >= raw[raw > 0].mean()

    @pytest.mark.parametrize("spec", scaled_suite(SMOKE),
                             ids=lambda spec: spec.name)
    def test_bitwise_equal_to_reference_loop(self, spec):
        """Every suite design at smoke scale, placements from random to
        annealed, both compressions: the vectorized raster is bitwise the
        per-edge loop."""
        netlist, arch, _, image_size = prepare_design(spec, SMOKE)
        layout = FloorplanLayout(arch, image_size)
        placements = [Placement.random(netlist, arch,
                                       np.random.default_rng(seed))
                      for seed in range(3)]
        placements.append(SimulatedAnnealingPlacer(
            netlist, arch, PlacerOptions(seed=1, inner_num=0.5)
        ).place().placement)
        for placement in placements:
            for log_compress in (True, False):
                image = render_connectivity(netlist, placement, layout,
                                            log_compress=log_compress)
                expected = reference_connectivity(
                    netlist, placement, layout, log_compress=log_compress)
                assert image.dtype == expected.dtype == np.float32
                assert image.tobytes() == expected.tobytes()
