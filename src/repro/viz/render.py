"""Renderers for img_floor, img_place and img_route (Figure 2 of the paper).

``render_floorplan``   — the empty fabric (Figure 2a).
``render_placement``   — used CLB/IO spots filled black; partially used I/O
                         pads fill proportionally to used ports (Figure 2b).
``render_routing``     — the placement image with every routing-channel pixel
                         colorized by utilization (Figure 2d, the ground
                         truth the cGAN is trained against).
``difference_image``   — pixel-to-pixel |a - b| (Figure 2e).
"""

from __future__ import annotations

import numpy as np

from repro.fpga.arch import BlockType, FpgaArchitecture
from repro.fpga.placement import Placement
from repro.fpga.router import RoutingResult
from repro.viz.colors import COLOR_SCHEME, ColorScheme, utilization_to_rgb
from repro.viz.layout import FloorplanLayout
from repro.viz.raster import Canvas


def render_floorplan(arch: FpgaArchitecture, layout: FloorplanLayout,
                     scheme: ColorScheme = COLOR_SCHEME) -> np.ndarray:
    """The empty floorplan: channels white, sites in their scheme colors."""
    canvas = Canvas(layout.image_size, layout.image_size,
                    background=scheme.white)
    for x in range(1, arch.width + 1):
        for y in (0, arch.height + 1):
            canvas.fill_rect(*layout.io_rect(x, y), scheme.io_pad)
    for y in range(1, arch.height + 1):
        for x in (0, arch.width + 1):
            canvas.fill_rect(*layout.io_rect(x, y), scheme.io_pad)
    for site in arch.clb_sites:
        canvas.fill_rect(*layout.block_rect(site, BlockType.CLB),
                         scheme.lightblue)
    for site in arch.mem_sites:
        canvas.fill_rect(*layout.block_rect(site, BlockType.MEM),
                         scheme.lightyellow)
    for site in arch.mul_sites:
        canvas.fill_rect(*layout.block_rect(site, BlockType.MUL), scheme.pink)
    return canvas.to_array().copy()


def render_placement(placement: Placement, layout: FloorplanLayout,
                     scheme: ColorScheme = COLOR_SCHEME,
                     base: np.ndarray | None = None) -> np.ndarray:
    """img_place: the floorplan with used CLB and I/O spots in black.

    Memory and multiplier blocks keep their scheme colors (Table 1 paints
    them identically whether used or not).  I/O pads fill from the pad edge
    proportionally to how many of their eight ports are used.
    """
    arch = placement.arch
    if base is None:
        base = render_floorplan(arch, layout, scheme)
    image = base.copy()
    canvas = Canvas(layout.image_size, layout.image_size)
    canvas.pixels = image

    filled_pads: set[tuple[int, int]] = set()
    for block in placement.netlist.blocks:
        site = placement.site_of[block.id]
        if block.type is BlockType.CLB:
            canvas.fill_rect(*layout.block_rect(site, block.type),
                             scheme.black)
        elif block.type is BlockType.IO:
            pad = (site.x, site.y)
            if pad in filled_pads:
                continue
            filled_pads.add(pad)
            fraction = placement.io_fill_fraction(site.x, site.y)
            x0, y0, x1, y1 = layout.io_rect(site.x, site.y)
            # Fill a fraction of the pad area from its inner edge.
            if site.x == 0 or site.x == arch.width + 1:
                fill_h = max(1, round((y1 - y0) * fraction))
                canvas.fill_rect(x0, y0, x1, y0 + fill_h, scheme.black)
            else:
                fill_w = max(1, round((x1 - x0) * fraction))
                canvas.fill_rect(x0, y0, x0 + fill_w, y1, scheme.black)
        # MEM / MUL keep their floorplan colors per Table 1.
    return canvas.to_array()


def render_routing(placement: Placement, routing: RoutingResult,
                   layout: FloorplanLayout,
                   scheme: ColorScheme = COLOR_SCHEME,
                   place_image: np.ndarray | None = None) -> np.ndarray:
    """img_route: img_place with channel pixels colorized by utilization."""
    if place_image is None:
        place_image = render_placement(placement, layout, scheme)
    image = place_image.copy()
    rows, cols, nodes = layout.channel_pixels
    image[rows, cols] = utilization_to_rgb(routing.utilization, scheme)[nodes]
    return image


def difference_image(image_a: np.ndarray, image_b: np.ndarray) -> np.ndarray:
    """Pixel-to-pixel absolute difference (Figure 2e)."""
    if image_a.shape != image_b.shape:
        raise ValueError(
            f"shape mismatch: {image_a.shape} vs {image_b.shape}")
    return np.abs(image_a.astype(np.float32) - image_b.astype(np.float32))
