"""The connectivity image img_connect (Section 4.2, Figure 4).

Graph(V, E', grids) is rasterized by drawing every net's driver-to-sink
edges between placed block centers, accumulating intensity where edges
overlap, then normalizing to [0, 1].  The result is a single-channel image
with the same spatial dimensions as img_place.
"""

from __future__ import annotations

import numpy as np

from repro.fpga.arch import BlockType
from repro.fpga.netlist import Netlist
from repro.fpga.placement import Placement
from repro.viz.layout import FloorplanLayout
from repro.viz.raster import line_pixels


def render_connectivity(netlist: Netlist, placement: Placement,
                        layout: FloorplanLayout,
                        log_compress: bool = True) -> np.ndarray:
    """Render Graph(V, E', grids) as a (size, size) float image in [0, 1].

    ``log_compress`` applies log1p before normalization so that a few very
    dense bundles do not crush the rest of the image to black — the same
    effect as the alpha-blended vector rendering the paper converts from.

    Each pixel counts the edges drawn through it.  The counts are small
    integers, exact in float32, so the image does not depend on the order
    the edges are drawn in.
    """
    size = layout.image_size
    heights = np.array([layout.arch.block_height(block_type)
                        for block_type in BlockType])[netlist.type_index]
    cols, rows = layout.block_centers(placement.xs, placement.ys, heights)
    drivers, sinks = netlist.edges
    _, x, y = line_pixels(cols[drivers], rows[drivers], cols[sinks],
                          rows[sinks], size, size)
    accumulator = np.bincount(y * size + x, minlength=size * size).astype(
        np.float32).reshape(size, size)

    if log_compress:
        accumulator = np.log1p(accumulator)
    peak = accumulator.max()
    if peak > 0:
        accumulator /= peak
    return accumulator
