"""The slow reference raster: one Python loop per line or channel segment.

``repro.viz.raster.line_pixels`` and ``repro.viz.render_connectivity``
draw every line in one vectorized pass; both must be bitwise equal to
the loops here (``tests/test_viz_raster_png.py``,
``tests/test_viz_layout_render.py``).  Block centers come from
``FloorplanLayout.block_rect`` one block at a time, not from the
vectorized ``block_centers``.  ``render_routing`` and
``FloorplanLayout.channel_pixel_mask`` paint every channel pixel in one
fancy-index assignment; they must be bitwise equal to the per-segment
rect loops here (``tests/test_route_reference.py``).
"""

import numpy as np

from repro.viz.colors import utilization_to_rgb
from repro.viz.raster import Canvas


def draw_line_accumulate(buffer: np.ndarray, x0: int, y0: int,
                         x1: int, y1: int, intensity: float = 1.0) -> None:
    """Add ``intensity`` along the Bresenham line into a 2-D buffer.

    Pixels off the buffer are skipped; the line keeps its course.
    """
    height, width = buffer.shape
    dx = abs(x1 - x0)
    dy = -abs(y1 - y0)
    sx = 1 if x0 < x1 else -1
    sy = 1 if y0 < y1 else -1
    err = dx + dy
    x, y = x0, y0
    while True:
        if 0 <= x < width and 0 <= y < height:
            buffer[y, x] += intensity
        if x == x1 and y == y1:
            break
        e2 = 2 * err
        if e2 >= dy:
            err += dy
            x += sx
        if e2 <= dx:
            err += dx
            y += sy


def reference_connectivity(netlist, placement, layout,
                           log_compress: bool = True) -> np.ndarray:
    """``render_connectivity`` as one loop over blocks and one over edges."""
    size = layout.image_size
    accumulator = np.zeros((size, size), dtype=np.float32)
    centers = {}
    for block in netlist.blocks:
        x0, y0, x1, y1 = layout.block_rect(placement.site_of[block.id],
                                           block.type)
        centers[block.id] = ((x0 + x1) // 2, (y0 + y1) // 2)
    for net in netlist.nets:
        x0, y0 = centers[net.driver]
        for sink in net.sinks:
            x1, y1 = centers[sink]
            draw_line_accumulate(accumulator, x0, y0, x1, y1, 1.0)
    if log_compress:
        accumulator = np.log1p(accumulator)
    peak = accumulator.max()
    if peak > 0:
        accumulator /= peak
    return accumulator


def reference_channel_pixel_mask(layout) -> np.ndarray:
    """``channel_pixel_mask`` as one rect fill per channel segment."""
    arch = layout.arch
    mask = np.zeros((layout.image_size, layout.image_size), dtype=bool)
    for x in range(1, arch.width + 1):
        for y in range(0, arch.height + 1):
            x0, y0, x1, y1 = layout.hchan_rect(x, y)
            mask[y0:y1, x0:x1] = True
    for x in range(0, arch.width + 1):
        for y in range(1, arch.height + 1):
            x0, y0, x1, y1 = layout.vchan_rect(x, y)
            mask[y0:y1, x0:x1] = True
    return mask


def reference_render_routing(placement, routing, layout,
                             place_image) -> np.ndarray:
    """``render_routing`` as one colour and one rect fill per segment."""
    image = place_image.copy()
    canvas = Canvas(layout.image_size, layout.image_size)
    canvas.pixels = image
    arch = placement.arch
    h_util = routing.h_utilization()
    v_util = routing.v_utilization()
    for x in range(1, arch.width + 1):
        for y in range(0, arch.height + 1):
            color = utilization_to_rgb(float(h_util[x - 1, y]))
            canvas.fill_rect(*layout.hchan_rect(x, y), color)
    for x in range(0, arch.width + 1):
        for y in range(1, arch.height + 1):
            color = utilization_to_rgb(float(v_util[x, y - 1]))
            canvas.fill_rect(*layout.vchan_rect(x, y), color)
    return canvas.to_array()
