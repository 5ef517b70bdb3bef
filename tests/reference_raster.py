"""The slow reference raster: one Python Bresenham loop per line.

``repro.viz.raster.line_pixels`` and ``repro.viz.render_connectivity``
draw every line in one vectorized pass; both must be bitwise equal to
the loops here (``tests/test_viz_raster_png.py``,
``tests/test_viz_layout_render.py``).  Block centers come from
``FloorplanLayout.block_rect`` one block at a time, not from the
vectorized ``block_centers``.
"""

import numpy as np


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
