"""Floorplan-to-pixel geometry.

Section 4.2: "we adjust the resolution of img_place such that the dimension
of each placement element is >= 2x2" pixels.  The layout allocates, along each
axis, two units to each I/O pad ring and each tile, and one unit to each
routing channel, then maps units to pixels by proportional rounding.  With an
image at least twice the unit count wide, every element is >= 2x2 pixels
(:func:`minimum_image_size` returns the smallest power-of-two size that
guarantees it, power-of-two because the U-Net halves the image repeatedly).
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from repro.fpga.arch import BlockType, FpgaArchitecture, Site

_IO_UNITS = 2
_TILE_UNITS = 2
_CHAN_UNITS = 1


def _axis_units(num_tiles: int) -> int:
    return 2 * _IO_UNITS + num_tiles * _TILE_UNITS + (num_tiles + 1) * _CHAN_UNITS


def minimum_image_size(arch: FpgaArchitecture) -> int:
    """Smallest power-of-two image size with every element >= 2x2 px.

    With at least one pixel per unit, proportional rounding gives each
    2-unit tile/pad at least 2 pixels and each 1-unit channel at least 1
    pixel; the paper's >= 2x2 constraint applies to placement elements.
    Power-of-two because the U-Net halves the image at every level.
    """
    units = max(_axis_units(arch.width), _axis_units(arch.height))
    size = 8
    while size < units:
        size *= 2
    return size


def _boundaries(num_tiles: int, size_px: int) -> list[tuple[int, int]]:
    """Pixel span of each element along one axis.

    Returns spans in axis order: io, chan 0, tile 1, chan 1, ..., tile N,
    chan N, io — a list of 2N + 3 (start, end) half-open pixel ranges.
    """
    units = [_IO_UNITS, _CHAN_UNITS]
    for _ in range(num_tiles):
        units.extend((_TILE_UNITS, _CHAN_UNITS))
    units.append(_IO_UNITS)
    total = sum(units)
    cumulative = np.cumsum([0] + units)
    edges = np.rint(cumulative * (size_px / total)).astype(int)
    return [(int(edges[i]), int(edges[i + 1])) for i in range(len(units))]


class FloorplanLayout:
    """Pixel rectangles for every architectural element at a resolution.

    All rect methods return ``(x0, y0, x1, y1)`` half-open pixel rects with
    row 0 at the *top* of the image (grid ``y`` grows upward, so the image is
    vertically flipped relative to grid coordinates).
    """

    def __init__(self, arch: FpgaArchitecture, image_size: int):
        if image_size < minimum_image_size(arch):
            raise ValueError(
                f"image size {image_size} below minimum "
                f"{minimum_image_size(arch)} for this architecture "
                "(elements must be >= 2x2 px)")
        self.arch = arch
        self.image_size = image_size
        self._x_spans = _boundaries(arch.width, image_size)
        self._y_spans = _boundaries(arch.height, image_size)
        # The same spans as (elements, 2) arrays, for vectorized lookups;
        # the rect helpers keep the lists so that rects hold Python ints.
        self._x_span_array = np.array(self._x_spans)
        self._y_span_array = np.array(self._y_spans)

    # -- axis helpers ------------------------------------------------------------
    # Along-axis element order: index 0 = io, 1 = chan 0, 2 = tile 1,
    # 3 = chan 1, ..., 2k = tile k, 2k+1 = chan k, last = io.

    def _tile_span_x(self, x: int) -> tuple[int, int]:
        if not 1 <= x <= self.arch.width:
            raise ValueError(f"tile column {x} out of range")
        return self._x_spans[2 * x]

    def _chan_span_x(self, x: int) -> tuple[int, int]:
        if not 0 <= x <= self.arch.width:
            raise ValueError(f"vertical channel {x} out of range")
        return self._x_spans[2 * x + 1]

    def _io_span_x(self, left: bool) -> tuple[int, int]:
        return self._x_spans[0] if left else self._x_spans[-1]

    def _tile_span_y(self, y: int) -> tuple[int, int]:
        """Vertical pixel span of tile row y (flipped: row H is at top)."""
        if not 1 <= y <= self.arch.height:
            raise ValueError(f"tile row {y} out of range")
        start, end = self._y_spans[2 * y]
        return self._flip_y(start, end)

    def _chan_span_y(self, y: int) -> tuple[int, int]:
        if not 0 <= y <= self.arch.height:
            raise ValueError(f"horizontal channel {y} out of range")
        start, end = self._y_spans[2 * y + 1]
        return self._flip_y(start, end)

    def _io_span_y(self, bottom: bool) -> tuple[int, int]:
        start, end = self._y_spans[0] if bottom else self._y_spans[-1]
        return self._flip_y(start, end)

    def _flip_y(self, start: int, end: int) -> tuple[int, int]:
        return self.image_size - end, self.image_size - start

    # -- public rects --------------------------------------------------------------

    def tile_rect(self, x: int, y: int) -> tuple[int, int, int, int]:
        """Pixel rect of interior tile (x, y)."""
        x0, x1 = self._tile_span_x(x)
        y0, y1 = self._tile_span_y(y)
        return x0, y0, x1, y1

    def block_rect(self, site: Site, block_type: BlockType
                   ) -> tuple[int, int, int, int]:
        """Pixel rect of a block anchored at ``site`` (macros span rows)."""
        if block_type is BlockType.IO:
            return self.io_rect(site.x, site.y)
        height = self.arch.block_height(block_type)
        x0, y0, x1, y1 = self.tile_rect(site.x, site.y)
        if height > 1:
            _, top_y0, _, _ = self.tile_rect(site.x, site.y + height - 1)
            y0 = top_y0
        return x0, y0, x1, y1

    def io_rect(self, x: int, y: int) -> tuple[int, int, int, int]:
        """Pixel rect of the I/O pad at ring position (x, y)."""
        if not self.arch.is_io_tile(x, y):
            raise ValueError(f"({x},{y}) is not an I/O tile")
        if x == 0 or x == self.arch.width + 1:
            x0, x1 = self._io_span_x(left=(x == 0))
            y0, y1 = self._tile_span_y(y)
        else:
            x0, x1 = self._tile_span_x(x)
            y0, y1 = self._io_span_y(bottom=(y == 0))
        return x0, y0, x1, y1

    def hchan_rect(self, x: int, y: int) -> tuple[int, int, int, int]:
        """Pixel rect of horizontal channel segment H(x, y)."""
        x0, x1 = self._tile_span_x(x)
        y0, y1 = self._chan_span_y(y)
        return x0, y0, x1, y1

    def vchan_rect(self, x: int, y: int) -> tuple[int, int, int, int]:
        """Pixel rect of vertical channel segment V(x, y)."""
        x0, x1 = self._chan_span_x(x)
        y0, y1 = self._tile_span_y(y)
        return x0, y0, x1, y1

    def block_centers(self, xs: np.ndarray, ys: np.ndarray,
                      heights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Center pixels ``(cols, rows)`` of blocks, for connectivity lines.

        Block ``i`` is anchored at tile ``(xs[i], ys[i])`` and spans
        ``heights[i]`` rows; its center is that of its :meth:`block_rect`,
        ``((x0 + x1) // 2, (y0 + y1) // 2)``.  Along each axis tile ``t``
        is element ``2 t`` of the spans, and so are the I/O rings at
        ``t = 0`` and ``t = N + 1``, so pads need no case of their own.
        """
        cols = self._x_span_array[2 * xs].sum(axis=1) // 2
        # Rows are flipped: the rect runs from the top row's start to the
        # anchor row's end, each measured down from the image top.
        top_end = self._y_span_array[2 * (ys + heights - 1), 1]
        anchor_start = self._y_span_array[2 * ys, 0]
        rows = (2 * self.image_size - top_end - anchor_start) // 2
        return cols, rows

    @cached_property
    def channel_pixels(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(rows, cols, nodes)`` of every routing-channel pixel, read-only.

        ``nodes[i]`` is the channel segment that pixel ``i`` shows, as a
        node id of ``arch.channel_graph``.  Horizontal and vertical segment
        rects never overlap, so each pixel appears once.
        """
        graph = self.arch.channel_graph
        segments = [(self.hchan_rect(x, y), graph.h_index(x, y))
                    for x in range(1, self.arch.width + 1)
                    for y in range(0, self.arch.height + 1)]
        segments += [(self.vchan_rect(x, y), graph.v_index(x, y))
                     for x in range(0, self.arch.width + 1)
                     for y in range(1, self.arch.height + 1)]
        rows, cols, nodes = [], [], []
        for (x0, y0, x1, y1), node in segments:
            row, col = np.mgrid[y0:y1, x0:x1]
            rows.append(row.ravel())
            cols.append(col.ravel())
            nodes.append(np.full(row.size, node))
        pixels = tuple(np.concatenate(part) for part in (rows, cols, nodes))
        for array in pixels:
            array.flags.writeable = False
        return pixels

    def channel_pixel_mask(self) -> np.ndarray:
        """Boolean (size, size) mask of all routing-channel pixels."""
        rows, cols, _ = self.channel_pixels
        mask = np.zeros((self.image_size, self.image_size), dtype=bool)
        mask[rows, cols] = True
        return mask
