"""Minimal pure-numpy rasterizer: RGB canvas, rectangles, Bresenham lines."""

from __future__ import annotations

import numpy as np


class Canvas:
    """An RGB image buffer with pixel-rect fills.

    Coordinates are ``(col, row)`` pixels with half-open rects
    ``[x0, x1) x [y0, y1)``; row 0 is the top of the image.
    """

    def __init__(self, width: int, height: int,
                 background: np.ndarray | None = None):
        if width < 1 or height < 1:
            raise ValueError("canvas must be at least 1x1")
        self.width = width
        self.height = height
        self.pixels = np.ones((height, width, 3), dtype=np.float32)
        if background is not None:
            self.pixels[...] = np.asarray(background, dtype=np.float32)

    def fill_rect(self, x0: int, y0: int, x1: int, y1: int,
                  color: np.ndarray) -> None:
        """Fill [x0, x1) x [y0, y1), silently clipped to the canvas."""
        x0, x1 = max(0, x0), min(self.width, x1)
        y0, y1 = max(0, y0), min(self.height, y1)
        if x0 >= x1 or y0 >= y1:
            return
        self.pixels[y0:y1, x0:x1] = np.asarray(color, dtype=np.float32)

    def to_array(self) -> np.ndarray:
        """The (height, width, 3) float32 image in [0, 1]."""
        return self.pixels

    def to_uint8(self) -> np.ndarray:
        return np.clip(np.rint(self.pixels * 255.0), 0, 255).astype(np.uint8)


def line_pixels(x0, y0, x1, y1, width: int, height: int
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The Bresenham pixels of many lines at once, clipped to the canvas.

    Lines run from ``(x0, y0)`` to ``(x1, y1)`` (integer arrays of one
    length, pixel ``(col, row)`` coordinates, endpoints included).
    Returns ``(line, x, y)``: one entry per plotted pixel that lies on the
    ``width`` x ``height`` canvas, ``line`` indexing the input arrays.

    Closed form of the error-accumulating Bresenham loop: a line with
    ``n = max(|dx|, |dy|)`` and ``m = min(|dx|, |dy|)`` plots ``k = 0..n``
    along its major axis (x when ``|dx| >= |dy|``) and
    ``floor((2 m k + n) / (2 n))`` along its minor axis, each stepped by
    the sign of its delta.  Every line's pixels come from one
    ``np.repeat`` of the per-line parameters, so the cost is numpy work
    per pixel, not Python work per line.
    """
    x0, y0, x1, y1 = (np.asarray(a, dtype=np.intp) for a in (x0, y0, x1, y1))
    dx, dy = x1 - x0, y1 - y0
    x_major = np.abs(dx) >= np.abs(dy)
    n = np.maximum(np.abs(dx), np.abs(dy))
    m = np.minimum(np.abs(dx), np.abs(dy))
    counts = n + 1
    sx, sy = np.sign(dx), np.sign(dy)
    # Per line: its index, its first pixel's position in the output, its
    # start point, the x and y step per major step and per minor step.
    per_line = np.stack([
        np.arange(counts.size), np.cumsum(counts) - counts, x0, y0,
        sx * x_major, sx * ~x_major, sy * ~x_major, sy * x_major, m, n])
    line, first, px, py, xk, xj, yk, yj, m_k, n_k = np.repeat(
        per_line, counts, axis=1)
    k = np.arange(line.size) - first
    # n == 0 is a single point: any positive divisor gives offset 0.
    minor = (2 * m_k * k + n_k) // np.maximum(2 * n_k, 1)
    x = px + xk * k + xj * minor
    y = py + yk * k + yj * minor
    inside = (x >= 0) & (x < width) & (y >= 0) & (y < height)
    return line[inside], x[inside], y[inside]
