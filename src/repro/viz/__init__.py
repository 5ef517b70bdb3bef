"""Image generation substrate.

Replaces the paper's VPR-interactive-mode image dumps: a pure-numpy
rasterizer, the Table 1 color scheme with the yellow-to-purple utilization
gradient, the floorplan-to-pixel layout logic (every element >= 2x2 pixels,
as Section 4.2 requires), renderers for ``img_floor`` / ``img_place`` /
``img_route``, the 1-channel connectivity image, and a minimal PNG codec for
artifact output.
"""

from repro.viz.colors import (
    COLOR_SCHEME,
    ColorScheme,
    decode_utilization,
    rgb_to_grayscale,
    utilization_to_rgb,
)
from repro.viz.connectivity import render_connectivity
from repro.viz.layout import FloorplanLayout, minimum_image_size
from repro.viz.png import read_png, write_png, write_ppm
from repro.viz.raster import Canvas
from repro.viz.render import (
    difference_image,
    render_floorplan,
    render_placement,
    render_routing,
)

__all__ = [
    "COLOR_SCHEME",
    "Canvas",
    "ColorScheme",
    "FloorplanLayout",
    "decode_utilization",
    "difference_image",
    "minimum_image_size",
    "read_png",
    "render_connectivity",
    "render_floorplan",
    "render_placement",
    "render_routing",
    "rgb_to_grayscale",
    "utilization_to_rgb",
    "write_png",
    "write_ppm",
]
