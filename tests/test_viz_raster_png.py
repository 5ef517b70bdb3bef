"""Canvas, line drawing, and PNG/PPM codec tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.viz import Canvas, read_png, write_png, write_ppm
from repro.viz.raster import line_pixels
from tests.reference_raster import draw_line_accumulate


class TestCanvas:
    def test_background_fill(self):
        canvas = Canvas(4, 3, background=np.array([0.5, 0.25, 0.0]))
        np.testing.assert_allclose(canvas.pixels[..., 0], 0.5)
        assert canvas.pixels.shape == (3, 4, 3)

    def test_fill_rect_half_open(self):
        canvas = Canvas(4, 4)
        canvas.fill_rect(1, 1, 3, 3, np.zeros(3))
        assert canvas.pixels[1, 1, 0] == 0.0
        assert canvas.pixels[2, 2, 0] == 0.0
        assert canvas.pixels[3, 3, 0] == 1.0  # exclusive end
        assert canvas.pixels[0, 0, 0] == 1.0

    def test_fill_rect_clips(self):
        canvas = Canvas(4, 4)
        canvas.fill_rect(-5, -5, 100, 2, np.zeros(3))
        assert canvas.pixels[1, 3, 0] == 0.0
        assert canvas.pixels[2, 0, 0] == 1.0

    def test_degenerate_rect_noop(self):
        canvas = Canvas(4, 4)
        canvas.fill_rect(2, 2, 2, 3, np.zeros(3))
        np.testing.assert_allclose(canvas.pixels, 1.0)

    def test_to_uint8_rounding(self):
        canvas = Canvas(1, 1, background=np.array([0.5, 0.0, 1.0]))
        np.testing.assert_array_equal(canvas.to_uint8()[0, 0], [128, 0, 255])

    def test_invalid_size_raises(self):
        with pytest.raises(ValueError):
            Canvas(0, 5)


class TestLineDrawing:
    def test_horizontal_line(self):
        buf = np.zeros((5, 5), dtype=np.float32)
        draw_line_accumulate(buf, 0, 2, 4, 2)
        np.testing.assert_allclose(buf[2], 1.0)
        assert buf.sum() == pytest.approx(5.0)

    def test_diagonal_line_visits_each_column(self):
        buf = np.zeros((5, 5), dtype=np.float32)
        draw_line_accumulate(buf, 0, 0, 4, 4)
        np.testing.assert_allclose(np.diag(buf), 1.0)

    def test_accumulation_adds(self):
        buf = np.zeros((3, 3), dtype=np.float32)
        draw_line_accumulate(buf, 0, 1, 2, 1, intensity=0.5)
        draw_line_accumulate(buf, 0, 1, 2, 1, intensity=0.5)
        np.testing.assert_allclose(buf[1], 1.0)

    def test_out_of_bounds_clipped(self):
        buf = np.zeros((3, 3), dtype=np.float32)
        draw_line_accumulate(buf, -2, 1, 5, 1)
        assert buf.sum() == pytest.approx(3.0)

    @settings(max_examples=30, deadline=None)
    @given(x0=st.integers(0, 7), y0=st.integers(0, 7),
           x1=st.integers(0, 7), y1=st.integers(0, 7))
    def test_endpoints_always_drawn(self, x0, y0, x1, y1):
        buf = np.zeros((8, 8), dtype=np.float32)
        draw_line_accumulate(buf, x0, y0, x1, y1)
        assert buf[y0, x0] >= 1.0
        assert buf[y1, x1] >= 1.0


def per_line_images(x0, y0, x1, y1, size: int) -> np.ndarray:
    """(lines, size, size) pixel counts of each line from ``line_pixels``."""
    line, x, y = line_pixels(x0, y0, x1, y1, size, size)
    counts = np.bincount((line * size + y) * size + x,
                         minlength=len(x0) * size * size)
    return counts.reshape(len(x0), size, size)


def reference_images(x0, y0, x1, y1, size: int) -> np.ndarray:
    """The same, one reference loop per line."""
    images = np.zeros((len(x0), size, size), dtype=np.float32)
    for index, line in enumerate(zip(x0, y0, x1, y1)):
        draw_line_accumulate(images[index], *map(int, line))
    return images


class TestClosedFormLines:
    """``line_pixels`` plots exactly the reference loop's pixels."""

    def test_every_short_line_matches_reference(self):
        # Every line with endpoints in [-2, 14)^2 on a 12 px grid: all
        # octants, all lengths up to the grid, points, and lines that
        # leave and re-enter the canvas.
        span = np.arange(-2, 14)
        x0, y0, x1, y1 = (axis.ravel() for axis in np.meshgrid(
            span, span, span, span, indexing="ij"))
        for chunk in np.array_split(np.arange(x0.size), 8):
            lines = x0[chunk], y0[chunk], x1[chunk], y1[chunk]
            np.testing.assert_array_equal(per_line_images(*lines, 12),
                                          reference_images(*lines, 12))

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(*[st.integers(-40, 295)] * 4),
                    min_size=1, max_size=6))
    def test_long_lines_match_reference(self, lines):
        x0, y0, x1, y1 = (np.array(axis) for axis in zip(*lines))
        np.testing.assert_array_equal(per_line_images(x0, y0, x1, y1, 256),
                                      reference_images(x0, y0, x1, y1, 256))

    def test_no_lines_no_pixels(self):
        empty = np.zeros(0, dtype=int)
        line, x, y = line_pixels(empty, empty, empty, empty, 4, 4)
        assert line.size == x.size == y.size == 0


class TestPngCodec:
    def test_rgb_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        image = rng.integers(0, 256, size=(9, 7, 3), dtype=np.uint8)
        path = write_png(tmp_path / "x.png", image)
        np.testing.assert_array_equal(read_png(path), image)

    def test_grayscale_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(4)
        image = rng.integers(0, 256, size=(5, 11), dtype=np.uint8)
        path = write_png(tmp_path / "g.png", image)
        np.testing.assert_array_equal(read_png(path), image)

    def test_float_images_quantized(self, tmp_path):
        image = np.linspace(0, 1, 12, dtype=np.float32).reshape(2, 2, 3)
        path = write_png(tmp_path / "f.png", image)
        back = read_png(path).astype(np.float32) / 255.0
        assert np.abs(back - image).max() <= 0.5 / 255.0 + 1e-6

    def test_signature_check(self, tmp_path):
        bad = tmp_path / "bad.png"
        bad.write_bytes(b"not a png at all")
        with pytest.raises(ValueError, match="not a PNG"):
            read_png(bad)

    def test_rejects_weird_shapes(self, tmp_path):
        with pytest.raises(ValueError):
            write_png(tmp_path / "bad.png", np.zeros((4, 4, 2)))

    @settings(max_examples=10, deadline=None)
    @given(h=st.integers(1, 16), w=st.integers(1, 16),
           seed=st.integers(0, 100))
    def test_roundtrip_property(self, h, w, seed):
        import tempfile
        from pathlib import Path

        rng = np.random.default_rng(seed)
        image = rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)
        with tempfile.TemporaryDirectory() as tmp:
            path = write_png(Path(tmp) / "p.png", image)
            np.testing.assert_array_equal(read_png(path), image)

    def test_ppm_header_and_size(self, tmp_path):
        image = np.zeros((2, 3, 3), dtype=np.uint8)
        path = write_ppm(tmp_path / "x.ppm", image)
        blob = path.read_bytes()
        assert blob.startswith(b"P6\n3 2\n255\n")
        assert len(blob) == len(b"P6\n3 2\n255\n") + 2 * 3 * 3
