"""Tests for im2col/col2im packing and activation helpers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import (
    col2im,
    col2im_bt,
    conv2d_output_size,
    conv_transpose2d_output_size,
    im2col,
    im2col_view,
    leaky_relu,
    leaky_relu_,
    pad2d,
    sigmoid,
)


class TestOutputSizes:
    def test_conv_halves_with_k4_s2_p1(self):
        assert conv2d_output_size(256, 4, 2, 1) == 128
        assert conv2d_output_size(64, 4, 2, 1) == 32
        assert conv2d_output_size(2, 4, 2, 1) == 1

    def test_conv_transpose_doubles_with_k4_s2_p1(self):
        assert conv_transpose2d_output_size(128, 4, 2, 1) == 256
        assert conv_transpose2d_output_size(1, 4, 2, 1) == 2

    def test_conv_stride1_k4_p1_shrinks_by_one(self):
        # The discriminator's final layers: 32 -> 31 -> 30 in the paper.
        assert conv2d_output_size(32, 4, 1, 1) == 31
        assert conv2d_output_size(31, 4, 1, 1) == 30

    def test_invalid_sizes_raise(self):
        with pytest.raises(ValueError):
            conv2d_output_size(2, 4, 2, 0)
        with pytest.raises(ValueError):
            conv_transpose2d_output_size(1, 2, 4, 1)

    def test_roundtrip_inverse(self):
        for size in (2, 4, 8, 32, 128):
            down = conv2d_output_size(size, 4, 2, 1)
            assert conv_transpose2d_output_size(down, 4, 2, 1) == size


class TestIm2Col:
    def test_identity_kernel1(self):
        x = np.arange(2 * 3 * 4 * 4, dtype=np.float32).reshape(2, 3, 4, 4)
        col = im2col(x, kernel=1, stride=1, pad=0)
        assert col.shape == (2 * 16, 3)
        # Row 0 is the pixel at (0, 0) across channels.
        np.testing.assert_array_equal(col[0], x[0, :, 0, 0])

    def test_known_window_values(self):
        x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
        col = im2col(x, kernel=2, stride=2, pad=0)
        assert col.shape == (4, 4)
        np.testing.assert_array_equal(col[0], [0, 1, 4, 5])
        np.testing.assert_array_equal(col[3], [10, 11, 14, 15])

    def test_padding_inserts_zeros(self):
        x = np.ones((1, 1, 2, 2), dtype=np.float32)
        col = im2col(x, kernel=2, stride=2, pad=1)
        # Four windows, each has exactly one real pixel.
        assert col.shape == (4, 4)
        assert col.sum() == 4.0

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(1, 2),
        c=st.integers(1, 3),
        size=st.sampled_from([4, 6, 8]),
        kernel=st.sampled_from([1, 2, 3, 4]),
        stride=st.sampled_from([1, 2]),
        pad=st.sampled_from([0, 1]),
    )
    def test_col2im_is_adjoint_of_im2col(self, n, c, size, kernel, stride, pad):
        """<im2col(x), y> == <x, col2im(y)> for all x, y — the exactness
        property that makes conv backward correct."""
        if (size + 2 * pad - kernel) < 0:
            return
        rng = np.random.default_rng(42)
        x = rng.normal(size=(n, c, size, size))
        col = im2col(x, kernel, stride, pad)
        y = rng.normal(size=col.shape)
        lhs = float((col * y).sum())
        rhs = float((x * col2im(y, x.shape, kernel, stride, pad)).sum())
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)


class TestIm2ColFastPaths:
    def test_im2col_view_is_zero_copy(self):
        x = np.arange(2 * 3 * 6 * 6, dtype=np.float32).reshape(2, 3, 6, 6)
        view = im2col_view(x, kernel=2, stride=2)
        assert view.base is x or np.shares_memory(view, x)
        assert view.shape == (2, 3, 3, 3, 2, 2)

    @pytest.mark.parametrize("kernel,stride,pad", [
        (4, 2, 1), (3, 1, 1), (2, 2, 0), (1, 1, 0), (4, 1, 2),
    ])
    def test_im2col_view_matches_im2col(self, kernel, stride, pad):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(2, 3, 8, 8)).astype(np.float32)
        padded = pad2d(x, pad)
        view = im2col_view(padded, kernel, stride)
        flat = np.ascontiguousarray(view).reshape(
            view.shape[0] * view.shape[1] * view.shape[2], -1)
        np.testing.assert_array_equal(flat,
                                      im2col(x, kernel, stride, pad))

    def test_im2col_out_buffer_round_trip(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(1, 2, 6, 6)).astype(np.float32)
        expected = im2col(x, 3, 1, 1)
        out = np.empty_like(expected)
        got = im2col(x, 3, 1, 1, out=out)
        assert got is out
        np.testing.assert_array_equal(got, expected)
        # Padding into a reused buffer with a stale border skip must stay
        # correct: the border was zeroed on the first call and nothing
        # else wrote it.
        padded = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
        pad_out = np.empty_like(padded)
        assert pad2d(x, 1, out=pad_out) is pad_out
        np.testing.assert_array_equal(pad_out, padded)
        again = pad2d(x, 1, out=pad_out, zero_border=False)
        np.testing.assert_array_equal(again, padded)

    def test_pad2d_matches_np_pad(self):
        x = np.random.default_rng(2).normal(size=(2, 3, 5, 4)).astype(
            np.float32)
        np.testing.assert_array_equal(
            pad2d(x, 2), np.pad(x, ((0, 0), (0, 0), (2, 2), (2, 2))))
        assert pad2d(x, 0) is x

    def test_col2im_bt_matches_col2im(self):
        rng = np.random.default_rng(3)
        n, c, h, w, k, s, p = 2, 3, 8, 8, 4, 2, 1
        oh = conv2d_output_size(h, k, s, p)
        col = rng.normal(size=(n * oh * oh, c * k * k)).astype(np.float32)
        col_bt = np.ascontiguousarray(
            col.reshape(n, oh * oh, c * k * k).transpose(0, 2, 1))
        np.testing.assert_allclose(
            col2im_bt(col_bt, (n, c, h, w), k, s, p),
            col2im(col, (n, c, h, w), k, s, p), atol=1e-6)


class TestActivations:
    def test_sigmoid_extremes_are_stable(self):
        x = np.array([-1000.0, 0.0, 1000.0])
        y = sigmoid(x)
        assert y[0] == pytest.approx(0.0)
        assert y[1] == pytest.approx(0.5)
        assert y[2] == pytest.approx(1.0)
        assert np.all(np.isfinite(y))

    def test_sigmoid_symmetry(self):
        x = np.linspace(-8, 8, 33)
        np.testing.assert_allclose(sigmoid(x) + sigmoid(-x), 1.0, atol=1e-12)

    def test_leaky_relu_values(self):
        x = np.array([-2.0, 0.0, 3.0])
        np.testing.assert_allclose(leaky_relu(x, 0.2), [-0.4, 0.0, 3.0])

    def test_sigmoid_computes_in_input_dtype(self):
        """No float64 allocation + round-trip for float32 inputs."""
        x32 = np.linspace(-50, 50, 101, dtype=np.float32)
        y32 = sigmoid(x32)
        assert y32.dtype == np.float32
        assert np.all(np.isfinite(y32))
        np.testing.assert_allclose(
            y32, sigmoid(x32.astype(np.float64)).astype(np.float32),
            atol=2e-7)
        assert sigmoid(np.float64(0.5).reshape(())).dtype == np.float64
        assert sigmoid(np.array([0, 1, 2])).dtype == np.float64  # int input

    def test_leaky_relu_matches_where_formulation_bitwise(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(512,)).astype(np.float32)
        x[:2] = [0.0, -0.0]
        for slope in (0.0, 0.2, 1.0):
            expected = np.where(x >= 0, x, np.float32(slope) * x)
            np.testing.assert_array_equal(leaky_relu(x, slope), expected)
        # Infinities too, for every positive slope (at slope == 0 the
        # max(x, 0*x) form yields NaN at +inf where np.where keeps inf —
        # finite activations, the only kind a trained net produces, are
        # bitwise identical).
        x[:2] = [np.inf, -np.inf]
        np.testing.assert_array_equal(
            leaky_relu(x, 0.2), np.where(x >= 0, x, np.float32(0.2) * x))

    def test_leaky_relu_out_rejects_aliasing(self):
        x = np.zeros(4, dtype=np.float32)
        with pytest.raises(ValueError, match="alias"):
            leaky_relu(x, 0.2, out=x)

    def test_leaky_relu_inplace_matches_out_of_place(self):
        """Satellite: the in-place variants are value-equal."""
        rng = np.random.default_rng(5)
        x = rng.normal(size=(3, 5, 7)).astype(np.float32)
        expected = leaky_relu(x, 0.2)
        worked = x.copy()
        result = leaky_relu_(worked, 0.2)
        assert result is worked
        np.testing.assert_array_equal(result, expected)
