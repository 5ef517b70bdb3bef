"""Low-level tensor operations: im2col packing and activation functions.

All image tensors use NCHW layout (batch, channels, height, width).  The
convolution layers in :mod:`repro.nn.layers` gather their windows through
:func:`im2col_view` and scatter their gradients through cached view plans
equivalent to :func:`col2im_bt`; keeping the packing logic here makes it
independently testable (the test suite checks that ``col2im`` is the exact
adjoint of ``im2col`` and that the layers' scatter plans equal
``col2im_bt``, which is what makes the conv gradients correct).

Every heavy helper takes an optional ``out=`` destination so the layers can
route their temporaries through a :class:`repro.nn.workspace.Workspace`
arena; with ``out=None`` each call allocates fresh arrays and computes
bitwise the same values.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided


def conv2d_output_size(size: int, kernel: int, stride: int, pad: int) -> int:
    """Spatial output size of a convolution along one dimension."""
    out = (size + 2 * pad - kernel) // stride + 1
    if out <= 0:
        raise ValueError(
            f"conv output size {out} <= 0 for size={size}, kernel={kernel}, "
            f"stride={stride}, pad={pad}"
        )
    return out


def conv_transpose2d_output_size(size: int, kernel: int, stride: int, pad: int) -> int:
    """Spatial output size of a transposed convolution along one dimension."""
    out = (size - 1) * stride - 2 * pad + kernel
    if out <= 0:
        raise ValueError(
            f"conv_transpose output size {out} <= 0 for size={size}, "
            f"kernel={kernel}, stride={stride}, pad={pad}"
        )
    return out


def pad2d(x: np.ndarray, pad: int, out: np.ndarray | None = None,
          zero_border: bool = True) -> np.ndarray:
    """Symmetric spatial zero padding, optionally into a reused buffer.

    Equivalent to ``np.pad(x, ((0,0),(0,0),(pad,pad),(pad,pad)))`` but
    without the generic-pad machinery (which profiles as a major share of
    the conv hot path at small image sizes): the border is zero-filled
    with four slice stores and the interior is one strided copy.
    ``zero_border=False`` skips the border fills — only valid when ``out``
    is a reused buffer whose border is known to still be zero (nothing
    but this function writes it).
    """
    if pad <= 0:
        return x
    n, c, h, w = x.shape
    if out is None:
        out = np.empty((n, c, h + 2 * pad, w + 2 * pad), dtype=x.dtype)
        zero_border = True
    if zero_border:
        out[:, :, :pad, :] = 0
        out[:, :, h + pad:, :] = 0
        out[:, :, pad:h + pad, :pad] = 0
        out[:, :, pad:h + pad, w + pad:] = 0
    out[:, :, pad:h + pad, pad:w + pad] = x
    return out


def im2col_view(x: np.ndarray, kernel: int, stride: int) -> np.ndarray:
    """Zero-copy sliding-window view of an (already padded) input.

    Returns a ``(n, out_h, out_w, c, kernel, kernel)`` strided view of
    ``x`` — no data is moved, which makes the window gather of
    :func:`im2col` a single strided copy (and lets stride-1 eval consumers
    walk receptive fields without materializing them at all).
    """
    n, c, h, w = x.shape
    out_h = conv2d_output_size(h, kernel, stride, 0)
    out_w = conv2d_output_size(w, kernel, stride, 0)
    sn, sc, sh, sw = x.strides
    return as_strided(
        x,
        shape=(n, out_h, out_w, c, kernel, kernel),
        strides=(sn, sh * stride, sw * stride, sc, sh, sw),
        writeable=False,
    )


def im2col(x: np.ndarray, kernel: int, stride: int, pad: int,
           out: np.ndarray | None = None) -> np.ndarray:
    """Unfold sliding windows of ``x`` into rows.

    Parameters
    ----------
    x:
        Input of shape ``(n, c, h, w)``.
    kernel, stride, pad:
        Square kernel size, stride, and symmetric zero padding.
    out:
        Optional destination of shape ``(n * out_h * out_w,
        c * kernel * kernel)``; allocated when omitted.

    Returns
    -------
    Array of shape ``(n * out_h * out_w, c * kernel * kernel)`` where each row
    is one receptive field, ordered batch-major then row-major over output
    positions.  The gather is one strided copy of :func:`im2col_view`
    rather than the classic per-offset slice loop plus transpose copy.
    """
    n, c, h, w = x.shape
    out_h = conv2d_output_size(h, kernel, stride, pad)
    out_w = conv2d_output_size(w, kernel, stride, pad)

    if pad > 0:
        x = pad2d(x, pad)

    view = im2col_view(x, kernel, stride)
    if out is None:
        out = np.empty((n * out_h * out_w, c * kernel * kernel),
                       dtype=x.dtype)
    np.copyto(out.reshape(view.shape), view)
    return out


def col2im(
    col: np.ndarray,
    x_shape: tuple[int, int, int, int],
    kernel: int,
    stride: int,
    pad: int,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Adjoint of :func:`im2col`: scatter-add rows back into an image.

    ``col`` has the shape produced by ``im2col(x, kernel, stride, pad)`` for an
    ``x`` of shape ``x_shape``; overlapping windows accumulate, which is
    exactly the gradient of the unfolding operation.  ``out`` is optional
    scratch for the *padded* accumulator of shape ``(n, c, h + 2*pad +
    stride - 1, w + 2*pad + stride - 1)``; the returned array is a view
    into it trimmed to ``x_shape``.
    """
    n, c, h, w = x_shape
    out_h = conv2d_output_size(h, kernel, stride, pad)
    out_w = conv2d_output_size(w, kernel, stride, pad)

    col = col.reshape(n, out_h, out_w, c, kernel, kernel)
    col = col.transpose(0, 3, 4, 5, 1, 2)
    padded_shape = (n, c, h + 2 * pad + stride - 1, w + 2 * pad + stride - 1)
    if out is None:
        img = np.zeros(padded_shape, dtype=col.dtype)
    else:
        img = out
        img[...] = 0
    for ky in range(kernel):
        y_max = ky + stride * out_h
        for kx in range(kernel):
            x_max = kx + stride * out_w
            img[:, :, ky:y_max:stride, kx:x_max:stride] += col[:, :, ky, kx, :, :]
    return img[:, :, pad:pad + h, pad:pad + w]


def col2im_bt(
    col_bt: np.ndarray,
    x_shape: tuple[int, int, int, int],
    kernel: int,
    stride: int,
    pad: int,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """:func:`col2im` for block-transposed columns.

    ``col_bt`` has shape ``(n, c * kernel * kernel, out_h * out_w)`` — the
    per-sample transpose of the ``(n * out_h * out_w, c * k * k)`` matrix
    :func:`col2im` takes, which is exactly what a stacked transposed gemm
    (``w.T @ x_i.T`` per sample) produces.  In this layout every
    per-offset scatter slice is contiguous along the image row, cutting
    the scatter cost up to ~3x on the large early layers versus the
    row-major layout.  Accumulation order over kernel offsets matches
    :func:`col2im` exactly, so bitwise-equal column values scatter to a
    bitwise-equal image.
    """
    n, c, h, w = x_shape
    out_h = conv2d_output_size(h, kernel, stride, pad)
    out_w = conv2d_output_size(w, kernel, stride, pad)

    col_bt = col_bt.reshape(n, c, kernel, kernel, out_h, out_w)
    padded_shape = (n, c, h + 2 * pad + stride - 1, w + 2 * pad + stride - 1)
    if out is None:
        img = np.zeros(padded_shape, dtype=col_bt.dtype)
    else:
        img = out
        img[...] = 0
    for ky in range(kernel):
        y_max = ky + stride * out_h
        for kx in range(kernel):
            x_max = kx + stride * out_w
            img[:, :, ky:y_max:stride, kx:x_max:stride] += col_bt[:, :, ky, kx]
    return img[:, :, pad:pad + h, pad:pad + w]


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function, computed in the input dtype.

    The split-by-sign form never exponentiates a positive argument, so it
    is overflow-free in float32 directly — no float64 allocation and
    round-trip (integer and other non-float inputs still promote to
    float64, matching ``np.exp``).
    """
    x = np.asarray(x)
    dtype = x.dtype if np.issubdtype(x.dtype, np.floating) else np.float64
    out = np.empty_like(x, dtype=dtype)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos], dtype=dtype))
    ex = np.exp(x[~pos], dtype=dtype)
    out[~pos] = ex / (1.0 + ex)
    return out


def leaky_relu(x: np.ndarray, slope: float = 0.2,
               out: np.ndarray | None = None) -> np.ndarray:
    """LeakyReLU activation used throughout the pix2pix encoder.

    For ``0 <= slope <= 1`` this is exactly ``max(x, slope * x)`` (bitwise
    equal to the ``np.where`` formulation for finite inputs, NaN and
    signed zero included; at ``slope == 0`` an infinite input yields NaN
    where ``np.where`` would keep ``+inf``), computed with a single
    output array and no extra temporary.
    """
    if not 0.0 <= slope <= 1.0:
        raise ValueError(f"slope must be in [0, 1], got {slope}")
    if out is x:
        raise ValueError("out must not alias x (use leaky_relu_ instead)")
    out = np.multiply(x, slope, out=out)
    return np.maximum(x, out, out=out)


def leaky_relu_(x: np.ndarray, slope: float = 0.2) -> np.ndarray:
    """In-place :func:`leaky_relu`: overwrites and returns ``x``.

    For callers that own ``x`` (a workspace scratch buffer, a dead
    intermediate) this is allocation-free up to a broadcast temporary.
    """
    if not 0.0 <= slope <= 1.0:
        raise ValueError(f"slope must be in [0, 1], got {slope}")
    return np.maximum(x, x * slope, out=x)
