"""The slow reference forward: a plain float64 U-Net generator.

Every way of obtaining a forecast is pinned to this one function.
``Pix2Pix.forecast`` must agree with :func:`reference_forward` within
:data:`ATOL`, and every serving, caching, pool and eval path is bitwise
``Pix2Pix.forecast`` (``tests/test_forecast_paths.py``).

The reference shares no compute code with ``repro.nn``.  It reads the
generator's weights and running statistics through ``state_dict()`` and
its skip layout from ``_skip_at``, then rebuilds the paper's architecture
(Figure 5) from plain numpy in float64: ``np.pad`` and one ``einsum`` per
kernel offset for a convolution, one scatter per kernel offset for a
transposed convolution, BatchNorm on running statistics, ``np.where``
activations, ``tanh``, dropout as the identity, and the skip concats.
There is no workspace arena, no BatchNorm folding and no batching trick.
"""

import numpy as np

#: Largest absolute difference allowed between ``Pix2Pix.forecast``
#: (float32, BatchNorm folded into the conv weights) and
#: :func:`reference_forward`, on forecast images in [0, 1].  Measured
#: differences were at most 6e-8, over tiny models untrained and trained
#: in all three skip modes, the golden eval fixture, and a 64 px model
#: with 8 filters.
ATOL = 1e-6

#: BatchNorm epsilon and encoder LeakyReLU slope, as pix2pix sets them.
BN_EPS = 1e-5
ENCODER_SLOPE = 0.2


def conv2d(x, weight, bias, stride, pad):
    """Zero-padded strided convolution; ``weight`` is (out, in, k, k)."""
    k = weight.shape[-1]
    padded = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    out_h = (padded.shape[2] - k) // stride + 1
    out_w = (padded.shape[3] - k) // stride + 1
    out = np.zeros((x.shape[0], weight.shape[0], out_h, out_w))
    for ky in range(k):
        for kx in range(k):
            window = padded[:, :, ky:ky + stride * out_h:stride,
                            kx:kx + stride * out_w:stride]
            out += np.einsum("nchw,oc->nohw", window, weight[:, :, ky, kx])
    return out + bias[None, :, None, None]


def conv_transpose2d(x, weight, bias, stride, pad):
    """Transposed convolution; ``weight`` is (in, out, k, k).

    Input pixel (i, j) adds its ``weight[:, :, ky, kx]`` product at output
    pixel (stride*i + ky - pad, stride*j + kx - pad).
    """
    n, _, h, w = x.shape
    k = weight.shape[-1]
    full = np.zeros((n, weight.shape[1], stride * (h - 1) + k,
                     stride * (w - 1) + k))
    for ky in range(k):
        for kx in range(k):
            full[:, :, ky:ky + stride * h:stride,
                 kx:kx + stride * w:stride] += np.einsum(
                     "nchw,co->nohw", x, weight[:, :, ky, kx])
    out = full[:, :, pad:full.shape[2] - pad, pad:full.shape[3] - pad]
    return out + bias[None, :, None, None]


def batch_norm(x, gamma, beta, mean, var):
    """BatchNorm with fixed (running) statistics."""
    def channel(v):
        return v[None, :, None, None]
    return (x - channel(mean)) / np.sqrt(channel(var) + BN_EPS) \
        * channel(gamma) + channel(beta)


def leaky_relu(x, slope):
    return np.where(x >= 0, x, slope * x)


def reference_forward(generator, x):
    """Deterministic forecast images ``(N, H, W, 3)`` in [0, 1].

    ``generator`` is a :class:`repro.gan.UNetGenerator`; ``x`` is a batch
    ``(N, C, H, W)`` of inputs in [-1, 1].
    """
    state = {name: value.astype(np.float64)
             for name, value in generator.state_dict().items()}

    def conv(layer, h, transposed=False):
        op = conv_transpose2d if transposed else conv2d
        return op(h, state[f"{layer}.weight"], state[f"{layer}.bias"],
                  stride=2, pad=1)

    def norm(layer, h):
        return batch_norm(h, state[f"{layer}.gamma"], state[f"{layer}.beta"],
                          state[f"{layer}.running_mean"],
                          state[f"{layer}.running_var"])

    downs = generator.num_downs
    # Encoder block i: (LeakyReLU) -> conv -> (BatchNorm); the outermost
    # block has no activation and the innermost no norm.
    h = np.asarray(x, dtype=np.float64)
    skips = []
    for i in range(downs):
        layers = f"enc_blocks.{i}.layers"
        if i == 0:
            h = conv(f"{layers}.0", h)
        else:
            h = conv(f"{layers}.1", leaky_relu(h, ENCODER_SLOPE))
        if 0 < i < downs - 1:
            h = norm(f"{layers}.2", h)
        skips.append(h)
    # Decoder stage j: (skip concat) -> ReLU -> transposed conv ->
    # BatchNorm (dropout after it is the identity), or tanh at the end.
    d = skips[-1]
    for j in range(downs):
        layers = f"dec_blocks.{j}.layers"
        if generator._skip_at[j]:
            d = np.concatenate([d, skips[downs - 1 - j]], axis=1)
        d = conv(f"{layers}.1", leaky_relu(d, 0.0), transposed=True)
        if j < downs - 1:
            d = norm(f"{layers}.2", d)
    images = (np.tanh(d) + 1.0) * 0.5
    return images.transpose(0, 2, 3, 1)
