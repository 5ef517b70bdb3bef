"""U-Net generator with configurable skip connections (Figure 5, top).

The architecture follows pix2pix: an encoder of stride-2 4x4 convolutions
down to a 1x1 bottleneck, mirrored by transposed convolutions, with skip
connections concatenating each encoder activation onto the decoder
activation at the same resolution.  The paper's Section 5.3 ablation
compares three variants, selected here with ``skip_mode``:

* ``"all"``    — skips at every level (the paper's model),
* ``"single"`` — only the outermost skip (the RouteNet-style variant),
* ``"none"``   — a plain encoder-decoder.

For a 256x256 input with ``base_filters=64`` the encoder produces exactly
the feature maps printed in Figure 5: 128x128x64, 64x64x128, 32x32x256,
16x16x512, 8x8x512, 4x4x512, 2x2x512, 1x1x512.
"""

from __future__ import annotations

import numpy as np

from repro.nn import (
    BatchNorm2d,
    Concat,
    Conv2d,
    ConvTranspose2d,
    Dropout,
    LeakyReLU,
    Module,
    ReLU,
    Sequential,
    Tanh,
)

SKIP_MODES = ("all", "single", "none")


def encoder_filters(image_size: int, base_filters: int) -> list[int]:
    """Filter counts per encoder level (doubling, capped at 8x base)."""
    if image_size < 8 or image_size & (image_size - 1):
        raise ValueError(f"image_size must be a power of two >= 8, "
                         f"got {image_size}")
    num_downs = int(np.log2(image_size))
    return [base_filters * min(2 ** level, 8) for level in range(num_downs)]


class UNetGenerator(Module):
    """Encoder-decoder generator G(x, z) with optional skip connections.

    The noise ``z`` enters through dropout in the decoder, as in pix2pix;
    running the training ``forward`` at inference samples a different z
    per call, and ``forward_eval`` is the deterministic inference pass.
    """

    def __init__(self, in_channels: int = 4, out_channels: int = 3,
                 image_size: int = 256, base_filters: int = 64,
                 skip_mode: str = "all", dropout: float = 0.5,
                 rng: np.random.Generator | None = None):
        super().__init__()
        if skip_mode not in SKIP_MODES:
            raise ValueError(
                f"skip_mode must be one of {SKIP_MODES}, got {skip_mode!r}")
        rng = rng if rng is not None else np.random.default_rng(0)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.image_size = image_size
        self.skip_mode = skip_mode

        filters = encoder_filters(image_size, base_filters)
        self.filters = filters
        downs = len(filters)
        self.num_downs = downs

        # Encoder: block i maps resolution size/2^i -> size/2^(i+1).
        self.enc_blocks: list[Sequential] = []
        for i in range(downs):
            layers: list[Module] = []
            if i > 0:
                layers.append(LeakyReLU(0.2))
            layers.append(Conv2d(
                in_channels if i == 0 else filters[i - 1], filters[i],
                kernel=4, stride=2, pad=1, rng=rng))
            if 0 < i < downs - 1:
                layers.append(BatchNorm2d(filters[i]))
            self.enc_blocks.append(Sequential(*layers))

        # Decoder: stage j maps resolution 2^j -> 2^(j+1).
        self.dec_blocks: list[Sequential] = []
        self._skip_at: list[bool] = []
        self._concats: list[Concat | None] = []
        for j in range(downs):
            has_skip = self._stage_has_skip(j)
            self._skip_at.append(has_skip)
            self._concats.append(Concat() if has_skip else None)
            in_filters = filters[downs - 1] if j == 0 else filters[downs - 1 - j]
            if has_skip:
                in_filters *= 2
            is_final = j == downs - 1
            out_filters = out_channels if is_final else filters[downs - 2 - j]
            layers = [ReLU(), ConvTranspose2d(in_filters, out_filters,
                                              kernel=4, stride=2, pad=1,
                                              rng=rng)]
            if is_final:
                layers.append(Tanh())
            else:
                layers.append(BatchNorm2d(out_filters))
                if j < 3 and dropout > 0:
                    layers.append(Dropout(dropout, rng=rng))
            self.dec_blocks.append(Sequential(*layers))

        self._enc_acts: list[np.ndarray] | None = None

    def _stage_has_skip(self, stage: int) -> bool:
        """Whether decoder stage ``stage`` concatenates an encoder skip.

        Stage 0 consumes the bottleneck directly and never has one; the
        outermost stage (``num_downs - 1``) concatenates the first encoder
        activation.
        """
        if stage == 0:
            return False
        if self.skip_mode == "all":
            return True
        if self.skip_mode == "single":
            return stage == self.num_downs - 1
        return False

    # -- computation ---------------------------------------------------------

    def _check_input(self, x: np.ndarray) -> None:
        if x.shape[1] != self.in_channels:
            raise ValueError(
                f"expected {self.in_channels} input channels, got {x.shape[1]}")
        if x.shape[2] != self.image_size or x.shape[3] != self.image_size:
            raise ValueError(
                f"expected {self.image_size}x{self.image_size} input, "
                f"got {x.shape[2]}x{x.shape[3]}")

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._check_input(x)
        enc_acts = []
        h = x
        for block in self.enc_blocks:
            h = block.forward(h)
            enc_acts.append(h)
        self._enc_acts = enc_acts

        d = enc_acts[-1]
        for j, block in enumerate(self.dec_blocks):
            if self._skip_at[j]:
                concat = self._concats[j]
                assert concat is not None
                d = concat.forward((d, enc_acts[self.num_downs - 1 - j]))
            d = block.forward(d)
        return d

    def forward_eval(self, x: np.ndarray) -> np.ndarray:
        """Fused inference pass: running-stat BatchNorm, no dropout.

        BatchNorm folding reassociates float ops, so the result agrees
        with a plain float64 forward within a tolerance the tests assert
        (``atol=1e-6`` on the [0, 1] forecast images), not bitwise.

        Every encoder/decoder block runs its conv + norm + activation
        through arena scratch with no gradient caches; skip activations
        stay untouched in their producers' buffers (the decoder-side
        activation runs in place only on the concat scratch it owns, never
        on an encoder activation a later skip still needs).  The final
        Tanh allocates, so the returned forecast is caller-owned.
        """
        self._check_input(x)
        enc_acts = []
        h = x
        for block in self.enc_blocks:
            h = block.forward_eval(h)
            enc_acts.append(h)

        d = enc_acts[-1]
        for j, block in enumerate(self.dec_blocks):
            owns_input = False
            if self._skip_at[j]:
                concat = self._concats[j]
                assert concat is not None
                d = concat.forward_eval((d, enc_acts[self.num_downs - 1 - j]))
                owns_input = True
            d = block.forward_eval(d, owns_input=owns_input)
        return d

    def backward(self, grad: np.ndarray,
                 need_input_grad: bool = True) -> np.ndarray | None:
        """Backpropagate through decoder and encoder.

        The training step discards the gradient with respect to the input
        image; ``need_input_grad=False`` lets the outermost encoder conv
        skip computing it (its input-gradient gemm and scatter are the
        largest in the network).
        """
        if self._enc_acts is None:
            raise RuntimeError("backward called before forward")
        downs = self.num_downs
        enc_grads: list[np.ndarray | None] = [None] * downs

        g = grad
        for j in reversed(range(downs)):
            g = self.dec_blocks[j].backward(g)
            if self._skip_at[j]:
                concat = self._concats[j]
                assert concat is not None
                g, skip_grad = concat.backward(g)
                level = downs - 1 - j
                if enc_grads[level] is None:
                    enc_grads[level] = skip_grad
                else:
                    enc_grads[level] = enc_grads[level] + skip_grad

        # g is now the gradient w.r.t. the bottleneck activation.
        if enc_grads[downs - 1] is None:
            enc_grads[downs - 1] = g
        else:
            enc_grads[downs - 1] = enc_grads[downs - 1] + g

        upstream = None
        for i in reversed(range(downs)):
            total = enc_grads[i]
            if upstream is not None:
                total = upstream if total is None else total + upstream
            upstream = self.enc_blocks[i].backward(
                total, need_input_grad=need_input_grad or i > 0)
        return upstream
