"""Patch discriminator D(x, g) (Figure 5, bottom).

Six layers: four stride/strided convolutions with batch normalization and
LeakyReLU, a final 1-channel convolution producing a patch of logits, and the
sigmoid — which lives inside :class:`repro.nn.BCEWithLogitsLoss` for
numerical stability.  For a 256x256 input the feature maps match the figure:
128x128x64, 64x64x128, 32x32x256, 31x31x512, 30x30x1.
"""

from __future__ import annotations

import numpy as np

from repro.nn import BatchNorm2d, Conv2d, LeakyReLU, Module, Sequential


class PatchDiscriminator(Module):
    """Conditional patch discriminator over concat(condition, image).

    For inputs of 32 pixels and up the layer stack is the paper's (three
    strided convolutions, then two stride-1 convolutions); smaller
    experiment scales drop strided stages so the final patch stays >= 1x1.
    """

    def __init__(self, in_channels: int = 7, base_filters: int = 64,
                 image_size: int = 256,
                 rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(1)
        if image_size < 8:
            raise ValueError(f"image_size must be >= 8, got {image_size}")
        self.in_channels = in_channels
        b = base_filters
        # Keep >= 4 pixels entering the stride-1 tail (4 -> 3 -> 2).
        num_strided = min(3, int(np.log2(image_size)) - 2)

        layers: list[Module] = [
            Conv2d(in_channels, b, kernel=4, stride=2, pad=1, rng=rng),
            LeakyReLU(0.2),
        ]
        channels = b
        for _ in range(num_strided - 1):
            layers.extend([
                Conv2d(channels, channels * 2, kernel=4, stride=2, pad=1,
                       rng=rng),
                BatchNorm2d(channels * 2),
                LeakyReLU(0.2),
            ])
            channels *= 2
        layers.extend([
            Conv2d(channels, channels * 2, kernel=4, stride=1, pad=1,
                   rng=rng),
            BatchNorm2d(channels * 2),
            LeakyReLU(0.2),
            Conv2d(channels * 2, 1, kernel=4, stride=1, pad=1, rng=rng),
        ])
        self.net = Sequential(*layers)

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Map (n, in_channels, s, s) to a patch of logits.

        The final conv's output is an arena view: the logits are copied
        out so callers may hold them across passes (the patch is tiny, the
        copy is noise).
        """
        if x.shape[1] != self.in_channels:
            raise ValueError(
                f"expected {self.in_channels} channels, got {x.shape[1]}")
        return self.net.forward(x).copy()

    def forward_eval(self, x: np.ndarray) -> np.ndarray:
        """Fused inference logits (no gradient caches), caller-owned."""
        if x.shape[1] != self.in_channels:
            raise ValueError(
                f"expected {self.in_channels} channels, got {x.shape[1]}")
        return self.net.forward_eval(x).copy()

    def backward(self, grad: np.ndarray,
                 need_input_grad: bool = True) -> np.ndarray | None:
        """Backpropagate; the D-step passes ``need_input_grad=False``
        since only the G-step consumes the gradient w.r.t. (x, g)."""
        return self.net.backward(grad, need_input_grad=need_input_grad)
