"""Weight initialization.

pix2pix initializes all conv weights from N(0, 0.02).
"""

from __future__ import annotations

import numpy as np


def normal_init(shape: tuple[int, ...], rng: np.random.Generator,
                std: float = 0.02) -> np.ndarray:
    """Gaussian init, the pix2pix default (std 0.02)."""
    return rng.normal(0.0, std, size=shape).astype(np.float32)
