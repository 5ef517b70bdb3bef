"""The paper's contribution: pix2pix-style congestion forecasting cGAN.

* :mod:`repro.gan.unet` — U-Net generator with configurable skip
  connections (``all`` / ``single`` / ``none``, Section 5.3 ablation).
* :mod:`repro.gan.discriminator` — patch discriminator (Figure 5 bottom).
* :mod:`repro.gan.pix2pix` — the adversarial training step with the
  ``cGAN + lambda_L1 * L1`` objective, and the inference-only generator
  copy a second serving thread forecasts on.
* :mod:`repro.gan.dataset` — image-pair containers and normalization.
* :mod:`repro.gan.metrics` — per-pixel accuracy, Top-10, congestion decode.
* :mod:`repro.gan.trainer` — epochs, evaluation, transfer fine-tuning.
"""

from repro.gan.dataset import Dataset, Sample, input_from_images, make_input_stack
from repro.gan.discriminator import PatchDiscriminator
from repro.gan.metrics import (
    image_congestion_score,
    per_pixel_accuracy,
    speedup,
    top_k_overlap,
)
from repro.gan.pix2pix import GeneratorReplica, Pix2Pix, Pix2PixConfig
from repro.gan.trainer import Pix2PixTrainer, TrainHistory
from repro.gan.unet import UNetGenerator

__all__ = [
    "Dataset",
    "GeneratorReplica",
    "PatchDiscriminator",
    "Pix2Pix",
    "Pix2PixConfig",
    "Pix2PixTrainer",
    "Sample",
    "TrainHistory",
    "UNetGenerator",
    "image_congestion_score",
    "input_from_images",
    "make_input_stack",
    "per_pixel_accuracy",
    "speedup",
    "top_k_overlap",
]
