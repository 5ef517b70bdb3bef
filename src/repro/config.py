"""Experiment scale presets.

The paper trains a 256x256 pix2pix model on an Nvidia 1080Ti for 250 epochs
over 1500 image pairs produced by VPR.  This reproduction runs the *same code
paths* on CPU-only numpy, so every experiment is parameterized by an
:class:`ExperimentScale`.  The ``paper`` preset keeps the published constants;
``default`` is tuned so the full benchmark suite completes on a laptop-class
CPU; ``smoke`` is for CI.

Select a preset globally with the ``REPRO_SCALE`` environment variable
(``paper`` / ``default`` / ``smoke``) or pass a scale object explicitly to the
flows APIs.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace


@dataclass(frozen=True)
class ExperimentScale:
    """Bundle of knobs that trade fidelity for runtime.

    Attributes mirror the constants in Section 5 of the paper; see DESIGN.md
    for the mapping between paper-scale and reduced-scale runs.
    """

    name: str
    image_size: int            # w: rendered image resolution (paper: 256)
    base_filters: int          # U-Net first-layer filters (paper: 64)
    disc_filters: int          # discriminator first-layer filters (paper: 64)
    epochs: int                # cGAN training epochs (paper: 250)
    finetune_epochs: int       # strategy-2 fine-tuning epochs
    finetune_pairs: int        # strategy-2 pairs from the test design (paper: 10)
    placements_per_design: int  # dataset size per design (paper: 200)
    design_lut_scale: float    # multiplier on the paper's #LUT counts
    design_min_luts: int       # floor on scaled #LUTs
    design_max_luts: int       # ceiling on scaled #LUTs
    cluster_size: int          # LUT/FF pairs packed per CLB (VTR k6_N10: 10)
    channel_width: int         # routing channel capacity (Fig 2 example: 34)
    l1_weight: float = 50.0    # paper: L1 weight 50
    connect_weight: float = 0.1  # paper: lambda = 0.1
    learning_rate: float = 2e-4  # paper: 0.0002
    adam_beta1: float = 0.5    # paper: 0.5
    adam_beta2: float = 0.999  # paper: 0.999
    adam_eps: float = 1e-8     # paper: 1e-8
    batch_size: int = 1        # paper: 1
    top_k: int = 10            # Top10 metric

    def scaled_luts(self, paper_luts: int) -> int:
        """Scale a paper design's LUT count into this preset's budget."""
        scaled = int(round(paper_luts * self.design_lut_scale))
        return max(self.design_min_luts, min(self.design_max_luts, scaled))


PAPER = ExperimentScale(
    name="paper",
    image_size=256,
    base_filters=64,
    disc_filters=64,
    epochs=250,
    finetune_epochs=25,
    finetune_pairs=10,
    placements_per_design=200,
    design_lut_scale=1.0,
    design_min_luts=1,
    design_max_luts=10_000,
    cluster_size=10,
    channel_width=34,
)

# CPU preset: the learning rate is raised to 1e-3 — at 1/8th the filter
# count and ~1% of the paper's step budget, the paper's 2e-4 leaves the
# model visibly undertrained (see EXPERIMENTS.md), while 1e-3 reaches
# paper-band per-pixel accuracy within ~10 epochs.
DEFAULT = ExperimentScale(
    name="default",
    image_size=64,
    base_filters=8,
    disc_filters=8,
    epochs=10,
    finetune_epochs=6,
    finetune_pairs=4,
    placements_per_design=12,
    design_lut_scale=0.02,
    design_min_luts=48,
    design_max_luts=220,
    cluster_size=4,
    channel_width=12,
    learning_rate=1e-3,
    top_k=4,
)

SMOKE = ExperimentScale(
    name="smoke",
    image_size=32,
    base_filters=4,
    disc_filters=4,
    epochs=1,
    finetune_epochs=1,
    finetune_pairs=2,
    placements_per_design=4,
    design_lut_scale=0.005,
    design_min_luts=24,
    design_max_luts=48,
    cluster_size=4,
    channel_width=8,
    learning_rate=1e-3,
    top_k=2,
)

_PRESETS = {scale.name: scale for scale in (PAPER, DEFAULT, SMOKE)}


def get_scale(name: str | None = None) -> ExperimentScale:
    """Return a preset by name, or the one selected by ``REPRO_SCALE``.

    Raises ``KeyError`` for unknown names so typos fail loudly.
    """
    if name is None:
        name = os.environ.get("REPRO_SCALE", "default")
    return _PRESETS[name]


def custom_scale(base: ExperimentScale, **overrides) -> ExperimentScale:
    """Derive a modified preset (e.g. fewer epochs for a quick look)."""
    return replace(base, **overrides)
