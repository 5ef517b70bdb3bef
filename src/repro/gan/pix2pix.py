"""The conditional GAN training step (Section 4.4, Figure 6).

One :meth:`Pix2Pix.train_step` performs the paper's two updates:

* **D step** — classify (x, truth) as real and (x, G(x, z)) as fake; the
  two BCE gradients are averaged (the standard pix2pix 0.5 factor) and only
  D's parameters step.
* **G step** — push D(x, G(x, z)) toward "real" while minimizing
  ``l1_weight * ||truth - G(x, z)||_1``; the adversarial gradient flows
  through D into the generated image (D's own parameter gradients from this
  pass are discarded), and only G's parameters step.

Setting ``l1_weight = 0`` reproduces the "w/o L1" ablation of Section 5.3;
``skip_mode`` selects the skip-connection ablations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config import ExperimentScale
from repro.gan.discriminator import PatchDiscriminator
from repro.gan.unet import UNetGenerator
from repro.nn import Adam, BCEWithLogitsLoss, L1Loss, Workspace


@dataclass(frozen=True)
class Pix2PixConfig:
    """Model and objective hyperparameters (defaults: the paper's)."""

    image_size: int = 256
    input_channels: int = 4    # img_place RGB + connectivity channel
    output_channels: int = 3   # img_route RGB
    base_filters: int = 64
    disc_filters: int = 64
    skip_mode: str = "all"
    l1_weight: float = 50.0
    learning_rate: float = 2e-4
    adam_beta1: float = 0.5
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    dropout: float = 0.5
    seed: int = 0

    @classmethod
    def from_scale(cls, scale: ExperimentScale, **overrides) -> "Pix2PixConfig":
        """Derive a config from an experiment scale preset."""
        values = dict(
            image_size=scale.image_size,
            base_filters=scale.base_filters,
            disc_filters=scale.disc_filters,
            l1_weight=scale.l1_weight,
            learning_rate=scale.learning_rate,
            adam_beta1=scale.adam_beta1,
            adam_beta2=scale.adam_beta2,
            adam_eps=scale.adam_eps,
        )
        values.update(overrides)
        return cls(**values)


@dataclass
class StepLosses:
    """Scalar losses from one adversarial step."""

    d_real: float
    d_fake: float
    g_gan: float
    g_l1: float

    @property
    def d_total(self) -> float:
        return 0.5 * (self.d_real + self.d_fake)

    @property
    def g_total(self) -> float:
        return self.g_gan + self.g_l1


class Pix2Pix:
    """Generator + discriminator pair with their optimizers."""

    def __init__(self, config: Pix2PixConfig | None = None):
        self.config = config if config is not None else Pix2PixConfig()
        cfg = self.config
        rng = np.random.default_rng(cfg.seed)
        self.generator = UNetGenerator(
            in_channels=cfg.input_channels,
            out_channels=cfg.output_channels,
            image_size=cfg.image_size,
            base_filters=cfg.base_filters,
            skip_mode=cfg.skip_mode,
            dropout=cfg.dropout,
            rng=rng,
        )
        self.discriminator = PatchDiscriminator(
            in_channels=cfg.input_channels + cfg.output_channels,
            base_filters=cfg.disc_filters,
            image_size=cfg.image_size,
            rng=rng,
        )
        adam_kwargs = dict(lr=cfg.learning_rate, beta1=cfg.adam_beta1,
                           beta2=cfg.adam_beta2, eps=cfg.adam_eps)
        self.opt_g = Adam(self.generator.parameters(), **adam_kwargs)
        self.opt_d = Adam(self.discriminator.parameters(), **adam_kwargs)
        self._bce = BCEWithLogitsLoss()
        self._l1 = L1Loss()
        # One scratch arena per model: conv/norm/activation temporaries and
        # the train-step concat inputs all live here, reused across steps
        # (see repro.nn.workspace).
        self.workspace = Workspace()
        self.generator.attach_workspace(self.workspace)
        self.discriminator.attach_workspace(self.workspace)

    # -- training --------------------------------------------------------------

    def _concat_input(self, name: str, x: np.ndarray,
                      image: np.ndarray) -> np.ndarray:
        """Stack (condition, image) into a reused workspace buffer."""
        shape = (x.shape[0], x.shape[1] + image.shape[1]) + x.shape[2:]
        out = self.workspace.buffer(self, name, shape, x.dtype)
        np.concatenate([x, image], axis=1, out=out)
        return out

    def train_step(self, x: np.ndarray, y: np.ndarray) -> StepLosses:
        """One D update followed by one G update on a batch."""
        generator = self.generator
        discriminator = self.discriminator
        # Parameters are about to change: invalidate the fused-weight
        # caches the eval path keys on this counter.
        self.workspace.generation += 1

        fake = generator.forward(x)

        # ---- discriminator step -------------------------------------------
        self.opt_d.zero_grad()
        real_logits = discriminator.forward(self._concat_input("real", x, y))
        d_real = self._bce.forward(real_logits, 1.0)
        discriminator.backward(0.5 * self._bce.backward(),
                               need_input_grad=False)

        # One concat serves both the D-fake and the G-fool pass below: the
        # discriminator never mutates its input and opt_d.step() only
        # touches parameters.
        fake_input = self._concat_input("fake", x, fake)
        fake_logits = discriminator.forward(fake_input)
        d_fake = self._bce.forward(fake_logits, 0.0)
        discriminator.backward(0.5 * self._bce.backward(),
                               need_input_grad=False)
        self.opt_d.step()

        # ---- generator step -------------------------------------------------
        self.opt_g.zero_grad()
        fool_logits = discriminator.forward(fake_input)
        g_gan = self._bce.forward(fool_logits, 1.0)
        d_input_grad = discriminator.backward(self._bce.backward())
        grad_fake = d_input_grad[:, x.shape[1]:]

        g_l1_raw = self._l1.forward(fake, y)
        g_l1 = self.config.l1_weight * g_l1_raw
        if self.config.l1_weight > 0:
            grad_fake = grad_fake + self.config.l1_weight * self._l1.backward()

        generator.backward(np.ascontiguousarray(grad_fake, dtype=np.float32),
                           need_input_grad=False)
        self.opt_g.step()
        # The G pass polluted D's parameter gradients; discard them.
        self.opt_d.zero_grad()

        return StepLosses(d_real=d_real, d_fake=d_fake, g_gan=g_gan, g_l1=g_l1)

    # -- persistence ----------------------------------------------------------

    def save(self, path) -> None:
        """Checkpoint both networks (and the config) to an ``.npz`` file.

        The write is atomic (:func:`repro.nn.serialize.savez_atomic`), so
        a reader never sees a half-written checkpoint at ``path``.
        """
        import dataclasses
        import json

        from repro.nn.serialize import savez_atomic

        state = {f"G.{k}": v for k, v in self.generator.state_dict().items()}
        state.update(
            {f"D.{k}": v for k, v in self.discriminator.state_dict().items()})
        state["config_json"] = np.array(
            json.dumps(dataclasses.asdict(self.config)))
        savez_atomic(path, state)

    @classmethod
    def load(cls, path) -> "Pix2Pix":
        """Restore a model checkpointed with :meth:`save`.

        Raises ``ValueError`` for a file that is not a Pix2Pix checkpoint
        (a truncated or corrupt archive, a missing or malformed config,
        missing or misshapen weights) and ``FileNotFoundError`` for a
        missing one.
        """
        import json
        from pathlib import Path

        from repro.nn.serialize import ARCHIVE_ERRORS, validate_state_dict

        path = Path(path)
        try:
            with np.load(path, allow_pickle=False) as archive:
                if "config_json" not in archive.files:
                    raise ValueError("no config_json")
                config = Pix2PixConfig(
                    **json.loads(str(archive["config_json"])))
                model = cls(config)
                g_state = {key[2:]: archive[key] for key in archive.files
                           if key.startswith("G.")}
                d_state = {key[2:]: archive[key] for key in archive.files
                           if key.startswith("D.")}
        except FileNotFoundError:
            raise
        except (TypeError, *ARCHIVE_ERRORS) as error:
            raise ValueError(f"{path} is not a Pix2Pix checkpoint "
                             f"({error})") from error
        validate_state_dict(model.generator, g_state,
                            context=f"generator from {path}")
        validate_state_dict(model.discriminator, d_state,
                            context=f"discriminator from {path}")
        model.generator.load_state_dict(g_state)
        model.discriminator.load_state_dict(d_state)
        return model

    # -- inference ---------------------------------------------------------------

    def generate(self, x: np.ndarray, sample_noise: bool = True) -> np.ndarray:
        """Forecast heat maps for a batch of inputs.

        ``sample_noise=True`` runs the generator's training ``forward``, so
        decoder dropout stays active (pix2pix draws its noise z from
        dropout, including at test time).  ``sample_noise=False`` runs the
        inference pass, ``forward_eval``: deterministic, no gradient
        caches, arena scratch throughout, and batch-invariant — stacking
        inputs into one batch yields bitwise the same outputs as running
        them one at a time (conv gemms run per sample; see
        ``repro.nn.layers.Conv2d``), which is what the serving engine's
        micro-batching relies on.  Its BatchNorm folding reassociates float
        ops, so it agrees with a plain float64 forward (running-stat
        BatchNorm, identity dropout) within a tolerance the tests assert:
        ``atol=1e-6`` on the [0, 1] forecast images.
        """
        if not sample_noise:
            return self.generator.forward_eval(x)
        return self.generator.forward(x)

    def forecast(self, x: np.ndarray, sample_noise: bool = False) -> np.ndarray:
        """Forecast heat-map *images* in [0, 1] from normalized inputs.

        ``x`` is one ``(C, H, W)`` input or a batch ``(N, C, H, W)``, in the
        tanh range [-1, 1]; the result is ``(H, W, 3)`` or ``(N, H, W, 3)``
        accordingly.  Defaults to the deterministic (noise-free) pass used
        for scoring, caching, and serving.
        """
        return _forecast_images(
            lambda batch: self.generate(batch, sample_noise=sample_noise), x)


def _forecast_images(generate, x: np.ndarray) -> np.ndarray:
    """Run ``generate`` (an NCHW generator pass) on one input or a batch
    and turn its tanh output into (H, W, 3) images in [0, 1]."""
    from repro.gan.dataset import from_unit_range_

    x = np.asarray(x, dtype=np.float32)
    if x.ndim not in (3, 4):
        raise ValueError(
            f"expected (C, H, W) or (N, C, H, W) input, got {x.shape}")
    single = x.ndim == 3
    out = generate(x[None] if single else x)
    # The tanh output is fresh and ours: denormalize in place over the
    # contiguous NCHW layout, then hand out the (N, H, W, 3) view.
    images = from_unit_range_(out).transpose(0, 2, 3, 1)
    return images[0] if single else images


class GeneratorReplica:
    """An inference-only copy of a model's generator, for another thread.

    A serving lane other than the first forecasts on one of these while
    the first runs the registered :class:`Pix2Pix` (layers keep
    activations and arena scratch on ``self``, so two threads never share
    one tree).  It is built from the generator's module tree
    (:meth:`repro.nn.layers.Module.inference_copy`), never by copying the
    model object, so nothing shimmed onto the model or its layers is
    carried over; there is no discriminator, optimizer or random init.
    The copy has its own workspace arena and fold caches and *shares* the
    generator's parameters and running statistics read-only: the
    deterministic pass never writes them, and sharing saves a copy of the
    weights per lane (218 MB for the paper's 54 M-parameter model).  The
    flip side: the source must not be trained or reloaded while a
    replica serves, which the serving engine already requires of every
    registered model.

    :meth:`forecast` is bitwise :meth:`Pix2Pix.forecast`: the same
    ``forward_eval`` over the same weights, through the same conversion.
    """

    def __init__(self, generator: UNetGenerator):
        self.workspace = Workspace()
        self.generator = generator.inference_copy()
        self.generator.attach_workspace(self.workspace)

    def forecast(self, x: np.ndarray) -> np.ndarray:
        """Deterministic :meth:`Pix2Pix.forecast` on this copy."""
        return _forecast_images(self.generator.forward_eval, x)
