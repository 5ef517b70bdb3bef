"""Adversarial training-step tests (Section 4.4 / Figure 6), and the
inference-only generator copy a second serving lane forecasts on."""

import threading

import numpy as np
import pytest

from repro.config import SMOKE
from repro.gan import GeneratorReplica, Pix2Pix, Pix2PixConfig


@pytest.fixture
def model():
    return Pix2Pix(Pix2PixConfig(image_size=16, base_filters=4,
                                 disc_filters=4, seed=3))


@pytest.fixture
def batch():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(1, 4, 16, 16)).astype(np.float32)
    y = np.tanh(rng.normal(size=(1, 3, 16, 16))).astype(np.float32)
    return x, y


class TestConfig:
    def test_paper_defaults(self):
        config = Pix2PixConfig()
        assert config.l1_weight == 50.0        # paper: L1 weight 50
        assert config.learning_rate == 2e-4    # paper: 0.0002
        assert config.adam_beta1 == 0.5
        assert config.adam_beta2 == 0.999
        assert config.adam_eps == 1e-8
        assert config.image_size == 256
        assert config.input_channels == 4      # img_place + lambda*connect

    def test_from_scale(self):
        config = Pix2PixConfig.from_scale(SMOKE)
        assert config.image_size == SMOKE.image_size
        assert config.base_filters == SMOKE.base_filters

    def test_from_scale_overrides(self):
        config = Pix2PixConfig.from_scale(SMOKE, skip_mode="none",
                                          l1_weight=0.0)
        assert config.skip_mode == "none"
        assert config.l1_weight == 0.0


class TestTrainStep:
    def test_returns_all_losses(self, model, batch):
        losses = model.train_step(*batch)
        for value in (losses.d_real, losses.d_fake, losses.g_gan,
                      losses.g_l1):
            assert np.isfinite(value)
        assert losses.d_total == pytest.approx(
            0.5 * (losses.d_real + losses.d_fake))
        assert losses.g_total == pytest.approx(losses.g_gan + losses.g_l1)

    def test_updates_both_networks(self, model, batch):
        g_before = model.generator.state_dict()
        d_before = model.discriminator.state_dict()
        model.train_step(*batch)
        g_changed = any(
            not np.array_equal(g_before[k], v)
            for k, v in model.generator.state_dict().items()
            if not k.endswith(("running_mean", "running_var")))
        d_changed = any(
            not np.array_equal(d_before[k], v)
            for k, v in model.discriminator.state_dict().items()
            if not k.endswith(("running_mean", "running_var")))
        assert g_changed and d_changed

    def test_l1_loss_decreases_when_overfitting(self, model, batch):
        x, y = batch
        first = model.train_step(x, y).g_l1
        for _ in range(30):
            last = model.train_step(x, y).g_l1
        assert last < first

    def test_zero_l1_weight_disables_l1_term(self, batch):
        model = Pix2Pix(Pix2PixConfig(image_size=16, base_filters=4,
                                      disc_filters=4, l1_weight=0.0))
        losses = model.train_step(*batch)
        assert losses.g_l1 == 0.0

    def test_d_grads_cleared_after_g_step(self, model, batch):
        model.train_step(*batch)
        for param in model.discriminator.parameters():
            np.testing.assert_array_equal(param.grad, 0.0)

    def test_losses_reflect_adversarial_game(self, model, batch):
        """After D catches up, fake logits drop: d_fake < initial."""
        x, y = batch
        first = model.train_step(x, y)
        for _ in range(15):
            last = model.train_step(x, y)
        # The discriminator should have learned *something* about the pair.
        assert last.d_total < first.d_total + 1.0  # sanity: no divergence
        assert np.isfinite(last.g_total)


class TestGenerate:
    def test_output_shape_and_range(self, model, batch):
        x, _ = batch
        out = model.generate(x)
        assert out.shape == (1, 3, 16, 16)
        assert out.min() >= -1.0 and out.max() <= 1.0

    def test_noise_sampling_toggle(self, model, batch):
        x, _ = batch
        a = model.generate(x, sample_noise=True)
        b = model.generate(x, sample_noise=True)
        assert not np.allclose(a, b)
        c = model.generate(x, sample_noise=False)
        d = model.generate(x, sample_noise=False)
        np.testing.assert_allclose(c, d)


class TestGeneratorReplica:
    @pytest.fixture
    def trained(self, model, batch):
        """Training steps leave activation caches, folds to invalidate
        and moved running statistics behind."""
        for _ in range(2):
            model.train_step(*batch)
        model.forecast(batch[0])
        return model

    def test_forecast_is_bitwise_the_models(self, trained):
        x = np.random.default_rng(8).uniform(
            -1, 1, size=(5, 4, 16, 16)).astype(np.float32)
        replica = GeneratorReplica(trained.generator)
        assert np.array_equal(replica.forecast(x), trained.forecast(x))
        assert np.array_equal(replica.forecast(x[2]), trained.forecast(x[2]))

    def test_shares_weights_not_state(self, trained):
        replica = GeneratorReplica(trained.generator)
        source = dict(trained.generator.named_modules())
        copies = dict(replica.generator.named_modules())
        assert source.keys() == copies.keys()
        for path, copy in copies.items():
            original = source[path]
            assert type(copy) is type(original)
            assert copy is not original
            assert copy.workspace is replica.workspace
            for name in ("_cache", "_fold", "_out", "_scale", "_mask",
                         "_enc_acts"):
                assert getattr(copy, name, None) is None, f"{path}.{name}"
        for (_, mine), (_, theirs) in zip(
                replica.generator.named_parameters(),
                trained.generator.named_parameters()):
            assert mine is theirs
        for (_, mine), (_, theirs) in zip(
                replica.generator._named_buffers(),
                trained.generator._named_buffers()):
            assert mine is theirs

    def test_instance_shims_are_not_carried(self, trained, batch):
        """Methods shimmed onto the source's modules (a profiler's) stay
        on the source: the copy runs its class's methods."""
        calls = []
        for _, leaf in trained.generator.named_modules():
            original = leaf.forward_eval

            def shim(x, *args, _original=original, **kwargs):
                calls.append(threading.current_thread().name)
                return _original(x, *args, **kwargs)

            leaf.forward_eval = shim
        replica = GeneratorReplica(trained.generator)
        replica.forecast(batch[0])
        assert calls == []
        assert not any("forward_eval" in vars(module)
                       for _, module in replica.generator.named_modules())
