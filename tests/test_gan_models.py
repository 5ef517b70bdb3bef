"""U-Net generator and patch discriminator tests (Figure 5)."""

import numpy as np
import pytest

from repro.gan import PatchDiscriminator, UNetGenerator
from repro.gan.unet import encoder_filters


@pytest.fixture
def rng():
    return np.random.default_rng(0)


class TestEncoderFilters:
    def test_paper_progression_at_256(self):
        # Figure 5: 64, 128, 256, 512, 512, 512, 512, 512 at 256x256.
        assert encoder_filters(256, 64) == [64, 128, 256, 512, 512, 512,
                                            512, 512]

    def test_small_image_fewer_levels(self):
        assert encoder_filters(32, 8) == [8, 16, 32, 64, 64]

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            encoder_filters(100, 8)
        with pytest.raises(ValueError):
            encoder_filters(4, 8)


class TestUNetGenerator:
    @pytest.mark.parametrize("skip_mode", ["all", "single", "none"])
    def test_output_shape_and_range(self, rng, skip_mode):
        gen = UNetGenerator(in_channels=4, out_channels=3, image_size=32,
                            base_filters=4, skip_mode=skip_mode, rng=rng)
        x = rng.normal(size=(1, 4, 32, 32)).astype(np.float32)
        out = gen.forward(x)
        assert out.shape == (1, 3, 32, 32)
        assert out.min() >= -1.0 and out.max() <= 1.0  # tanh output

    def test_encoder_resolutions_halve_to_1x1(self, rng):
        gen = UNetGenerator(image_size=32, base_filters=4, rng=rng)
        x = rng.normal(size=(1, 4, 32, 32)).astype(np.float32)
        gen.forward(x)
        sizes = [act.shape[2] for act in gen._enc_acts]
        assert sizes == [16, 8, 4, 2, 1]

    def test_backward_shapes(self, rng):
        gen = UNetGenerator(image_size=32, base_filters=4, rng=rng)
        x = rng.normal(size=(1, 4, 32, 32)).astype(np.float32)
        out = gen.forward(x)
        grad = gen.backward(np.ones_like(out))
        assert grad.shape == x.shape

    def test_invalid_skip_mode_raises(self, rng):
        with pytest.raises(ValueError, match="skip_mode"):
            UNetGenerator(skip_mode="some", rng=rng)

    def test_wrong_input_size_raises(self, rng):
        gen = UNetGenerator(image_size=32, base_filters=4, rng=rng)
        with pytest.raises(ValueError):
            gen.forward(np.zeros((1, 4, 64, 64), dtype=np.float32))
        with pytest.raises(ValueError):
            gen.forward(np.zeros((1, 3, 32, 32), dtype=np.float32))

    def test_skip_mode_changes_parameter_count(self, rng):
        """Skips concatenate channels, so decoders grow with skip count."""
        params = {
            mode: UNetGenerator(image_size=32, base_filters=4, skip_mode=mode,
                                rng=np.random.default_rng(0)).num_parameters()
            for mode in ("all", "single", "none")
        }
        assert params["all"] > params["single"] > params["none"]

    def test_skip_connections_carry_structure(self, rng):
        """With all skips, perturbing one input pixel changes the matching
        output region much more than with no skips — the structural bypass
        the paper's Section 5.3 ablation studies."""
        def sensitivity(skip_mode):
            gen = UNetGenerator(image_size=32, base_filters=4,
                                skip_mode=skip_mode, dropout=0.0,
                                rng=np.random.default_rng(1))
            x = np.zeros((1, 4, 32, 32), dtype=np.float32)
            base = gen.forward_eval(x)
            x2 = x.copy()
            x2[0, :, 8, 8] = 2.0
            shifted = gen.forward_eval(x2)
            delta = np.abs(shifted - base)[0].sum(axis=0)
            local = delta[6:11, 6:11].sum()
            return local / (delta.sum() + 1e-9)

        assert sensitivity("all") > sensitivity("none")

    def test_gradient_check_end_to_end(self, rng):
        """Finite-difference check through the whole (tiny) U-Net."""
        from repro.nn.gradcheck import check_layer_input_grad

        gen = UNetGenerator(in_channels=2, out_channels=1, image_size=8,
                            base_filters=2, dropout=0.0, rng=rng)
        for _, param in gen.named_parameters():
            param.data = param.data.astype(np.float64)
            param.grad = param.grad.astype(np.float64)
        x = rng.normal(size=(1, 2, 8, 8))
        assert check_layer_input_grad(gen, x) < 5e-3

    def test_dropout_gives_stochastic_outputs(self, rng):
        gen = UNetGenerator(image_size=32, base_filters=4, dropout=0.5,
                            rng=rng)
        x = rng.normal(size=(1, 4, 32, 32)).astype(np.float32)
        a = gen.forward(x).copy()
        b = gen.forward(x)
        assert not np.allclose(a, b)  # z sampled via dropout

    def test_state_dict_roundtrip(self, rng):
        gen = UNetGenerator(image_size=16, base_filters=4, rng=rng)
        clone = UNetGenerator(image_size=16, base_filters=4,
                              rng=np.random.default_rng(42))
        clone.load_state_dict(gen.state_dict())
        x = rng.normal(size=(1, 4, 16, 16)).astype(np.float32)
        np.testing.assert_array_equal(gen.forward_eval(x),
                                      clone.forward_eval(x))


class TestPatchDiscriminator:
    def test_paper_patch_sizes(self, rng):
        """Figure 5: at 256 input the patch pipeline is 128, 64, 32, 31, 30."""
        disc = PatchDiscriminator(in_channels=6, base_filters=4, rng=rng)
        x = rng.normal(size=(1, 6, 256, 256)).astype(np.float32)
        out = disc.forward(x)
        assert out.shape == (1, 1, 30, 30)

    def test_patch_output_at_64(self, rng):
        disc = PatchDiscriminator(in_channels=7, base_filters=4, rng=rng)
        out = disc.forward(rng.normal(size=(1, 7, 64, 64)).astype(np.float32))
        assert out.shape == (1, 1, 6, 6)

    def test_outputs_are_logits(self, rng):
        disc = PatchDiscriminator(in_channels=7, base_filters=4, rng=rng)
        out = disc.forward(
            5 * rng.normal(size=(1, 7, 64, 64)).astype(np.float32))
        # Logits are unbounded; sigmoid lives in the loss.
        assert out.min() < 0 or out.max() > 1

    def test_backward_returns_input_grad(self, rng):
        disc = PatchDiscriminator(in_channels=7, base_filters=4, rng=rng)
        x = rng.normal(size=(1, 7, 64, 64)).astype(np.float32)
        out = disc.forward(x)
        grad = disc.backward(np.ones_like(out))
        assert grad.shape == x.shape

    def test_channel_mismatch_raises(self, rng):
        disc = PatchDiscriminator(in_channels=7, base_filters=4, rng=rng)
        with pytest.raises(ValueError):
            disc.forward(np.zeros((1, 6, 64, 64), dtype=np.float32))
