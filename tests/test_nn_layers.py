"""Shape, pass, and bookkeeping tests for every layer type."""

import numpy as np
import pytest

from repro.nn import (
    BatchNorm2d,
    Concat,
    Conv2d,
    ConvTranspose2d,
    Dropout,
    LeakyReLU,
    ReLU,
    Sequential,
    Tanh,
)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


class TestConv2d:
    def test_output_shape(self, rng):
        conv = Conv2d(3, 8, kernel=4, stride=2, pad=1, rng=rng)
        out = conv(rng.normal(size=(2, 3, 16, 16)).astype(np.float32))
        assert out.shape == (2, 8, 8, 8)

    def test_channel_mismatch_raises(self, rng):
        conv = Conv2d(3, 8, rng=rng)
        with pytest.raises(ValueError):
            conv(np.zeros((1, 4, 8, 8), dtype=np.float32))

    def test_backward_before_forward_raises(self, rng):
        conv = Conv2d(3, 8, rng=rng)
        with pytest.raises(RuntimeError):
            conv.backward(np.zeros((1, 8, 4, 4), dtype=np.float32))

    def test_bias_shifts_output(self, rng):
        conv = Conv2d(1, 2, kernel=1, stride=1, pad=0, rng=rng)
        x = np.zeros((1, 1, 3, 3), dtype=np.float32)
        conv.bias.data[...] = [1.0, -2.0]
        out = conv(x)
        np.testing.assert_allclose(out[0, 0], 1.0)
        np.testing.assert_allclose(out[0, 1], -2.0)

    def test_known_convolution_value(self, rng):
        conv = Conv2d(1, 1, kernel=2, stride=1, pad=0, bias=False, rng=rng)
        conv.weight.data[...] = 1.0
        x = np.arange(9, dtype=np.float32).reshape(1, 1, 3, 3)
        out = conv(x)
        # Each output = sum of the 2x2 window.
        assert out[0, 0, 0, 0] == pytest.approx(0 + 1 + 3 + 4)
        assert out[0, 0, 1, 1] == pytest.approx(4 + 5 + 7 + 8)

    def test_gradient_accumulates_across_backwards(self, rng):
        conv = Conv2d(1, 1, kernel=2, stride=1, pad=0, rng=rng)
        x = rng.normal(size=(1, 1, 4, 4)).astype(np.float32)
        out = conv(x)
        conv.backward(np.ones_like(out))
        first = conv.weight.grad.copy()
        conv.forward(x)
        conv.backward(np.ones_like(out))
        np.testing.assert_allclose(conv.weight.grad, 2 * first, rtol=1e-6)


class TestConvTranspose2d:
    def test_output_shape_doubles(self, rng):
        deconv = ConvTranspose2d(8, 4, kernel=4, stride=2, pad=1, rng=rng)
        out = deconv(rng.normal(size=(2, 8, 8, 8)).astype(np.float32))
        assert out.shape == (2, 4, 16, 16)

    def test_adjoint_of_conv(self, rng):
        """convT with weight W is the exact adjoint of conv with weight W."""
        conv = Conv2d(3, 5, kernel=4, stride=2, pad=1, bias=False, rng=rng)
        deconv = ConvTranspose2d(5, 3, kernel=4, stride=2, pad=1, bias=False,
                                 rng=rng)
        # ConvTranspose weight layout (in=5, out=3, k, k) coincides with the
        # conv weight layout (out=5, in=3, k, k), so share it directly.
        deconv.weight.data[...] = conv.weight.data
        x = rng.normal(size=(1, 3, 8, 8)).astype(np.float64)
        y = rng.normal(size=(1, 5, 4, 4)).astype(np.float64)
        lhs = float((conv(x.astype(np.float32)).astype(np.float64) * y).sum())
        rhs = float((x * deconv(y.astype(np.float32)).astype(np.float64)).sum())
        assert lhs == pytest.approx(rhs, rel=1e-4)

    def test_channel_mismatch_raises(self, rng):
        deconv = ConvTranspose2d(8, 4, rng=rng)
        with pytest.raises(ValueError):
            deconv(np.zeros((1, 3, 4, 4), dtype=np.float32))


class TestBatchNorm2d:
    def test_normalizes_in_training(self, rng):
        bn = BatchNorm2d(4)
        x = rng.normal(loc=5.0, scale=3.0, size=(4, 4, 8, 8)).astype(np.float32)
        out = bn(x)
        np.testing.assert_allclose(out.mean(axis=(0, 2, 3)), 0.0, atol=1e-4)
        np.testing.assert_allclose(out.std(axis=(0, 2, 3)), 1.0, atol=1e-3)

    def test_eval_uses_running_stats(self, rng):
        bn = BatchNorm2d(2)
        x = rng.normal(loc=2.0, size=(8, 2, 4, 4)).astype(np.float32)
        for _ in range(50):
            bn(x)
        out = bn.forward_eval(x)
        # After many updates the running stats converge to the batch stats,
        # so the inference pass's output is also normalized.
        np.testing.assert_allclose(out.mean(axis=(0, 2, 3)), 0.0, atol=0.05)

    def test_gamma_beta_affect_output(self, rng):
        bn = BatchNorm2d(1)
        bn.gamma.data[...] = 2.0
        bn.beta.data[...] = 3.0
        x = rng.normal(size=(2, 1, 4, 4)).astype(np.float32)
        out = bn(x)
        assert out.mean() == pytest.approx(3.0, abs=1e-4)

    def test_batch_size_one_acts_as_instance_norm(self, rng):
        # The paper trains with batch size 1; BN must stay well-defined.
        bn = BatchNorm2d(3)
        x = rng.normal(size=(1, 3, 8, 8)).astype(np.float32)
        out = bn(x)
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out.mean(axis=(0, 2, 3)), 0.0, atol=1e-4)


class TestActivationsAndDropout:
    def test_relu_is_leaky_with_zero_slope(self, rng):
        relu = ReLU()
        x = np.array([[-1.0, 2.0]], dtype=np.float32).reshape(1, 1, 1, 2)
        np.testing.assert_allclose(relu(x).ravel(), [0.0, 2.0])

    def test_leaky_relu_backward_mask(self):
        layer = LeakyReLU(0.2)
        x = np.array([-1.0, 1.0], dtype=np.float32).reshape(1, 1, 1, 2)
        layer(x)
        grad = layer.backward(np.ones_like(x))
        np.testing.assert_allclose(grad.ravel(), [0.2, 1.0])

    def test_tanh_range(self, rng):
        layer = Tanh()
        out = layer(rng.normal(scale=10, size=(1, 1, 8, 8)).astype(np.float32))
        assert out.min() >= -1.0 and out.max() <= 1.0

    def test_dropout_scales_expectation(self, rng):
        layer = Dropout(0.5, rng=rng)
        x = np.ones((1, 1, 64, 64), dtype=np.float32)
        out = layer(x)
        assert out.mean() == pytest.approx(1.0, abs=0.1)
        kept = out != 0
        np.testing.assert_allclose(out[kept], 2.0)

    def test_dropout_identity_in_eval(self, rng):
        layer = Dropout(0.5, rng=rng)
        x = rng.normal(size=(1, 1, 4, 4)).astype(np.float32)
        np.testing.assert_array_equal(layer.forward_eval(x), x)

    def test_dropout_invalid_p_raises(self):
        with pytest.raises(ValueError):
            Dropout(1.0)


class TestContainers:
    def test_sequential_forward_backward_roundtrip(self, rng):
        model = Sequential(
            Conv2d(2, 4, rng=rng), BatchNorm2d(4), LeakyReLU(0.2),
            Conv2d(4, 1, rng=rng),
        )
        x = rng.normal(size=(1, 2, 8, 8)).astype(np.float32)
        out = model(x)
        assert out.shape == (1, 1, 2, 2)
        grad = model.backward(np.ones_like(out))
        assert grad.shape == x.shape

    def test_sequential_tracks_parameters(self, rng):
        model = Sequential(Conv2d(1, 2, rng=rng), BatchNorm2d(2))
        names = [name for name, _ in model.named_parameters()]
        assert "layers.0.weight" in names
        assert "layers.1.gamma" in names

    def test_concat_splits_gradient(self, rng):
        concat = Concat()
        a = rng.normal(size=(1, 2, 4, 4)).astype(np.float32)
        b = rng.normal(size=(1, 3, 4, 4)).astype(np.float32)
        out = concat.forward((a, b))
        assert out.shape == (1, 5, 4, 4)
        grad_a, grad_b = concat.backward(out)
        np.testing.assert_array_equal(grad_a, a)
        np.testing.assert_array_equal(grad_b, b)

    def test_concat_shape_mismatch_raises(self, rng):
        concat = Concat()
        with pytest.raises(ValueError):
            concat.forward((np.zeros((1, 1, 2, 2)), np.zeros((1, 1, 4, 4))))


class TestStateDict:
    def test_roundtrip_preserves_values(self, rng):
        model = Sequential(Conv2d(1, 2, rng=rng), BatchNorm2d(2))
        state = model.state_dict()
        clone = Sequential(Conv2d(1, 2, rng=np.random.default_rng(99)),
                           BatchNorm2d(2))
        clone.load_state_dict(state)
        x = rng.normal(size=(1, 1, 8, 8)).astype(np.float32)
        np.testing.assert_allclose(model.forward_eval(x),
                                   clone.forward_eval(x), rtol=1e-6)

    def test_load_refreshes_folded_weights(self, rng):
        """Each layer of a bare tree owns its arena, and the conv caches
        its BatchNorm-folded weights on its own: a load through the
        container must invalidate that cache, not only the container's."""
        source = Sequential(Conv2d(1, 2, rng=np.random.default_rng(3)),
                            BatchNorm2d(2))
        source.layers[1].running_mean[...] = [0.5, -0.25]
        source.layers[1].running_var[...] = [2.0, 0.5]
        target = Sequential(Conv2d(1, 2, rng=np.random.default_rng(4)),
                            BatchNorm2d(2))
        x = rng.normal(size=(1, 1, 8, 8)).astype(np.float32)
        target.forward_eval(x)                  # caches the folded weights
        target.load_state_dict(source.state_dict())
        np.testing.assert_array_equal(target.forward_eval(x),
                                      source.forward_eval(x))

    def test_includes_running_buffers(self, rng):
        model = Sequential(BatchNorm2d(2))
        assert any("running_mean" in key for key in model.state_dict())

    def test_wrong_shape_raises(self, rng):
        model = Sequential(Conv2d(1, 2, rng=rng))
        state = model.state_dict()
        state["layers.0.weight"] = np.zeros((1, 1, 1, 1), dtype=np.float32)
        with pytest.raises(ValueError):
            model.load_state_dict(state)

    def test_unknown_key_raises(self, rng):
        model = Sequential(Conv2d(1, 2, rng=rng))
        with pytest.raises(KeyError):
            model.load_state_dict({"nonsense": np.zeros(1)})
