"""Finite-difference verification of every analytic gradient.

These tests are the correctness contract of the numpy framework: each layer's
input and parameter gradients must match central differences to tight
tolerance (float64 inputs keep the comparison clean).
"""

import numpy as np
import pytest

from repro.nn import (
    BatchNorm2d,
    BCEWithLogitsLoss,
    Conv2d,
    ConvTranspose2d,
    L1Loss,
    LeakyReLU,
    Sequential,
    Tanh,
)
from repro.nn.gradcheck import (
    check_layer_input_grad,
    check_layer_param_grads,
    numerical_gradient,
)

TOL = 2e-3


@pytest.fixture
def rng():
    return np.random.default_rng(7)


def _f64(layer):
    """Promote a layer's parameters to float64 for clean finite differences."""
    for _, param in layer.named_parameters():
        param.data = param.data.astype(np.float64)
        param.grad = param.grad.astype(np.float64)
    return layer


class TestConvGradients:
    @pytest.mark.parametrize("stride,pad,kernel", [(2, 1, 4), (1, 1, 3), (1, 0, 2)])
    def test_conv2d_input_grad(self, rng, stride, pad, kernel):
        layer = _f64(Conv2d(2, 3, kernel=kernel, stride=stride, pad=pad, rng=rng))
        x = rng.normal(size=(2, 2, 6, 6))
        assert check_layer_input_grad(layer, x) < TOL

    def test_conv2d_param_grads(self, rng):
        layer = _f64(Conv2d(2, 3, kernel=3, stride=1, pad=1, rng=rng))
        x = rng.normal(size=(1, 2, 5, 5))
        errors = check_layer_param_grads(layer, x)
        assert max(errors.values()) < TOL

    @pytest.mark.parametrize("stride,pad,kernel", [(2, 1, 4), (1, 1, 3)])
    def test_conv_transpose_input_grad(self, rng, stride, pad, kernel):
        layer = _f64(ConvTranspose2d(3, 2, kernel=kernel, stride=stride,
                                     pad=pad, rng=rng))
        x = rng.normal(size=(1, 3, 4, 4))
        assert check_layer_input_grad(layer, x) < TOL

    def test_conv_transpose_param_grads(self, rng):
        layer = _f64(ConvTranspose2d(2, 2, kernel=4, stride=2, pad=1, rng=rng))
        x = rng.normal(size=(1, 2, 4, 4))
        errors = check_layer_param_grads(layer, x)
        assert max(errors.values()) < TOL


class TestBatchNormGradients:
    def test_input_grad_training(self, rng):
        layer = _f64(BatchNorm2d(3))
        x = rng.normal(size=(2, 3, 4, 4))
        assert check_layer_input_grad(layer, x) < TOL

    def test_param_grads(self, rng):
        layer = _f64(BatchNorm2d(2))
        layer.gamma.data[...] = rng.normal(1.0, 0.1, size=2)
        x = rng.normal(size=(2, 2, 4, 4))
        errors = check_layer_param_grads(layer, x)
        assert max(errors.values()) < TOL


class TestActivationGradients:
    @pytest.mark.parametrize("layer_factory", [
        lambda: LeakyReLU(0.2), Tanh,
    ])
    def test_input_grad(self, rng, layer_factory):
        layer = layer_factory()
        # Keep values away from the LeakyReLU kink where FD is undefined.
        x = rng.normal(size=(1, 2, 4, 4))
        x[np.abs(x) < 0.05] = 0.1
        assert check_layer_input_grad(layer, x) < TOL


class TestCompositeGradients:
    def test_small_network_end_to_end(self, rng):
        model = Sequential(
            _f64(Conv2d(1, 2, kernel=3, stride=1, pad=1, rng=rng)),
            LeakyReLU(0.2),
            _f64(Conv2d(2, 1, kernel=3, stride=1, pad=1, rng=rng)),
            Tanh(),
        )
        x = rng.normal(size=(1, 1, 5, 5))
        assert check_layer_input_grad(model, x) < TOL


class TestLossGradients:
    @pytest.mark.parametrize("loss_factory,target", [
        (BCEWithLogitsLoss, 1.0),
        (BCEWithLogitsLoss, 0.0),
    ])
    def test_loss_grad_matches_fd(self, rng, loss_factory, target):
        loss = loss_factory()
        pred = rng.normal(size=(2, 1, 3, 3))
        tgt = np.full_like(pred, target)

        def value(arr):
            return loss.forward(arr, tgt)

        value(pred)
        analytic = loss.backward()
        numeric = numerical_gradient(value, pred.copy())
        np.testing.assert_allclose(analytic, numeric, atol=TOL)

    def test_l1_grad_away_from_kink(self, rng):
        loss = L1Loss()
        pred = rng.normal(size=(1, 1, 4, 4))
        tgt = pred + np.where(rng.random(pred.shape) > 0.5, 1.0, -1.0)
        loss.forward(pred, tgt)
        analytic = loss.backward()
        numeric = numerical_gradient(lambda arr: loss.forward(arr, tgt),
                                     pred.copy())
        np.testing.assert_allclose(analytic, numeric, atol=TOL)
