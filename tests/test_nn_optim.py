"""Optimizer behaviour tests."""

import numpy as np
import pytest

from repro.nn import Adam
from repro.nn.layers import Parameter


def quadratic_grad(param: Parameter, target: float = 3.0) -> None:
    """Gradient of 0.5 * (x - target)^2."""
    param.grad[...] = param.data - target


class TestAdam:
    def test_paper_defaults(self):
        opt = Adam([Parameter(np.zeros(1))])
        assert opt.lr == pytest.approx(2e-4)
        assert opt.beta1 == pytest.approx(0.5)
        assert opt.beta2 == pytest.approx(0.999)
        assert opt.eps == pytest.approx(1e-8)

    def test_first_step_size_is_lr(self):
        # With bias correction the very first Adam step has magnitude ~lr.
        param = Parameter(np.array([1.0], dtype=np.float32))
        opt = Adam([param], lr=0.1)
        param.grad[...] = 123.0
        opt.step()
        assert param.data[0] == pytest.approx(0.9, abs=1e-4)

    def test_converges_on_quadratic(self):
        param = Parameter(np.array([10.0], dtype=np.float32))
        opt = Adam([param], lr=0.3)
        for _ in range(300):
            opt.zero_grad()
            quadratic_grad(param)
            opt.step()
        assert param.data[0] == pytest.approx(3.0, abs=1e-2)

    def test_invalid_lr_raises(self):
        with pytest.raises(ValueError):
            Adam([Parameter(np.zeros(1))], lr=0.0)

    def test_mixed_dtypes_raise(self):
        wide = Parameter(np.zeros(2))
        wide.data = wide.data.astype(np.float64)
        with pytest.raises(ValueError, match="one parameter dtype"):
            Adam([Parameter(np.zeros(3)), wide])

    def test_zero_grad_clears_all(self):
        params = [Parameter(np.ones(3)), Parameter(np.ones(2))]
        opt = Adam(params)
        for param in params:
            param.grad[...] = 5.0
        opt.zero_grad()
        for param in params:
            np.testing.assert_array_equal(param.grad, 0.0)


class TestAdamReference:
    def test_matches_textbook_adam_trajectory(self):
        """The flat/fused update must track the textbook m-hat/v-hat chain
        (guards the v-decay and bias-correction rewrites)."""
        rng = np.random.default_rng(0)
        param = Parameter(rng.normal(size=(6, 5)).astype(np.float32))
        reference = param.data.astype(np.float64).copy()
        lr, b1, b2, eps = 2e-4, 0.5, 0.999, 1e-8
        optimizer = Adam([param], lr=lr, beta1=b1, beta2=b2, eps=eps)
        m = np.zeros_like(reference)
        v = np.zeros_like(reference)
        for step in range(1, 26):
            grad = rng.normal(size=reference.shape)
            param.grad[...] = grad.astype(np.float32)
            optimizer.step()
            m = b1 * m + (1 - b1) * grad
            v = b2 * v + (1 - b2) * grad * grad
            m_hat = m / (1 - b1 ** step)
            v_hat = v / (1 - b2 ** step)
            reference -= lr * m_hat / (np.sqrt(v_hat) + eps)
            np.testing.assert_allclose(param.data, reference,
                                       rtol=1e-4, atol=1e-6)

    def test_second_moment_decays(self):
        """v is an EMA, not a running sum: with gradients that go to zero
        the effective step size must recover (catches a dropped v *= b2)."""
        param = Parameter(np.zeros(4, dtype=np.float32))
        optimizer = Adam([param], lr=1e-2, beta1=0.0, beta2=0.5)
        param.grad[...] = 10.0
        optimizer.step()
        for _ in range(40):                       # decay v with tiny grads
            param.grad[...] = 1e-4
            optimizer.step()
        before = param.data.copy()
        param.grad[...] = 1e-4
        optimizer.step()
        step_size = float(np.abs(param.data - before).max())
        # With v decayed to ~grad^2 the update is ~lr; a running-sum v
        # would keep it pinned near zero.
        assert step_size > 2e-3
