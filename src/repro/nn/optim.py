"""The optimizer.

The paper trains both networks with Adam at lr=2e-4, beta1=0.5, beta2=0.999,
eps=1e-8 — the pix2pix defaults.
"""

from __future__ import annotations

import numpy as np

from repro.nn.layers import Parameter


class Adam:
    """Adam with the paper's constants as defaults.

    The optimizer *flattens* its parameters: on construction every
    ``Parameter``'s ``data`` and ``grad`` are re-pointed at slices of two
    contiguous arrays (values preserved), so one step is a dozen ufunc
    calls over the flat arrays instead of a dozen *per parameter* — at
    this repo's model scales the per-parameter dispatch dominated the
    step.  The update itself keeps the textbook evaluation order
    element-wise, so parameter trajectories are bitwise-identical to the
    per-parameter form.  In-place reads/writes through the parameters
    (``load_state_dict``, ``zero_grad``) keep working — they see the same
    memory.  Every parameter must share one dtype.
    """

    def __init__(self, params: list[Parameter], lr: float = 2e-4,
                 beta1: float = 0.5, beta2: float = 0.999, eps: float = 1e-8):
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self._step = 0
        dtypes = {p.data.dtype for p in self.params}
        if len(dtypes) > 1:
            raise ValueError(f"Adam needs one parameter dtype, got "
                             f"{sorted(str(dtype) for dtype in dtypes)}")
        dtype = dtypes.pop() if dtypes else np.float32
        total = sum(p.data.size for p in self.params)
        data = np.empty(total, dtype=dtype)
        grad = np.empty(total, dtype=dtype)
        offset = 0
        for p in self.params:
            stop = offset + p.data.size
            data[offset:stop] = p.data.ravel()
            grad[offset:stop] = p.grad.ravel()
            p.data = data[offset:stop].reshape(p.data.shape)
            p.grad = grad[offset:stop].reshape(p.grad.shape)
            offset = stop
        self._flat = (data, grad, np.zeros(total, dtype=dtype),
                      np.zeros(total, dtype=dtype),
                      np.empty(total, dtype=dtype),
                      np.empty(total, dtype=dtype))

    def zero_grad(self) -> None:
        self._flat[1].fill(0.0)

    def step(self) -> None:
        self._step += 1
        self._update(*self._flat)

    # -- persistent state (see repro.nn.serialize) ---------------------------

    def state_arrays(self) -> dict:
        """The persistent state, by name: the step count (a scalar,
        restored through :meth:`set_state_scalar`) and the live flat
        moment arrays (written in place on restore), concatenated in
        parameter order."""
        return {"step": self._step, "exp_avg": self._flat[2],
                "exp_avg_sq": self._flat[3]}

    def set_state_scalar(self, name: str, value) -> None:
        """Restore one scalar entry from :meth:`state_arrays`."""
        if name != "step":
            raise KeyError(f"optimizer has no scalar state {name!r}")
        self._step = int(value)

    def _update(self, data, grad, m, v, s1, s2) -> None:
        """One Adam update.

        Algebraically identical to the textbook chain ``data -= lr *
        (m/bias1) / (sqrt(v/bias2) + eps)`` with numerator and denominator
        multiplied through by ``sqrt(bias2)`` — the two bias-correction
        array divisions collapse into scalars, saving two full passes
        over the state per step.
        """
        bias1 = 1.0 - self.beta1 ** self._step
        sqrt_bias2 = (1.0 - self.beta2 ** self._step) ** 0.5
        m *= self.beta1
        m += np.multiply(grad, 1.0 - self.beta1, out=s1)
        v *= self.beta2
        np.multiply(grad, 1.0 - self.beta2, out=s1)
        v += np.multiply(s1, grad, out=s1)
        np.sqrt(v, out=s2)
        s2 += self.eps * sqrt_bias2
        np.multiply(m, self.lr * sqrt_bias2 / bias1, out=s1)
        data -= np.divide(s1, s2, out=s1)
