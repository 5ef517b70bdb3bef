"""Loss functions for the cGAN objective.

The combined objective from the paper (Eq. 2 plus the L1 term) is

    cL(G, D) + lambda_L1 * E[||t - G(x, z)||_1]

with the discriminator trained on binary cross-entropy.  BCE is computed on
logits for numerical stability; the sigmoid the paper places at the end of the
discriminator is folded into the loss.
"""

from __future__ import annotations

import numpy as np

from repro.nn.functional import sigmoid


class Loss:
    """Base class: ``forward`` returns a scalar, ``backward`` the gradient."""

    def forward(self, pred: np.ndarray, target: np.ndarray) -> float:
        raise NotImplementedError

    def backward(self) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, pred: np.ndarray, target: np.ndarray) -> float:
        return self.forward(pred, target)


class BCEWithLogitsLoss(Loss):
    """Binary cross-entropy on logits (stable log-sum-exp form)."""

    def __init__(self):
        self._pred: np.ndarray | None = None
        self._target: np.ndarray | None = None

    def forward(self, pred: np.ndarray, target: np.ndarray) -> float:
        target = np.broadcast_to(np.asarray(target, dtype=pred.dtype), pred.shape)
        self._pred = pred
        self._target = target
        loss = np.maximum(pred, 0) - pred * target + np.log1p(np.exp(-np.abs(pred)))
        return float(loss.mean())

    def backward(self) -> np.ndarray:
        if self._pred is None or self._target is None:
            raise RuntimeError("backward called before forward")
        return (sigmoid(self._pred) - self._target) / self._pred.size


class L1Loss(Loss):
    """Mean absolute error — the reconstruction term weighted by 50.

    Runs once per training step over full images, so its temporaries are
    kept as instance scratch instead of reallocating.  The gradient
    returned by ``backward`` stays valid across later ``forward`` calls
    (it has its own buffer) but is overwritten by the next ``backward``.
    """

    def __init__(self):
        self._diff: np.ndarray | None = None
        self._abs: np.ndarray | None = None
        self._grad: np.ndarray | None = None
        self._ready = False

    def forward(self, pred: np.ndarray, target: np.ndarray) -> float:
        diff = self._diff
        if diff is None or diff.shape != pred.shape or diff.dtype != pred.dtype:
            self._diff = diff = np.empty_like(pred)
            self._abs = np.empty_like(pred)
            self._grad = np.empty_like(pred)
        np.subtract(pred, target, out=diff)
        self._ready = True
        return float(np.abs(diff, out=self._abs).mean())

    def backward(self) -> np.ndarray:
        if not self._ready:
            raise RuntimeError("backward called before forward")
        grad = np.sign(self._diff, out=self._grad)
        grad /= grad.size
        return grad

