"""Loss functions: value plus gradient with respect to model output."""

from __future__ import annotations

import numpy as np

from . import functional as F

__all__ = ["SoftmaxCrossEntropy"]


class SoftmaxCrossEntropy:
    """Softmax + cross-entropy against integer labels, fused for stability.

    ``forward(logits, labels)`` returns the mean loss; ``backward()``
    returns ``d loss / d logits`` for the same batch.
    """

    def __init__(self) -> None:
        self._probs: np.ndarray | None = None
        self._labels: np.ndarray | None = None

    def forward(self, logits: np.ndarray, labels: np.ndarray) -> float:
        if logits.ndim != 2:
            raise ValueError(f"logits must be (n, classes), got {logits.shape}")
        labels = np.asarray(labels)
        if labels.shape != (logits.shape[0],):
            raise ValueError(
                f"labels shape {labels.shape} does not match batch {logits.shape[0]}"
            )
        logp = F.log_softmax(logits, axis=1)
        self._probs = np.exp(logp)
        self._labels = labels
        return float(-logp[np.arange(labels.shape[0]), labels].mean())

    def backward(self) -> np.ndarray:
        if self._probs is None or self._labels is None:
            raise RuntimeError("backward called before forward")
        n = self._labels.shape[0]
        grad = self._probs.copy()
        grad[np.arange(n), self._labels] -= 1.0
        grad /= n
        return grad

    def __call__(self, logits: np.ndarray, labels: np.ndarray) -> float:
        return self.forward(logits, labels)
