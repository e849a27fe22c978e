"""Model evaluation helpers shared by the trainer and experiments.

Evaluation runs every reporting round over the full test set, so it is a
hot path in its own right. Two properties keep it lean:

* batches are *contiguous views* into the dataset (no per-batch fancy-
  index copies — evaluation order doesn't need shuffling);
* the softmax cross-entropy statistics reuse one preallocated scratch
  buffer across batches instead of re-allocating probability matrices
  per batch, and every forward pass goes through
  ``forward(training=False)`` (eval-mode BatchNorm statistics, no
  backward caches retained).
"""

from __future__ import annotations

import numpy as np

from ..datasets import Dataset
from ..nn import Sequential
from ..telemetry import get_telemetry

__all__ = ["evaluate", "batch_views"]


def batch_views(data: Dataset, batch_size: int):
    """Yield ``(x, y)`` contiguous slice views over the dataset in order."""
    if batch_size <= 0:
        raise ValueError("batch_size must be positive")
    for start in range(0, len(data), batch_size):
        stop = start + batch_size
        yield data.x[start:stop], data.y[start:stop]


def _batch_stats(
    logits: np.ndarray, labels: np.ndarray, scratch: np.ndarray | None
) -> tuple[float, int, np.ndarray]:
    """``(summed CE loss, correct count, scratch)`` for one batch.

    ``scratch`` is a reusable ``(batch, classes)`` float64 buffer; the
    log-softmax shift is computed into it in place, so only the first
    batch (and a possibly smaller final batch) allocates.
    """
    if scratch is None or scratch.shape != logits.shape:
        scratch = np.empty(logits.shape, dtype=np.float64)
    np.subtract(logits, logits.max(axis=1, keepdims=True), out=scratch)
    rows = np.arange(labels.shape[0])
    shifted_true = scratch[rows, labels].copy()
    np.exp(scratch, out=scratch)
    # -log p(y) = logsumexp(shifted) - shifted[y]
    loss_sum = float((np.log(scratch.sum(axis=1)) - shifted_true).sum())
    correct = int((logits.argmax(axis=1) == labels).sum())
    return loss_sum, correct, scratch


def evaluate(
    model: Sequential, data: Dataset, batch_size: int = 256
) -> tuple[float, float]:
    """Return ``(mean test loss, accuracy)`` over the dataset.

    Batched so convolutional models with large eval sets stay within
    memory; loss is the sample-weighted mean of batch losses.
    """
    tele = get_telemetry()
    n = len(data)
    with tele.span("evaluation.evaluate", samples=n):
        total_loss = 0.0
        correct = 0
        scratch: np.ndarray | None = None
        for x, y in batch_views(data, batch_size):
            logits = model.forward(x, training=False)
            loss_sum, batch_correct, scratch = _batch_stats(logits, y, scratch)
            total_loss += loss_sum
            correct += batch_correct
    tele.count("evaluation.samples", n)
    return total_loss / n, correct / n
