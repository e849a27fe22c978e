"""Finite-difference gradient verification for the NN substrate.

The FIFL mechanism consumes raw gradient vectors; if backprop were wrong
the whole reproduction would silently measure noise. This module gives an
independent check used by the property tests: analytic gradients from
``Sequential.get_flat_grads`` are compared against central finite
differences of the loss with respect to the flat parameter vector.
"""

from __future__ import annotations

import numpy as np

from repro.nn import Sequential, SoftmaxCrossEntropy

__all__ = ["numerical_gradient", "analytic_gradient", "max_relative_error"]


def analytic_gradient(
    model: Sequential, x: np.ndarray, labels: np.ndarray
) -> tuple[float, np.ndarray]:
    """Loss and backprop gradient for one batch (cross-entropy)."""
    loss_fn = SoftmaxCrossEntropy()
    logits = model.forward(x, training=True)
    loss = loss_fn(logits, labels)
    model.backward(loss_fn.backward())
    return loss, model.get_flat_grads()


def numerical_gradient(
    model: Sequential,
    x: np.ndarray,
    labels: np.ndarray,
    indices: np.ndarray | None = None,
    eps: float = 1e-5,
) -> np.ndarray:
    """Central-difference gradient at the current parameters.

    ``indices`` selects which components to probe (probing all of them is
    O(P) forward passes); returns a vector the size of ``indices`` (or the
    full parameter count when None). The model's parameters are restored
    on exit.

    Note: models with batch statistics (BatchNorm) must be probed with the
    same ``training=True`` semantics backprop used, which this does.
    """
    loss_fn = SoftmaxCrossEntropy()
    theta = model.get_flat_params()
    if indices is None:
        indices = np.arange(theta.size)
    grads = np.empty(indices.size, dtype=np.float64)
    try:
        for out_i, idx in enumerate(indices):
            bumped = theta.copy()
            bumped[idx] += eps
            model.set_flat_params(bumped)
            loss_plus = loss_fn(model.forward(x, training=True), labels)
            bumped[idx] -= 2 * eps
            model.set_flat_params(bumped)
            loss_minus = loss_fn(model.forward(x, training=True), labels)
            grads[out_i] = (loss_plus - loss_minus) / (2 * eps)
    finally:
        model.set_flat_params(theta)
    return grads


def max_relative_error(a: np.ndarray, b: np.ndarray, floor: float = 1e-8) -> float:
    """Max of ``|a-b| / max(|a|, |b|, floor)`` — scale-free comparison."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom)) if a.size else 0.0
