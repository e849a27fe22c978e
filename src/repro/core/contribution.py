"""Contribution module: gradient-distance utility measurement (paper S4.3).

A worker's instantaneous utility is measured by how close its local
gradient lies to the unbiased global gradient (the β-smooth / μ-convex
sandwich argument in S4.3 shows the loss of ``θ - G_i`` is bounded both
ways by ``||G_i - G̃||²``). Concretely (Eq. 13-14):

    b_i = ||G̃ - G_i||²          (summable over disjoint slices)
    C_i = 1 - b_i / b_h

where ``b_h`` is a baseline distance that fixes the zero-contribution
level. Two baselines from the paper:

* ``zero_baseline`` — ``b_h = ||G̃ - 0||² = ||G̃||²``: a free-rider
  uploading zeros gets exactly C = 0 (Eq. 14's default);
* the reference baseline — ``b_h = ||G̃ - G_ref||²``, the distance of a
  designated reference worker (S5.3.3 uses the p_d = 0.2 worker): anyone *better*
  than the reference earns positive contribution, anyone worse is
  punished, which prices low-quality workers out of the federation.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "gradient_distance",
    "gradient_distances_matrix",
    "zero_baseline",
    "contributions_array",
    "normalized_shares_array",
]


def gradient_distance(global_grad: np.ndarray, worker_grad: np.ndarray) -> float:
    """``b_i = ||G̃ - G_i||²`` (squared Euclidean, Eq. 13)."""
    global_grad = np.asarray(global_grad, dtype=np.float64)
    worker_grad = np.asarray(worker_grad, dtype=np.float64)
    if global_grad.shape != worker_grad.shape:
        raise ValueError(
            f"gradient shapes differ: {global_grad.shape} vs {worker_grad.shape}"
        )
    diff = global_grad - worker_grad
    return float(diff @ diff)


def gradient_distances_matrix(
    global_grad: np.ndarray,
    gradients: np.ndarray,
    row_sqnorms: np.ndarray | None = None,
) -> np.ndarray:
    """Batched Eq. 13: ``b_i`` for every row of an ``(N, D)`` matrix.

    Uses the expansion ``||G_i - G̃||² = ||G_i||² - 2 G_i·G̃ + ||G̃||²``
    so the hot path is a single GEMV over the gradient matrix instead of
    materializing an (N, D) difference. ``row_sqnorms`` (``||G_i||²``
    per row) can be precomputed once per round and shared across calls
    (e.g. the contribution filter's second pass). Rows where the
    expansion is not exact — non-finite gradients from blown-up
    training, or cancellation driving the result negative — are repaired
    with the direct difference form ``||G̃ - G_i||²``.
    """
    global_grad = np.asarray(global_grad, dtype=np.float64)
    gradients = np.asarray(gradients, dtype=np.float64)
    if gradients.ndim != 2 or gradients.shape[1] != global_grad.shape[0]:
        raise ValueError(
            f"need (N, {global_grad.shape[0]}) matrix, got {gradients.shape}"
        )
    if row_sqnorms is None:
        row_sqnorms = np.einsum("ij,ij->i", gradients, gradients)
    dists = (
        row_sqnorms
        - 2.0 * (gradients @ global_grad)
        + float(global_grad @ global_grad)
    )
    exact = np.isfinite(dists) & (dists >= 0.0)
    if not exact.all():
        rows = np.flatnonzero(~exact)
        diff = gradients[rows] - global_grad[None, :]
        dists[rows] = np.einsum("ij,ij->i", diff, diff)
    return dists


def zero_baseline(global_grad: np.ndarray) -> float:
    """``b_h`` against the all-zeros gradient: ``||G̃||²``."""
    global_grad = np.asarray(global_grad, dtype=np.float64)
    return float(global_grad @ global_grad)


def contributions_array(distances: np.ndarray, b_h: float) -> np.ndarray:
    """Eq. 14: ``C_i = 1 - b_i / b_h`` over a distance vector.

    Positive when the worker beats the baseline distance, negative when it
    is worse (free-riders and low-quality workers).
    """
    distances = np.asarray(distances, dtype=np.float64)
    if b_h <= 0.0:
        raise ValueError(f"baseline distance b_h must be positive, got {b_h}")
    if (distances < 0.0).any():
        raise ValueError("negative distance")
    return 1.0 - distances / b_h


def normalized_shares_array(contribs: np.ndarray) -> np.ndarray:
    """``C_i / sum_{C_j > 0} C_j`` — the contribution weight in Eq. 15.

    Negative contributions keep their sign (they become punishments);
    positive ones sum to exactly 1. If no contribution is positive every
    share is 0 (nothing to distribute this round).
    """
    contribs = np.asarray(contribs, dtype=np.float64)
    positive_total = contribs[contribs > 0.0].sum()
    if positive_total <= 0.0:
        return np.zeros_like(contribs)
    return contribs / positive_total
