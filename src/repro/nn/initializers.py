"""Weight initialization schemes.

All initializers take an explicit :class:`numpy.random.Generator` so every
experiment in the repository is reproducible from a single seed.
"""

from __future__ import annotations

import numpy as np

__all__ = ["he_normal", "zeros"]


def he_normal(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int) -> np.ndarray:
    """He/Kaiming normal init, suited to ReLU networks."""
    if fan_in <= 0:
        raise ValueError(f"fan_in must be positive, got {fan_in}")
    std = np.sqrt(2.0 / fan_in)
    return rng.normal(0.0, std, size=shape)


def zeros(shape: tuple[int, ...]) -> np.ndarray:
    """All-zeros init (biases)."""
    return np.zeros(shape, dtype=np.float64)
