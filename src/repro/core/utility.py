"""Utility model (paper S5.1-S5.2).

The paper expresses the relationship between training data and revenue as
``Ψ = log(1 + n)`` (after Zhan et al.), where ``n`` is a sample count.
"""

from __future__ import annotations

import numpy as np

__all__ = ["utility"]


def utility(n: float | np.ndarray) -> float | np.ndarray:
    """Data utility ``Ψ(n) = log(1 + n)`` (vectorized)."""
    n_arr = np.asarray(n, dtype=np.float64)
    if (n_arr < 0).any():
        raise ValueError("sample counts must be non-negative")
    out = np.log1p(n_arr)
    return float(out) if np.isscalar(n) or n_arr.ndim == 0 else out
