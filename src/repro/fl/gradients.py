"""Gradient vector utilities: slicing, recombination, weighted aggregation.

The polycentric protocol (paper S3.2) splits each worker's flat gradient
into M contiguous slices, ships slice j to server j, and recombines the
per-server aggregates into the global gradient. Slicing here is plain
``np.array_split`` so ``recombine(split(G)) == G`` exactly and every
worker/server pair agrees on slice boundaries given (vector length, M).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = [
    "split_gradient",
    "split_views",
    "stack_gradients",
    "recombine",
    "fedavg",
    "slice_bounds",
    "slice_offsets",
]


@lru_cache(maxsize=None)
def _cached_bounds(length: int, num_slices: int) -> tuple[tuple[int, int], ...]:
    """Memoized slice boundaries per (vector length, server count).

    Every worker/round re-derives the same boundaries for a fixed
    topology; caching makes slicing a table lookup plus fancy-indexing
    instead of per-call arithmetic (the round engine's hot path).
    """
    if num_slices <= 0:
        raise ValueError("num_slices must be positive")
    if length < 0:
        raise ValueError("length must be non-negative")
    base = length // num_slices
    extra = length % num_slices
    bounds = []
    start = 0
    for j in range(num_slices):
        size = base + (1 if j < extra else 0)
        bounds.append((start, start + size))
        start += size
    return tuple(bounds)


def slice_bounds(length: int, num_slices: int) -> list[tuple[int, int]]:
    """(start, end) index pairs of each slice, matching np.array_split."""
    return list(_cached_bounds(length, num_slices))


def slice_offsets(length: int, num_slices: int) -> np.ndarray:
    """``(M+1,)`` offsets; slice j spans ``offsets[j]:offsets[j+1]``."""
    bounds = _cached_bounds(length, num_slices)
    return np.asarray([0] + [end for _, end in bounds], dtype=np.intp)


def _check_splittable(grad: np.ndarray, num_slices: int) -> None:
    if grad.ndim != 1:
        raise ValueError(f"gradient must be flat, got shape {grad.shape}")
    if num_slices <= 0:
        raise ValueError("num_slices must be positive")
    if num_slices > grad.size and grad.size > 0:
        raise ValueError(
            f"cannot split {grad.size} values into {num_slices} non-trivial slices"
        )


def split_gradient(grad: np.ndarray, num_slices: int) -> list[np.ndarray]:
    """Split a flat gradient into ``num_slices`` contiguous slices (copies)."""
    grad = np.asarray(grad, dtype=np.float64)
    _check_splittable(grad, num_slices)
    bounds = _cached_bounds(grad.size, num_slices)
    return [grad[lo:hi].copy() for lo, hi in bounds]


def split_views(grad: np.ndarray, num_slices: int) -> list[np.ndarray]:
    """Like :func:`split_gradient` but returns read-only views (no copies).

    Safe whenever the slices are consumed without mutation — e.g. the
    trainer's upload path, where each slice is handed to the network and
    then only read by servers and the mechanism.
    """
    grad = np.asarray(grad, dtype=np.float64)
    _check_splittable(grad, num_slices)
    views = []
    for lo, hi in _cached_bounds(grad.size, num_slices):
        v = grad[lo:hi]
        v.flags.writeable = False
        views.append(v)
    return views


def stack_gradients(
    grads: list[np.ndarray], num_slices: int, dim: int
) -> np.ndarray:
    """Stack flat gradients row-wise into one read-only ``(N, dim)`` matrix.

    Server ``j``'s slice of row ``i`` is the column block
    ``[offsets[j], offsets[j+1])`` of :func:`slice_offsets`, so per-server
    slices are views into the matrix, bit-identical to
    :func:`split_views` of each gradient. ``dim`` sizes the empty matrix
    when there are no gradients.
    """
    if not grads:
        matrix = np.empty((0, dim))
    else:
        first = np.asarray(grads[0])
        _check_splittable(first, num_slices)
        matrix = np.empty((len(grads), first.size))
        for row, grad in zip(matrix, grads):
            grad = np.asarray(grad)
            if grad.shape != first.shape:
                raise ValueError(
                    f"gradient shapes differ: {grad.shape} vs {first.shape}"
                )
            row[:] = grad
    matrix.flags.writeable = False
    return matrix


def recombine(slices: list[np.ndarray]) -> np.ndarray:
    """Concatenate slices back into the flat gradient."""
    if not slices:
        raise ValueError("no slices to recombine")
    return np.concatenate([np.asarray(s, dtype=np.float64) for s in slices])


def fedavg(gradients: list[np.ndarray], weights: list[float] | np.ndarray) -> np.ndarray:
    """Weighted average of gradient vectors (paper Eq. 2).

    Weights are normalized internally; typically ``weights[i] = n_i`` (the
    worker's sample count) possibly zeroed by detection flags ``r_i``.
    """
    if not gradients:
        raise ValueError("no gradients to aggregate")
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (len(gradients),):
        raise ValueError(
            f"{len(gradients)} gradients but weights shape {weights.shape}"
        )
    if (weights < 0).any():
        raise ValueError("weights must be non-negative")
    total = weights.sum()
    if total <= 0:
        raise ValueError("at least one weight must be positive")
    stacked = np.stack([np.asarray(g, dtype=np.float64) for g in gradients])
    if stacked.ndim != 2:
        raise ValueError("gradients must all be flat vectors of equal length")
    return (weights / total) @ stacked
