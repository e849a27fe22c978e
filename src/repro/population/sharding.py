"""Worker-shard streaming utilities for the batched round kernels.

The round engine's ``(N, D)`` gradient matrix and the fleet trainer's
stacked parameter blocks both grow linearly with the cohort. These
helpers let every row-wise kernel stream over bounded *worker shards*
instead:

* :func:`iter_row_shards` — chunked ``[start, stop)`` row windows (the
  kernels in :mod:`repro.core.detection` / :mod:`repro.core.contribution`
  are pure per-row reductions, so sharding is exact);
* :class:`SharedGradientBuffer` — an optional
  ``multiprocessing.shared_memory`` backing for the stacked gradient
  matrix, so a future multi-process backend can map the same round
  batch zero-copy. Creation falls back to a plain array when the
  platform denies shared memory (some sandboxes do), keeping the
  single-process path dependency-free.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "iter_row_shards",
    "balanced_shards",
    "SharedGradientBuffer",
]


def iter_row_shards(num_rows: int, shard_size: int | None):
    """Yield ``(start, stop)`` row windows of at most ``shard_size`` rows.

    ``shard_size=None`` (or >= num_rows) yields the single full window,
    which is how the unsharded fast path stays literally the same code.
    """
    if num_rows < 0:
        raise ValueError("num_rows must be non-negative")
    if shard_size is not None and shard_size <= 0:
        raise ValueError("shard_size must be positive (or None)")
    if num_rows == 0:
        return
    if shard_size is None or shard_size >= num_rows:
        yield 0, num_rows
        return
    for start in range(0, num_rows, shard_size):
        yield start, min(start + shard_size, num_rows)


def balanced_shards(num_rows: int, num_shards: int) -> list[tuple[int, int]]:
    """Split ``num_rows`` into at most ``num_shards`` near-equal windows.

    The parallel backends use this to cut one dispatch into one task per
    pool slot: sizes differ by at most one row, empty windows are never
    emitted, and the windows tile ``[0, num_rows)`` in order — so a
    shard-order concatenation reproduces the unsharded result exactly.
    """
    if num_rows < 0:
        raise ValueError("num_rows must be non-negative")
    if num_shards <= 0:
        raise ValueError("num_shards must be positive")
    num_shards = min(num_shards, num_rows)
    shards = []
    start = 0
    for i in range(num_shards):
        size = num_rows // num_shards + (1 if i < num_rows % num_shards else 0)
        shards.append((start, start + size))
        start += size
    return shards


class SharedGradientBuffer:
    """A ``(rows, dim)`` float64 matrix, optionally in shared memory."""

    def __init__(self, rows: int, dim: int, shared: bool = False):
        if rows <= 0 or dim <= 0:
            raise ValueError("rows and dim must be positive")
        self.rows, self.dim = int(rows), int(dim)
        self._shm = None
        if shared:
            try:
                from multiprocessing import shared_memory

                self._shm = shared_memory.SharedMemory(
                    create=True, size=rows * dim * 8
                )
                self.array = np.ndarray(
                    (rows, dim), dtype=np.float64, buffer=self._shm.buf
                )
            except (ImportError, OSError):
                self._shm = None
        if self._shm is None:
            self.array = np.empty((rows, dim), dtype=np.float64)

    @property
    def is_shared(self) -> bool:
        return self._shm is not None

    @property
    def name(self) -> str | None:
        """Shared-memory segment name for cross-process attach (or None)."""
        return self._shm.name if self._shm is not None else None

    def close(self) -> None:
        """Release the shared segment (no-op for the plain-array fallback)."""
        if self._shm is not None:
            # Drop the mapping before unlinking; the array keeps the
            # buffer alive otherwise and unlink would leak on some OSes.
            self.array = self.array.copy()
            self._shm.close()
            self._shm.unlink()
            self._shm = None

    def __enter__(self) -> "SharedGradientBuffer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
