"""Vectorized round engine: batched data layout for the FIFL pipeline.

The scalar reference implementation walks ``dict[int, np.ndarray]``
structures worker by worker, so every phase of the per-round pipeline
(Eq. 5-15) costs a Python-level loop over workers × servers. This module
defines the batched layout the vectorized pipeline runs on:

* all delivered worker gradients stacked row-wise into one ``(N, D)``
  matrix (:class:`RoundBatch.gradients`), in ascending worker-id order;
* the per-server slice of every gradient is a *column block* of that
  matrix — because the polycentric protocol slices gradients into
  contiguous ``np.array_split`` chunks, server ``j``'s slice matrix is
  ``gradients[:, offsets[j]:offsets[j+1]]`` with offsets from the
  memoized :func:`~repro.fl.gradients.slice_offsets` table (one fancy
  index, no per-worker splitting);
* aligned ``(N,)`` vectors for worker ids and sample counts, so masked
  reductions (accepted-only aggregation, reward allocation) are single
  NumPy expressions.

Phase kernels live next to their scalar references —
:func:`~repro.core.detection.detection_scores_matrix`,
:func:`~repro.core.contribution.gradient_distances_matrix`,
:func:`~repro.core.incentive.reward_shares_array` — and
:class:`~repro.core.FIFLMechanism` orchestrates them when
``FIFLConfig.engine == "vectorized"`` (the default; ``"scalar"`` keeps
the loop-based path for differential testing).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..fl.gradients import slice_offsets
from ..fl.trainer import RoundContext

__all__ = ["RoundBatch", "stack_benchmarks"]


@dataclass
class RoundBatch:
    """One round's delivered gradients in batched layout."""

    worker_ids: np.ndarray  # (N,) int64, ascending
    gradients: np.ndarray  # (N, D) float64, row i = full gradient of worker_ids[i]
    offsets: np.ndarray  # (M+1,) column offsets of per-server slices
    server_ranks: np.ndarray  # (M,) int64, ascending (slice j -> server_ranks[j])
    sample_counts: np.ndarray  # (N,) float64
    _row_sqnorms: np.ndarray | None = None  # lazy ||G_i||² cache

    @classmethod
    def from_context(cls, ctx: RoundContext) -> "RoundBatch | None":
        """Stack ``ctx.slices`` into the batched layout (None if empty).

        Workers in ``ctx.slices`` delivered a complete slice set (the
        trainer routes partial deliveries to ``ctx.uncertain`` instead),
        so each row is the worker's full gradient reassembled in server
        order — exactly ``recombine(slices)`` of the scalar path. When
        the context carries the trainer's matrix of delivered gradients
        it is used as is (read-only, no copy); hand-built contexts are
        restacked.
        """
        ids = sorted(ctx.slices)
        if not ids:
            return None
        server_ranks = list(ctx.server_ranks)
        first = ctx.slices[ids[0]]
        dim = sum(first[srv].size for srv in server_ranks)
        offsets = slice_offsets(dim, len(server_ranks))

        if ctx.uploads is not None and len(ctx.uploads) == len(ids):
            # The trainer already stacked the delivered rows: take the
            # matrix as is, reordered only if the upload order was not
            # ascending, rather than restack N×M slices.
            upload_order = list(ctx.slices)
            if upload_order == ids:
                gradients = ctx.uploads
            else:
                rows = np.argsort(np.asarray(upload_order), kind="stable")
                gradients = ctx.uploads[rows]
        else:
            gradients = np.empty((len(ids), dim))
            for j, srv in enumerate(server_ranks):
                block = gradients[:, offsets[j] : offsets[j + 1]]
                for i, wid in enumerate(ids):
                    block[i] = ctx.slices[wid][srv]
        return cls(
            worker_ids=np.asarray(ids, dtype=np.int64),
            gradients=gradients,
            offsets=offsets,
            server_ranks=np.asarray(server_ranks, dtype=np.int64),
            sample_counts=np.asarray(
                [ctx.sample_counts[w] for w in ids], dtype=np.float64
            ),
        )

    @property
    def num_workers(self) -> int:
        return self.gradients.shape[0]

    @property
    def row_sqnorms(self) -> np.ndarray:
        """``||G_i||²`` per row, computed once and cached.

        Shared by every distance computation of the round (contribution
        scoring and the filter's second pass see the same rows).
        """
        if self._row_sqnorms is None:
            self._row_sqnorms = np.einsum(
                "ij,ij->i", self.gradients, self.gradients
            )
        return self._row_sqnorms

    def server_block(self, slot: int) -> np.ndarray:
        """Server ``slot``'s slice matrix: a column-block view, no copy."""
        return self.gradients[:, self.offsets[slot] : self.offsets[slot + 1]]

    def shard(self, start: int, stop: int) -> "RoundBatch":
        """Row window ``[start, stop)`` as a view-backed sub-batch.

        All aligned vectors are sliced views (no copies); the sqnorm
        cache, when already computed, is sliced too so shard consumers
        never recompute it.
        """
        if not 0 <= start < stop <= self.num_workers:
            raise ValueError(f"bad shard window [{start}, {stop})")
        return RoundBatch(
            worker_ids=self.worker_ids[start:stop],
            gradients=self.gradients[start:stop],
            offsets=self.offsets,
            server_ranks=self.server_ranks,
            sample_counts=self.sample_counts[start:stop],
            _row_sqnorms=(
                self._row_sqnorms[start:stop]
                if self._row_sqnorms is not None
                else None
            ),
        )

    def iter_shards(self, shard_size: int | None):
        """Stream the batch as row shards of at most ``shard_size`` workers.

        Every per-round kernel this batch feeds (detection scores,
        gradient distances, weighted aggregation) is a per-row reduction,
        so processing shard-by-shard bounds kernel temporaries by shard
        size without changing any result. ``None`` yields ``self`` once.
        """
        from ..population.sharding import iter_row_shards

        for start, stop in iter_row_shards(self.num_workers, shard_size):
            if start == 0 and stop == self.num_workers:
                yield self
            else:
                yield self.shard(start, stop)

    def mask(self, accepted: np.ndarray | dict[int, bool]) -> np.ndarray:
        """Boolean row mask from an accept verdict (array or dict form)."""
        if isinstance(accepted, dict):
            return np.asarray(
                [bool(accepted.get(int(w), False)) for w in self.worker_ids]
            )
        return np.asarray(accepted, dtype=bool)

    def weighted_average(self, keep: np.ndarray) -> np.ndarray | None:
        """Sample-count-weighted mean of the kept rows (Eq. 2 / G̃).

        Identical to the scalar path's per-server ``fedavg`` +
        ``recombine``: the weights are the same for every column block,
        so averaging whole rows commutes with slicing.
        """
        keep = np.asarray(keep, dtype=bool)
        if not keep.any():
            return None
        if keep.all():
            # All-kept fast path: one GEMV, no row copy. (Zeroed weights
            # can't stand in for dropping a row in general — a rejected
            # non-finite gradient would turn 0 * inf into NaN.)
            weights = self.sample_counts
            grads = self.gradients
        else:
            weights = self.sample_counts[keep]
            grads = self.gradients[keep]
        total = weights.sum()
        if total <= 0:
            raise ValueError("at least one kept worker needs a positive weight")
        return (weights / total) @ grads

    def to_dict(self, values: np.ndarray) -> dict[int, float]:
        """Pair an aligned result vector back onto worker ids."""
        values = np.asarray(values)
        if values.shape[0] != self.num_workers:
            raise ValueError(
                f"expected {self.num_workers} values, got {values.shape[0]}"
            )
        return {
            int(w): v.item() if isinstance(v, np.generic) else v
            for w, v in zip(self.worker_ids, values)
        }


def stack_benchmarks(
    ctx: RoundContext, offsets: np.ndarray
) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """Server benchmarks ``g_j^j`` sliced straight from local updates.

    Returns ``(ranks, slots, slices)`` aligned lists: the server's worker
    id, its slice index in the sorted server list, and its own local
    slice (a view into its update — no copy, unlike the scalar path's
    ``split_gradient``). Servers whose local update is missing (crashed
    nodes) are skipped, matching the scalar ``_benchmarks``.
    """
    ranks: list[int] = []
    slots: list[int] = []
    slices: list[np.ndarray] = []
    for j, srv in enumerate(ctx.server_ranks):
        upd = ctx.updates.get(srv)
        if upd is None:
            continue
        grad = np.asarray(upd.gradient, dtype=np.float64)
        ranks.append(srv)
        slots.append(j)
        slices.append(grad[offsets[j] : offsets[j + 1]])
    if not ranks:
        raise RuntimeError("no server produced a local gradient; cannot detect")
    return (
        np.asarray(ranks, dtype=np.int64),
        np.asarray(slots, dtype=np.intp),
        slices,
    )
