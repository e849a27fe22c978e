"""Vectorized round engine: batched data layout for the FIFL pipeline.

The FIFL round (Eq. 5-15) runs as batched NumPy phases over one layout:

* all admitted (delivered, finite) worker gradients row-wise in one
  ``(N, D)`` matrix
  (:class:`RoundBatch.gradients`), in ascending worker-id order — the
  trainer's ``RoundContext.uploads``, which is the fleet's own output
  matrix, taken without a copy;
* the per-server slice of every gradient is a *column block* of that
  matrix — because the polycentric protocol slices gradients into
  contiguous ``np.array_split`` chunks, server ``j``'s slice matrix is
  ``gradients[:, offsets[j]:offsets[j+1]]`` with offsets from the
  memoized :func:`~repro.fl.gradients.slice_offsets` table (one fancy
  index, no per-worker splitting);
* aligned ``(N,)`` vectors for worker ids and sample counts, so masked
  reductions (accepted-only aggregation, reward allocation) are single
  NumPy expressions.

Results stay vectors until the mechanism records or emits them;
:meth:`RoundBatch.to_dict` pairs each with the worker ids in one step.

The phase kernels are
:func:`~repro.core.detection.detection_scores_matrix`,
:func:`~repro.core.contribution.gradient_distances_matrix` and
:func:`~repro.core.incentive.reward_shares_array`;
:class:`~repro.core.FIFLMechanism` orchestrates them. The per-worker
reference pipeline they are differential-tested against lives in
``tests/core/reference.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..fl.gradients import slice_offsets
from ..fl.trainer import RoundContext

__all__ = ["RoundBatch", "stack_benchmarks"]


@dataclass
class RoundBatch:
    """One round's admitted gradients in batched layout."""

    worker_ids: np.ndarray  # (N,) int64, ascending
    gradients: np.ndarray  # (N, D) float64, row i = full gradient of worker_ids[i]
    offsets: np.ndarray  # (M+1,) column offsets of per-server slices
    server_ranks: np.ndarray  # (M,) int64, ascending (slice j -> server_ranks[j])
    sample_counts: np.ndarray  # (N,) float64
    row_sqnorms: np.ndarray  # (N,) ||G_i||², shared by every distance

    @classmethod
    def from_context(cls, ctx: RoundContext) -> "RoundBatch | None":
        """The context's admitted uploads as a batch (None if empty).

        The trainer's upload matrix is taken as is (read-only, no copy):
        its rows are already the admitted workers' full gradients in
        ascending id order, and each server's slice is a column block.
        The row norms are the ones the trainer's admission rule computed.
        """
        if len(ctx.worker_ids) == 0:
            return None
        return cls(
            worker_ids=np.asarray(ctx.worker_ids, dtype=np.int64),
            gradients=ctx.uploads,
            offsets=slice_offsets(ctx.uploads.shape[1], len(ctx.server_ranks)),
            server_ranks=np.asarray(ctx.server_ranks, dtype=np.int64),
            sample_counts=np.asarray(ctx.sample_counts, dtype=np.float64),
            row_sqnorms=ctx.row_sqnorms,
        )

    @property
    def num_workers(self) -> int:
        return self.gradients.shape[0]

    def server_block(self, slot: int) -> np.ndarray:
        """Server ``slot``'s slice matrix: a column-block view, no copy."""
        return self.gradients[:, self.offsets[slot] : self.offsets[slot + 1]]

    def shard(self, start: int, stop: int) -> "RoundBatch":
        """Row window ``[start, stop)`` as a view-backed sub-batch.

        All aligned vectors are sliced views (no copies).
        """
        if not 0 <= start < stop <= self.num_workers:
            raise ValueError(f"bad shard window [{start}, {stop})")
        return RoundBatch(
            worker_ids=self.worker_ids[start:stop],
            gradients=self.gradients[start:stop],
            offsets=self.offsets,
            server_ranks=self.server_ranks,
            sample_counts=self.sample_counts[start:stop],
            row_sqnorms=self.row_sqnorms[start:stop],
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

    def weighted_average(self, keep: np.ndarray) -> np.ndarray | None:
        """Sample-count-weighted mean of the kept rows (Eq. 2 / G̃).

        Identical to the trainer's per-server ``fedavg`` + ``recombine``:
        the weights are the same for every column block, so averaging
        whole rows commutes with slicing.
        """
        keep = np.asarray(keep, dtype=bool)
        if not keep.any():
            return None
        if keep.all():
            # All-kept fast path: one GEMV, no row copy.
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
        """Pair an aligned result vector back onto worker ids.

        Keys and values are Python scalars, built in one pass (``tolist``
        converts exactly as a per-element ``item()`` does).
        """
        values = np.asarray(values)
        if values.shape[0] != self.num_workers:
            raise ValueError(
                f"expected {self.num_workers} values, got {values.shape[0]}"
            )
        return dict(zip(self.worker_ids.tolist(), values.tolist()))


def stack_benchmarks(
    ctx: RoundContext, offsets: np.ndarray
) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """Server benchmarks ``g_j^j`` sliced straight from local updates.

    Servers are workers (S ⊂ W), so each server holds its local gradient
    *locally*: its benchmark does not depend on the lossy network
    delivering its own slice to itself (S4.1). Returns ``(ranks, slots,
    slices)`` aligned lists: the server's worker id, its slice index in
    the sorted server list, and its own local slice (a view into its
    update, no copy). Servers whose local update is missing (crashed
    nodes) or not :attr:`~repro.fl.fleet_compute.LocalUpdates.finite`
    are skipped; the trainer never hands over a round with none left.
    """
    ranks: list[int] = []
    slots: list[int] = []
    slices: list[np.ndarray] = []
    local = ctx.updates
    for j, srv in enumerate(ctx.server_ranks):
        row = local.row(srv)
        if row is None or not local.finite[row]:
            continue
        ranks.append(srv)
        slots.append(j)
        slices.append(local.gradients[row, offsets[j] : offsets[j + 1]])
    if not ranks:
        raise RuntimeError(
            "no server produced a finite local gradient; cannot detect"
        )
    return (
        np.asarray(ranks, dtype=np.int64),
        np.asarray(slots, dtype=np.intp),
        slices,
    )
