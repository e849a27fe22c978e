"""Robust-aggregation defences from the literature the paper builds on.

The paper positions FIFL's detection module against the Byzantine-tolerant
aggregation line of work (Blanchard et al.'s Krum [3], El Mhamdi et al.
[6], Xie et al.'s Zeno [28]). These rules are implemented here both as
standalone aggregators and as :class:`repro.fl.RoundMechanism` wrappers so
they can be dropped into the trainer for head-to-head comparisons
(``bench_ablation_defenses``):

* :func:`coordinate_median` — per-coordinate median of the uploads;
* :func:`trimmed_mean` — per-coordinate mean after trimming the β largest
  and smallest values;
* :func:`krum` — select the upload with the smallest sum of distances to
  its n−f−2 nearest neighbours.

Unlike FIFL these rules replace the weighted average (so sample-count
weighting is lost) and produce no per-worker assessment — they defend the
model but cannot drive an incentive, which is exactly the gap FIFL fills.
"""

from __future__ import annotations

import numpy as np

from ..fl.trainer import RoundContext, RoundDecision
from .engine import RoundBatch

__all__ = [
    "coordinate_median",
    "trimmed_mean",
    "krum",
    "KrumMechanism",
    "MedianMechanism",
]


def _stack(gradients) -> np.ndarray:
    """Accept a list of flat vectors or an already-stacked (N, D) matrix."""
    if isinstance(gradients, np.ndarray):
        if gradients.ndim != 2:
            raise ValueError("gradient matrix must be 2-D")
        if gradients.shape[0] == 0:
            raise ValueError("no gradients to aggregate")
        return np.asarray(gradients, dtype=np.float64)
    if not gradients:
        raise ValueError("no gradients to aggregate")
    stacked = np.stack([np.asarray(g, dtype=np.float64) for g in gradients])
    if stacked.ndim != 2:
        raise ValueError("gradients must be flat vectors of equal length")
    return stacked


def coordinate_median(gradients: list[np.ndarray]) -> np.ndarray:
    """Per-coordinate median (El Mhamdi et al.-style robust rule)."""
    return np.median(_stack(gradients), axis=0)


def trimmed_mean(gradients: list[np.ndarray], trim: int) -> np.ndarray:
    """Per-coordinate mean after dropping the ``trim`` extremes each side."""
    stacked = _stack(gradients)
    n = stacked.shape[0]
    if trim < 0:
        raise ValueError("trim must be non-negative")
    if 2 * trim >= n:
        raise ValueError(f"cannot trim {trim} from each side of {n} gradients")
    ordered = np.sort(stacked, axis=0)
    return ordered[trim : n - trim].mean(axis=0)


def krum(gradients: list[np.ndarray], num_byzantine: int) -> int:
    """Krum: index of the gradient closest to its peers.

    Scores each upload by the sum of squared distances to its ``n - f - 2``
    nearest neighbours (``f`` = assumed Byzantine count) and returns the
    argmin index.
    """
    stacked = _stack(gradients)
    n = stacked.shape[0]
    if num_byzantine < 0:
        raise ValueError("num_byzantine must be non-negative")
    k = n - num_byzantine - 2
    if k < 1:
        raise ValueError(
            f"Krum needs n - f - 2 >= 1 (n={n}, f={num_byzantine})"
        )
    # pairwise squared distances via the Gram matrix
    sq = (stacked**2).sum(axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (stacked @ stacked.T)
    np.fill_diagonal(d2, np.inf)
    d2 = np.maximum(d2, 0.0)
    scores = np.sort(d2, axis=1)[:, :k].sum(axis=1)
    return int(np.argmin(scores))


class KrumMechanism:
    """Round mechanism: accept only the single Krum-selected worker.

    The trainer's weighted average over one accepted worker reduces to
    exactly that worker's gradient, which is Krum's model update. The
    round's upload matrix is its :class:`RoundBatch`; Krum's pairwise
    distances are a single Gram-matrix GEMM over it. With fewer than
    ``f + 3`` uploads Krum has no ``n - f - 2 >= 1`` neighbours to score
    against, so the round accepts nobody and the model stays untouched.
    """

    def __init__(self, num_byzantine: int):
        if num_byzantine < 0:
            raise ValueError("num_byzantine must be non-negative")
        self.num_byzantine = num_byzantine

    def process_round(self, ctx: RoundContext) -> RoundDecision:
        batch = RoundBatch.from_context(ctx)
        if batch is None or batch.num_workers < self.num_byzantine + 3:
            return RoundDecision(
                accept=dict.fromkeys(ctx.worker_ids.tolist(), False),
                records={"krum_selected": None},
            )
        winner = int(
            batch.worker_ids[krum(batch.gradients, self.num_byzantine)]
        )
        return RoundDecision(
            accept={int(w): bool(w == winner) for w in batch.worker_ids},
            records={"krum_selected": winner},
        )


class MedianMechanism:
    """Round mechanism: accept workers whose gradient is near the median.

    The per-coordinate median itself is not expressible as a weighted
    average of uploads, so this wrapper accepts the ``keep_fraction`` of
    workers closest (L2) to the coordinate-median vector — a practical
    median-filtering defence with the same intent. Median and distances
    are batched column/row reductions over the round's gradient matrix.
    """

    def __init__(self, keep_fraction: float = 0.5):
        if not 0.0 < keep_fraction <= 1.0:
            raise ValueError("keep_fraction must be in (0, 1]")
        self.keep_fraction = keep_fraction

    def process_round(self, ctx: RoundContext) -> RoundDecision:
        batch = RoundBatch.from_context(ctx)
        if batch is None:
            return RoundDecision(accept={})
        med = coordinate_median(batch.gradients)
        dist_vec = np.linalg.norm(batch.gradients - med[None, :], axis=1)
        dists = {int(w): float(d) for w, d in zip(batch.worker_ids, dist_vec)}
        keep = max(1, int(round(self.keep_fraction * batch.num_workers)))
        order = np.lexsort((batch.worker_ids, dist_vec))
        kept = set(int(w) for w in batch.worker_ids[order[:keep]])
        return RoundDecision(
            accept={int(w): (w in kept) for w in batch.worker_ids},
            records={"median_distances": dists},
        )
