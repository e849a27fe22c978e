"""Attack detection module (paper S4.1).

Each server ``j`` scores worker ``i``'s gradient slice against a benchmark
slice — the server's *own* local gradient slice ``g_j^j`` (servers are
workers too, S3.2) — and the global detection score sums the per-server
scores (Eq. 6):

    S_i = sum_j S_i^j,   S_i^j = <g_j^j, g_i^j>.

The score is a first-order Taylor estimate of the loss reduction worker
``i``'s gradient would produce (Eq. 5 -> <G, G_i>), so honest gradients
score positive and sign-flipped/garbage gradients score negative or tiny.
Workers with ``S_i < S_y`` are flagged Byzantine and excluded (Eq. 7).

Two score modes are provided (DESIGN.md ablation #1):

* ``"raw"`` — the literal inner product of Eq. 6. Its scale grows with
  model size and gradient magnitude, so S_y must be re-tuned per task.
* ``"cosine"`` — inner product normalized by both norms, giving a
  scale-free score in [-1, 1]; the paper's quoted thresholds
  (S_y ≈ 0.09–0.15) are only meaningful on such a normalized scale, so
  this is the default.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["DetectionConfig", "detection_scores_matrix"]

_MODES = ("raw", "cosine")


@dataclass(frozen=True)
class DetectionConfig:
    """Detection hyperparameters: threshold ``S_y`` and score mode."""

    threshold: float = 0.0
    mode: str = "cosine"

    def __post_init__(self) -> None:
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {self.mode!r}")


def detection_scores_matrix(
    worker_ids: np.ndarray,
    gradients: np.ndarray,
    offsets: np.ndarray,
    benchmark_ranks: np.ndarray,
    benchmark_slots: np.ndarray,
    benchmarks: list[np.ndarray],
    mode: str = "cosine",
) -> np.ndarray:
    """Batched Eq. 6: all workers' global scores in one GEMM per server.

    Works on the round engine's data layout: worker gradients stacked
    row-wise into an
    ``(N, D)`` matrix whose column block ``offsets[j]:offsets[j+1]`` is
    the slice held by server ``j``. Per server the N inner products are
    one matrix-vector product; cosine mode divides by row and benchmark
    norms computed via a single ``einsum`` per block. In cosine mode the
    per-server scores are averaged instead of summed, so the global
    score stays in [-1, 1] whatever the number of servers; raw mode
    sums them.

    Parameters
    ----------
    worker_ids : ``(N,)`` worker id per row (for self-scoring exclusion).
    gradients : ``(N, D)`` full gradient per delivered worker.
    offsets : ``(M+1,)`` column offsets of the per-server slices.
    benchmark_ranks : worker id of each scoring server.
    benchmark_slots : slice index ``j`` of each scoring server (its
        position in the sorted server list, selecting the column block).
    benchmarks : the servers' own local slices ``g_j^j``, aligned with
        ``benchmark_ranks``.
    """
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
    n = gradients.shape[0]
    m = len(benchmarks)
    if m == 0:
        raise ValueError("need at least one server benchmark")
    totals = np.zeros(n)
    counted = np.full(n, m, dtype=np.float64)
    for rank, slot, bench in zip(benchmark_ranks, benchmark_slots, benchmarks):
        block = gradients[:, offsets[slot] : offsets[slot + 1]]
        inner = block @ bench
        if mode == "cosine":
            denom = np.sqrt(np.einsum("ij,ij->i", block, block)) * float(
                np.linalg.norm(bench)
            )
            scores_j = np.divide(
                inner, denom, out=np.zeros(n), where=denom > 0.0
            )
        else:
            scores_j = inner
        if m > 1:
            # A server never scores itself: its benchmark *is* its own
            # slice (cosine exactly 1), which would let a malicious server
            # vote itself honest. Peer servers score it instead; only the
            # single-server case (the paper's M = 1 centralized setup
            # trusts that server) keeps self-scoring.
            self_rows = worker_ids == rank
            scores_j = np.where(self_rows, 0.0, scores_j)
            counted -= self_rows
        totals += scores_j
    if (counted == 0).any():
        bad = worker_ids[counted == 0].tolist()
        raise ValueError(f"workers {bad} scored by no server")
    if mode == "cosine":
        return totals / counted
    return totals * (m / counted)
