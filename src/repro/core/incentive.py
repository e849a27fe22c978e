"""Incentive module: reward shares and fairness (paper S4.4).

The reward share of worker ``i`` combines trustworthiness and utility
(Eq. 15):

    I_i = R_i * C_i / sum_{j: C_j > 0} C_j

Positive shares are rewards; negative shares are punishments for workers
whose contribution fell below the baseline. Theorem 2 shows the Pearson
correlation between contributions and rewards is exactly 1 for workers of
equal reputation — implemented here as :func:`fairness_coefficient` so the
property tests can verify it.
"""

from __future__ import annotations

import numpy as np

from .contribution import normalized_shares_array

__all__ = ["reward_shares_array", "fairness_coefficient"]


def reward_shares_array(
    reputations: np.ndarray,
    contribs: np.ndarray,
    punish_mode: str = "contribution",
) -> np.ndarray:
    """Eq. 15 over aligned reputation/contribution vectors.

    Rewards are ``I_i = R_i * C_i / sum_{C_j>0} C_j``.

    Punishments (negative ``C_i``) are ambiguous in the paper: applied
    literally, Eq. 15 multiplies the negative share by the attacker's
    reputation, so a persistent attacker whose reputation has decayed to 0
    escapes punishment entirely — contradicting Figures 13-14, where
    punishment magnitude tracks attack intensity. Two modes:

    * ``"contribution"`` (default, matches the figures) — punishment is
      the worker's negative contribution normalized by the round's *total
      absolute* contribution, independent of reputation. This keeps each
      punishment bounded by the round budget (Eq. 15's ``ΣC⁺``
      denominator can be arbitrarily small, which would make a single
      round's punishment unbounded) while preserving the ordering by
      attack severity.
    * ``"eq15"`` — the literal formula, reputation-scaled both ways and
      ``ΣC⁺``-normalized.
    """
    reputations = np.asarray(reputations, dtype=np.float64)
    contribs = np.asarray(contribs, dtype=np.float64)
    if reputations.shape != contribs.shape or reputations.ndim != 1:
        raise ValueError("reputations and contribs must be aligned vectors")
    if punish_mode not in ("contribution", "eq15"):
        raise ValueError(f"unknown punish_mode {punish_mode!r}")
    shares = normalized_shares_array(contribs)
    out = reputations * shares
    if punish_mode == "contribution":
        negative = shares < 0.0
        if negative.any():
            abs_total = np.abs(contribs).sum()
            out[negative] = (
                contribs[negative] / abs_total if abs_total > 0 else 0.0
            )
    return out


def fairness_coefficient(x: np.ndarray, y: np.ndarray) -> float:
    """Eq. 16: Pearson correlation between utilities and rewards.

    Ranges over [-1, 1]; 1 means perfectly fair (rewards ordered and
    scaled with utility). Degenerate inputs (either vector constant) have
    no defined correlation; we return 0.0 for them rather than raising, as
    a constant reward vector is neither fair nor unfair.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be 1-D vectors of equal length")
    if x.size < 2:
        raise ValueError("need at least two workers for a fairness score")
    sx = x.std()
    sy = y.std()
    if sx == 0.0 or sy == 0.0:
        return 0.0
    return float(((x - x.mean()) * (y - y.mean())).mean() / (sx * sy))
