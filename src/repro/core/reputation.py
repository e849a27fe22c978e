"""Reputation state: subjective logic with time decay (paper S4.2).

One array-backed table holds every worker's reputation, one row per
distinct worker id seen (never one per id of the id space). A row holds
the time-decayed reputation of Eq. 10, ``R <- (1-γ)R + γ r``, whose fixed
point is the worker's honesty probability (Theorem 1); a tracked flag;
and the period counts of positive, negative and uncertain events that
the classic subjective-logic model combines by Eq. 8-9 (Beta evidence,
under Jøsang's opinion ↔ Beta mapping), kept only with ``slm_alphas``.

Uncertain events (lost uploads) do not move the decayed reputation, but
they are counted so SLM's ``Su`` mass stays faithful. The literal
per-worker Eq. 8-10 is the oracle in ``tests/core/reference.py``; the
table applies the same IEEE operations, so the two agree bit for bit.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

__all__ = ["DecayReputation", "theorem1_fixed_point"]


def _opinion(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eq. 8: ``(St, Sn, Su)`` per row of ``(positive, negative, uncertain)``
    counts; a row without events is ``(0, 0, 0)``."""
    pt, pn, pu = counts.T
    total, evidence = pt + pn + pu, pt + pn
    su = np.divide(pu, total, out=np.zeros(len(total)), where=total > 0)
    st = np.divide((1.0 - su) * pt, evidence, out=np.zeros(len(total)), where=evidence > 0)
    sn = np.divide((1.0 - su) * pn, evidence, out=np.zeros(len(total)), where=evidence > 0)
    return st, sn, su


class DecayReputation:
    """Every worker's reputation as one table: Eq. 10, plus Eq. 8-9 counts.

    ``γ`` controls sensitivity to the latest event; the paper initializes
    ``R(0) = 0`` (Fig. 11). ``slm_alphas = (a_t, a_n, a_u)`` turns on the
    period counts and weights trust, distrust and uncertainty in
    ``R = a_t*St - a_n*Sn - a_u*Su`` (Eq. 9).
    """

    def __init__(
        self,
        gamma: float = 0.1,
        initial: float = 0.0,
        slm_alphas: tuple[float, float, float] | None = None,
    ):
        if not 0.0 < gamma < 1.0:
            raise ValueError(f"gamma must be in (0, 1), got {gamma}")
        self.gamma, self.initial, self.slm_alphas = gamma, initial, slm_alphas
        self._row: dict[int, int] = {}  # worker id -> row, rows in id-seen order
        self._value = np.zeros(0)
        self._tracked = np.zeros(0, bool)
        self._counts = np.zeros((0, 3), np.int64)  # positive, negative, uncertain

    def _rows(self, ids: list[int]) -> np.ndarray:
        """Row per id, appending rows (at ``initial``) for unseen ids."""
        row = self._row
        new = [w for w in ids if w not in row]
        if new:
            k = len(new)
            row.update(zip(new, range(len(row), len(row) + k)))
            self._value = np.append(self._value, np.full(k, self.initial))
            self._tracked = np.append(self._tracked, np.zeros(k, bool))
            self._counts = np.concatenate([self._counts, np.zeros((k, 3), np.int64)])
        return np.fromiter(map(row.__getitem__, ids), np.intp, len(ids))

    def update_all(
        self, ids: Sequence[int] | np.ndarray, outcomes: Sequence | np.ndarray
    ) -> np.ndarray:
        """Fold one round's events into the table; the round's reputations.

        ``ids`` are distinct; ``outcomes[k]`` is worker ``ids[k]``'s event:
        true (positive), false (negative), or ``None``/NaN (uncertain).
        Returns, aligned with ``ids``, the Eq. 10 values — or with
        ``slm_alphas``, the Eq. 9 period reputations.
        """
        ids = ids.tolist() if isinstance(ids, np.ndarray) else list(ids)
        rows = self._rows(ids)
        outcome = np.asarray(outcomes, dtype=np.float64)
        certain = ~np.isnan(outcome)
        moved, g = rows[certain], self.gamma
        self._value[moved] = (1.0 - g) * self._value[moved] + g * outcome[certain]
        self._tracked[moved] = True
        if self.slm_alphas is None:
            return self._value[rows]
        # column 0 positive, 1 negative, 2 uncertain (rows are distinct)
        self._counts[rows, np.where(certain, 1.0 - outcome, 2.0).astype(np.intp)] += 1
        return self._eq9(self._counts[rows])

    def update(self, worker: int, outcome: bool | None) -> float:
        """One worker's event: :meth:`update_all` for a cohort of one."""
        return float(self.update_all([worker], [outcome])[0])

    def _eq9(self, counts: np.ndarray) -> np.ndarray:
        a_t, a_n, a_u = self.slm_alphas
        st, sn, su = _opinion(counts)
        return a_t * st - a_n * sn - a_u * su

    def reset_period(self) -> None:
        """Start a new SLM assessment period (clear the event counts)."""
        self._counts[:] = 0

    def counts(self, worker: int) -> tuple[int, int, int]:
        """The period's ``(positive, negative, uncertain)`` event counts."""
        row = self._row.get(worker)
        return (0, 0, 0) if row is None else tuple(self._counts[row].tolist())

    def trust_scores(self, worker: int) -> tuple[float, float, float]:
        """Eq. 8: ``(St, Sn, Su)`` for the period."""
        return tuple(float(s[0]) for s in _opinion(np.array([self.counts(worker)])))

    def slm_reputation(self, worker: int) -> float:
        """Eq. 9: the period reputation (needs ``slm_alphas``)."""
        return float(self._eq9(np.array([self.counts(worker)]))[0])

    def reputation(self, worker: int) -> float:
        """Current decayed reputation (``initial`` if never updated)."""
        row = self._row.get(worker)
        return self.initial if row is None else float(self._value[row])

    def tracked(self) -> tuple[np.ndarray, np.ndarray]:
        """Ids (ascending) and decayed reputations of the tracked workers."""
        ids = np.fromiter(self._row, np.int64, len(self._row))[self._tracked]
        order = np.argsort(ids, kind="stable")
        return ids[order], self._value[self._tracked][order]

    def reputations(self) -> dict[int, float]:
        """Snapshot of all tracked workers, in ascending id order."""
        ids, values = self.tracked()
        return dict(zip(ids.tolist(), values.tolist()))


def theorem1_fixed_point(p_evil: float) -> float:
    """Theorem 1: with constant attack probability ``p`` the expected
    reputation converges to the honesty probability ``1 - p``."""
    if not 0.0 <= p_evil <= 1.0:
        raise ValueError("p_evil must be in [0, 1]")
    return 1.0 - p_evil
