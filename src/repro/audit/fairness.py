"""Fairness drill-down over decision lineage: who earned what, and why.

The per-round ``reward_gini`` / ``share_entropy`` gauges (emitted by the
mechanism) measure each round in isolation; sustained unfairness shows
in the *cumulative* reward split. This module folds a decision lineage
into:

* cumulative-reward concentration (Gini + normalized share entropy over
  per-worker totals, punishments clipped to zero as in the per-round
  gauges);
* a per-worker attribution table (rounds, flagged/uncertain counts,
  final reputation, reward totals);
* attacker-vs-honest group breakdowns when attacker ids are known;
* participation cohorts — workers grouped by how many rounds they were
  actually sampled into, which in population mode is the cohort-
  membership axis of the fairness claim (a worker sampled rarely cannot
  earn much regardless of quality).

:func:`cumulative_gini` is the single scalar the monitor's
``fairness-drift`` rule consumes online.
"""

from __future__ import annotations

import numpy as np

from ..metrics.fairness import reward_fairness
from .records import Decision

__all__ = ["cumulative_gini", "cumulative_fairness", "fairness_report"]


def cumulative_gini(cumulative_rewards: dict[int, float]) -> float:
    """Gini of the positive cumulative-reward split (0 = equal)."""
    return cumulative_fairness(cumulative_rewards)[0]


def cumulative_fairness(
    cumulative_rewards: dict[int, float],
) -> tuple[float, float]:
    """``(gini, share_entropy)`` over clipped per-worker totals.

    Values are folded in ascending worker order so the result is a pure
    function of the mapping's *content*, independent of insertion order
    (live int keys and replayed traces agree bitwise).
    """
    n = len(cumulative_rewards)
    vec = np.fromiter(
        (cumulative_rewards[w] for w in sorted(cumulative_rewards)),
        np.float64,
        n,
    )
    return reward_fairness(np.maximum(vec, 0.0), validate=False)


def _group_stats(rows: list[dict]) -> dict:
    n = len(rows)
    reward_total = float(sum(r["cumulative_reward"] for r in rows))
    return {
        "workers": n,
        "reward_total": reward_total,
        "reward_mean": reward_total / n if n else None,
        "reputation_mean": (
            float(sum(r["final_reputation"] for r in rows)) / n if n else None
        ),
        "flagged_rounds": int(sum(r["flagged"] for r in rows)),
        "uncertain_rounds": int(sum(r["uncertain"] for r in rows)),
    }


def fairness_report(
    decisions: list[Decision],
    *,
    attackers: set[int] | None = None,
    cohorts: dict[int, dict] | None = None,
) -> dict:
    """Full drill-down: overall, per-worker, per-group, per-cohort.

    ``attackers`` enables the attacker-vs-honest split; ``cohorts`` is
    the ``{round: population.cohort data}`` map from a population-mode
    trace (see :func:`repro.audit.reconstruct.cohort_samples`).
    """
    per_worker: dict[int, dict] = {}
    round_ids: set[int] = set()
    for d in decisions:
        round_ids.add(d.round)
        row = per_worker.get(d.worker)
        if row is None:
            row = per_worker[d.worker] = {
                "worker": d.worker,
                "rounds": 0,
                "accepted": 0,
                "flagged": 0,
                "uncertain": 0,
                "final_reputation": 0.0,
                "cumulative_reward": 0.0,
            }
        row["rounds"] += 1
        if d.uncertain:
            row["uncertain"] += 1
        elif d.accepted is True:
            row["accepted"] += 1
        elif d.accepted is False:
            row["flagged"] += 1
        row["final_reputation"] = d.reputation
        row["cumulative_reward"] = d.cumulative_reward

    totals = {w: per_worker[w]["cumulative_reward"] for w in per_worker}
    gini, entropy = cumulative_fairness(totals)
    report: dict = {
        "rounds": len(round_ids),
        "workers": len(per_worker),
        "cumulative": {"reward_gini": gini, "share_entropy": entropy},
        "per_worker": [per_worker[w] for w in sorted(per_worker)],
    }

    if attackers is not None:
        attacker_rows = [per_worker[w] for w in sorted(per_worker) if w in attackers]
        honest_rows = [per_worker[w] for w in sorted(per_worker) if w not in attackers]
        groups = {
            "attacker": _group_stats(attacker_rows),
            "honest": _group_stats(honest_rows),
        }
        att, hon = groups["attacker"], groups["honest"]
        if att["reward_mean"] is not None and hon["reward_mean"] not in (None, 0.0):
            # the fairness headline: how starved attackers are relative
            # to honest workers on mean cumulative reward
            groups["attacker_reward_ratio"] = att["reward_mean"] / hon["reward_mean"]
        report["groups"] = groups

    if cohorts:
        # [None]: no decisions yet (a trace cut before its first round)
        participation = sorted(
            r["rounds"] for r in report["per_worker"]
        ) or [None]
        coverages = [
            float(cohorts[t]["coverage"])
            for t in sorted(cohorts)
            if "coverage" in cohorts[t]
        ]
        report["cohorts"] = {
            "sampled_rounds": len(cohorts),
            "population_size": max(
                int(c.get("population_size", 0)) for c in cohorts.values()
            ),
            "coverage_final": coverages[-1] if coverages else None,
            "participation_min": participation[0],
            "participation_median": participation[len(participation) // 2],
            "participation_max": participation[-1],
        }
    return report
