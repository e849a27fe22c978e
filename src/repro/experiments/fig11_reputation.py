"""Figure 11: reputation tracks workers' attack probabilities.

Four probabilistic attackers with p_a in {0.2, 0.4, 0.6, 0.8} train
alongside honest workers; each attacker's reputation trajectory should
fluctuate around its trustworthiness 1 - p_a (Theorem 1) without
converging to a constant (it stays sensitive to recent events).
"""

from __future__ import annotations

import numpy as np

from .common import FedExpConfig, probabilistic, run_federated

__all__ = ["run", "format_rows"]

PAPER_ATTACK_PROBS = (0.2, 0.4, 0.6, 0.8)


def default_config() -> FedExpConfig:
    return FedExpConfig(
        dataset="blobs",
        num_workers=8,
        samples_per_worker=120,
        test_samples=150,
        rounds=60,
        eval_every=60,
        gamma=0.2,
        server_ranks=(0, 1),
    )


def run(
    cfg: FedExpConfig | None = None,
    attack_probs: tuple[float, ...] = PAPER_ATTACK_PROBS,
    p_s: float = 4.0,
) -> dict:
    """Reputation trajectories of probabilistic attackers."""
    cfg = cfg if cfg is not None else default_config()
    if len(attack_probs) + 2 > cfg.num_workers:
        raise ValueError("not enough worker slots for the attackers")
    # attackers occupy the tail ids so servers (0,1) stay honest
    ids = list(range(cfg.num_workers - len(attack_probs), cfg.num_workers))
    attackers = {i: probabilistic(p_a, p_s) for i, p_a in zip(ids, attack_probs)}
    _, mech = run_federated(cfg, attackers, with_fifl=True)
    assert mech is not None
    trajectories = {
        p_a: [rec.reputations[i] for rec in mech.records if i in rec.reputations]
        for i, p_a in zip(ids, attack_probs)
    }
    tail = max(5, cfg.rounds // 3)
    tail_means = {
        p_a: float(np.mean(traj[-tail:])) for p_a, traj in trajectories.items()
    }
    return {
        "trajectories": trajectories,
        "tail_means": tail_means,
        "expected": {p_a: 1.0 - p_a for p_a in attack_probs},
    }


def format_rows(result: dict) -> list[str]:
    rows = ["Fig 11: reputation vs attack probability p_a"]
    for p_a, mean in result["tail_means"].items():
        rows.append(
            f"  p_a={p_a:.1f}  tail-mean reputation={mean:.3f}"
            f"  expected (1-p_a)={result['expected'][p_a]:.1f}"
        )
    return rows


def main() -> None:  # pragma: no cover
    for row in format_rows(run()):
        print(row)


if __name__ == "__main__":  # pragma: no cover
    main()
