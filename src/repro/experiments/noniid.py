"""Extension experiment: detection under non-iid data (S4.1's premise).

The paper's detection module assumes "the attacker's gradient deviation
[is] much greater than the deviation caused by non-iid data". This
experiment quantifies that premise: federations with increasingly skewed
Dirichlet label distributions (smaller α = more skew) train under FIFL
detection, with and without attackers, and we measure

* the honest false-rejection rate (how often non-iid deviation alone
  trips the detector), and
* the attacker rejection rate (whether attacks still stand out).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core import make_mechanism
from ..datasets import dirichlet_partition, make_blobs, train_test_split
from ..fl import FederatedTrainer, HonestWorker, SignFlippingWorker
from ..metrics import aggregate_confusion, confusion
from ..nn import build_logreg
from ..population import WorkerPopulation
from .common import DriverConfig

__all__ = ["NonIIDConfig", "default_config", "run", "format_rows"]

_N_FEATURES, _N_CLASSES = 16, 4


@dataclass(frozen=True)
class NonIIDConfig(DriverConfig):
    alphas: tuple[float, ...] = (100.0, 1.0, 0.3, 0.1)
    num_workers: int = 8
    attacker_ids: tuple[int, ...] = (6, 7)
    p_s: float = 4.0
    rounds: int = 15
    threshold: float = 0.0
    seed: int = 0


def default_config() -> NonIIDConfig:
    return NonIIDConfig()


def run(cfg: NonIIDConfig | None = None, **overrides) -> dict:
    """Detection quality per Dirichlet skew level."""
    cfg = (cfg if cfg is not None else default_config()).scaled(**overrides)
    alphas, num_workers, attacker_ids = cfg.alphas, cfg.num_workers, cfg.attacker_ids
    p_s, rounds, threshold, seed = cfg.p_s, cfg.rounds, cfg.threshold, cfg.seed
    if not alphas:
        raise ValueError("need at least one alpha")
    out: dict[float, dict[str, float]] = {}
    for alpha in alphas:
        data = make_blobs(
            n_samples=1800, n_features=_N_FEATURES, num_classes=_N_CLASSES, seed=seed
        )
        train, test = train_test_split(data, 0.2, seed=seed)
        shards = dirichlet_partition(train, num_workers, alpha=alpha, seed=seed)
        model_fn = lambda: build_logreg(_N_FEATURES, _N_CLASSES, seed=seed)
        workers = []
        for i in range(num_workers):
            if i in attacker_ids:
                workers.append(
                    SignFlippingWorker(i, shards[i], model_fn, lr=0.1, p_s=p_s,
                                       seed=seed + 100 + i)
                )
            else:
                workers.append(
                    HonestWorker(i, shards[i], model_fn, lr=0.1, seed=seed + 100 + i)
                )
        mech = make_mechanism("fifl", threshold=threshold, gamma=0.3)
        trainer = FederatedTrainer(
            model_fn(), WorkerPopulation.from_workers(workers), [0, 1], test_data=test,
            mechanism=mech, server_lr=0.1, seed=seed,
        )
        history = trainer.run(rounds, eval_every=rounds)
        truth = {i: (i not in attacker_ids) for i in range(num_workers)}
        counts = aggregate_confusion(
            [confusion(rec.accepted, truth) for rec in mech.records]
        )
        out[alpha] = {
            "honest_false_reject": 1.0 - counts.tp_rate,
            "attacker_reject": counts.tn_rate,
            "final_acc": history.final_accuracy(),
        }
    return {"by_alpha": out, "threshold": threshold}


def format_rows(result: dict) -> list[str]:
    rows = [
        f"Detection under non-iid data (Dirichlet skew; S_y={result['threshold']})"
    ]
    rows.append(
        f"{'alpha':>8} {'honest false-reject':>20} {'attacker reject':>16} {'acc':>6}"
    )
    for alpha, r in result["by_alpha"].items():
        rows.append(
            f"{alpha:>8.2f} {r['honest_false_reject']:>20.3f} "
            f"{r['attacker_reject']:>16.3f} {r['final_acc']:>6.3f}"
        )
    return rows


def main() -> None:  # pragma: no cover
    for row in format_rows(run()):
        print(row)


if __name__ == "__main__":  # pragma: no cover
    main()
