"""Extension experiment: communication load across FL architectures.

S3.2 motivates the polycentric architecture by communication scalability:
one central server carries all N gradient uploads and N downloads per
round, while M polycentric servers each carry a 1/M slice of that and a
fully decentralized mesh spreads the load evenly. This experiment trains
the same federation under each architecture and measures real bytes per
node from the network substrate's accounting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..fl import FederatedTrainer
from ..nn import build_logreg
from ..population import WorkerPopulation
from .common import DriverConfig, FedExpConfig, build_federation

__all__ = ["ArchCommConfig", "default_config", "run", "format_rows"]


@dataclass(frozen=True)
class ArchCommConfig(DriverConfig):
    num_workers: int = 8
    rounds: int = 5
    seed: int = 0


def default_config() -> ArchCommConfig:
    return ArchCommConfig()


def run(cfg: ArchCommConfig | None = None, **overrides) -> dict:
    """Per-node communication load per architecture.

    Returns per-architecture: total bytes, max node load (the
    bottleneck), and the load vector.
    """
    cfg = (cfg if cfg is not None else default_config()).scaled(**overrides)
    num_workers, rounds, seed = cfg.num_workers, cfg.rounds, cfg.seed
    if num_workers < 4:
        raise ValueError("need at least 4 workers for three architectures")
    architectures = {
        "centralized (M=1)": [0],
        f"polycentric (M={num_workers // 2})": list(range(0, num_workers, 2)),
        f"decentralized (M={num_workers})": list(range(num_workers)),
    }
    fed = FedExpConfig(
        dataset="blobs",
        num_workers=num_workers,
        samples_per_worker=60,
        test_samples=60,
        rounds=rounds,
        eval_every=rounds,
        seed=seed,
    )
    out: dict[str, dict] = {}
    for name, ranks in architectures.items():
        model, workers, test = build_federation(fed)
        trainer = FederatedTrainer(
            model, WorkerPopulation.from_workers(workers), ranks, test_data=test,
            server_lr=fed.server_lr, seed=seed,
        )
        history = trainer.run(rounds, eval_every=rounds)
        load = trainer.node_comm_load()
        out[name] = {
            "total_bytes": trainer.network.total_bytes(),
            "max_node_load": max(load.values()),
            "mean_node_load": float(np.mean(list(load.values()))),
            "load": load,
            "final_acc": history.final_accuracy(),
        }
    return out


def format_rows(result: dict) -> list[str]:
    rows = ["Communication load by architecture (bytes over the whole run)"]
    rows.append(
        f"{'architecture':>22} {'total':>12} {'max node':>12} {'mean node':>12} {'acc':>6}"
    )
    for name, r in result.items():
        rows.append(
            f"{name:>22} {r['total_bytes']:>12,} {r['max_node_load']:>12,} "
            f"{r['mean_node_load']:>12,.0f} {r['final_acc']:>6.3f}"
        )
    return rows


def main() -> None:  # pragma: no cover
    for row in format_rows(run()):
        print(row)


if __name__ == "__main__":  # pragma: no cover
    main()
